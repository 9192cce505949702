// The paper's main result assembled as a passive CSA (Theorem 3.6): the
// full-information history protocol of Figure 2 feeds the local view, in
// causal order, into the AGDP-based SyncEngine.  Space O(L^2 + K1*D), time
// O(L^2) per message, message payload O(K1*D + delta*|V|) — measured by the
// EXP-3/4/5/10 benches.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/csa.h"
#include "core/history.h"
#include "core/sync_engine.h"

namespace driftsync {

class OptimalCsa : public Csa {
 public:
  struct Options {
    bool audit_reports = false;  ///< Lemma 3.2 audit (tests only).
    bool loss_tolerant = false;  ///< Section 3.3 accounting.
    /// ABLATION ONLY: disable AGDP dead-node garbage collection (see
    /// SyncEngine::Options::keep_dead_nodes).
    bool ablate_keep_dead_nodes = false;
    /// Byzantine defense, screen only: screen_message adds the cross-path
    /// suspicion band and the payload screen to the single-edge envelope.
    /// Off by default so the simulator and the micro-bench baselines keep
    /// the historical single-edge screen.  on_receive_validated refuses and
    /// rolls back an inconsistent payload whatever this says.
    bool cross_validation = false;
  };

  OptimalCsa() = default;
  explicit OptimalCsa(Options opts) : opts_(opts) {}

  void init(const SystemSpec& spec, ProcId self) override;
  CsaPayload on_send(const SendContext& ctx) override;
  void on_receive(const RecvContext& ctx, const CsaPayload& payload) override;
  void on_internal(const EventRecord& event) override;
  [[nodiscard]] bool observation_feasible(ProcId from, LocalTime send_lt,
                                          LocalTime now) const override;
  [[nodiscard]] ObservationScreen screen_message(
      ProcId from, LocalTime send_lt, LocalTime now,
      const CsaPayload& payload) const override;
  [[nodiscard]] bool on_receive_validated(const RecvContext& ctx,
                                          const CsaPayload& payload) override;
  [[nodiscard]] Interval estimate(LocalTime now) const override;
  [[nodiscard]] CsaStats stats() const override;
  [[nodiscard]] const char* name() const override { return "optimal"; }

  /// Loss-tolerant mode plumbing (called by the simulator's detection
  /// mechanism; see sim/simulator.h).
  void on_delivery_confirmed(ProcId dest) override;

  /// Runtime loss-detection support: false once the matching receive of the
  /// own send at `send_id` is in the view (the send is no longer pending).
  [[nodiscard]] bool send_unmatched(EventId send_id) const override {
    DS_CHECK(engine_.has_value());
    return engine_->send_pending(send_id);
  }

  /// Internal-synchronization-style query: bounds on processor w's current
  /// clock reading (see SyncEngine::peer_clock_estimate).
  [[nodiscard]] Interval peer_clock_estimate(ProcId w,
                                             LocalTime now) const override {
    DS_CHECK(engine_.has_value());
    return engine_->peer_clock_estimate(w, now);
  }

  /// Membership hooks: the view itself is membership-agnostic (knowledge is
  /// monotone; AGDP node insert/remove is driven by event ingestion and the
  /// loss/GC path), so these only count — the counters let hosts and tests
  /// confirm churn actually reached the CSA layer.
  void on_peer_join(ProcId peer) override {
    (void)peer;
    ++stats_.peer_joins;
  }
  void on_peer_leave(ProcId peer) override {
    (void)peer;
    ++stats_.peer_leaves;
  }

  /// Checkpoint/restore: a node can persist its synchronization state
  /// across restarts (the local clock keeps running, so the estimate simply
  /// resumes extrapolating from the last pre-restart event).  `restore`
  /// must be called on a freshly init()-ed instance with the same options,
  /// spec and processor.  The image is untrusted input: restore() throws
  /// driftsync::CheckpointError on malformed or inconsistent bytes and in
  /// that case leaves the instance in its pre-call (freshly init()-ed)
  /// state.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const override;
  void restore(std::span<const std::uint8_t> bytes) override;

  /// Direct access for white-box tests and experiments.
  [[nodiscard]] const SyncEngine& engine() const { return *engine_; }
  [[nodiscard]] const HistoryProtocol& history() const { return *history_; }

 private:
  /// Ingests an own or trusted record; a refusal is a bug.
  void ingest_trusted(const EventRecord& event);

  /// The single-edge feasibility envelope check with a caller-chosen slack;
  /// observation_feasible uses kFeasibilitySlack, the kSuspect band of
  /// screen_message re-runs it with the tighter kSuspicionSlack (both in
  /// optimal_csa.cpp).
  [[nodiscard]] bool within_edge_envelope(ProcId from, LocalTime send_lt,
                                          LocalTime now, double slack) const;

  Options opts_;
  const SystemSpec* spec_ = nullptr;  ///< Bound by init(); outlives the CSA's
                                      ///< host (NodeConfig/Scenario own it).
  ProcId self_ = kInvalidProc;
  std::optional<HistoryProtocol> history_;
  std::optional<SyncEngine> engine_;
  /// on_receive_validated's rollback point: the engine as it was before
  /// the receive in progress.
  std::optional<SyncEngine> engine_undo_;
  /// screen_message's per-processor scratch.  Mutable like the history's
  /// image cache: screen_message must not run concurrently with any other
  /// call on the same instance.
  mutable std::vector<LocalTime> screen_floor_;
  CsaStats stats_;
};

}  // namespace driftsync
