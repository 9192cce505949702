// The passive clock-synchronization-algorithm (CSA) interface, Section 2.2.
//
// Per the paper's model, a CSA is a layer between the send module (the
// application that decides when messages are sent) and the network.  It
// never initiates traffic; it only fills a payload into outgoing messages,
// reads payloads of incoming messages, and answers estimate queries.  This
// makes different algorithms directly comparable: the simulator can attach
// several CSAs to the same execution and they all observe the identical
// communication pattern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/errors.h"
#include "common/interval.h"
#include "core/event.h"
#include "core/spec.h"

namespace driftsync {

/// What a CSA may attach to a message.  `reports` is used by the
/// view-propagating algorithms (event records); `scalars` by the classic
/// baselines (timestamps, offsets, error bounds).
struct CsaPayload {
  EventBatch reports;
  std::vector<double> scalars;
  /// wire::encoded_size(reports) where a hop has counted it already (the
  /// sender's batch sizer, or the image decode_payload read), so the
  /// receiver need not size the batch again; 0 when nobody has (a batch
  /// image is never empty: its record count takes a byte).  Not content:
  /// payloads compare by their reports and scalars.
  std::size_t report_bytes = 0;

  [[nodiscard]] std::size_t approx_bytes() const {
    return reports.size() * kEventRecordWireBytes +
           scalars.size() * sizeof(double);
  }

  friend bool operator==(const CsaPayload& a, const CsaPayload& b) {
    return a.reports == b.reports && a.scalars == b.scalars;
  }
};

/// Context handed to a CSA when its processor sends a message.  The send
/// event record (including its local time) is already assigned.
struct SendContext {
  ProcId self = kInvalidProc;
  ProcId dest = kInvalidProc;
  EventRecord send_event;
  /// Application message tag (protocols like NTP key their payload off the
  /// request/response kind; the tag models that shared convention).
  std::uint32_t app_tag = 0;
};

/// Context handed to a CSA when its processor receives a message.  The
/// matching send event record travels in the message header, so its local
/// time at the sender is always available (this is the minimum any real
/// protocol stack timestamps).
struct RecvContext {
  ProcId self = kInvalidProc;
  ProcId from = kInvalidProc;
  EventRecord recv_event;
  EventRecord send_event;
  std::uint32_t app_tag = 0;  ///< See SendContext::app_tag.
};

/// Instrumentation counters shared by all CSAs (zeros when not applicable).
/// These feed the complexity experiments (EXP-3, EXP-4, EXP-5, EXP-10).
struct CsaStats {
  std::size_t live_points = 0;       ///< Current |live set| (Def. 3.1).
  std::size_t max_live_points = 0;   ///< High-water mark of the above.
  std::size_t history_events = 0;    ///< Current |H_v| (Fig. 2 buffer).
  std::size_t max_history_events = 0;
  std::size_t payload_bytes_sent = 0;
  std::size_t payload_bytes_received = 0;
  std::size_t reports_sent = 0;      ///< Event records attached, total.
  std::size_t state_bytes = 0;       ///< Approximate resident state size.
  /// Resident bytes of caches kept only to make checkpoint() cheap (the
  /// encoded history buffer); not in state_bytes, which is protocol state.
  std::size_t checkpoint_cache_bytes = 0;
  /// Resident bytes of buffers kept only so receive transactions, the
  /// message screen and checkpoint() allocate nothing; not in state_bytes
  /// either.
  std::size_t scratch_bytes = 0;
  /// Pair-relaxation attempts in the AGDP distance structure (the O(L^2)
  /// inner loops of Lemma 3.5) — the algorithm's dominant per-message work.
  std::uint64_t apsp_relaxations = 0;
  /// History-buffer GC sweeps performed (HistoryProtocol::gc_passes).
  std::uint64_t gc_passes = 0;
  /// Dynamic-membership hook invocations (on_peer_join / on_peer_leave);
  /// zero for statically meshed hosts.
  std::uint64_t peer_joins = 0;
  std::uint64_t peer_leaves = 0;
  /// Messages on_receive_validated refused (the batch turned out
  /// inconsistent with the view mid-merge) and rolled back; zero for CSAs
  /// that apply every message.
  std::uint64_t cross_check_failures = 0;
};

/// Verdict of the runtime ingestion screen (screen_message).
enum class ObservationVerdict : std::uint8_t {
  kOk = 0,  ///< Consistent with the view; safe to ingest.
  /// Feasible on its own edge, but contradicting the tightest cross-path
  /// bound by more than the accumulated drift slack — a plausible lie.
  /// The host renounces it and raises suspicion.
  kSuspect = 1,
  /// No spec-conforming execution could have produced it; renounce.
  kInfeasible = 2,
};

/// Result of screening one inbound message (header + payload) before
/// ingestion.  `implicated` names a peer whose *relayed* records conflicted
/// with the view (equivocation evidence) — it may differ from the message's
/// sender when an honest neighbor forwards a liar's reports, in which case
/// the message itself can still be kOk.
struct ObservationScreen {
  ObservationVerdict verdict = ObservationVerdict::kOk;
  ProcId implicated = kInvalidProc;
  const char* reason = nullptr;  ///< Static string for traces/logs.
};

class Csa {
 public:
  virtual ~Csa() = default;

  /// Binds the CSA to its processor.  Called once before any event.
  virtual void init(const SystemSpec& spec, ProcId self) = 0;

  /// The processor is about to send a message; returns the payload to
  /// attach.  The CSA must treat `ctx.send_event` as the newest event of its
  /// own processor.
  virtual CsaPayload on_send(const SendContext& ctx) = 0;

  /// A message (with the given payload) arrived.
  virtual void on_receive(const RecvContext& ctx,
                          const CsaPayload& payload) = 0;

  /// An internal event occurred at this processor (includes loss
  /// declarations, Section 3.3).  Default: ignore.
  virtual void on_internal(const EventRecord& event) { (void)event; }

  /// The loss-detection mechanism (Section 3.3) reports that the earliest
  /// outstanding message to `dest` was delivered.  (Loss of a message is
  /// reported as a kLossDecl event via on_internal instead.)  Default:
  /// ignore.
  virtual void on_delivery_confirmed(ProcId dest) { (void)dest; }

  /// Periodic housekeeping tick.  A hosting driver (the simulator's probe
  /// loop or a runtime Node's poll loop) calls this at its own cadence with
  /// the current local clock reading; CSAs that need time-driven work
  /// override it.  Default: ignore.
  virtual void on_tick(LocalTime now) { (void)now; }

  /// Dynamic-membership hooks (runtime join/leave, DESIGN.md decision 19).
  /// A hosting runtime calls these when `peer` is admitted to / retired
  /// from its active membership.  Knowledge already ingested about the peer
  /// stays valid — the paper's view is monotone, and Lemma 3.4 keeps the
  /// distance structure sound as dead points drop out — so the defaults
  /// ignore membership; CSAs keeping per-peer bookkeeping outside the view
  /// override them.
  virtual void on_peer_join(ProcId peer) { (void)peer; }
  virtual void on_peer_leave(ProcId peer) { (void)peer; }

  /// Internal-synchronization query: bounds on neighbor w's current local
  /// clock reading when this processor's clock reads `now` — the per-edge
  /// *gradient* quantity of dynamic-network clock sync (Kuhn–Lenzen–
  /// Locher–Oshman).  Must not mutate state.  Unbounded by default: a CSA
  /// without a fused view cannot bound a neighbor's clock.
  [[nodiscard]] virtual Interval peer_clock_estimate(ProcId w,
                                                     LocalTime now) const {
    (void)w;
    (void)now;
    return Interval::everything();
  }

  /// Section 3.3 support for real transports (driftsync_runtime): false
  /// once this CSA knows the message sent at `send_id` (an own send event)
  /// was received — i.e. its matching receive is already in the view.  A
  /// transport whose loss detection times out uses this to decide between a
  /// loss declaration and a (late) delivery confirmation.  Stateless CSAs
  /// keep the default.
  [[nodiscard]] virtual bool send_unmatched(EventId send_id) const {
    (void)send_id;
    return true;
  }

  /// Spec-violation screen (runtime quarantine support).  A message from
  /// neighbor `from`, stamped `send_lt` at the sender and arriving while
  /// this processor's clock reads `now`, is *infeasible* when no execution
  /// satisfying the real-time specification could have produced it given
  /// everything already in the view — i.e. ingesting it would make the
  /// synchronization graph's constraint system inconsistent (a negative
  /// cycle).  The paper assumes the spec always holds; a real deployment
  /// cannot: a peer with an insane clock emits exactly such observations,
  /// and ingesting them silently poisons every estimate derived from the
  /// view.  A hosting runtime calls this BEFORE on_receive and, on false,
  /// renounces the message instead of processing it (see runtime/node.h's
  /// quarantine state machine).  Must not mutate state.  The default —
  /// everything is feasible — keeps baselines and the simulator unchanged.
  [[nodiscard]] virtual bool observation_feasible(ProcId from,
                                                  LocalTime send_lt,
                                                  LocalTime now) const {
    (void)from;
    (void)send_lt;
    (void)now;
    return true;
  }

  /// Byzantine-defense screen: the full-message generalization of
  /// observation_feasible.  Inspects the header timestamp AND the payload
  /// (per-record monotonicity, cross-path bounds, equivocation against the
  /// retained view) and returns a graded verdict instead of a boolean, so a
  /// host can distinguish "insane clock" from "plausible lie" and attribute
  /// equivocation to the record's owner rather than the (possibly honest)
  /// relay.  Must not mutate state.  The default delegates to
  /// observation_feasible and ignores the payload, keeping baselines and
  /// the simulator unchanged.
  [[nodiscard]] virtual ObservationScreen screen_message(
      ProcId from, LocalTime send_lt, LocalTime now,
      const CsaPayload& payload) const {
    (void)payload;
    ObservationScreen s;
    if (!observation_feasible(from, send_lt, now)) {
      s.verdict = ObservationVerdict::kInfeasible;
      s.reason = "infeasible";
    }
    return s;
  }

  /// Transactional variant of on_receive for hosts that must survive
  /// adversarial payloads: returns false when the message was NOT applied
  /// because ingestion would have made the view inconsistent (the CSA rolls
  /// its state back to exactly the pre-call state).  A host receiving false
  /// must treat the message as renounced — including un-minting
  /// `ctx.recv_event` if it has not been externalized.  The default applies
  /// on_receive unconditionally and reports success.
  [[nodiscard]] virtual bool on_receive_validated(const RecvContext& ctx,
                                                  const CsaPayload& payload) {
    on_receive(ctx, payload);
    return true;
  }

  /// Restart persistence.  checkpoint() returns a byte image a hosting
  /// runtime can persist; an EMPTY image means "this CSA does not support
  /// checkpointing" and the host must not persist anything.  restore()
  /// loads such an image into a freshly init()-ed instance and throws
  /// driftsync::CheckpointError on malformed or inconsistent bytes, leaving
  /// the instance unchanged (the image is untrusted input).
  [[nodiscard]] virtual std::vector<std::uint8_t> checkpoint() const {
    return {};
  }
  virtual void restore(std::span<const std::uint8_t> bytes) {
    (void)bytes;
    throw CheckpointError(std::string(name()) +
                          " does not support checkpoint restore");
  }

  /// The external-synchronization output (Section 2.1): an interval that is
  /// guaranteed to contain the source clock's current value, queried when
  /// this processor's local clock reads `now` (now >= the local time of the
  /// last event seen).  Must not mutate state.
  [[nodiscard]] virtual Interval estimate(LocalTime now) const = 0;

  [[nodiscard]] virtual CsaStats stats() const { return {}; }

  /// Short human-readable algorithm name (for harness tables).
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Factory: workloads construct one CSA instance per processor.
using CsaFactory = std::function<std::unique_ptr<Csa>()>;

}  // namespace driftsync
