#include "core/optimal_csa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/errors.h"
#include "core/wire.h"

namespace driftsync {

namespace {

/// Tolerance of observation_feasible() (seconds): an observation is
/// declared infeasible only when it lies beyond the spec-derived envelope
/// by more than this slack.  Generous — the screen exists to catch insane
/// clocks (steps of seconds, grossly wrong rates), and a false positive
/// quarantines a sane peer.
constexpr double kFeasibilitySlack = 5e-3;

/// Tolerance of the kSuspect band (seconds).  Deliberately tighter than
/// kFeasibilitySlack: an observation may be feasible per the generous
/// single-edge envelope yet diverge from the tightest indirect (cross-path)
/// bound by more than the drift the spec allows — that is the signature of
/// a plausible lie, and it only ever *renounces* (the defense never
/// fabricates constraints), so a rare false positive costs one
/// observation, not containment.
constexpr double kSuspicionSlack = 1e-3;

}  // namespace

void OptimalCsa::init(const SystemSpec& spec, ProcId self) {
  spec_ = &spec;
  self_ = self;
  HistoryProtocol::Options hopts;
  hopts.audit = opts_.audit_reports;
  hopts.loss_tolerant = opts_.loss_tolerant;
  history_.emplace(spec, self, hopts);
  SyncEngine::Options eopts;
  eopts.keep_dead_nodes = opts_.ablate_keep_dead_nodes;
  engine_.emplace(spec, self, eopts);
  engine_undo_.emplace(spec, self, eopts);
}

void OptimalCsa::ingest_trusted(const EventRecord& event) {
  const IngestVerdict verdict = engine_->ingest(event);
  DS_CHECK_MSG(verdict == IngestVerdict::kApplied, describe(verdict));
}

bool OptimalCsa::within_edge_envelope(ProcId from, LocalTime send_lt,
                                      LocalTime now, double slack) const {
  const LinkSpec* link = spec_->link_between(self_, from);
  if (link == nullptr) return false;
  // Bounds on `from`'s current clock reading, derived from the view (its
  // own past observations plus every constraint connecting the two
  // timelines).  everything() means "no usable knowledge yet": with nothing
  // to contradict, any observation is feasible.
  const Interval peer_now = engine_->peer_clock_estimate(from, now);
  const ClockSpec& peer_clock = spec_->clock(from);
  // The message was stamped at or before its arrival — except on virtual
  // reference links (negative lower transit bound), where a reading may
  // legitimately lie up to |min| real seconds "ahead".
  const double ahead = std::max(0.0, -link->min_from(from));
  if (std::isfinite(peer_now.hi) &&
      send_lt > peer_now.hi + ahead * peer_clock.max_rate() + slack) {
    return false;
  }
  // ... and at most max-transit real seconds before it, during which the
  // peer's clock advanced at most u * (1 + rho).
  const double u = link->max_from(from);
  if (std::isfinite(peer_now.lo) && u != kNoBound &&
      send_lt < peer_now.lo - std::max(0.0, u) * peer_clock.max_rate() -
                    slack) {
    return false;
  }
  return true;
}

bool OptimalCsa::observation_feasible(ProcId from, LocalTime send_lt,
                                      LocalTime now) const {
  DS_CHECK(engine_ && spec_);
  if (from >= spec_->num_procs()) return false;
  return within_edge_envelope(from, send_lt, now, kFeasibilitySlack);
}

ObservationScreen OptimalCsa::screen_message(ProcId from, LocalTime send_lt,
                                             LocalTime now,
                                             const CsaPayload& payload) const {
  DS_CHECK(history_ && engine_ && spec_);
  ObservationScreen s;
  if (!observation_feasible(from, send_lt, now)) {
    s.verdict = ObservationVerdict::kInfeasible;
    s.reason = "infeasible under the single-edge envelope";
    return s;
  }
  // Processor ids index per-processor state everywhere downstream, so they
  // are screened with or without cross-validation.
  const std::size_t n = spec_->num_procs();
  for (const EventRecord& r : payload.reports) {
    if (!procs_in_range(r, n)) {
      s.verdict = ObservationVerdict::kInfeasible;
      s.reason = "report names a processor outside the spec";
      return s;
    }
  }
  if (!opts_.cross_validation) return s;
  // Cross-path band: the fused peer_clock_estimate already folds in every
  // indirect path through the sync graph (the APSP distances), so the same
  // envelope re-evaluated with the tighter suspicion slack detects a direct
  // claim diverging from what the redundant paths support — a lie still
  // inside the generous single-edge budget.
  if (!within_edge_envelope(from, send_lt, now, kSuspicionSlack)) {
    s.verdict = ObservationVerdict::kSuspect;
    s.reason = "direct bound contradicts tightest cross-path bound";
    return s;
  }
  // Payload screen: every report is checked against what the view already
  // knows BEFORE any of it is merged, so a forged batch is renounced with a
  // reason and a culprit; the ingest transaction stays the final authority.
  // screen_floor_[p] is the newest clock reading p has claimed (NaN until
  // p's first fresh report seeds it from the view).
  screen_floor_.assign(n, std::numeric_limits<double>::quiet_NaN());
  for (const EventRecord& r : payload.reports) {
    const ProcId p = r.id.proc;
    const auto seq = static_cast<std::int64_t>(r.id.seq);
    if (seq <= history_->known_seq(p)) {
      // The history layer drops already-known records as duplicates, so
      // this copy can never corrupt the view — but a *different* retelling
      // of a known event is equivocation evidence against its owner.
      if (const EventRecord* have = engine_->live_record(r.id)) {
        const bool conflicts = std::fabs(have->lt - r.lt) > 1e-9 ||
                               std::fabs(have->slack - r.slack) > 1e-9 ||
                               have->kind != r.kind || have->peer != r.peer ||
                               !(have->match == r.match);
        if (conflicts) {
          if (s.implicated == kInvalidProc) s.implicated = p;
          if (p == from) {
            // The sender contradicts its own earlier claims outright.
            s.verdict = ObservationVerdict::kSuspect;
            s.reason = "equivocation on the sender's own events";
            return s;
          }
          s.reason = "relayed equivocation";  // Honest carrier; keep kOk.
        }
      }
      continue;
    }
    if (p == self_) {
      // No conforming execution reports an event of ours we never minted.
      s.verdict = ObservationVerdict::kInfeasible;
      s.reason = "forged event attributed to this processor";
      return s;
    }
    LocalTime& floor = screen_floor_[p];
    if (std::isnan(floor)) {
      floor = -std::numeric_limits<double>::infinity();
      const EventId last = engine_->last_event_of(p);
      if (last.valid()) {
        if (const EventRecord* lr = engine_->live_record(last)) {
          floor = lr->lt;
        }
      }
    }
    if (r.lt < floor - 1e-9) {
      // The inconsistency is internal to p's OWN claims (this fresh report
      // against p's newest live record or an earlier report in the same
      // batch); a relay forwards them faithfully, so when p is not the
      // sender the evidence implicates p, not the carrier.  An equivocator
      // that told its neighbors diverging stories about events minted
      // close together lands exactly here once both versions meet.
      s.verdict = ObservationVerdict::kInfeasible;
      s.reason = "processor clock runs backwards across reports";
      if (p != from && s.implicated == kInvalidProc) s.implicated = p;
      return s;
    }
    floor = std::max(floor, r.lt);
    // A reported event is in the causal past of this arrival, so its
    // claimed clock reading cannot exceed the owner's fused current-clock
    // upper bound (which only shrinks as more paths are learned — a stale
    // bound errs in the safe direction).
    const Interval owner_now = engine_->peer_clock_estimate(p, now);
    if (std::isfinite(owner_now.hi) &&
        r.lt > owner_now.hi + kFeasibilitySlack) {
      // As above: the claim is the owner's, whoever carries it.
      s.verdict = ObservationVerdict::kSuspect;
      s.reason = "report ahead of every cross-path bound";
      if (p != from && s.implicated == kInvalidProc) s.implicated = p;
      return s;
    }
  }
  return s;
}

CsaPayload OptimalCsa::on_send(const SendContext& ctx) {
  DS_CHECK(history_ && engine_);
  ingest_trusted(ctx.send_event);
  CsaPayload payload;
  payload.reports = history_->fill_message(ctx.dest, ctx.send_event);
  // Account what would actually cross the wire (compact encoding; see
  // core/wire.h), not the in-memory record size.  The count travels with
  // the payload, so the receiving hop does not size the batch again.
  payload.report_bytes = history_->batch_bytes();
  stats_.payload_bytes_sent += payload.report_bytes;
  return payload;
}

void OptimalCsa::on_receive(const RecvContext& ctx,
                            const CsaPayload& payload) {
  // The caller vouched for the message, so a refusal is a bug.
  DS_CHECK_MSG(on_receive_validated(ctx, payload),
               "a trusted message could not be applied");
}

bool OptimalCsa::on_receive_validated(const RecvContext& ctx,
                                      const CsaPayload& payload) {
  DS_CHECK(history_ && engine_);
  // One transaction: merge the reported events (causal order) into H_v,
  // feed the new ones and then our own receive event to the engine, and
  // commit only if every record applied.  screen_message validates what
  // it can cheaply, but a lie within its tolerances, a replay or a peer
  // that lost its disk can still contradict the view; the engine's exact
  // constraint checks are the final authority.  A refused batch leaves no
  // trace but cross_check_failures.
  if (history_->begin_receive(ctx.from, payload.reports) !=
      MergeVerdict::kMerged) {
    ++stats_.cross_check_failures;  // The history refused before any write.
    return false;
  }
  // The engine has no undo of its own: its rollback point is a copy of the
  // live state into a shadow whose buffers keep their capacity, O(L^2)
  // and allocation-free once warm.
  *engine_undo_ = *engine_;
  IngestVerdict verdict = IngestVerdict::kApplied;
  for (const EventRecord& r : history_->fresh()) {
    verdict = engine_->ingest(r);
    if (verdict != IngestVerdict::kApplied) break;
  }
  if (verdict == IngestVerdict::kApplied) {
    verdict = engine_->ingest(ctx.recv_event);
  }
  if (verdict != IngestVerdict::kApplied) {
    history_->rollback_receive();
    std::swap(*engine_, *engine_undo_);
    ++stats_.cross_check_failures;
    return false;
  }
  // The whole batch as it crossed the wire; a refused one counts nothing.
  // A payload no hop has sized (one a caller built) is sized here.
  stats_.payload_bytes_received += payload.report_bytes != 0
                                       ? payload.report_bytes
                                       : wire::encoded_size(payload.reports);
  history_->commit_receive(ctx.recv_event);
  return true;
}

void OptimalCsa::on_internal(const EventRecord& event) {
  DS_CHECK(history_ && engine_);
  if (event.kind == EventKind::kLossDecl && opts_.loss_tolerant) {
    // The lost message's reports never arrived; roll back the optimistic
    // C-advance for that neighbor before recording the declaration.
    history_->handle_loss(event.peer);
  }
  history_->record_own_event(event);
  ingest_trusted(event);
}

void OptimalCsa::on_delivery_confirmed(ProcId dest) {
  DS_CHECK(history_);
  if (opts_.loss_tolerant) history_->confirm_delivery(dest);
}

Interval OptimalCsa::estimate(LocalTime now) const {
  DS_CHECK(engine_);
  return engine_->estimate(now);
}

std::vector<std::uint8_t> OptimalCsa::checkpoint() const {
  DS_CHECK(history_ && engine_);
  // Sized first, so the image is the call's one allocation.
  const std::size_t size = history_->saved_size() + engine_->saved_size() +
                           wire::varint_size(stats_.payload_bytes_sent) +
                           wire::varint_size(stats_.payload_bytes_received);
  std::vector<std::uint8_t> out;
  out.reserve(size);
  history_->save(out);
  engine_->save(out);
  wire::put_varint(out, stats_.payload_bytes_sent);
  wire::put_varint(out, stats_.payload_bytes_received);
  DS_CHECK(out.size() == size);
  return out;
}

void OptimalCsa::restore(std::span<const std::uint8_t> bytes) {
  DS_CHECK_MSG(history_ && engine_, "init() before restore()");
  // Load into copies of the freshly init()-ed components and commit only
  // after the whole image parsed: a rejected checkpoint (CheckpointError)
  // leaves this instance exactly as it was.
  HistoryProtocol history = *history_;
  SyncEngine engine = *engine_;
  CsaStats stats = stats_;
  std::size_t offset = 0;
  history.load(bytes, offset);
  engine.load(bytes, offset);
  try {
    stats.payload_bytes_sent = wire::get_varint(bytes, offset);
    stats.payload_bytes_received = wire::get_varint(bytes, offset);
  } catch (const WireError& e) {
    throw CheckpointError(std::string("bad embedded wire data (") + e.what() +
                          ")");
  }
  if (offset != bytes.size()) throw CheckpointError("trailing bytes");
  *history_ = std::move(history);
  *engine_ = std::move(engine);
  stats_ = stats;
}

CsaStats OptimalCsa::stats() const {
  CsaStats s = stats_;
  if (engine_) {
    s.live_points = engine_->live_count();
    s.max_live_points = engine_->max_live_count();
    s.state_bytes = engine_->matrix_bytes() + engine_->live_bytes();
    s.apsp_relaxations = engine_->apsp_relaxations();
    s.scratch_bytes = engine_->scratch_bytes() +
                      screen_floor_.capacity() * sizeof(LocalTime) +
                      engine_undo_->matrix_bytes() +
                      engine_undo_->live_bytes() +
                      engine_undo_->scratch_bytes();
  }
  if (history_) {
    s.history_events = history_->history_size();
    s.max_history_events = history_->max_history_size();
    s.reports_sent = history_->reports_sent();
    s.state_bytes += history_->state_bytes();
    s.checkpoint_cache_bytes = history_->checkpoint_cache_bytes();
    s.scratch_bytes += history_->scratch_bytes();
    s.gc_passes = history_->gc_passes();
  }
  return s;
}

}  // namespace driftsync
