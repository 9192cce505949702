// Causal event tracing (DESIGN.md §8).
//
// The unit of debugging in driftsync is the causal path of one message:
// codec → transport → feasibility screen → CSA → externalized estimate.
// The Tracer is a fixed-capacity ring buffer of typed events, each stamped
// with a 64-bit *trace id* minted at send time and propagated through the
// wire format, so the same logical message can be followed across every
// node and transport hop that touched it.
//
// The ring has one writer: the runtime records from one thread (a daemon
// is one thread, a Mesh runs on its Hub's), so record() writes the next
// slot with plain stores and snapshot() copies plain slots.  Sharing one
// Tracer across threads needs a lock around every call.  Readers are rare
// (metrics queries, violation dumps), a record is a clock read and a
// struct store, and a full buffer silently overwrites the oldest events —
// tracing must never apply backpressure to the protocol it observes.
//
// The disabled path is one bool test; NodeConfig carries a nullable
// Tracer* so an untraced node pays one pointer test per hook.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"

namespace driftsync {

/// Event taxonomy (DESIGN.md §8).  Stable order: the values appear in
/// serialized traces and golden test files.
enum class TraceEventKind : std::uint8_t {
  kSend = 0,             ///< Observation datagram left a node.
  kDeliver = 1,          ///< Observation accepted and applied to the CSA.
  kDrop = 2,             ///< Lost: transport drop, fault, or loss declared.
  kRenounce = 3,         ///< Failed the feasibility screen; not applied.
  kQuarantineEnter = 4,  ///< Peer crossed the infeasible streak threshold.
  kQuarantineExit = 5,   ///< Peer readmitted after a feasible streak.
  kSkipCommit = 6,       ///< Skip durably committed (fate resolved: lost).
  kCheckpoint = 7,       ///< State persisted (value = bytes written).
  kExternalize = 8,      ///< Estimate handed to a caller (value = width).
  kClientReq = 9,        ///< Serving tier: client request arrived.
  kClientResp = 10,      ///< Serving tier: response sent (value = width).
  kSuspect = 11,         ///< Suspicion raised on a peer (value = score).
  kCrossCheckFail = 12,  ///< Cross-path validation rejected a payload.
};

/// Stable lowercase name for serialization ("send", "deliver", ...).
const char* trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
  double t = 0.0;            ///< Seconds on the tracer's clock.
  std::uint64_t trace_id = 0;  ///< 0 = event not tied to one message.
  ProcId node = kInvalidProc;  ///< Node the event occurred at.
  ProcId peer = kInvalidProc;  ///< Counterparty, if any.
  TraceEventKind kind = TraceEventKind::kSend;
  double value = 0.0;        ///< Kind-specific scalar (width, bytes, ...).
};

/// Mints the trace id for the dgram_seq-th observation from `from` to `to`.
/// Deterministic on purpose: a node restarting from a checkpoint re-mints
/// the same id for the same (sender, receiver, sequence) triple, so trace
/// continuity survives crash-recovery without persisting any extra state.
/// Never returns 0 (0 is the wire sentinel for "untraced").
inline std::uint64_t mint_trace_id(ProcId from, ProcId to,
                                   std::uint64_t dgram_seq) {
  return ((static_cast<std::uint64_t>(from) + 1) << 48) |
         (((static_cast<std::uint64_t>(to) + 1) & 0xffffULL) << 32) |
         (dgram_seq & 0xffffffffULL);
}

class Tracer {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).  The clock
  /// defaults to process-wide monotonic seconds; tests inject a counter so
  /// exported traces are byte-stable.
  explicit Tracer(std::size_t capacity = 4096,
                  std::function<double()> clock = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends one event, overwriting the oldest once the ring is full.
  /// No-op while disabled.
  void record(TraceEventKind kind, std::uint64_t trace_id, ProcId node,
              ProcId peer, double value = 0.0);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Events recorded since construction (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }
  /// Events lost to ring wraparound so far.
  [[nodiscard]] std::uint64_t dropped() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Copies the currently-live events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// The last up-to-k events recorded at `node`, oldest first (for
  /// violation dumps: "what did this peer just do").
  [[nodiscard]] std::vector<TraceEvent> last_for(ProcId node,
                                                 std::size_t k) const;

 private:
  std::size_t capacity_;  ///< Power of two.
  std::unique_ptr<TraceEvent[]> slots_;
  std::function<double()> clock_;
  /// Events recorded so far; the next one goes to slot head_ % capacity_.
  std::uint64_t head_ = 0;
  bool enabled_ = true;
};

/// Renders events as a Chrome trace-event / Perfetto-loadable JSON document
/// ({"traceEvents":[...]}).  Each event becomes an instant event: ts in
/// microseconds, pid = node, tid = peer, and the trace id as a hex string
/// argument (JSON numbers cannot carry 64 bits faithfully).  Byte-stable
/// for identical input — the determinism tests diff the raw strings.
std::string trace_to_chrome_json(const std::vector<TraceEvent>& events);

/// Writes `tracer`'s snapshot to `path` as trace_to_chrome_json renders it;
/// false on an I/O failure, with errno set.
bool write_chrome_trace(const Tracer& tracer, const std::string& path);

}  // namespace driftsync
