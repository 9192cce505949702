// Events ("points") of an execution, Section 2.
//
// Every message send and receive is an event.  We additionally allow
// internal events (e.g. user-visible queries) and loss-declaration events
// (Section 3.3: the detection mechanism that flags a message as lost is
// modeled as an event at the sender referencing the lost send).
//
// An EventRecord is exactly the information about an event that is part of
// a *view*: location, local time and the graph structure (which send a
// receive matches).  Real times of occurrence are deliberately absent —
// they exist only in the simulator's ground-truth trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/time_types.h"

namespace driftsync {

enum class EventKind : std::uint8_t {
  kSend,      ///< A message send; `peer` is the destination processor.
  kReceive,   ///< A message receive; `peer` is the sender, `match` its send.
  kInternal,  ///< A local event with no message attached.
  kLossDecl,  ///< Declares the message sent at `match` (same processor) lost.
};

struct EventRecord {
  EventId id;
  LocalTime lt = 0.0;
  EventKind kind = EventKind::kInternal;
  ProcId peer = kInvalidProc;  ///< Other endpoint for send/receive events.
  EventId match;               ///< Matching send for kReceive / kLossDecl.
  /// kReceive only: local seconds between the datagram's *arrival* clock
  /// reading and this record's reading.  A real node processes a datagram
  /// some time after the wire delivers it (handler queueing, lock waits),
  /// and that gap is charged to the record's local time — without this
  /// field the transit upper bound would silently absorb processing delay,
  /// and an honest mesh under load becomes "infeasible" (a negative cycle)
  /// the moment queueing exceeds the spec's wire budget.  The view widens
  /// the receive→send transit edge by this amount, mapped through the
  /// receiver's drift envelope; it travels with the record so relays stay
  /// sound.  Always >= 0; exactly 0.0 for every other event kind.
  double slack = 0.0;

  friend bool operator==(const EventRecord&, const EventRecord&) = default;
};

/// True when every processor id `r` carries is below `num_procs`: its own,
/// its peer (send, receive) and its match (receive, loss declaration).
/// Each of them indexes per-processor state once the record is merged.
inline bool procs_in_range(const EventRecord& r, std::size_t num_procs) {
  const bool has_peer =
      r.kind == EventKind::kSend || r.kind == EventKind::kReceive;
  const bool has_match =
      r.kind == EventKind::kReceive || r.kind == EventKind::kLossDecl;
  return r.id.proc < num_procs && (!has_peer || r.peer < num_procs) &&
         (!has_match || r.match.proc < num_procs);
}

/// Serialized size we charge for one event record when accounting message
/// overhead (proc + seq + lt + kind + peer + match ≈ 24 bytes packed).
inline constexpr std::size_t kEventRecordWireBytes = 24;

/// A batch of event records in a causally consistent order: every record's
/// predecessors (previous event at the same processor, and the matching send
/// of a receive) appear earlier in the batch or are already known to the
/// recipient.  The history protocol produces batches with this property
/// (see history.h).
using EventBatch = std::vector<EventRecord>;

}  // namespace driftsync
