// The full-information propagation protocol of Figure 2 (Section 3.1).
//
// Guarantees (Lemma 3.1) that at every point p of processor v, all events of
// the local view from p have been reported to v — using, per Lemma 3.2, at
// most one report of each event per link per direction.  The state is the
// history buffer H_v (events some neighbor may not know yet) and, per
// neighbor u, the array C_vu with one entry per processor w: the last event
// of w that v knows u knows.
//
// Implementation notes:
//  * Entries of C are per-processor sequence numbers rather than local
//    times.  Per-processor local time is non-decreasing and the sequence
//    number strictly increasing, so the comparison LT(p) > C_vu[loc(p)] of
//    the paper is equivalent to seq(p) > C_vu[loc(p)] — and exact (no
//    floating-point ties).
//  * H_v is kept in arrival order, which is causally consistent (own events
//    in occurrence order; reported events in the order the sender stored
//    them).  Hence every message batch is causally consistent for its
//    recipient: each record's causal predecessors either precede it in the
//    batch or were already known to the recipient (see DESIGN.md §4).
//  * The garbage-collection keep-rule is: keep p while SOME neighbor u'
//    still has seq(p) > C_vu'[loc(p)].  (The extended abstract's listing
//    prints the complemented predicate, which would discard exactly the
//    events still owed to a neighbor; we implement the rule consistent with
//    Lemmas 3.1-3.3.)
//  * What a message costs does not grow with |H_v| while nothing leaves
//    it.  Beside H_v the protocol keeps, per processor w, how many records
//    of w it holds, the lowest held seq and the position of w's oldest
//    record.  A sweep costs O(V*deg) to work out each held processor's
//    threshold (the minimum confirmed C over the neighbors); when no
//    lowest held seq is at or below its threshold nothing can go and it
//    returns.  Otherwise it compacts H_v from the oldest removable record
//    on, O(|H_v| - that position).  A processor's held records carry
//    consecutive seqs (an append extends known_seq by one, a sweep cuts a
//    prefix, a rollback a suffix), so fill_message sizes its batch from
//    the bounds, allocates it once, and scans H_v only from the oldest
//    record of a processor the recipient may be owed.  The encoded size of
//    each batch sent is counted in the loop that builds it.
//
// Message loss (Section 3.3).  The paper assumes reliable links for the
// protocol and adds a detection mechanism that eventually flags a message
// as lost.  In loss-tolerant mode this class extends the accounting to stay
// sound under loss: C_vu is advanced optimistically at each send, but a
// snapshot of the pre-send state is retained until the detection mechanism
// reports the message's fate.  On a loss report, C_vu rolls back (element-
// wise min — receives from u meanwhile may only be *forgotten*, never
// over-claimed, so safety is preserved at the cost of an occasional
// duplicate report).  Garbage collection only trusts confirmed knowledge,
// so rolled-back events are still in H_v for retransmission.  On the
// receive side, records that are unusable because a predecessor report was
// lost (sequence gap, or unknown matching send) are dropped and counted;
// the rollback guarantees they are reported again later.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "core/spec.h"
#include "core/wire.h"

namespace driftsync {

/// What HistoryProtocol made of a received report batch.  Every verdict
/// but kMerged leaves the protocol exactly as it was.
enum class MergeVerdict : std::uint8_t {
  kMerged,
  kOutOfRange,  ///< A record names a processor outside the spec.
  kOutOfOrder,  ///< A gap or a missing match, without loss_tolerant.
};

class HistoryProtocol {
 public:
  struct Options {
    /// Track every (event, link, direction) report to prove Lemma 3.2 in
    /// tests (memory-heavy; off by default).
    bool audit = false;
    /// Enable the Section 3.3 loss accounting described above.
    bool loss_tolerant = false;
    /// ABLATION ONLY: never garbage-collect H_v.  Messages are unchanged
    /// (the C arrays alone decide what is reported); only the buffer grows
    /// with the whole execution instead of O(K1*D) — isolating what the
    /// Figure-2 GC clause buys (Lemma 3.3).
    bool disable_gc = false;
  };

  HistoryProtocol(const SystemSpec& spec, ProcId self, Options opts);
  HistoryProtocol(const SystemSpec& spec, ProcId self)
      : HistoryProtocol(spec, self, Options()) {}

  /// Records an event that occurred at this processor (send events are
  /// recorded by fill_message; use this for receives, internal events and
  /// loss declarations).
  void record_own_event(const EventRecord& event);

  /// The processor is sending a message to neighbor `dest` whose send event
  /// is `send_event`.  Records the send event, then returns the batch of
  /// all events v does not know `dest` knows (which always includes the
  /// send event itself), updates C_v,dest, and garbage-collects H_v.
  EventBatch fill_message(ProcId dest, const EventRecord& send_event);

  /// A message with report batch `batch` arrived from neighbor `from`.
  /// Merges the records new to this processor into H_v (fresh() lists
  /// them, in causally consistent order), updates C_v,from and
  /// garbage-collects H_v.  (The caller records its own receive event
  /// separately via record_own_event, *after* ingesting fresh().)  A batch
  /// naming a processor outside the spec, or out of order without
  /// loss_tolerant, is refused and leaves the protocol unchanged.
  [[nodiscard]] MergeVerdict receive_message(ProcId from,
                                             const EventBatch& batch);

  /// The same receive as one transaction with the caller's own receive
  /// event.  begin_receive merges like receive_message but defers the
  /// sweep.  After kMerged the caller ends it with exactly one of:
  /// commit_receive, which sweeps H_v and records `recv_event` (the order
  /// receive_message + record_own_event follow), or rollback_receive, which
  /// restores the state before begin_receive.  Any other verdict has
  /// already left the protocol unchanged.  The undo state lives in reused
  /// buffers, so a transaction allocates nothing once they have grown.
  [[nodiscard]] MergeVerdict begin_receive(ProcId from,
                                           const EventBatch& batch);
  void commit_receive(const EventRecord& recv_event);
  void rollback_receive();

  /// The records the merged batch contributed, in merge order: while a
  /// transaction is open, the tail of H_v it appended (valid until the
  /// transaction ends); after receive_message, a copy.  Empty after
  /// commit_receive or rollback_receive.
  [[nodiscard]] std::span<const EventRecord> fresh() const {
    if (!undo_.open) return fresh_;
    return std::span<const EventRecord>(history_).subspan(undo_.history_size);
  }

  /// wire::encoded_size of the last batch fill_message returned, counted
  /// while the batch was built.  A merged batch is not sized here: the
  /// sender's count travels with it (CsaPayload::report_bytes).
  [[nodiscard]] std::size_t batch_bytes() const { return sizer_.size(); }

  /// Loss-tolerant mode: the detection mechanism reports that the earliest
  /// outstanding message to `dest` was delivered / was lost.
  void confirm_delivery(ProcId dest);
  void handle_loss(ProcId dest);

  /// Current number of events buffered in H_v.
  [[nodiscard]] std::size_t history_size() const { return history_.size(); }
  /// H_v itself, in arrival order.
  [[nodiscard]] std::span<const EventRecord> buffer() const {
    return history_;
  }
  [[nodiscard]] std::size_t max_history_size() const {
    return max_history_size_;
  }

  /// Highest sequence number of `proc`'s events known to this processor
  /// (-1 when none).
  [[nodiscard]] std::int64_t known_seq(ProcId proc) const {
    return known_seq_[proc];
  }

  /// C_v,neighbor[proc]; -1 when no event of proc is known-known.
  [[nodiscard]] std::int64_t c_entry(ProcId neighbor, ProcId proc) const;

  /// Total event records attached to outgoing messages.
  [[nodiscard]] std::size_t reports_sent() const { return reports_sent_; }
  /// Records received that this processor already knew.  These occur
  /// legitimately when two neighbors independently report the same event
  /// (diamond topologies); Lemma 3.2 only rules out repeats on the *same*
  /// link and direction — that is what audit_repeat_reports() checks.
  [[nodiscard]] std::size_t duplicate_reports_received() const {
    return duplicate_reports_received_;
  }
  /// With audit: number of (event, link, direction) pairs reported more
  /// than once — Lemma 3.2 asserts this is 0 on loss-free links.
  [[nodiscard]] std::size_t audit_repeat_reports() const {
    return audit_repeat_reports_;
  }
  /// Loss-tolerant mode: records dropped because a predecessor was lost.
  [[nodiscard]] std::size_t gap_dropped() const { return gap_dropped_; }
  /// GC sweeps performed: one after every send, merged receive and
  /// delivery confirmation (none with disable_gc), whether or not they
  /// removed anything.
  [[nodiscard]] std::size_t gc_passes() const { return gc_passes_; }

  /// Checks the per-processor bounds kept beside H_v against a full scan
  /// of it: each processor's count, lowest seq and oldest position.
  /// Returns an empty string when they agree, else what is wrong.  O(|H_v|
  /// + V); for tests.
  [[nodiscard]] std::string audit() const;

  /// Approximate resident bytes (H_v + C arrays), for EXP-10.
  [[nodiscard]] std::size_t state_bytes() const;
  /// Resident bytes of the encoded-H_v cache save() keeps (0 until the
  /// first save).  Not protocol state, so not part of state_bytes().
  [[nodiscard]] std::size_t checkpoint_cache_bytes() const {
    return history_image_.memory_bytes();
  }
  /// Resident bytes of the receive and sweep buffers (receive_message's
  /// copy of fresh(), the undo state, the per-processor bounds and the
  /// sweep's and the batch sizer's tables).  Not protocol state either.
  [[nodiscard]] std::size_t scratch_bytes() const;

  /// Checkpointing: appends the full protocol state (buffer, C arrays,
  /// pending snapshots, counters) to `out`; load() restores it into a
  /// freshly constructed instance bound to the same spec/processor/options
  /// (audit mode cannot be checkpointed).  The format reuses the wire
  /// primitives; load() treats the image as untrusted input, throws
  /// driftsync::CheckpointError on malformed or inconsistent bytes, and
  /// leaves the instance unmodified when it throws.
  ///
  /// save() encodes each H_v record once: it keeps the encoding of the
  /// buffer between calls and re-encodes only the records appended since,
  /// or moved by GC removals (see garbage_collect).  The image is the same
  /// as a full re-encode.  That cache makes save() a writer, so it must not
  /// run concurrently with any other call on the same instance.
  ///
  /// saved_size() is the number of bytes save() appends, so a caller can
  /// reserve the whole image up front.  It brings the cache up to date
  /// too, so the same rule applies to it.
  void save(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] std::size_t saved_size() const;
  void load(std::span<const std::uint8_t> bytes, std::size_t& offset);

 private:
  struct NeighborState {
    ProcId id = kInvalidProc;
    std::vector<std::int64_t> c;  // per processor, -1 initially
    // Loss-tolerant mode: element-wise min of the pre-send C snapshots of
    // all messages whose fate is still unknown.
    std::vector<std::int64_t> pending_min;
    std::size_t n_pending = 0;
    std::unordered_map<std::uint64_t, char> reported;  // audit only
  };

  /// What H_v holds of one processor (count 0: nothing; `oldest` and
  /// `low_seq` are then stale).
  struct Held {
    std::size_t count = 0;
    std::size_t oldest = 0;    ///< Position of its first record in H_v.
    std::int64_t low_seq = 0;  ///< Its lowest held seq.
  };

  NeighborState& neighbor_state(ProcId u);
  /// Appends `p` to H_v and counts it in its processor's bounds.
  void hold(const EventRecord& p);
  /// Every processor's bounds, from a scan of `history`.
  static std::vector<Held> scan_held(std::span<const EventRecord> history,
                                     std::size_t num_procs);
  /// Encodes the records appended since the last save into the cache.
  void update_image() const;
  void garbage_collect();
  /// Knowledge of neighbor `ns` that GC may trust (confirmed only).
  [[nodiscard]] std::int64_t confirmed_c(const NeighborState& ns,
                                         ProcId proc) const;

  const SystemSpec* spec_;
  ProcId self_ = kInvalidProc;
  Options opts_;
  std::vector<EventRecord> history_;            // arrival order
  std::vector<Held> held_;                      // per processor
  std::vector<std::int64_t> known_seq_;         // per processor
  std::vector<NeighborState> neighbors_;
  std::size_t max_history_size_ = 0;
  std::size_t reports_sent_ = 0;
  std::size_t duplicate_reports_received_ = 0;
  std::size_t audit_repeat_reports_ = 0;
  std::size_t gap_dropped_ = 0;
  std::size_t gc_passes_ = 0;
  /// The sweep's scratch: per held processor, the highest seq every
  /// neighbor confirmably knows.
  std::vector<std::int64_t> gc_known_to_all_;
  /// Sizes the batch fill_message builds.
  wire::BatchSizer sizer_;
  /// Encoding of history_[0, history_image_.size()) as save() writes it.
  mutable wire::IncrementalBatch history_image_;

  /// receive_message's copy of the records it merged.
  EventBatch fresh_;
  // The open receive: what rollback_receive restores.  H_v's merged suffix
  // starts at undo_.history_size; the two arrays are swapped back, not
  // copied.
  struct ReceiveUndo {
    bool open = false;
    std::size_t from = 0;  ///< Index of the sender in neighbors_.
    std::size_t history_size = 0;
    std::size_t max_history_size = 0;
    std::size_t duplicate_reports_received = 0;
    std::size_t gap_dropped = 0;
    std::vector<std::int64_t> known_seq;
    std::vector<std::int64_t> c_from;
  };
  ReceiveUndo undo_;
};

}  // namespace driftsync
