// The online synchronization engine: the reduction of external clock
// synchronization to the Accumulated Graph Distance Problem (Section 3.1)
// plus the AGDP algorithm itself (Section 3.2).
//
// The engine consumes the event records of one processor's local view in a
// causally consistent order (its own events as they occur, plus the batches
// produced by the history protocol) and maintains:
//
//  * the live points of the view (Definition 3.1, with the Section 3.3
//    extension for loss declarations), and
//  * a complete weighted digraph over the live points whose edge weights
//    are exactly the synchronization-graph distances (Lemma 3.4), stored in
//    an IncrementalApsp.
//
// Each ingested event inserts one node with at most four incident edges
// (two to the processor-predecessor, two to the matching send), costing
// O(L^2) by Lemma 3.5; nodes that stop being live are dropped (a
// predecessor that dies with the record hands its slot to it).  Queries
// read distances to/from the latest known source point, giving the optimal
// bounds of Theorem 2.1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/interval.h"
#include "core/bounds.h"
#include "core/event.h"
#include "core/spec.h"
#include "graph/incremental_apsp.h"

namespace driftsync {

/// What SyncEngine::ingest made of a record.  Every verdict but kApplied
/// means the record is unusable input and the engine is exactly as it was.
enum class IngestVerdict : std::uint8_t {
  kApplied,
  kSequenceGap,       ///< Not the successor of its processor's last event.
  kOutOfRange,        ///< Processor, peer or match outside the spec.
  kClockBackwards,    ///< Local time below its processor-predecessor's.
  kBadSlack,          ///< Negative, non-finite, or on a non-receive.
  kUnmatchedReceive,  ///< The match is not a live pending send.
  kNoLink,            ///< A receive over a link the spec does not have.
  kBadLossDecl,       ///< Does not name a live send of its own processor.
  kNegativeCycle,     ///< Inconsistent with the spec, given the view.
};

/// One line naming the verdict, for error messages.
[[nodiscard]] const char* describe(IngestVerdict verdict);

class SyncEngine {
 public:
  struct Options {
    /// ABLATION ONLY: keep dead nodes in the distance structure instead of
    /// dropping them.  Results stay correct (dead nodes never improve a
    /// distance between live ones — Lemma 3.4) but the node set, and hence
    /// the per-insert O(L^2) cost, grows with the whole execution: this is
    /// exactly what the paper's garbage collection buys (bench
    /// exp_ablation_gc).
    bool keep_dead_nodes = false;
  };

  SyncEngine(const SystemSpec& spec, ProcId self, Options opts);
  SyncEngine(const SystemSpec& spec, ProcId self)
      : SyncEngine(spec, self, Options()) {}

  /// Feeds one event record.  Records must arrive in a causally consistent
  /// order and, per processor, in sequence order with no gaps.  A record
  /// the engine cannot apply is refused with a verdict, before anything is
  /// written: a refusal leaves the engine unchanged.  Callers feeding
  /// trusted records (their own events, the simulator's) DS_CHECK it.
  [[nodiscard]] IngestVerdict ingest(const EventRecord& record);

  /// Optimal estimate of the current source time, queried when this
  /// processor's clock reads `now` (>= local time of the last ingested own
  /// event).  Returns Interval::everything() until a source event is known.
  [[nodiscard]] Interval estimate(LocalTime now) const;

  /// Theorem 2.1 bounds on RT(p) - RT(q) for two currently live points.
  [[nodiscard]] Interval rt_difference_bounds(EventId p, EventId q) const;

  /// Internal-synchronization-style query: bounds on processor w's current
  /// clock reading, evaluated when this processor's clock reads `now`.
  /// Composes (Theorem 2.1 bounds between the two last events) with both
  /// clocks' drift envelopes; returns everything() until w has a known
  /// event.  For w == source this reduces to estimate().
  [[nodiscard]] Interval peer_clock_estimate(ProcId w, LocalTime now) const;

  /// Synchronization-graph distance between two live points (Lemma 3.4
  /// guarantees this equals the distance in the full view's graph).
  [[nodiscard]] double distance(EventId from, EventId to) const;

  [[nodiscard]] bool is_live(EventId id) const {
    return find(id) != nullptr;
  }

  /// The retained record of a live point, or nullptr once it left the live
  /// set.  Cross-path validation uses this to compare an incoming report
  /// against what the view already holds for the same event id
  /// (equivocation detection) without exposing the live map itself.
  [[nodiscard]] const EventRecord* live_record(EventId id) const {
    const LiveNode* node = find(id);
    return node == nullptr ? nullptr : &node->rec;
  }

  /// True while `id` is a live own/foreign send whose fate is open: no
  /// matching receive ingested and no loss declaration.  Used by runtime
  /// transports to decide whether a timed-out message may still be declared
  /// lost (Section 3.3) or must be treated as delivered.
  [[nodiscard]] bool send_pending(EventId id) const {
    const LiveNode* node = find(id);
    return node != nullptr && pending_send(*node);
  }
  /// Live points in canonical (EventId) order.
  [[nodiscard]] std::vector<EventId> live_points() const;
  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  [[nodiscard]] std::size_t max_live_count() const { return max_live_; }
  [[nodiscard]] std::size_t matrix_bytes() const {
    return apsp_.matrix_bytes();
  }
  /// Total pair-relaxation attempts in the distance structure (CsaStats).
  [[nodiscard]] std::uint64_t apsp_relaxations() const {
    return apsp_.relaxations();
  }

  /// Last known event of a processor (invalid EventId when none).
  [[nodiscard]] EventId last_event_of(ProcId p) const {
    return tail_[p] == kNoEntry ? kInvalidEvent : pool_[tail_[p]].rec.id;
  }

  /// True once at least one source event has been ingested.
  [[nodiscard]] bool knows_source() const {
    return tail_[spec_->source()] != kNoEntry;
  }

  /// Checkpointing: appends the engine state (live records with flags, the
  /// live-to-live distance matrix, per-processor frontiers) to `out`;
  /// load() restores it into a freshly constructed instance bound to the
  /// same spec/processor.  Distances are restored exactly (they are saved,
  /// not recomputed).
  ///
  /// A checkpoint image is untrusted input: load() fully parses and
  /// cross-validates it (canonical record order, in-range processors,
  /// frontier consistency, finite distances, bounded allocations) before
  /// touching any engine state, and throws driftsync::CheckpointError on
  /// rejection — a failed load leaves the engine exactly as it was.
  ///
  /// saved_size() is the number of bytes save() appends, so a caller can
  /// reserve the whole image up front.  save() writes the image through a
  /// work buffer of the engine's, so two saves of one engine must not run
  /// at once.
  void save(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] std::size_t saved_size() const;
  void load(std::span<const std::uint8_t> bytes, std::size_t& offset);

  /// Resident bytes of the insert scratch and save()'s slot list.  Not
  /// protocol state, so not part of matrix_bytes().
  [[nodiscard]] std::size_t scratch_bytes() const {
    return apsp_.scratch_bytes() +
           save_slots_.capacity() * sizeof(std::uint32_t);
  }
  /// Resident bytes of the live records: one entry per matrix slot and a
  /// list head and tail per processor.  Not part of matrix_bytes().
  [[nodiscard]] std::size_t live_bytes() const {
    return pool_.capacity() * sizeof(LiveNode) +
           (head_.capacity() + tail_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

  struct LiveNode {
    EventRecord rec;
    graph::IncrementalApsp::Handle handle = graph::IncrementalApsp::kNoHandle;
    bool recv_seen = false;  ///< For sends: matching receive ingested.
    bool lost = false;       ///< For sends: loss declaration ingested.
    /// The next entry of its processor's list, or of the free chain.
    std::uint32_t next = kNoEntry;
  };

  [[nodiscard]] static bool pending_send(const LiveNode& node) {
    return node.rec.kind == EventKind::kSend && !node.recv_seen && !node.lost;
  }

  /// A live node's pool entry and the entry before it in its processor's
  /// list (kNoEntry: it is the head); `at` is kNoEntry if not live.
  struct Found {
    std::uint32_t at = kNoEntry;
    std::uint32_t before = kNoEntry;
  };
  [[nodiscard]] Found locate(EventId id) const;
  /// The live node `id`, or nullptr.
  [[nodiscard]] const LiveNode* find(EventId id) const {
    const Found f = locate(id);
    return f.at == kNoEntry ? nullptr : &pool_[f.at];
  }
  [[nodiscard]] const LiveNode& live_at(EventId id) const;
  [[nodiscard]] Interval rt_difference_bounds(const LiveNode& p,
                                              const LiveNode& q) const;
  /// Processor p's last event, which is always live (Definition 3.1).
  [[nodiscard]] const LiveNode& last_of(ProcId p) const {
    return pool_[tail_[p]];
  }

  /// Removes the node `f` locates if it is no longer live per
  /// Definition 3.1.
  void drop_if_dead(const Found& f);
  /// Appends a node, the newest of its processor, at its list's back.
  void push_live(const LiveNode& node);
  /// Calls f on every live node in canonical (EventId) order.
  template <typename F>
  void for_each_live(F&& f) const {
    for (std::uint32_t i : head_) {
      for (; i != kNoEntry; i = pool_[i].next) f(pool_[i]);
    }
  }

  /// Size of the live records' batch image (count, then each record in
  /// canonical order).
  [[nodiscard]] std::size_t live_records_size() const;
  /// Processor p's frontier as saved: its last seq + 1, 0 when none.
  [[nodiscard]] std::uint64_t frontier_code(ProcId p) const;

  const SystemSpec* spec_;
  ProcId self_;
  Options opts_;
  graph::IncrementalApsp apsp_;
  /// The live nodes: per processor, its last event plus its pending sends
  /// (every ingested event in the keep_dead_nodes ablation), linked in seq
  /// order from head_ to tail_; the other entries are chained from free_.
  /// A processor's tail is its last event.  Each live node holds a matrix
  /// slot, so the pool has one entry per slot: it and a rollback shadow's
  /// copy allocate only when the matrix grows, however the live set is
  /// split among processors.
  std::vector<LiveNode> pool_;
  std::vector<std::uint32_t> head_;  ///< Per processor; kNoEntry if none.
  std::vector<std::uint32_t> tail_;  ///< Per processor; kNoEntry if none.
  std::uint32_t free_ = kNoEntry;
  std::size_t live_count_ = 0;
  std::size_t max_live_ = 0;
  /// save()'s work space: the live nodes' matrix slots in canonical order.
  /// Sized with the pool, so save() allocates nothing.
  mutable std::vector<std::uint32_t> save_slots_;
};

}  // namespace driftsync
