// Incremental all-pairs shortest paths over a dynamically changing node set.
//
// This is the computational kernel of the paper's AGDP algorithm (Section
// 3.2).  It maintains a dense distance matrix over the currently "live"
// nodes.  The two update operations mirror the paper exactly:
//
//  * insert_node: a new node arrives together with edges that connect only
//    existing live nodes to it (in either direction).  Distances are updated
//    in O(L^2 + L*deg) time by first computing distances to/from the new
//    node and then relaxing every pair through it — the observation of
//    Ausiello et al. [2] cited in the proof of Lemma 3.5.  Only the rows the
//    new node can shorten are relaxed: row x is skipped when no out-edge
//    head b has d(x,new) + d(new,b) < d(x,b), since then by the triangle
//    inequality no path x -> new -> y beats d(x,y) either.  When the insert
//    also kills a node (`retire`), the new node takes over its slot.
//
//  * remove_node: a node is unmarked live ("dies").  Because the matrix
//    stores *distances* (not the original edges), dead nodes can simply be
//    dropped: Lemma 3.4 shows the distances between the remaining live nodes
//    are preserved.
//
// Storage is dense: the L live nodes occupy matrix slots 0..L-1, so every
// relaxation runs over contiguous row prefixes.  remove_node moves the last
// slot into the hole (one O(L) row and column copy); the matrix grows
// geometrically.  A handle is its node's id, which a removed node frees and
// a retiring insert passes on, under a count of inserts: handles are stable
// across slot moves and never reused.
// Negative edges are fine; a negative *cycle* is reported by insert_*
// returning false, leaving the structure unchanged logically (callers treat
// this as an inconsistent specification).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/time_types.h"

namespace driftsync::graph {

class IncrementalApsp {
 public:
  using Handle = std::uint64_t;
  static constexpr Handle kNoHandle = ~Handle{0};

  struct HalfEdge {
    Handle node = kNoHandle;  ///< The existing endpoint.
    double weight = 0.0;
  };

  IncrementalApsp() = default;
  /// Copies the live L x L block and the live set, and rests the rows and
  /// columns the destination held beyond L at kNoBound: O(L^2) when both
  /// sides have the same capacity, one full matrix copy when they do not.
  /// The insert scratch is not copied.
  IncrementalApsp(const IncrementalApsp& other) { *this = other; }
  IncrementalApsp& operator=(const IncrementalApsp& other);
  IncrementalApsp(IncrementalApsp&&) noexcept = default;
  IncrementalApsp& operator=(IncrementalApsp&&) noexcept = default;

  /// Inserts a node with the given incident edges (in_edges: existing->new,
  /// out_edges: new->existing).  Returns the new node's handle.  Throws if
  /// any referenced handle is not live.  If the insertion would create a
  /// negative cycle, returns kNoHandle and leaves the structure unchanged.
  ///
  /// A live `retire` is dropped in the same step: the edges may still meet
  /// it, and the result equals inserting and then remove_node(retire), but
  /// the new node is written straight into retire's slot, so there is no
  /// slot move and no wipe.  A refused insert leaves `retire` live.
  Handle insert_node(std::span<const HalfEdge> in_edges,
                     std::span<const HalfEdge> out_edges,
                     Handle retire = kNoHandle);
  /// The same, for literal edge lists: insert_node({{a, 1.0}}, {}).
  Handle insert_node(std::initializer_list<HalfEdge> in_edges,
                     std::initializer_list<HalfEdge> out_edges,
                     Handle retire = kNoHandle) {
    return insert_node(std::span(in_edges.begin(), in_edges.size()),
                       std::span(out_edges.begin(), out_edges.size()), retire);
  }

  /// Adds an edge between two live nodes, updating all pairwise distances
  /// (O(L^2)).  Returns false (no change) on a negative cycle.
  bool insert_edge(Handle from, Handle to, double weight);

  /// Rebuilds the structure from a saved dense distance matrix (row-major,
  /// dist[i][j] = shortest path i -> j, kNoBound for unreachable).  Entries
  /// are installed verbatim — no relaxation — so a save/load round trip is
  /// bit-exact even where recomputation would differ in the last ulp.
  /// Row i gets slot i, so live_handles() lists the handles in row order.
  /// Must be called on an empty structure.  Returns false (leaving the
  /// structure empty) if the matrix cannot be an APSP closure: a non-zero
  /// diagonal entry or a negative round trip between any pair.
  bool load_matrix(const std::vector<std::vector<double>>& dist);

  /// Drops a live node.  O(L): the last slot moves into its place.
  void remove_node(Handle h);

  /// Shortest-path distance between live nodes (kNoBound if unreachable).
  [[nodiscard]] double distance(Handle from, Handle to) const {
    DS_CHECK(is_live(from) && is_live(to));
    return at(slot_of(from), slot_of(to));
  }

  [[nodiscard]] bool is_live(Handle h) const { return slot_of(h) != kNoSlot; }

  /// Number of live nodes.
  [[nodiscard]] std::size_t size() const { return handle_of_.size(); }
  /// Live nodes the matrix holds before it next grows.  Every table here,
  /// and a copy's, is sized with it: nothing allocates until it grows.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Currently live handles, indexed by slot (unordered).
  [[nodiscard]] const std::vector<Handle>& live_handles() const {
    return handle_of_;
  }

  /// Bytes of distance-matrix storage currently held (for the space
  /// experiments; O(L^2) per Lemma 3.5).
  [[nodiscard]] std::size_t matrix_bytes() const {
    return matrix_.capacity() * sizeof(double);
  }

  /// Bytes of per-insert work space (the new node's row and column).  Not
  /// structure state: copies leave it behind.
  [[nodiscard]] std::size_t scratch_bytes() const {
    return scratch_.capacity() * sizeof(double);
  }

  /// Total pair-relaxation attempts performed by insert_node/insert_edge
  /// since construction — the algorithm's O(L^2) work term, exported so
  /// the runtime can report how much APSP work a node has actually done.
  /// Rows insert_node skips are not attempted and not counted.
  [[nodiscard]] std::uint64_t relaxations() const { return relaxations_; }

  /// Storage-hygiene invariant, O(capacity^2) — for tests.  Verifies the
  /// dense layout: the live handles map one-to-one onto slots 0..L-1, the
  /// live and the free ids are each id once and no more than the capacity,
  /// every live diagonal entry is exactly zero, and every row and column >= L
  /// rests at kNoBound, so a slot's next occupant (or the padding column a
  /// relaxation sweeps) can never observe a previous occupant's or a
  /// rejected candidate's distances.
  [[nodiscard]] bool audit_storage() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// A handle is (insert count << kIdBits) | id.  2^20 ids exceed any matrix
  /// that can be allocated; 2^44 inserts take months at millions a second.
  static constexpr unsigned kIdBits = 20;
  static constexpr Handle kIdMask = (Handle{1} << kIdBits) - 1;

  [[nodiscard]] double& at(std::uint32_t slot_from, std::uint32_t slot_to) {
    return matrix_[static_cast<std::size_t>(slot_from) * capacity_ + slot_to];
  }
  [[nodiscard]] double at(std::uint32_t slot_from,
                          std::uint32_t slot_to) const {
    return matrix_[static_cast<std::size_t>(slot_from) * capacity_ + slot_to];
  }
  [[nodiscard]] double* row(std::uint32_t slot) {
    return &matrix_[static_cast<std::size_t>(slot) * capacity_];
  }

  /// The live slot of `h`, or kNoSlot.  An id's entry is trusted only when
  /// the slot it names still holds `h`, since the id may have passed on.
  [[nodiscard]] std::uint32_t slot_of(Handle h) const {
    const Handle id = h & kIdMask;
    if (id >= slot_of_id_.size()) return kNoSlot;
    const std::uint32_t s = slot_of_id_[id];
    return s < handle_of_.size() && handle_of_[s] == h ? s : kNoSlot;
  }

  void grow(std::size_t min_capacity);
  /// Sizes the three id tables (none outgrows the capacity) and the insert
  /// scratch with the capacity.
  void reserve_ids();
  /// Wipes row and column `slot` over the live prefix 0..size()-1.
  void wipe_slot(std::uint32_t slot);

  /// insert_node's work space: the new node's distances to (the first
  /// capacity_ doubles) and from (the next capacity_) every slot, built
  /// before anything in the matrix is written.
  std::vector<double> scratch_;

  // matrix_ is capacity_^2 doubles; rows and columns 0..L-1 belong to the
  // live nodes and everything else rests at kNoBound.  handle_of_[slot] is
  // the handle living there.  Every id ever handed out is either live or on
  // free_ids_, so both tables stop growing once the live set does, and
  // ingest allocates nothing in steady state.
  std::vector<double> matrix_;
  std::size_t capacity_ = 0;
  std::vector<Handle> handle_of_;          // slot -> handle, dense
  std::vector<std::uint32_t> slot_of_id_;  // id -> slot while the id is live
  std::vector<std::uint32_t> free_ids_;    // ids of removed nodes
  std::uint64_t inserts_ = 0;              // the count above the id bits
  std::uint64_t relaxations_ = 0;
};

}  // namespace driftsync::graph
