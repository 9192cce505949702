#include "graph/incremental_apsp.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

namespace driftsync::graph {

namespace {

using Pair = double __attribute__((vector_size(16)));

/// row[y] = min(row[y], head + via[y]) for y in [0, n), n even.  The one
/// relaxation loop of insert_node and insert_edge.  It takes two doubles a
/// step, written out because -O2 leaves the plain loop scalar.  There is no
/// unreachable-entry branch: +inf absorbs the addition, and `t < r ? t : r`
/// then keeps r, exactly as skipping would.  row may alias via.
void relax_row(double* row, const double* via, double head, std::size_t n) {
  const Pair h = {head, head};
  for (std::size_t y = 0; y < n; y += 2) {
    Pair r;
    Pair v;
    std::memcpy(&r, row + y, sizeof r);
    std::memcpy(&v, via + y, sizeof v);
    const Pair t = h + v;
    r = t < r ? t : r;
    std::memcpy(row + y, &r, sizeof r);
  }
}

/// The relaxation trip count over n live slots, padded to even.  capacity_
/// is an even power of two, so the padding column exists; it is a dead
/// column, which holds kNoBound in the via row (in insert_node, the scratch
/// row's padding entry) and therefore never changes.
std::size_t padded(std::size_t n) { return (n + 1) & ~std::size_t{1}; }

/// row[y] = head + via[y] for y in [0, n), n even: relax_row into a row of
/// kNoBound, without the fill.  The minimum with +inf it skips keeps every
/// sum, +inf included.
void add_row(double* row, const double* via, double head, std::size_t n) {
  const Pair h = {head, head};
  for (std::size_t y = 0; y < n; y += 2) {
    Pair v;
    std::memcpy(&v, via + y, sizeof v);
    const Pair t = h + v;
    std::memcpy(row + y, &t, sizeof t);
  }
}

using Mask = std::int64_t __attribute__((vector_size(16)));

/// An edge as insert_node's column pass reads it: the column of its live
/// endpoint (row x's entry at column[x * stride]) and the term added to
/// that entry, the weight of an in-edge or, for an out-edge (new, b), the
/// new node's distance d(new, b).
struct Leg {
  const double* column = nullptr;
  double add = 0.0;
};

/// Where the column pass works: the new node's column in the matrix, its
/// row in scratch, the column's old entries and the list of rows to relax.
struct ColumnPass {
  double* column;
  std::size_t stride;
  std::uint32_t n;     ///< Live rows.
  std::uint32_t slot;  ///< The new node's; a retired row is never listed.
  const double* row_new;
  double* saved;
  std::uint32_t* rows;
};

/// No compile-time edge count: column_pass loops over n_in and n_out.
constexpr std::size_t kAnyEdges = ~std::size_t{0};
/// column_pass's result for a negative round trip.
constexpr std::size_t kRefused = ~std::size_t{0};

/// insert_node's pass over the live rows, two a step: each row's distance
/// to the new node, d(x,new) = min over the in-edges (x, a), in order, of
/// d(x,a) + w, is written into the new node's column, and what it
/// overwrites is kept.  Folded in: whether any round trip
/// d(new,x) + d(x,new) is negative, and whether the row can shorten,
/// d(x,new) + d(new,b) < d(x,b) for some out-edge head b.  Returns how many
/// rows it listed, or kRefused after restoring the column.  kIn and kOut
/// fix the edge counts of the engine's shapes at compile time.
template <std::size_t kIn, std::size_t kOut>
std::size_t column_pass(const ColumnPass& p, const Leg* in, std::size_t n_in,
                        const Leg* out, std::size_t n_out) {
  const std::size_t ins = kIn == kAnyEdges ? n_in : kIn;
  const std::size_t outs = kOut == kAnyEdges ? n_out : kOut;
  Mask negative = {0, 0};
  // Rows x0 and x1; for the odd tail row x1 == x0, and the second lane
  // repeats the first.  Each row is read before its column entry is
  // written, so an edge to a retired slot reads the old column.
  const auto step = [&](std::uint32_t x0, std::uint32_t x1) {
    const std::size_t i0 = x0 * p.stride;
    const std::size_t i1 = x1 * p.stride;
    Pair to_new = {kNoBound, kNoBound};
    for (std::size_t e = 0; e < ins; ++e) {
      const Pair t = Pair{in[e].column[i0], in[e].column[i1]} +
                     Pair{in[e].add, in[e].add};
      to_new = t < to_new ? t : to_new;
    }
    negative |=
        Pair{p.row_new[x0], p.row_new[x1]} + to_new < Pair{0.0, 0.0};
    Mask shorter = {0, 0};
    for (std::size_t e = 0; e < outs; ++e) {
      shorter |= to_new + Pair{out[e].add, out[e].add} <
                 Pair{out[e].column[i0], out[e].column[i1]};
    }
    p.saved[x0] = p.column[i0];
    p.saved[x1] = p.column[i1];
    p.column[i0] = to_new[0];
    p.column[i1] = to_new[1];
    return shorter;
  };
  // Few rows can shorten (under one an insert on sim-mesh), so the test
  // of both lanes at once is a branch that is seldom taken.
  std::size_t listed = 0;
  const auto list = [&](std::uint32_t x, std::int64_t shorter) {
    if (shorter != 0 && x != p.slot) p.rows[listed++] = x;
  };
  std::uint32_t x = 0;
  for (; x + 1 < p.n; x += 2) {
    const Mask shorter = step(x, x + 1);
    if ((shorter[0] | shorter[1]) != 0) {
      list(x, shorter[0]);
      list(x + 1, shorter[1]);
    }
  }
  if (x < p.n) list(x, step(x, x)[0]);
  if ((negative[0] | negative[1]) == 0) return listed;
  for (x = 0; x < p.n; ++x) p.column[x * p.stride] = p.saved[x];
  return kRefused;
}

}  // namespace

void IncrementalApsp::grow(std::size_t min_capacity) {
  std::size_t new_capacity = std::max<std::size_t>(8, capacity_ * 2);
  while (new_capacity < min_capacity) new_capacity *= 2;
  DS_CHECK(new_capacity <= kIdMask + 1);  // Ids never outnumber slots.
  std::vector<double> fresh(new_capacity * new_capacity, kNoBound);
  const std::size_t n = size();
  for (std::size_t x = 0; x < n; ++x) {
    std::copy_n(&matrix_[x * capacity_], n, &fresh[x * new_capacity]);
  }
  matrix_ = std::move(fresh);
  capacity_ = new_capacity;
  reserve_ids();
}

void IncrementalApsp::reserve_ids() {
  handle_of_.reserve(capacity_);
  slot_of_id_.reserve(capacity_);
  free_ids_.reserve(capacity_);
  if (scratch_.size() < 2 * capacity_) scratch_.resize(2 * capacity_);
  if (relax_rows_.size() < capacity_) relax_rows_.resize(capacity_);
}

IncrementalApsp& IncrementalApsp::operator=(const IncrementalApsp& other) {
  if (this == &other) return *this;
  if (matrix_.size() != other.matrix_.size()) {
    matrix_ = std::vector<double>(other.matrix_);  // Exactly capacity^2.
    capacity_ = other.capacity_;
  } else {
    // Outside the old live block everything already rests at kNoBound.
    const std::size_t n = other.size();
    const std::size_t old_n = size();
    for (std::size_t x = 0; x < std::max(n, old_n); ++x) {
      double* const dst = &matrix_[x * capacity_];
      const std::size_t copied = x < n ? n : 0;
      std::copy_n(&other.matrix_[x * capacity_], copied, dst);
      std::fill(dst + copied, dst + std::max(copied, old_n), kNoBound);
    }
  }
  // Sized before the copy, so a later, longer copy does not grow them; the
  // insert scratch is only sized, so a shadow swapped in for a refused
  // receive inserts without allocating.
  reserve_ids();
  handle_of_ = other.handle_of_;
  slot_of_id_ = other.slot_of_id_;
  free_ids_ = other.free_ids_;
  inserts_ = other.inserts_;
  relaxations_ = other.relaxations_;
  return *this;
}

void IncrementalApsp::wipe_slot(std::uint32_t slot) {
  for (std::uint32_t s = 0; s < size(); ++s) {
    at(slot, s) = kNoBound;
    at(s, slot) = kNoBound;
  }
}

IncrementalApsp::Handle IncrementalApsp::insert_node(
    std::span<const HalfEdge> in_edges, std::span<const HalfEdge> out_edges,
    Handle retire) {
  const bool takeover = retire != kNoHandle;
  DS_CHECK(!takeover || is_live(retire));
  DS_CHECK(inserts_ < kNoHandle >> kIdBits);

  const auto n = static_cast<std::uint32_t>(size());
  if (!takeover && n == capacity_) grow(n + 1);
  const std::uint32_t slot = takeover ? slot_of(retire) : n;
  const std::size_t trip = padded(n);
  double* const row_new = scratch_.data() + capacity_;

  // Distances from the new node to each live node y: every path starts
  // with an out-edge (new, b), and its suffix cannot revisit the new node,
  // so it is an old distance; the diagonal d(b,b) = 0 covers y = b.  The
  // row is built in scratch, a running minimum taken edge by edge in the
  // given order; the first edge's row is copied with its weight added.
  // The padding entry reads the dead column: kNoBound.  Each edge's slot
  // is looked up once.  The engine's records have at most two edges each
  // way, so only other shapes put their legs on the heap.
  const std::size_t n_in = in_edges.size();
  const std::size_t n_out = out_edges.size();
  std::array<Leg, 4> stack_legs;
  std::vector<Leg> heap_legs;
  Leg* in = stack_legs.data();
  if (n_in + n_out > stack_legs.size()) {
    heap_legs.resize(n_in + n_out);
    in = heap_legs.data();
  }
  Leg* const out = in + n_in;
  for (std::size_t e = 0; e < n_out; ++e) {
    const std::uint32_t sb = slot_of(out_edges[e].node);
    DS_CHECK(sb != kNoSlot);
    if (e == 0) {
      add_row(row_new, row(sb), out_edges[e].weight, trip);
    } else {
      relax_row(row_new, row(sb), out_edges[e].weight, trip);
    }
    out[e].column = &matrix_[sb];
  }
  if (n_out == 0) std::fill_n(row_new, trip, kNoBound);
  for (std::size_t e = 0; e < n_out; ++e) {
    out[e].add = row_new[out[e].column - matrix_.data()];
  }
  for (std::size_t e = 0; e < n_in; ++e) {
    const std::uint32_t sa = slot_of(in_edges[e].node);
    DS_CHECK(sa != kNoSlot);
    in[e] = Leg{&matrix_[sa], in_edges[e].weight};
  }

  // Distances to the new node, its column, come from one pass over the
  // live rows (column_pass), which writes them straight into the matrix.
  // A negative cycle through the new node shows up as a negative round
  // trip (an unreachable side is +inf, never negative); the pass then
  // restores the column, and nothing else has been written.
  //
  // The same pass lists the rows the new node can shorten (Ausiello et
  // al. [2]).  Every path new -> y leaves by an out-edge (new, b), so if
  // d(x,new) + d(new,b) >= d(x,b) for each head b, then
  // d(x,new) + d(new,y) = d(x,new) + w(new,b) + d(b,y)
  //                    >= d(x,b) + d(b,y) >= d(x,y)
  // and row x cannot improve.  A retired row is about to be replaced.
  using Pass = std::size_t (*)(const ColumnPass&, const Leg*, std::size_t,
                               const Leg*, std::size_t);
  static constexpr Pass kEngineShapes[2][2] = {
      {column_pass<1, 1>, column_pass<1, 2>},
      {column_pass<2, 1>, column_pass<2, 2>}};
  const bool engine_shape = n_in >= 1 && n_in <= 2 && n_out >= 1 &&
                            n_out <= 2;
  const Pass column = engine_shape ? kEngineShapes[n_in - 1][n_out - 1]
                                   : column_pass<kAnyEdges, kAnyEdges>;
  const std::size_t listed =
      column({&matrix_[slot], capacity_, n, slot, row_new, scratch_.data(),
              relax_rows_.data()},
             in, n_in, out, n_out);
  if (listed == kRefused) return kNoHandle;

  // Relax the listed rows through the new node.  With d(new,new) = 0 in
  // its row, each relaxed row keeps its entry in the new column.  Then the
  // row goes in; a fresh slot's rests at kNoBound already when the new
  // node has no out-edge, so the copy rewrites the same values.
  row_new[slot] = 0.0;
  for (std::size_t k = 0; k < listed; ++k) {
    const std::uint32_t x = relax_rows_[k];
    relax_row(row(x), row_new, at(x, slot), trip);
  }
  relaxations_ += listed * n;
  std::copy_n(row_new, n, row(slot));
  at(slot, slot) = 0.0;

  // A takeover keeps its predecessor's id; else a freed id, else a new one.
  Handle id = retire & kIdMask;
  if (!takeover && !free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    slot_of_id_[id] = slot;
  } else if (!takeover) {
    id = slot_of_id_.size();
    slot_of_id_.push_back(slot);
  }
  const Handle handle = (inserts_++ << kIdBits) | id;
  if (takeover) {
    handle_of_[slot] = handle;
  } else {
    handle_of_.push_back(handle);
  }
  return handle;
}

bool IncrementalApsp::insert_edge(Handle from, Handle to, double weight) {
  DS_CHECK(is_live(from) && is_live(to));
  const std::uint32_t su = slot_of(from);
  const std::uint32_t sv = slot_of(to);
  const double back = at(sv, su);
  if (back != kNoBound && back + weight < 0.0) return false;

  // In-place relaxation is safe: entries (x,from) and (to,y) cannot improve
  // through the new edge absent a negative cycle, so stale reads are
  // impossible.
  const auto n = static_cast<std::uint32_t>(size());
  const double* const row_v = row(sv);
  for (std::uint32_t sx = 0; sx < n; ++sx) {
    const double xu = at(sx, su);
    if (xu == kNoBound) continue;
    relax_row(row(sx), row_v, xu + weight, padded(n));
    relaxations_ += n;
  }
  return true;
}

bool IncrementalApsp::load_matrix(const std::vector<std::vector<double>>& dist) {
  DS_CHECK_MSG(inserts_ == 0, "load into a fresh structure");
  const std::size_t n = dist.size();
  for (std::size_t i = 0; i < n; ++i) {
    DS_CHECK(dist[i].size() == n);
    if (dist[i][i] != 0.0) return false;
    for (std::size_t j = 0; j < n; ++j) {
      const double out = dist[i][j];
      const double back = dist[j][i];
      if (out != kNoBound && back != kNoBound && out + back < 0.0) {
        return false;
      }
    }
  }
  if (n > capacity_) grow(n);
  handle_of_.resize(n);
  slot_of_id_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    handle_of_[i] = (Handle{i} << kIdBits) | i;
    slot_of_id_[i] = i;
    std::copy(dist[i].begin(), dist[i].end(), row(i));
  }
  inserts_ = n;
  return true;
}

void IncrementalApsp::remove_node(Handle h) {
  DS_CHECK(is_live(h));
  const std::uint32_t slot = slot_of(h);
  const auto last = static_cast<std::uint32_t>(size() - 1);
  if (slot != last) {
    // Move the last live node into the hole: its row, then its column.  The
    // row copy lands its zero diagonal at (slot, last), which the column
    // copy then carries to (slot, slot).
    std::copy_n(row(last), last + 1, row(slot));
    for (std::uint32_t sx = 0; sx <= last; ++sx) at(sx, slot) = at(sx, last);
    const Handle moved = handle_of_[last];
    handle_of_[slot] = moved;
    slot_of_id_[moved & kIdMask] = slot;
  }
  wipe_slot(last);
  handle_of_.pop_back();
  free_ids_.push_back(static_cast<std::uint32_t>(h & kIdMask));
}

bool IncrementalApsp::audit_storage() const {
  const std::size_t n = size();
  // Every live handle resolves to the slot that holds it; together with
  // handle_of_ being indexed by slot, that is a bijection onto 0..L-1.
  // Each id handed out is live or free, never both and never twice.
  if (n > capacity_ || slot_of_id_.size() > capacity_ ||
      slot_of_id_.size() != n + free_ids_.size()) {
    return false;
  }
  std::vector<bool> used(slot_of_id_.size());
  for (std::uint32_t s = 0; s < n; ++s) {
    const Handle h = handle_of_[s];
    if ((h >> kIdBits) >= inserts_ || slot_of(h) != s) return false;
    used[h & kIdMask] = true;
  }
  for (const std::uint32_t id : free_ids_) {
    if (id >= used.size() || used[id]) return false;
    used[id] = true;
  }
  // Rows and columns >= L must rest at kNoBound: a finite entry there is a
  // stale distance waiting to leak into the slot's next occupant or into a
  // padded relaxation.  Live diagonal entries must be exactly zero.
  for (std::uint32_t a = 0; a < capacity_; ++a) {
    for (std::uint32_t b = 0; b < capacity_; ++b) {
      const double d = at(a, b);
      if (a >= n || b >= n) {
        if (d != kNoBound) return false;
      } else if (a == b && d != 0.0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace driftsync::graph
