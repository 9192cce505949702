#include "graph/incremental_apsp.h"

#include <algorithm>
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
  for (const HalfEdge& e : in_edges) DS_CHECK(is_live(e.node));
  for (const HalfEdge& e : out_edges) DS_CHECK(is_live(e.node));
  const bool takeover = retire != kNoHandle;
  DS_CHECK(!takeover || is_live(retire));
  DS_CHECK(inserts_ < kNoHandle >> kIdBits);

  const auto n = static_cast<std::uint32_t>(size());
  if (!takeover && n == capacity_) grow(n + 1);
  const std::uint32_t slot = takeover ? slot_of(retire) : n;
  const std::size_t trip = padded(n);
  double* const col = scratch_.data();
  double* const row_new = col + capacity_;

  // Distances from the new node to each live node y: every path starts
  // with an out-edge (new, b), and its suffix cannot revisit the new node,
  // so it is an old distance; the diagonal d(b,b) = 0 covers y = b.
  // Symmetrically for distances to the new node.  Both are built in
  // scratch, each entry a running minimum taken edge by edge in the given
  // order; the matrix is not written until the insert is accepted.  The
  // row's padding entry stays kNoBound.
  std::fill_n(row_new, trip, kNoBound);
  for (const HalfEdge& e : out_edges) {
    relax_row(row_new, row(slot_of(e.node)), e.weight, trip);
  }
  std::fill_n(col, n, kNoBound);
  for (const HalfEdge& e : in_edges) {
    const double* const to_a = &matrix_[slot_of(e.node)];
    for (std::size_t sx = 0; sx < n; ++sx) {
      const double t = to_a[sx * capacity_] + e.weight;
      col[sx] = t < col[sx] ? t : col[sx];
    }
  }

  // A negative cycle through the new node shows up as a negative round
  // trip (an unreachable side is +inf, never negative).
  bool negative = false;
  for (std::size_t sx = 0; sx < n; ++sx) {
    negative |= row_new[sx] + col[sx] < 0.0;
  }
  if (negative) return kNoHandle;

  // Relax the pairs through the new node (Ausiello et al. [2]), in the
  // rows it can shorten.  Every path new -> y leaves by an out-edge
  // (new, b), so if d(x,new) + d(new,b) >= d(x,b) for each head b, then
  // d(x,new) + d(new,y) = d(x,new) + w(new,b) + d(b,y)
  //                    >= d(x,b) + d(b,y) >= d(x,y)
  // and row x cannot improve.  A relaxed row fails every later head's
  // test, so no row is relaxed twice.  A retired row is about to be
  // replaced, and whatever its column receives here is overwritten below.
  for (const HalfEdge& e : out_edges) {
    const std::uint32_t sb = slot_of(e.node);
    const double* const to_b = &matrix_[sb];
    const double via = row_new[sb];
    for (std::uint32_t sx = 0; sx < n; ++sx) {
      if (col[sx] + via < to_b[sx * capacity_] && sx != slot) {
        relax_row(row(sx), row_new, col[sx], trip);
        relaxations_ += n;
      }
    }
  }

  // Commit the new node's column and row.  A fresh slot already rests at
  // kNoBound, so an empty edge list leaves it alone; a retired slot is
  // overwritten in full.
  if (takeover || !in_edges.empty()) {
    for (std::uint32_t sx = 0; sx < n; ++sx) at(sx, slot) = col[sx];
  }
  if (takeover || !out_edges.empty()) std::copy_n(row_new, n, row(slot));
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
