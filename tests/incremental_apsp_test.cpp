// Tests for the incremental all-pairs shortest-path kernel — the AGDP
// computational core (Lemma 3.5).  The central property: after any sequence
// of node insertions, edge insertions and node removals, distances between
// remaining nodes equal a from-scratch Floyd-Warshall over the *entire*
// accumulated graph restricted to live nodes (the Lemma 3.4 invariant).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "graph/digraph.h"
#include "graph/incremental_apsp.h"
#include "graph/shortest_paths.h"

namespace driftsync::graph {
namespace {

using Handle = IncrementalApsp::Handle;
using HalfEdge = IncrementalApsp::HalfEdge;

TEST(IncrementalApspTest, SingleNode) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  EXPECT_EQ(apsp.size(), 1u);
  EXPECT_DOUBLE_EQ(apsp.distance(a, a), 0.0);
}

TEST(IncrementalApspTest, TwoNodesOneEdge) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 3.0}}, {});
  EXPECT_DOUBLE_EQ(apsp.distance(a, b), 3.0);
  EXPECT_EQ(apsp.distance(b, a), kNoBound);
}

TEST(IncrementalApspTest, BidirectionalEdges) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 3.0}}, {{a, 5.0}});
  EXPECT_DOUBLE_EQ(apsp.distance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(apsp.distance(b, a), 5.0);
}

TEST(IncrementalApspTest, PathRelaxationThroughNewNode) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({}, {});
  // c connects a -> c -> b, shortening nothing yet since a,b unconnected.
  const Handle c = apsp.insert_node({{a, 1.0}}, {{b, 2.0}});
  EXPECT_DOUBLE_EQ(apsp.distance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(apsp.distance(a, c), 1.0);
  EXPECT_DOUBLE_EQ(apsp.distance(c, b), 2.0);
  EXPECT_EQ(apsp.distance(b, a), kNoBound);
}

TEST(IncrementalApspTest, InsertEdgeImprovesPairs) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 10.0}}, {});
  EXPECT_TRUE(apsp.insert_edge(a, b, 4.0));
  EXPECT_DOUBLE_EQ(apsp.distance(a, b), 4.0);
  EXPECT_TRUE(apsp.insert_edge(a, b, 7.0));  // worse edge: no change
  EXPECT_DOUBLE_EQ(apsp.distance(a, b), 4.0);
}

TEST(IncrementalApspTest, NegativeEdgeOk) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, -2.5}}, {{a, 3.0}});
  EXPECT_DOUBLE_EQ(apsp.distance(a, b), -2.5);
  EXPECT_DOUBLE_EQ(apsp.distance(b, a), 3.0);
}

TEST(IncrementalApspTest, NegativeCycleOnInsertNodeRejected) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  // in 1.0, out -2.0: round trip a -> b -> a = -1.0.
  const Handle b = apsp.insert_node({{a, 1.0}}, {{a, -2.0}});
  EXPECT_EQ(b, IncrementalApsp::kNoHandle);
  EXPECT_EQ(apsp.size(), 1u);  // unchanged
  EXPECT_DOUBLE_EQ(apsp.distance(a, a), 0.0);
}

TEST(IncrementalApspTest, RetiringInsertTakesOverTheSlot) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 1.0}}, {{a, 4.0}});
  const Handle c = apsp.insert_node({{b, 2.0}}, {});
  // d retires b, whose edges it also uses: a -> b -> d costs 1 + 1.
  const Handle d = apsp.insert_node({{b, 1.0}}, {{a, 0.5}}, b);
  ASSERT_NE(d, IncrementalApsp::kNoHandle);
  EXPECT_FALSE(apsp.is_live(b));
  EXPECT_EQ(apsp.size(), 3u);
  EXPECT_DOUBLE_EQ(apsp.distance(a, d), 2.0);
  EXPECT_DOUBLE_EQ(apsp.distance(d, a), 0.5);
  EXPECT_DOUBLE_EQ(apsp.distance(d, c), 3.5);  // d -> a -> b -> c
  EXPECT_DOUBLE_EQ(apsp.distance(a, c), 3.0);
  EXPECT_TRUE(apsp.audit_storage());
}

TEST(IncrementalApspTest, RefusedRetiringInsertChangesNothing) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 1.5}}, {{a, 2.0}});
  const Handle c = apsp.insert_node({{b, 0.25}}, {{a, -1.0}});
  const std::vector<Handle> live = apsp.live_handles();
  std::vector<std::uint64_t> before;
  for (const Handle u : live) {
    for (const Handle v : live) {
      before.push_back(std::bit_cast<std::uint64_t>(apsp.distance(u, v)));
    }
  }
  // Retiring b, with a round trip b -> new -> b of 1 - 2 < 0.
  EXPECT_EQ(apsp.insert_node({{b, 1.0}}, {{b, -2.0}}, b),
            IncrementalApsp::kNoHandle);
  EXPECT_TRUE(apsp.is_live(b));
  EXPECT_EQ(apsp.live_handles(), live);
  std::size_t k = 0;
  for (const Handle u : live) {
    for (const Handle v : live) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(apsp.distance(u, v)), before[k++])
          << "d(" << u << "," << v << ")";
    }
  }
  EXPECT_TRUE(apsp.audit_storage());
  EXPECT_EQ(apsp.distance(c, a), -1.0);
}

/// Seeded churn with positive weights: `inserts` nodes, each wired to up
/// to three live nodes, and a random live node removed after every third.
void churn(IncrementalApsp& apsp, Rng& rng, int inserts) {
  for (int i = 0; i < inserts; ++i) {
    const std::vector<Handle>& live = apsp.live_handles();
    std::vector<HalfEdge> ins;
    std::vector<HalfEdge> outs;
    for (std::size_t d = 0; d < std::min<std::size_t>(3, live.size()); ++d) {
      const Handle other = live[rng.uniform_index(live.size())];
      (rng.flip(0.5) ? ins : outs).push_back({other, rng.uniform(0.0, 4.0)});
    }
    const Handle retire = !live.empty() && rng.flip(0.3)
                              ? live[rng.uniform_index(live.size())]
                              : IncrementalApsp::kNoHandle;
    ASSERT_NE(apsp.insert_node(ins, outs, retire), IncrementalApsp::kNoHandle);
    if (i % 3 == 2) {
      apsp.remove_node(live[rng.uniform_index(live.size())]);
    }
  }
}

void expect_same_structure(const IncrementalApsp& a, const IncrementalApsp& b) {
  ASSERT_TRUE(b.audit_storage());
  ASSERT_EQ(a.live_handles(), b.live_handles());
  for (const Handle u : a.live_handles()) {
    for (const Handle v : a.live_handles()) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.distance(u, v)),
                std::bit_cast<std::uint64_t>(b.distance(u, v)))
          << "d(" << u << "," << v << ")";
    }
  }
}

/// Removes random live nodes down to `n`.
void shrink_to(IncrementalApsp& apsp, Rng& rng, std::size_t n) {
  while (apsp.size() > n) {
    apsp.remove_node(apsp.live_handles()[rng.uniform_index(apsp.size())]);
  }
}

TEST(IncrementalApspTest, CopyAssignmentReplacesTheLiveBlock) {
  Rng rng(71);
  IncrementalApsp source;
  churn(source, rng, 40);
  shrink_to(source, rng, 10);
  // Destinations holding a larger and a smaller live set in a matrix of
  // the same capacity (the O(L^2) path), and one of a smaller capacity
  // (the full copy).
  struct Dest {
    int inserts;
    std::size_t live;
    bool same_capacity;
  };
  for (const Dest d : {Dest{40, 14, true}, Dest{40, 3, true},
                       Dest{6, 2, false}}) {
    SCOPED_TRACE(d.live);
    IncrementalApsp dest;
    churn(dest, rng, d.inserts);
    shrink_to(dest, rng, d.live);
    ASSERT_EQ(dest.size(), d.live);
    ASSERT_EQ(dest.matrix_bytes() == source.matrix_bytes(), d.same_capacity);
    const std::size_t scratch = dest.scratch_bytes();
    dest = source;
    // Not structure state: not copied, only sized with the new matrix.
    EXPECT_EQ(dest.scratch_bytes(),
              std::max(scratch, source.capacity() * (2 * sizeof(double) +
                                                     sizeof(std::uint32_t))));
    EXPECT_EQ(dest.matrix_bytes(), source.matrix_bytes());
    EXPECT_EQ(dest.relaxations(), source.relaxations());
    expect_same_structure(source, dest);
    // The same later churn gives the same results on both.
    IncrementalApsp twin = source;
    Rng a(d.live);
    Rng b(d.live);
    churn(twin, a, 12);
    churn(dest, b, 12);
    expect_same_structure(twin, dest);
  }
}

TEST(IncrementalApspTest, NegativeCycleOnInsertEdgeRejected) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 2.0}}, {});
  EXPECT_FALSE(apsp.insert_edge(b, a, -3.0));
  EXPECT_DOUBLE_EQ(apsp.distance(a, b), 2.0);  // unchanged
  EXPECT_EQ(apsp.distance(b, a), kNoBound);
}

TEST(IncrementalApspTest, RemoveNodePreservesOtherDistances) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 1.0}}, {});
  const Handle c = apsp.insert_node({{b, 1.0}}, {});
  EXPECT_DOUBLE_EQ(apsp.distance(a, c), 2.0);
  apsp.remove_node(b);  // distances were already materialized
  EXPECT_EQ(apsp.size(), 2u);
  EXPECT_DOUBLE_EQ(apsp.distance(a, c), 2.0);
  EXPECT_FALSE(apsp.is_live(b));
}

TEST(IncrementalApspTest, SlotReuseAfterRemoval) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 1.0}}, {});
  apsp.remove_node(b);
  const Handle c = apsp.insert_node({}, {});  // reuses b's slot
  EXPECT_NE(c, b);
  EXPECT_TRUE(apsp.is_live(c));
  // No stale distance may leak from the recycled slot.
  EXPECT_EQ(apsp.distance(a, c), kNoBound);
  EXPECT_EQ(apsp.distance(c, a), kNoBound);
}

TEST(IncrementalApspTest, AbortedInsertLeavesNoResidue) {
  // A rejected insert_node must leave no tentative to/from distance in its
  // candidate slot: audit_storage() catches such residue directly, and the
  // recycled-slot probe below would observe it as a phantom finite
  // distance.
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({{a, 1.0}}, {{a, 2.0}});
  apsp.remove_node(b);  // frees a slot so the aborted insert recycles it
  ASSERT_TRUE(apsp.audit_storage());
  const Handle rejected = apsp.insert_node({{a, 1.0}}, {{a, -2.0}});
  ASSERT_EQ(rejected, IncrementalApsp::kNoHandle);
  EXPECT_TRUE(apsp.audit_storage());
  // The slot's next occupant starts with a clean row and column.
  const Handle c = apsp.insert_node({}, {});
  EXPECT_EQ(apsp.distance(a, c), kNoBound);
  EXPECT_EQ(apsp.distance(c, a), kNoBound);
  EXPECT_DOUBLE_EQ(apsp.distance(c, c), 0.0);
  EXPECT_TRUE(apsp.audit_storage());
}

TEST(IncrementalApspTest, AuditStorageHoldsAcrossChurn) {
  IncrementalApsp apsp;
  std::vector<Handle> live;
  live.push_back(apsp.insert_node({}, {}));
  for (int i = 0; i < 12; ++i) {
    live.push_back(apsp.insert_node({{live.back(), 1.0}}, {{live[0], 2.0}}));
    ASSERT_TRUE(apsp.audit_storage()) << "after insert " << i;
  }
  while (live.size() > 2) {
    apsp.remove_node(live[live.size() / 2]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(live.size() / 2));
    ASSERT_TRUE(apsp.audit_storage()) << live.size() << " nodes left";
  }
}

TEST(IncrementalApspTest, GrowthPreservesDistances) {
  IncrementalApsp apsp;
  std::vector<Handle> chain;
  chain.push_back(apsp.insert_node({}, {}));
  for (int i = 1; i < 40; ++i) {  // force several growth steps
    chain.push_back(apsp.insert_node({{chain.back(), 1.0}}, {}));
  }
  EXPECT_DOUBLE_EQ(apsp.distance(chain.front(), chain.back()), 39.0);
}

TEST(IncrementalApspTest, DeadHandleAccessThrows) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({}, {});
  apsp.remove_node(b);
  EXPECT_THROW((void)apsp.distance(a, b), std::logic_error);
  EXPECT_THROW(apsp.remove_node(b), std::logic_error);
  EXPECT_THROW(apsp.insert_node({{b, 1.0}}, {}), std::logic_error);
}

// One node stays live while 100 000 others pass through, each taking over
// its predecessor's slot and id, with now and then a transient node that
// takes a freed id and gives it back: the shape of a view in which one
// processor went quiet.  The tables stay the size of the live set, and a
// handle whose id went on to a newer node stays dead.
TEST(IncrementalApspTest, TakeoversBesideAnOldNodeRecycleIds) {
  IncrementalApsp apsp;
  const Handle old = apsp.insert_node({}, {});
  Handle prev = apsp.insert_node({{old, 1.0}}, {{old, 1.0}});
  std::vector<Handle> dead;
  dead.reserve(120000);
  for (int i = 0; i < 100000; ++i) {
    const Handle h = apsp.insert_node({{prev, 1e-3}}, {{prev, 1e-3}}, prev);
    ASSERT_NE(h, IncrementalApsp::kNoHandle) << "insert " << i;
    dead.push_back(prev);
    prev = h;
    if (i % 5 == 0) {
      const Handle transient = apsp.insert_node({{prev, 1.0}}, {{old, 1.0}});
      apsp.remove_node(transient);
      dead.push_back(transient);
    }
    if (i % 1000 == 0) {
      ASSERT_TRUE(apsp.audit_storage()) << "insert " << i;
    }
  }
  EXPECT_TRUE(apsp.audit_storage());
  EXPECT_EQ(apsp.size(), 2u);
  EXPECT_EQ(apsp.matrix_bytes(), 8u * 8u * sizeof(double));
  EXPECT_TRUE(apsp.is_live(old));
  EXPECT_TRUE(apsp.is_live(prev));
  for (const Handle h : dead) ASSERT_FALSE(apsp.is_live(h)) << h;
  EXPECT_NEAR(apsp.distance(old, prev), 1.0 + 100000 * 1e-3, 1e-6);
  // A copy carries the same bounded tables.
  IncrementalApsp copy;
  copy = apsp;
  EXPECT_TRUE(copy.audit_storage());
  for (const Handle h : dead) ASSERT_FALSE(copy.is_live(h)) << h;
}

TEST(IncrementalApspTest, MatrixBytesGrowQuadratically) {
  IncrementalApsp apsp;
  std::vector<Handle> nodes;
  for (int i = 0; i < 64; ++i) nodes.push_back(apsp.insert_node({}, {}));
  // Capacity is at least the live count, and the matrix is capacity^2.
  EXPECT_GE(apsp.matrix_bytes(), 64u * 64u * sizeof(double));
}

TEST(IncrementalApspTest, LiveHandlesTracksSet) {
  IncrementalApsp apsp;
  const Handle a = apsp.insert_node({}, {});
  const Handle b = apsp.insert_node({}, {});
  const Handle c = apsp.insert_node({}, {});
  apsp.remove_node(b);
  const auto& live = apsp.live_handles();
  EXPECT_EQ(live.size(), 2u);
  EXPECT_TRUE((live[0] == a && live[1] == c) ||
              (live[0] == c && live[1] == a));
}

TEST(IncrementalApspTest, LoadMatrixInstallsEntriesVerbatim) {
  // Entries chosen so that relaxation would tighten d(0,2) by one ulp:
  // load_matrix must keep the saved entry bit-exact anyway.
  const double loose = std::nextafter(0.1 + 0.2, 1.0);
  ASSERT_LT(0.1 + 0.2, loose);
  const std::vector<std::vector<double>> dist = {
      {0.0, 0.1, loose},
      {kNoBound, 0.0, 0.2},
      {kNoBound, kNoBound, 0.0},
  };
  IncrementalApsp apsp;
  ASSERT_TRUE(apsp.load_matrix(dist));
  EXPECT_EQ(apsp.size(), 3u);
  const std::vector<Handle> row = apsp.live_handles();  // In row order.
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      EXPECT_EQ(apsp.distance(row[i], row[j]), dist[i][j]) << i << "," << j;
    }
  }
  // The loaded structure keeps working incrementally.
  const Handle d = apsp.insert_node({{row[0], 1.0}}, {{row[2], -0.05}});
  EXPECT_DOUBLE_EQ(apsp.distance(row[0], d), 1.0);
  EXPECT_DOUBLE_EQ(apsp.distance(d, row[2]), -0.05);
  EXPECT_TRUE(apsp.audit_storage());
}

TEST(IncrementalApspTest, LoadMatrixRejectsImpossibleClosures) {
  IncrementalApsp bad_diag;
  EXPECT_FALSE(bad_diag.load_matrix({{0.0, 1.0}, {1.0, -0.5}}));
  EXPECT_EQ(bad_diag.size(), 0u);
  IncrementalApsp neg_cycle;
  EXPECT_FALSE(neg_cycle.load_matrix({{0.0, 1.0}, {-2.0, 0.0}}));
  EXPECT_EQ(neg_cycle.size(), 0u);
  // A rejected load leaves the structure usable.
  EXPECT_TRUE(neg_cycle.load_matrix({{0.0}}));
  EXPECT_EQ(neg_cycle.size(), 1u);
}

// ---------------------------------------------------------------- property

// Reference model: keep the full accumulated digraph (with dead nodes), and
// check IncrementalApsp distances between live nodes against Floyd-Warshall
// distances in the full graph — exactly the Lemma 3.4 claim.
class ApspModel {
 public:
  Handle insert_node(IncrementalApsp& apsp,
                     const std::vector<HalfEdge>& in_edges,
                     const std::vector<HalfEdge>& out_edges) {
    const NodeIndex idx = full_.add_node();
    for (const HalfEdge& e : in_edges) {
      full_.add_edge(node_of_.at(e.node), idx, e.weight);
    }
    for (const HalfEdge& e : out_edges) {
      full_.add_edge(idx, node_of_.at(e.node), e.weight);
    }
    const Handle h = apsp.insert_node(in_edges, out_edges);
    if (h != IncrementalApsp::kNoHandle) node_of_[h] = idx;
    return h;
  }

  void insert_edge(IncrementalApsp& apsp, Handle u, Handle v, double w) {
    if (apsp.insert_edge(u, v, w)) {
      full_.add_edge(node_of_.at(u), node_of_.at(v), w);
    }
  }

  void check(const IncrementalApsp& apsp) {
    const auto fw = floyd_warshall(full_);
    ASSERT_TRUE(fw.has_value());
    for (const Handle hu : apsp.live_handles()) {
      for (const Handle hv : apsp.live_handles()) {
        const double expected = (*fw)[node_of_.at(hu)][node_of_.at(hv)];
        const double actual = apsp.distance(hu, hv);
        EXPECT_TRUE(time_close(expected, actual))
            << "d(" << hu << "," << hv << ") incremental=" << actual
            << " reference=" << expected;
      }
    }
  }

 private:
  Digraph full_;
  std::unordered_map<Handle, NodeIndex> node_of_;
};

class IncrementalApspPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalApspPropertyTest, MatchesBatchRecomputation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  IncrementalApsp apsp;
  ApspModel model;
  std::vector<Handle> live;
  // Potentials keep the instance free of negative cycles while producing
  // edges of both signs.
  std::unordered_map<Handle, double> phi;

  const auto weight = [&](Handle from, Handle to) {
    return rng.uniform(0.0, 4.0) - phi.at(from) + phi.at(to);
  };

  live.push_back(model.insert_node(apsp, {}, {}));
  phi[live[0]] = 0.0;

  for (int step = 0; step < 60; ++step) {
    const double action = rng.next_double();
    if (action < 0.55 || live.size() < 3) {
      // Insert a node with a few random incident edges.
      const double new_phi = rng.uniform(-5.0, 5.0);
      std::vector<HalfEdge> ins, outs;
      const std::size_t degree = 1 + rng.uniform_index(3);
      for (std::size_t d = 0; d < degree; ++d) {
        const Handle other = live[rng.uniform_index(live.size())];
        const double base = rng.uniform(0.0, 4.0);
        if (rng.flip(0.5)) {
          ins.push_back({other, base - phi.at(other) + new_phi});
        } else {
          outs.push_back({other, base - new_phi + phi.at(other)});
        }
      }
      const Handle h = model.insert_node(apsp, ins, outs);
      ASSERT_NE(h, IncrementalApsp::kNoHandle);
      phi[h] = new_phi;
      live.push_back(h);
    } else if (action < 0.8) {
      const Handle u = live[rng.uniform_index(live.size())];
      const Handle v = live[rng.uniform_index(live.size())];
      if (u != v) model.insert_edge(apsp, u, v, weight(u, v));
    } else if (action < 0.88) {
      // A deliberately infeasible insert: round trip through one anchor is
      // negative, so insert_node must reject it and leave no residue in
      // the candidate slot it briefly occupied.
      const Handle anchor = live[rng.uniform_index(live.size())];
      const double leg = rng.uniform(0.0, 2.0);
      const Handle h = apsp.insert_node({{anchor, leg}}, {{anchor, -leg - 1.0}});
      ASSERT_EQ(h, IncrementalApsp::kNoHandle);
      ASSERT_TRUE(apsp.audit_storage()) << "residue after rejected insert";
    } else if (live.size() > 2) {
      const std::size_t k = rng.uniform_index(live.size());
      apsp.remove_node(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (step % 10 == 9) {
      model.check(apsp);
      ASSERT_TRUE(apsp.audit_storage()) << "step " << step;
    }
  }
  model.check(apsp);
  ASSERT_TRUE(apsp.audit_storage());
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, IncrementalApspPropertyTest,
                         ::testing::Range(0, 15));

// --------------------------------------------------------------- bit-exact

// The sparse-slot kernel the dense layout replaced: slots come from a free
// list, the loops gather live slots through an index vector and skip
// unreachable entries with a branch.  Kept here only as the differential
// reference — the dense kernel must reproduce its distances to the bit.
class GatheredApsp {
 public:
  Handle insert_node(const std::vector<HalfEdge>& in_edges,
                     const std::vector<HalfEdge>& out_edges) {
    if (free_slots_.empty() && live_slots_.size() >= capacity_) {
      grow(live_slots_.size() + 1);
    }
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(live_slots_.size());
    }
    for (const std::uint32_t sx : live_slots_) {
      double to_new = kNoBound;
      for (const HalfEdge& e : in_edges) {
        const std::uint32_t es = slot_of_.at(e.node);
        const double via = (es == sx ? 0.0 : at(sx, es));
        if (via != kNoBound && via + e.weight < to_new) to_new = via + e.weight;
      }
      double from_new = kNoBound;
      for (const HalfEdge& e : out_edges) {
        const std::uint32_t es = slot_of_.at(e.node);
        const double via = (es == sx ? 0.0 : at(es, sx));
        if (via != kNoBound && e.weight + via < from_new) {
          from_new = e.weight + via;
        }
      }
      at(sx, slot) = to_new;
      at(slot, sx) = from_new;
    }
    for (const std::uint32_t sx : live_slots_) {
      const double out = at(slot, sx);
      const double back = at(sx, slot);
      if (out != kNoBound && back != kNoBound && out + back < 0.0) {
        wipe(slot);
        free_slots_.push_back(slot);
        return IncrementalApsp::kNoHandle;
      }
    }
    for (const std::uint32_t sx : live_slots_) {
      const double xs = at(sx, slot);
      if (xs == kNoBound) continue;
      for (const std::uint32_t sy : live_slots_) {
        const double sy_dist = at(slot, sy);
        if (sy_dist == kNoBound) continue;
        if (xs + sy_dist < at(sx, sy)) at(sx, sy) = xs + sy_dist;
      }
      relaxations_ += live_slots_.size();
    }
    at(slot, slot) = 0.0;
    const Handle handle = next_handle_++;
    slot_of_[handle] = slot;
    live_slots_.push_back(slot);
    return handle;
  }

  bool insert_edge(Handle from, Handle to, double weight) {
    const std::uint32_t su = slot_of_.at(from);
    const std::uint32_t sv = slot_of_.at(to);
    const double back = at(sv, su);
    if (back != kNoBound && back + weight < 0.0) return false;
    for (const std::uint32_t sx : live_slots_) {
      const double xu = at(sx, su);
      if (xu == kNoBound) continue;
      const double head = xu + weight;
      for (const std::uint32_t sy : live_slots_) {
        const double vy = at(sv, sy);
        if (vy == kNoBound) continue;
        if (head + vy < at(sx, sy)) at(sx, sy) = head + vy;
      }
      relaxations_ += live_slots_.size();
    }
    return true;
  }

  void remove_node(Handle h) {
    const std::uint32_t slot = slot_of_.at(h);
    slot_of_.erase(h);
    live_slots_.erase(std::find(live_slots_.begin(), live_slots_.end(), slot));
    free_slots_.push_back(slot);
    wipe(slot);
  }

  [[nodiscard]] double distance(Handle from, Handle to) const {
    return at(slot_of_.at(from), slot_of_.at(to));
  }
  [[nodiscard]] std::uint64_t relaxations() const { return relaxations_; }
  [[nodiscard]] std::size_t matrix_bytes() const {
    return matrix_.capacity() * sizeof(double);
  }

 private:
  [[nodiscard]] double& at(std::uint32_t a, std::uint32_t b) {
    return matrix_[static_cast<std::size_t>(a) * capacity_ + b];
  }
  [[nodiscard]] double at(std::uint32_t a, std::uint32_t b) const {
    return matrix_[static_cast<std::size_t>(a) * capacity_ + b];
  }
  void grow(std::size_t min_capacity) {
    std::size_t cap = std::max<std::size_t>(8, capacity_ * 2);
    while (cap < min_capacity) cap *= 2;
    std::vector<double> fresh(cap * cap, kNoBound);
    for (const std::uint32_t sx : live_slots_) {
      for (const std::uint32_t sy : live_slots_) {
        fresh[static_cast<std::size_t>(sx) * cap + sy] = at(sx, sy);
      }
    }
    matrix_ = std::move(fresh);
    capacity_ = cap;
  }
  void wipe(std::uint32_t slot) {
    for (std::uint32_t s = 0; s < capacity_; ++s) {
      at(slot, s) = kNoBound;
      at(s, slot) = kNoBound;
    }
  }

  std::vector<double> matrix_;
  std::size_t capacity_ = 0;
  std::unordered_map<Handle, std::uint32_t> slot_of_;
  std::vector<std::uint32_t> live_slots_;
  std::vector<std::uint32_t> free_slots_;
  Handle next_handle_ = 0;
  std::uint64_t relaxations_ = 0;
};

// The dense kernel skips the rows a new node cannot shorten, so it attempts
// at most the reference's relaxations.  A retiring insert never needs the
// extra slot the reference's insert-then-remove does, so its matrix may
// stay smaller.
void expect_bit_identical(const IncrementalApsp& dense,
                          const GatheredApsp& ref,
                          const std::unordered_map<Handle, Handle>& ref_of,
                          bool retiring, int step) {
  ASSERT_TRUE(dense.audit_storage()) << "step " << step;
  EXPECT_LE(dense.relaxations(), ref.relaxations()) << "step " << step;
  if (retiring) {
    EXPECT_LE(dense.matrix_bytes(), ref.matrix_bytes()) << "step " << step;
  } else {
    EXPECT_EQ(dense.matrix_bytes(), ref.matrix_bytes()) << "step " << step;
  }
  ASSERT_EQ(ref_of.size(), dense.size()) << "step " << step;
  for (const Handle u : dense.live_handles()) {
    for (const Handle v : dense.live_handles()) {
      const double r = ref.distance(ref_of.at(u), ref_of.at(v));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dense.distance(u, v)),
                std::bit_cast<std::uint64_t>(r))
          << "d(" << u << "," << v << ") dense=" << dense.distance(u, v)
          << " reference=" << r << " step " << step;
    }
  }
}

// Seeded churn through the live-count schedule below: odd L exercises the
// padded trip count, the climbs cross the 8/16/32/64 growth steps, and the
// descents remove the last slot (no move) as well as middle slots (a row
// and column move).  Every live distance must match the reference bit for
// bit, and the dense kernel must have skipped some rows.  With `retiring`,
// half the inserts also retire a random live node, which the reference
// removes after its insert.
void run_seeded_churn(int seed, bool retiring) {
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 17);
  IncrementalApsp dense;
  GatheredApsp ref;
  std::vector<Handle> live;  // Dense handles.
  std::unordered_map<Handle, Handle> ref_of;  // Dense handle -> reference.
  std::unordered_map<Handle, double> phi;
  int step = 0;
  Handle inserted = IncrementalApsp::kNoHandle;  // by the last insert

  // The same edges for the reference, its endpoints translated.
  const auto to_ref = [&](std::vector<HalfEdge> edges) {
    for (HalfEdge& e : edges) e.node = ref_of.at(e.node);
    return edges;
  };
  const auto insert = [&](std::vector<HalfEdge> ins,
                          std::vector<HalfEdge> outs) {
    Handle retire = IncrementalApsp::kNoHandle;
    if (retiring && live.size() >= 2 && rng.flip(0.5)) {
      retire = live[rng.uniform_index(live.size())];
    }
    const Handle h = dense.insert_node(ins, outs, retire);
    inserted = h;
    const Handle ref_h = ref.insert_node(to_ref(ins), to_ref(outs));
    ASSERT_EQ(h == IncrementalApsp::kNoHandle,
              ref_h == IncrementalApsp::kNoHandle)
        << "step " << step;
    if (h == IncrementalApsp::kNoHandle) {
      if (retire != IncrementalApsp::kNoHandle) {
        ASSERT_TRUE(dense.is_live(retire)) << "step " << step;
      }
      return;
    }
    live.push_back(h);
    ref_of[h] = ref_h;
    if (retire != IncrementalApsp::kNoHandle) {
      ASSERT_FALSE(dense.is_live(retire)) << "step " << step;
      ref.remove_node(ref_of.at(retire));
      ref_of.erase(retire);
      live.erase(std::find(live.begin(), live.end(), retire));
    }
  };

  for (const std::size_t target : {5u, 9u, 17u, 33u, 70u, 3u, 41u, 7u, 66u}) {
    while (live.size() != target) {
      ++step;
      const double action = rng.next_double();
      if (live.size() < target) {
        // A feasible node (edges of both signs around potentials), or
        // now and then one whose round trip through an anchor is negative.
        if (!live.empty() && action < 0.1) {
          const Handle anchor = live[rng.uniform_index(live.size())];
          const double leg = rng.uniform(0.0, 2.0);
          insert({{anchor, leg}}, {{anchor, -leg - 1e-3}});
          ASSERT_EQ(inserted, IncrementalApsp::kNoHandle)
              << "infeasible insert accepted";
          continue;
        }
        const double new_phi = rng.uniform(-5.0, 5.0);
        std::vector<HalfEdge> ins;
        std::vector<HalfEdge> outs;
        const std::size_t degree = live.empty() ? 0 : 1 + rng.uniform_index(3);
        for (std::size_t d = 0; d < degree; ++d) {
          const Handle other = live[rng.uniform_index(live.size())];
          const double base = rng.uniform(0.0, 4.0);
          if (rng.flip(0.5)) {
            ins.push_back({other, base - phi.at(other) + new_phi});
          } else {
            outs.push_back({other, base - new_phi + phi.at(other)});
          }
        }
        insert(ins, outs);
        ASSERT_NE(inserted, IncrementalApsp::kNoHandle)
            << "feasible insert rejected";
        phi[inserted] = new_phi;
      } else {
        // Last slot or a random one (usually a middle slot).
        const auto& slots = dense.live_handles();
        const Handle victim =
            action < 0.3 ? slots.back() : slots[rng.uniform_index(slots.size())];
        dense.remove_node(victim);
        ref.remove_node(ref_of.at(victim));
        ref_of.erase(victim);
        live.erase(std::find(live.begin(), live.end(), victim));
      }
      if (live.size() >= 2 && rng.flip(0.2)) {
        const Handle u = live[rng.uniform_index(live.size())];
        const Handle v = live[rng.uniform_index(live.size())];
        if (u != v) {
          const double w = rng.uniform(0.0, 4.0) - phi.at(u) + phi.at(v);
          ASSERT_EQ(dense.insert_edge(u, v, w),
                    ref.insert_edge(ref_of.at(u), ref_of.at(v), w));
        }
      }
      if (step % 7 == 0) {
        expect_bit_identical(dense, ref, ref_of, retiring, step);
      }
    }
    expect_bit_identical(dense, ref, ref_of, retiring, step);
  }
  EXPECT_LT(dense.relaxations(), ref.relaxations());
}

class DenseKernelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DenseKernelDifferentialTest, MatchesGatheredKernelBitForBit) {
  run_seeded_churn(GetParam(), /*retiring=*/false);
}

TEST_P(DenseKernelDifferentialTest, RetiringMatchesInsertThenRemove) {
  run_seeded_churn(GetParam(), /*retiring=*/true);
}

INSTANTIATE_TEST_SUITE_P(SeededChurn, DenseKernelDifferentialTest,
                         ::testing::Range(0, 6));

// ------------------------------------------------------- multi-pass kernel

// The multi-pass insert the one-pass kernel replaced, on the same dense
// layout and addressed by slot: the new row from a kNoBound fill relaxed
// by each out-edge head's row, the new column in scratch one strided pass
// per in-edge, a pass for the round-trip test, one relaxation pass per
// out-edge, then a separate column commit.  Kept here only as the
// differential reference: the kernel must give the same verdicts, the
// same distances to the bit and the same relaxation count.
class MultiPassApsp {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  struct SlotEdge {
    std::uint32_t slot;
    double weight;
  };

  bool insert_node(const std::vector<SlotEdge>& in_edges,
                   const std::vector<SlotEdge>& out_edges,
                   std::uint32_t retire) {
    const bool takeover = retire != kNoSlot;
    const std::uint32_t n = size_;
    if (!takeover && n == capacity_) grow(n + 1);
    const std::uint32_t slot = takeover ? retire : n;
    const std::size_t trip = (n + 1) & ~std::size_t{1};
    std::vector<double> row_new(trip, kNoBound);
    for (const SlotEdge& e : out_edges) {
      relax(row_new.data(), row(e.slot), e.weight, trip);
    }
    std::vector<double> col(n, kNoBound);
    for (const SlotEdge& e : in_edges) {
      for (std::uint32_t sx = 0; sx < n; ++sx) {
        const double t = at(sx, e.slot) + e.weight;
        col[sx] = t < col[sx] ? t : col[sx];
      }
    }
    bool negative = false;
    for (std::uint32_t sx = 0; sx < n; ++sx) {
      negative |= row_new[sx] + col[sx] < 0.0;
    }
    if (negative) return false;
    for (const SlotEdge& e : out_edges) {
      const double via = row_new[e.slot];
      for (std::uint32_t sx = 0; sx < n; ++sx) {
        if (col[sx] + via < at(sx, e.slot) && sx != slot) {
          relax(row(sx), row_new.data(), col[sx], trip);
          relaxations_ += n;
        }
      }
    }
    if (takeover || !in_edges.empty()) {
      for (std::uint32_t sx = 0; sx < n; ++sx) at(sx, slot) = col[sx];
    }
    if (takeover || !out_edges.empty()) {
      std::copy_n(row_new.begin(), n, row(slot));
    }
    at(slot, slot) = 0.0;
    if (!takeover) ++size_;
    return true;
  }

  void remove_node(std::uint32_t slot) {
    const std::uint32_t last = size_ - 1;
    if (slot != last) {
      std::copy_n(row(last), last + 1, row(slot));
      for (std::uint32_t sx = 0; sx <= last; ++sx) at(sx, slot) = at(sx, last);
    }
    for (std::uint32_t s = 0; s < size_; ++s) {
      at(last, s) = kNoBound;
      at(s, last) = kNoBound;
    }
    --size_;
  }

  [[nodiscard]] double at(std::uint32_t a, std::uint32_t b) const {
    return matrix_[static_cast<std::size_t>(a) * capacity_ + b];
  }
  [[nodiscard]] std::uint64_t relaxations() const { return relaxations_; }

 private:
  static void relax(double* row, const double* via, double head,
                    std::size_t n) {
    for (std::size_t y = 0; y < n; ++y) {
      const double t = head + via[y];
      row[y] = t < row[y] ? t : row[y];
    }
  }
  [[nodiscard]] double& at(std::uint32_t a, std::uint32_t b) {
    return matrix_[static_cast<std::size_t>(a) * capacity_ + b];
  }
  [[nodiscard]] double* row(std::uint32_t slot) {
    return &matrix_[static_cast<std::size_t>(slot) * capacity_];
  }
  void grow(std::size_t min_capacity) {
    std::size_t cap = std::max<std::size_t>(8, capacity_ * 2);
    while (cap < min_capacity) cap *= 2;
    std::vector<double> fresh(cap * cap, kNoBound);
    for (std::size_t x = 0; x < size_; ++x) {
      std::copy_n(&matrix_[x * capacity_], size_, &fresh[x * cap]);
    }
    matrix_ = std::move(fresh);
    capacity_ = cap;
  }

  std::vector<double> matrix_;
  std::size_t capacity_ = 0;
  std::uint32_t size_ = 0;
  std::uint64_t relaxations_ = 0;
};

/// The slot of live handle h: its index in live_handles().
std::uint32_t slot_in(const IncrementalApsp& apsp, Handle h) {
  const std::vector<Handle>& live = apsp.live_handles();
  return static_cast<std::uint32_t>(
      std::find(live.begin(), live.end(), h) - live.begin());
}

/// Every live distance, row by row in slot order, as bits.
std::vector<std::uint64_t> live_block(const IncrementalApsp& apsp) {
  std::vector<std::uint64_t> out;
  for (const Handle u : apsp.live_handles()) {
    for (const Handle v : apsp.live_handles()) {
      out.push_back(std::bit_cast<std::uint64_t>(apsp.distance(u, v)));
    }
  }
  return out;
}

void expect_same_as_multi_pass(const IncrementalApsp& apsp,
                               const MultiPassApsp& ref, int step) {
  ASSERT_TRUE(apsp.audit_storage()) << "step " << step;
  ASSERT_EQ(apsp.relaxations(), ref.relaxations()) << "step " << step;
  const std::vector<Handle>& live = apsp.live_handles();
  for (std::uint32_t a = 0; a < live.size(); ++a) {
    for (std::uint32_t b = 0; b < live.size(); ++b) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(apsp.distance(live[a], live[b])),
                std::bit_cast<std::uint64_t>(ref.at(a, b)))
          << "slots (" << a << "," << b << ") step " << step;
    }
  }
}

// Seeded inserts of every edge shape, 0-3 edges each way (the engine's
// 1-2 x 1-2 shapes take the specialised passes, the others the general
// one), around potentials so that accepted inserts stay feasible.  Four
// in ten retire a live node; one in eight closes a negative round trip
// through an anchor and must be refused with the matrix untouched.  The
// live count climbs through 1 and odd and even counts past the 8 and 16
// slot growth steps, falls back and climbs again.
void run_multi_pass_differential(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
  IncrementalApsp apsp;
  MultiPassApsp ref;
  std::unordered_map<Handle, double> phi;
  std::vector<bool> shape_seen(16);
  bool saw_one = false;
  bool saw_odd = false;
  bool saw_even = false;
  bool grew_mid_sequence = false;
  std::size_t refused = 0;
  std::size_t refused_takeovers = 0;
  int step = 0;
  for (const std::size_t target : {1u, 2u, 13u, 6u, 21u, 4u, 36u, 9u, 40u}) {
    while (apsp.size() != target) {
      ++step;
      const std::vector<Handle> live = apsp.live_handles();
      if (apsp.size() > target) {
        const Handle victim = live[rng.uniform_index(live.size())];
        ref.remove_node(slot_in(apsp, victim));
        apsp.remove_node(victim);
        expect_same_as_multi_pass(apsp, ref, step);
        continue;
      }
      const std::size_t n_in = live.empty() ? 0 : rng.uniform_index(4);
      const std::size_t n_out = live.empty() ? 0 : rng.uniform_index(4);
      const double new_phi = rng.uniform(-5.0, 5.0);
      std::vector<HalfEdge> ins;
      std::vector<HalfEdge> outs;
      for (std::size_t e = 0; e < n_in; ++e) {
        const Handle a = live[rng.uniform_index(live.size())];
        ins.push_back({a, rng.uniform(0.0, 4.0) - phi.at(a) + new_phi});
      }
      for (std::size_t e = 0; e < n_out; ++e) {
        const Handle b = live[rng.uniform_index(live.size())];
        outs.push_back({b, rng.uniform(0.0, 4.0) - new_phi + phi.at(b)});
      }
      const bool infeasible = !live.empty() && rng.flip(0.125);
      if (infeasible) {
        const Handle anchor = live[rng.uniform_index(live.size())];
        const double leg = rng.uniform(0.0, 2.0);
        ins.push_back({anchor, leg});
        outs.push_back({anchor, -leg - 1e-3});
      }
      const Handle retire = !live.empty() && rng.flip(0.4)
                                ? live[rng.uniform_index(live.size())]
                                : IncrementalApsp::kNoHandle;
      const auto slots = [&](const std::vector<HalfEdge>& edges) {
        std::vector<MultiPassApsp::SlotEdge> out;
        for (const HalfEdge& e : edges) {
          out.push_back({slot_in(apsp, e.node), e.weight});
        }
        return out;
      };
      const std::uint32_t retire_slot = retire == IncrementalApsp::kNoHandle
                                            ? MultiPassApsp::kNoSlot
                                            : slot_in(apsp, retire);
      const std::vector<std::uint64_t> before = live_block(apsp);
      const std::size_t capacity = apsp.capacity();
      const bool ref_accepted =
          ref.insert_node(slots(ins), slots(outs), retire_slot);
      const Handle h = apsp.insert_node(ins, outs, retire);
      ASSERT_EQ(h != IncrementalApsp::kNoHandle, ref_accepted)
          << "step " << step;
      if (h == IncrementalApsp::kNoHandle) {
        ASSERT_TRUE(infeasible) << "feasible insert refused, step " << step;
        ASSERT_TRUE(apsp.audit_storage()) << "step " << step;
        ASSERT_EQ(live_block(apsp), before) << "step " << step;
        ASSERT_EQ(apsp.live_handles(), live) << "step " << step;
        ++refused;
        if (retire != IncrementalApsp::kNoHandle) ++refused_takeovers;
      } else {
        phi[h] = new_phi;
        if (!infeasible) shape_seen[ins.size() * 4 + outs.size()] = true;
        saw_one |= live.size() == 1;
        (live.size() % 2 == 0 ? saw_even : saw_odd) = true;
        grew_mid_sequence |= capacity != 0 && apsp.capacity() != capacity;
      }
      expect_same_as_multi_pass(apsp, ref, step);
    }
  }
  for (std::size_t in = 0; in < 4; ++in) {
    for (std::size_t out = 0; out < 4; ++out) {
      EXPECT_TRUE(shape_seen[in * 4 + out])
          << in << " in-edges x " << out << " out-edges never inserted";
    }
  }
  EXPECT_TRUE(saw_one && saw_odd && saw_even);
  EXPECT_TRUE(grew_mid_sequence);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(refused_takeovers, 0u);
}

class MultiPassKernelDifferentialTest : public ::testing::TestWithParam<int> {
};

TEST_P(MultiPassKernelDifferentialTest, SameVerdictsDistancesAndRelaxations) {
  run_multi_pass_differential(GetParam());
}

INSTANTIATE_TEST_SUITE_P(SeededInserts, MultiPassKernelDifferentialTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace driftsync::graph
