// Tests for the workloads library: topology builders, probe/gossip apps and
// the scenario runner.
#include <gtest/gtest.h>

#include "baselines/interval_csa.h"
#include "core/optimal_csa.h"
#include "workloads/apps.h"
#include "workloads/scenario.h"
#include "workloads/topology.h"

namespace driftsync::workloads {
namespace {

TopoParams fast_params() {
  TopoParams p;
  p.rho = 1e-4;
  p.latency = sim::LatencyModel::uniform(0.001, 0.01);
  return p;
}

TEST(TopologyTest, PathShape) {
  const Network net = make_path(5, fast_params());
  EXPECT_EQ(net.spec.num_procs(), 5u);
  EXPECT_EQ(net.spec.links().size(), 4u);
  EXPECT_EQ(net.spec.diameter(), 4u);
  EXPECT_EQ(net.level[4], 4u);
  EXPECT_EQ(net.upstreams[3], (std::vector<ProcId>{2}));
  EXPECT_TRUE(net.upstreams[0].empty());
}

TEST(TopologyTest, RingShape) {
  const Network net = make_ring(6, fast_params());
  EXPECT_EQ(net.spec.links().size(), 6u);
  EXPECT_EQ(net.spec.diameter(), 3u);
  // The node opposite the source has two upstreams.
  EXPECT_EQ(net.upstreams[3].size(), 2u);
}

TEST(TopologyTest, StarShape) {
  const Network net = make_star(7, fast_params());
  EXPECT_EQ(net.spec.links().size(), 6u);
  EXPECT_EQ(net.spec.max_degree(), 6u);
  for (ProcId p = 1; p < 7; ++p) {
    EXPECT_EQ(net.upstreams[p], (std::vector<ProcId>{0}));
  }
}

TEST(TopologyTest, GridShape) {
  const Network net = make_grid(3, 4, fast_params());
  EXPECT_EQ(net.spec.num_procs(), 12u);
  EXPECT_EQ(net.spec.links().size(), 3u * 3 + 4u * 2);  // 17
  EXPECT_EQ(net.spec.diameter(), 5u);
}

TEST(TopologyTest, RandomConnectedWithExtraEdges) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Network net = make_random(12, 6, seed, fast_params());
    EXPECT_EQ(net.spec.num_procs(), 12u);
    EXPECT_EQ(net.spec.links().size(), 11u + 6u);
    // SystemSpec construction verifies connectivity; levels must be filled.
    for (ProcId p = 1; p < 12; ++p) EXPECT_FALSE(net.upstreams[p].empty());
  }
}

std::vector<std::pair<ProcId, ProcId>> edges(const Network& net) {
  std::vector<std::pair<ProcId, ProcId>> out;
  for (const LinkSpec& l : net.spec.links()) out.emplace_back(l.a, l.b);
  return out;
}

// The runtime experiments (EXP-16 resilience, EXP-17 churn) sweep these
// meshes.  The lists are the ones the experiments drew from their own
// builders before they took their graphs from this library; a changed
// builder would silently change what those sweeps measure.
TEST(TopologyTest, RuntimeExperimentGraphsArePinned) {
  using Edges = std::vector<std::pair<ProcId, ProcId>>;
  const TopoParams params = fast_params();
  EXPECT_EQ(edges(make_ring(6, params)),
            (Edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}));
  EXPECT_EQ(edges(make_grid(3, 3, params)),
            (Edges{{0, 1}, {0, 3}, {1, 2}, {1, 4}, {2, 5}, {3, 4}, {3, 6},
                   {4, 5}, {4, 7}, {5, 8}, {6, 7}, {7, 8}}));
  EXPECT_EQ(edges(make_star(6, params)),
            (Edges{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}));
  EXPECT_EQ(edges(make_erdos_renyi(7, 0.55, 1, params)),
            (Edges{{0, 1}, {0, 2}, {0, 3}, {0, 6}, {1, 2}, {1, 4}, {1, 5},
                   {1, 6}, {2, 3}, {2, 5}, {3, 4}}));
  EXPECT_EQ(edges(make_erdos_renyi(7, 0.55, 2, params)),
            (Edges{{0, 1}, {0, 2}, {0, 5}, {0, 6}, {1, 3}, {1, 5}, {1, 6},
                   {2, 3}, {2, 5}, {3, 4}, {4, 5}, {4, 6}}));
  EXPECT_EQ(edges(make_erdos_renyi(7, 0.55, 3, params)),
            (Edges{{0, 1}, {0, 2}, {1, 2}, {1, 4}, {1, 5}, {2, 5}, {2, 6},
                   {3, 4}, {3, 5}, {3, 6}, {4, 6}}));
}

// EXP-16 gates f <= ceil(conn/2) - 1 on these, so connectivity is pinned
// too (as the max-flow computation the experiment used before found it).
TEST(TopologyTest, VertexConnectivityOfTheExperimentGraphs) {
  const TopoParams params = fast_params();
  EXPECT_EQ(vertex_connectivity(make_ring(6, params).spec), 2u);
  EXPECT_EQ(vertex_connectivity(make_grid(3, 3, params).spec), 2u);
  EXPECT_EQ(vertex_connectivity(make_star(6, params).spec), 1u);
  EXPECT_EQ(vertex_connectivity(make_path(4, params).spec), 1u);
  EXPECT_EQ(vertex_connectivity(make_path(2, params).spec), 1u);
  EXPECT_EQ(vertex_connectivity(make_erdos_renyi(7, 0.55, 1, params).spec),
            2u);
  EXPECT_EQ(vertex_connectivity(make_erdos_renyi(7, 0.55, 2, params).spec),
            3u);
  EXPECT_EQ(vertex_connectivity(make_erdos_renyi(7, 0.55, 3, params).spec),
            2u);
  // Complete graphs have no separating cut: n - 1 by convention.
  EXPECT_EQ(vertex_connectivity(make_erdos_renyi(5, 1.0, 1, params).spec),
            4u);
}

TEST(TopologyTest, NtpHierarchyShape) {
  const Network net = make_ntp_hierarchy({2, 4, 8}, 2, false, 1,
                                         fast_params());
  EXPECT_EQ(net.spec.num_procs(), 15u);
  // Stratum-1 servers link to the source; deeper servers to 2 parents.
  EXPECT_EQ(net.level[1], 1u);
  EXPECT_EQ(net.level[2], 1u);
  for (ProcId p = 3; p < 7; ++p) EXPECT_EQ(net.level[p], 2u);
  for (ProcId p = 7; p < 15; ++p) EXPECT_EQ(net.level[p], 3u);
}

TEST(TopologyTest, NtpHierarchyPeerRings) {
  const Network no_rings =
      make_ntp_hierarchy({3, 3}, 1, false, 2, fast_params());
  const Network rings = make_ntp_hierarchy({3, 3}, 1, true, 2, fast_params());
  EXPECT_GT(rings.spec.links().size(), no_rings.spec.links().size());
}


TEST(TopologyTest, TreeShape) {
  const Network net = make_tree(3, 2, fast_params());
  EXPECT_EQ(net.spec.num_procs(), 15u);  // 1 + 2 + 4 + 8
  EXPECT_EQ(net.spec.links().size(), 14u);
  EXPECT_EQ(net.spec.diameter(), 6u);  // leaf -> root -> leaf
  // Every non-root has exactly one upstream (its parent).
  for (ProcId p = 1; p < 15; ++p) {
    EXPECT_EQ(net.upstreams[p].size(), 1u);
  }
  EXPECT_EQ(net.level[14], 3u);
}

TEST(TopologyTest, TreeDepthZeroIsJustTheSource) {
  const Network net = make_tree(0, 3, fast_params());
  EXPECT_EQ(net.spec.num_procs(), 1u);
  EXPECT_TRUE(net.spec.links().empty());
}

TEST(ScenarioTest, RunsAndCollectsMetrics) {
  const Network net = make_star(4, fast_params());
  ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.duration = 10.0;
  cfg.sample_interval = 0.5;
  std::vector<CsaSlot> slots;
  slots.push_back({"optimal", [](ProcId) {
                     return std::make_unique<OptimalCsa>();
                   }});
  slots.push_back({"interval", [](ProcId) {
                     return std::make_unique<IntervalCsa>();
                   }});
  const ScenarioReport report =
      run_scenario(net, periodic_probe_apps(net, 0.5), slots, cfg);
  ASSERT_EQ(report.csas.size(), 2u);
  EXPECT_EQ(report.csas[0].label, "optimal");
  EXPECT_GT(report.total_events, 100u);
  EXPECT_GT(report.messages_sent, 50u);
  EXPECT_EQ(report.messages_lost, 0u);
  for (const CsaMetrics& m : report.csas) {
    EXPECT_EQ(m.containment_violations, 0u);
    EXPECT_GT(m.samples, 0u);
    EXPECT_GT(m.width.count(), 0u);
    EXPECT_GT(m.final_mean_width, 0.0);
  }
  // The optimal algorithm is at least as tight on average.
  EXPECT_LE(report.csas[0].width.mean(), report.csas[1].width.mean() + 1e-12);
  EXPECT_GT(report.csas[0].max_live_points, 0u);
  EXPECT_GT(report.csas[0].payload_bytes_sent, 0u);
}

TEST(ScenarioTest, DeterministicReports) {
  const Network net = make_ring(5, fast_params());
  ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.duration = 5.0;
  std::vector<CsaSlot> slots{{"optimal", [](ProcId) {
                                return std::make_unique<OptimalCsa>();
                              }}};
  const auto r1 = run_scenario(net, gossip_apps(0.3), slots, cfg);
  const auto r2 = run_scenario(net, gossip_apps(0.3), slots, cfg);
  EXPECT_EQ(r1.total_events, r2.total_events);
  EXPECT_DOUBLE_EQ(r1.csas[0].width.mean(), r2.csas[0].width.mean());
}

TEST(ScenarioTest, WanderingClocksStayCorrect) {
  const Network net = make_path(4, fast_params());
  ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.duration = 12.0;
  cfg.clock_wander = true;
  cfg.wander_interval = 2.0;
  std::vector<CsaSlot> slots{{"optimal", [](ProcId) {
                                return std::make_unique<OptimalCsa>();
                              }}};
  const auto report =
      run_scenario(net, periodic_probe_apps(net, 0.4), slots, cfg);
  EXPECT_EQ(report.csas[0].containment_violations, 0u);
  EXPECT_GT(report.csas[0].samples, 0u);
}

TEST(ScenarioTest, AdaptiveProbingGeneratesBursts) {
  TopoParams params = fast_params();
  params.latency = sim::LatencyModel::bimodal(0.001, 0.003, 0.02, 0.08, 0.3);
  const Network net = make_star(3, params);
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration = 20.0;
  std::vector<CsaSlot> slots{{"optimal", [](ProcId) {
                                return std::make_unique<OptimalCsa>();
                              }}};
  // Tight target forces bursts; loose target nearly idles.
  const auto busy = run_scenario(
      net, adaptive_probe_apps(net, 2.0, 0.004, 0.02), slots, cfg);
  const auto idle = run_scenario(
      net, adaptive_probe_apps(net, 2.0, 10.0, 0.02), slots, cfg);
  EXPECT_GT(busy.messages_sent, idle.messages_sent * 2);
}

TEST(ScenarioTest, GossipTrafficSynchronizesEventually) {
  const Network net = make_grid(2, 3, fast_params());
  ScenarioConfig cfg;
  cfg.seed = 8;
  cfg.duration = 10.0;
  cfg.warmup = 5.0;  // by then everyone heard from the source
  std::vector<CsaSlot> slots{{"optimal", [](ProcId) {
                                return std::make_unique<OptimalCsa>();
                              }}};
  const auto report = run_scenario(net, gossip_apps(0.2, 0.6), slots, cfg);
  EXPECT_EQ(report.csas[0].unbounded_samples, 0u);
  EXPECT_EQ(report.csas[0].containment_violations, 0u);
}

}  // namespace
}  // namespace driftsync::workloads
