// Tests for the internal-synchronization-style extension: estimating a
// *peer's* current clock reading (SyncEngine::peer_clock_estimate), built on
// Theorem 2.1 pairwise bounds.  Checked against ground truth and against the
// full-view oracle's identical chaining.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/full_view_csa.h"
#include "core/optimal_csa.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workloads/apps.h"
#include "workloads/topology.h"

namespace driftsync {
namespace {

TEST(PeerClockEstimateTest, UnknownPeerIsEverything) {
  const SystemSpec spec = testing::line_spec(3);
  SyncEngine engine(spec, 1);
  testing::EventFactory fac(3);
  EXPECT_EQ(engine.ingest(fac.internal(1, 5.0)), IngestVerdict::kApplied);
  EXPECT_EQ(engine.peer_clock_estimate(2, 5.0), Interval::everything());
}

TEST(PeerClockEstimateTest, SelfEstimateIsExact) {
  const SystemSpec spec = testing::line_spec(2, 1e-3, 0.1, 1.0);
  SyncEngine engine(spec, 1);
  testing::EventFactory fac(2);
  EXPECT_EQ(engine.ingest(fac.internal(1, 5.0)), IngestVerdict::kApplied);
  // My own clock "estimate": last event + elapsed local time, exactly.
  const Interval est = engine.peer_clock_estimate(1, 7.5);
  EXPECT_TRUE(intervals_close(est, Interval::point(7.5)));
}

TEST(PeerClockEstimateTest, SourceEstimateMatchesExternal) {
  const SystemSpec spec = testing::line_spec(2, 1e-3, 0.2, 1.0);
  SyncEngine engine(spec, 1);
  testing::EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 100.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  // The source's clock IS real time, so peer_clock_estimate(source) must
  // coincide with the external-synchronization estimate.
  EXPECT_TRUE(intervals_close(engine.peer_clock_estimate(0, 100.0),
                              engine.estimate(100.0)));
  EXPECT_TRUE(intervals_close(engine.peer_clock_estimate(0, 123.0),
                              engine.estimate(123.0)));
}

TEST(PeerClockEstimateTest, SingleMessageGivesPeerWindow) {
  // Drift-free for clean arithmetic: link transit in [0.2, 1.0].
  const SystemSpec spec = testing::line_spec(2, 0.0, 0.2, 1.0);
  SyncEngine engine(spec, 1);
  testing::EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 100.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  // Since the receive, 3 local (= real) seconds passed; the peer's clock
  // read 10.0 at the send, which was 0.2-1.0 before the receive.
  const Interval est = engine.peer_clock_estimate(0, 103.0);
  EXPECT_TRUE(intervals_close(est, Interval{10.0 + 0.2 + 3.0,
                                            10.0 + 1.0 + 3.0}));
}

struct PeerObserver : sim::SimObserver {
  void on_probe(sim::Simulator& sim, RealTime rt) override {
    const std::size_t n = sim.spec().num_procs();
    for (ProcId p = 0; p < n; ++p) {
      const LocalTime now = sim.clock(p).lt_at(rt);
      auto& optimal = dynamic_cast<OptimalCsa&>(sim.csa(p, 0));
      auto& oracle = dynamic_cast<FullViewCsa&>(sim.csa(p, 1));
      for (ProcId w = 0; w < n; ++w) {
        const Interval fast = optimal.peer_clock_estimate(w, now);
        const Interval slow = oracle.peer_clock_estimate(w, now);
        // Ground truth: w's actual clock reading now.
        const LocalTime truth = sim.clock(w).lt_at(rt);
        EXPECT_TRUE(fast.contains(truth))
            << "proc " << p << " estimating " << w << ": " << fast.str()
            << " vs truth " << truth;
        EXPECT_TRUE(intervals_close(fast, slow, 1e-7))
            << "engine/oracle divergence for (" << p << "," << w << ")";
        ++checks;
      }
    }
  }
  int checks = 0;
};

TEST(PeerClockEstimateTest, SimulationContainmentAndOracleAgreement) {
  workloads::TopoParams params;
  params.rho = 300e-6;
  params.latency = sim::LatencyModel::uniform(0.002, 0.04);
  const workloads::Network net = workloads::make_random(6, 3, 13, params);
  sim::SimConfig cfg;
  cfg.seed = 5;
  cfg.probe_interval = 0.5;
  sim::Simulator simulator(net.spec, net.links, cfg);
  Rng rng(77);
  for (ProcId p = 0; p < net.spec.num_procs(); ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    csas.push_back(std::make_unique<FullViewCsa>());
    const double rho = net.spec.clock(p).rho;
    sim::ClockModel clock =
        p == net.spec.source()
            ? sim::ClockModel::constant(0.0, 1.0)
            : sim::ClockModel::constant(rng.uniform(-40.0, 40.0),
                                        1.0 + rng.uniform(-rho, rho));
    simulator.attach_node(p, std::move(clock),
                          std::make_unique<workloads::GossipApp>(
                              workloads::GossipApp::Config{0.3, 0.5}),
                          std::move(csas));
  }
  PeerObserver obs;
  simulator.set_observer(&obs);
  simulator.run_until(8.0);
  EXPECT_GT(obs.checks, 400);
}

}  // namespace
}  // namespace driftsync
