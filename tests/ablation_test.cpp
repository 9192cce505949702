// Ablation tests: the two garbage-collection mechanisms (AGDP dead nodes,
// Section 3.2; history buffer, Figure 2) change costs only — never results.
#include <gtest/gtest.h>

#include <memory>

#include "core/history.h"
#include "core/optimal_csa.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workloads/apps.h"
#include "workloads/topology.h"

namespace driftsync {
namespace {

using testing::EventFactory;
using testing::line_spec;

TEST(HistoryGcAblationTest, BufferGrowsWithoutGc) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.0, 1.0);
  HistoryProtocol::Options no_gc;
  no_gc.disable_gc = true;
  HistoryProtocol with(spec, 0);
  HistoryProtocol without(spec, 0, no_gc);
  EventFactory fac_a(2), fac_b(2);
  for (int i = 0; i < 50; ++i) {
    const double t = 1.0 + i;
    const EventRecord sa = fac_a.send(0, t, 1);
    const EventRecord sb = fac_b.send(0, t, 1);
    with.fill_message(1, sa);
    without.fill_message(1, sb);
  }
  EXPECT_EQ(with.history_size(), 0u);     // single neighbor: drained
  EXPECT_EQ(without.history_size(), 50u);  // everything retained
}

TEST(HistoryGcAblationTest, MessagesIdenticalWithAndWithoutGc) {
  // The C arrays alone decide reports; GC only trims memory.
  const SystemSpec spec = line_spec(3, 1e-4, 0.0, 1.0);
  HistoryProtocol::Options no_gc;
  no_gc.disable_gc = true;
  std::vector<std::unique_ptr<HistoryProtocol>> with, without;
  for (ProcId p = 0; p < 3; ++p) {
    with.push_back(std::make_unique<HistoryProtocol>(spec, p));
    without.push_back(std::make_unique<HistoryProtocol>(spec, p, no_gc));
  }
  EventFactory fac_a(3), fac_b(3);
  const auto exchange = [&](ProcId from, ProcId to, double ts, double tr) {
    const EventRecord sa = fac_a.send(from, ts, to);
    const EventRecord sb = fac_b.send(from, ts, to);
    const EventBatch ba = with[from]->fill_message(to, sa);
    const EventBatch bb = without[from]->fill_message(to, sb);
    ASSERT_EQ(ba, bb);
    ASSERT_EQ(with[to]->receive_message(from, ba), MergeVerdict::kMerged);
    ASSERT_EQ(without[to]->receive_message(from, bb), MergeVerdict::kMerged);
    with[to]->record_own_event(fac_a.receive(to, tr, sa));
    without[to]->record_own_event(fac_b.receive(to, tr, sb));
  };
  double t = 0.0;
  for (int round = 0; round < 15; ++round) {
    exchange(0, 1, t + 0.1, t + 0.2);
    exchange(1, 2, t + 0.3, t + 0.4);
    exchange(2, 1, t + 0.5, t + 0.6);
    exchange(1, 0, t + 0.7, t + 0.8);
    t += 1.0;
  }
  EXPECT_GT(without[1]->history_size(), 4 * with[1]->history_size());
}

TEST(AgdpGcAblationTest, EstimatesIdenticalWithAndWithoutGc) {
  // Lemma 3.4, white-box at the CSA level: disabling dead-node removal must
  // not change a single estimate on an identical execution.
  workloads::TopoParams params;
  params.rho = 200e-6;
  params.latency = sim::LatencyModel::uniform(0.002, 0.03);
  const workloads::Network net = workloads::make_ring(4, params);
  sim::SimConfig cfg;
  cfg.seed = 21;
  sim::Simulator simulator(net.spec, net.links, cfg);
  Rng rng(3);
  for (ProcId p = 0; p < net.spec.num_procs(); ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    OptimalCsa::Options ablated;
    ablated.ablate_keep_dead_nodes = true;
    csas.push_back(std::make_unique<OptimalCsa>(ablated));
    const double rho = net.spec.clock(p).rho;
    sim::ClockModel clock =
        p == net.spec.source()
            ? sim::ClockModel::constant(0.0, 1.0)
            : sim::ClockModel::constant(rng.uniform(-9.0, 9.0),
                                        1.0 + rng.uniform(-rho, rho));
    simulator.attach_node(p, std::move(clock),
                          std::make_unique<workloads::GossipApp>(
                              workloads::GossipApp::Config{0.2, 0.5}),
                          std::move(csas));
  }
  struct Obs : sim::SimObserver {
    void on_event(sim::Simulator& sim, const EventRecord& rec,
                  RealTime) override {
      const Interval gc = sim.csa(rec.id.proc, 0).estimate(rec.lt);
      const Interval no_gc = sim.csa(rec.id.proc, 1).estimate(rec.lt);
      // Equal up to floating-point association order (paths through dead
      // nodes re-derive the same minima with different rounding).
      EXPECT_TRUE(intervals_close(gc, no_gc, 1e-12))
          << gc.str() << " vs " << no_gc.str();
      ++n;
    }
    int n = 0;
  } obs;
  simulator.set_observer(&obs);
  simulator.run_until(8.0);
  EXPECT_GT(obs.n, 50);
  // ... and the ablated node set is much larger.
  const CsaStats gc = simulator.csa(1, 0).stats();
  const CsaStats no_gc = simulator.csa(1, 1).stats();
  EXPECT_GT(no_gc.max_live_points, 4 * gc.max_live_points);
}

}  // namespace
}  // namespace driftsync
