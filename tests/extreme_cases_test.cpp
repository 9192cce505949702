// Edge cases and numerically extreme scenarios: degenerate systems (one
// node, two nodes, zero-latency links), simultaneous events, huge clock
// offsets, high drift, and very tight transit bounds.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/full_view_csa.h"
#include "core/optimal_csa.h"
#include "core/sync_engine.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workloads/apps.h"
#include "workloads/topology.h"

namespace driftsync {
namespace {

using testing::EventFactory;
using testing::line_spec;

TEST(ExtremeTest, SingleProcessorSystem) {
  // A system of just the source: estimates are exact from the first event.
  const SystemSpec spec({ClockSpec{0.0}}, {}, 0);
  SyncEngine engine(spec, 0);
  EventFactory fac(1);
  EXPECT_EQ(engine.ingest(fac.internal(0, 7.0)), IngestVerdict::kApplied);
  EXPECT_TRUE(intervals_close(engine.estimate(9.0), Interval::point(9.0)));
}

TEST(ExtremeTest, ZeroWidthTransitBound) {
  // A link with exact transit (l == u): one message synchronizes perfectly
  // at the receive instant (for a drift-free receiver).
  const SystemSpec spec = line_spec(2, 0.0, 0.5, 0.5);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 300.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  EXPECT_TRUE(intervals_close(engine.estimate(300.0),
                              Interval::point(10.5)));
}

TEST(ExtremeTest, SimultaneousEventsAtOneProcessor) {
  // Two events with identical local times (e.g. two sends in one handler):
  // zero-weight drift edges, nothing breaks.
  const SystemSpec spec = line_spec(3, 1e-4, 0.0, 1.0);
  SyncEngine engine(spec, 1);
  EventFactory fac(3);
  const EventRecord s1 = fac.send(1, 5.0, 0);
  const EventRecord s2 = fac.send(1, 5.0, 2);
  EXPECT_EQ(engine.ingest(s1), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(s2), IngestVerdict::kApplied);
  EXPECT_EQ(engine.live_count(), 2u);
  EXPECT_TRUE(
      intervals_close(engine.rt_difference_bounds(s2.id, s1.id),
                      Interval::point(0.0)));
}

TEST(ExtremeTest, HugeClockOffsetsKeepPrecision) {
  // Offsets of ~1e9 seconds (30 years; worse than any real clock): widths
  // are small differences of huge numbers; the engine must still match the
  // oracle to relative precision.
  const SystemSpec spec = line_spec(2, 1e-4, 0.001, 0.02);
  SyncEngine engine(spec, 1);
  FullViewCsa oracle;
  oracle.init(spec, 1);
  EventFactory fac(2);
  const double base = 1.0e9;
  const EventRecord s = fac.send(0, 25.0, 1);
  const EventRecord r = fac.receive(1, base, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  oracle.on_receive(RecvContext{1, 0, r, s, 0}, CsaPayload{{s}, {}});
  const Interval fast = engine.estimate(base + 5.0);
  const Interval slow = oracle.estimate(base + 5.0);
  EXPECT_TRUE(intervals_close(fast, slow, 1e-9));
  EXPECT_TRUE(fast.bounded());
  EXPECT_NEAR(fast.width(), (0.02 - 0.001) + 5.0 * 2e-4, 1e-6);
}

TEST(ExtremeTest, VeryHighDriftBound) {
  // rho = 0.5: clock may run at half or 1.5x real speed.  The formulas must
  // stay consistent (no negative-cycle false positives) for in-spec clocks.
  const SystemSpec spec({ClockSpec{0.0}, ClockSpec{0.5}},
                        {LinkSpec{0, 1, 0.0, 0.1}}, 0);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  // Receiver clock runs at 1.4x: local times stretch.
  const EventRecord s1 = fac.send(0, 1.0, 1);
  const EventRecord r1 = fac.receive(1, 100.0, s1);
  const EventRecord s2 = fac.send(0, 2.0, 1);
  const EventRecord r2 = fac.receive(1, 101.4, s2);
  EXPECT_EQ(engine.ingest(s1), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r1), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(s2), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r2), IngestVerdict::kApplied);
  const Interval est = engine.estimate(101.4);
  EXPECT_TRUE(est.contains(2.05));  // true time just after the second send
}

TEST(ExtremeTest, NegativeLocalTimesAreFine) {
  // Local clocks can read arbitrary values, including negative ones.
  const SystemSpec spec = line_spec(2, 1e-4, 0.01, 0.05);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 3.0, 1);
  const EventRecord r = fac.receive(1, -5000.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  const Interval est = engine.estimate(-4999.0);
  EXPECT_TRUE(est.bounded());
  EXPECT_GT(est.lo, 3.0);  // just after the send, in source time
}

TEST(ExtremeTest, TwoNodeZeroMinDelayUnboundedMax) {
  // The weakest possible physical link spec: transit in [0, inf).  Only
  // round trips produce bounded estimates.
  const SystemSpec spec = line_spec(2, 1e-3, 0.0, kNoBound);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 100.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  Interval est = engine.estimate(100.0);
  EXPECT_TRUE(std::isfinite(est.lo));  // source sent at 10, transit >= 0
  EXPECT_EQ(est.hi, kNoBound);         // no upper bound without round trip
  const EventRecord s2 = fac.send(1, 100.5, 0);
  const EventRecord r2 = fac.receive(0, 11.0, s2);
  const EventRecord s3 = fac.send(0, 11.2, 1);
  const EventRecord r3 = fac.receive(1, 101.0, s3);
  EXPECT_EQ(engine.ingest(s2), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r2), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(s3), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r3), IngestVerdict::kApplied);
  est = engine.estimate(101.0);
  EXPECT_TRUE(est.bounded());
}

TEST(ExtremeTest, DenseSimultaneousTrafficInSimulator) {
  // Many zero-delay timers firing at the same instant: FIFO ordering and
  // seq assignment must stay coherent.
  const SystemSpec spec = line_spec(2, 1e-4, 0.0, 0.001);
  sim::SimConfig cfg;
  cfg.seed = 3;
  cfg.record_trace = true;
  sim::Simulator simulator(spec, {sim::LinkRuntime{
                                     sim::LatencyModel::fixed(0.0005), 0.0}},
                           cfg);
  struct BlastApp : sim::App {
    void on_start(sim::NodeApi& api) override {
      if (api.self() == 1) {
        for (int i = 0; i < 50; ++i) api.set_timer(1.0, 1);
      }
    }
    void on_timer(sim::NodeApi& api, std::uint32_t) override {
      api.send(0, 1);
    }
  };
  for (ProcId p = 0; p < 2; ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    csas.push_back(std::make_unique<FullViewCsa>());
    simulator.attach_node(p, sim::ClockModel::constant(0.0, 1.0),
                          std::make_unique<BlastApp>(), std::move(csas));
  }
  simulator.run_until(2.0);
  EXPECT_EQ(simulator.messages_sent(), 50u);
  // All 50 sends share one local time; estimates still agree with oracle.
  const Interval fast = simulator.csa(0, 0).estimate(2.0);
  const Interval slow = simulator.csa(0, 1).estimate(2.0);
  EXPECT_TRUE(intervals_close(fast, slow, 1e-9));
}

TEST(ExtremeTest, InternalEventsFlowThroughTheStack) {
  // Apps can mark internal events (points with no message); they must enter
  // every CSA's view, stay consistent with the oracle, and count as events.
  const SystemSpec spec = line_spec(2, 1e-4, 0.001, 0.01);
  sim::SimConfig cfg;
  cfg.seed = 6;
  cfg.record_trace = true;
  sim::Simulator simulator(
      spec, {sim::LinkRuntime{sim::LatencyModel::fixed(0.005), 0.0}}, cfg);
  struct TickerApp : sim::App {
    void on_start(sim::NodeApi& api) override { api.set_timer(0.1, 1); }
    void on_timer(sim::NodeApi& api, std::uint32_t) override {
      api.mark_internal_event();
      if (api.self() == 1 && api.rng().flip(0.5)) api.send(0, 1);
      if (api.self() == 0 && api.rng().flip(0.5)) api.send(1, 1);
      api.set_timer(0.1, 1);
    }
  };
  for (ProcId p = 0; p < 2; ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    csas.push_back(std::make_unique<FullViewCsa>());
    simulator.attach_node(p, sim::ClockModel::constant(p * 4.0, 1.0),
                          std::make_unique<TickerApp>(), std::move(csas));
  }
  simulator.run_until(5.0);
  std::size_t internals = 0;
  for (const sim::TraceEntry& te : simulator.trace()) {
    if (te.record.kind == EventKind::kInternal) ++internals;
  }
  EXPECT_GE(internals, 90u);  // ~50 ticks per node
  for (ProcId p = 0; p < 2; ++p) {
    const LocalTime lt = simulator.clock(p).lt_at(5.0);
    EXPECT_TRUE(intervals_close(simulator.csa(p, 0).estimate(lt),
                                simulator.csa(p, 1).estimate(lt), 1e-9));
  }
  // The internal events were propagated to the peer's view too.
  const auto& oracle = dynamic_cast<FullViewCsa&>(simulator.csa(0, 1));
  EXPECT_GT(oracle.view().events_of(1).size(), 40u);
}

TEST(ExtremeTest, LongIdlePeriodKeepsExtrapolating) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.001, 0.01);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 1.0, 1);
  const EventRecord r = fac.receive(1, 2.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  const double w0 = engine.estimate(2.0).width();
  // A week of silence: width grows linearly, never overflows or collapses.
  const double week = 7 * 24 * 3600.0;
  const double w1 = engine.estimate(2.0 + week).width();
  EXPECT_NEAR(w1 - w0, week * (1e-4 / (1 - 1e-4) + 1e-4 / (1 + 1e-4)), 1e-3);
}

}  // namespace
}  // namespace driftsync
