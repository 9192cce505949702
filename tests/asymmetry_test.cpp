// Tests for per-direction link bounds (asymmetric links) and virtual
// reference links (negative lower transit bounds — the paper's §4 modeling
// of stratum-0 server accuracy).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/full_view_csa.h"
#include "baselines/ntp_csa.h"
#include "core/optimal_csa.h"
#include "core/sync_engine.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workloads/apps.h"

namespace driftsync {
namespace {

using testing::EventFactory;

TEST(AsymmetricLinkTest, DirectionalAccessors) {
  const LinkSpec link(2, 5, 0.001, 0.010, 0.020, 0.080);
  EXPECT_DOUBLE_EQ(link.min_from(2), 0.001);
  EXPECT_DOUBLE_EQ(link.max_from(2), 0.010);
  EXPECT_DOUBLE_EQ(link.min_from(5), 0.020);
  EXPECT_DOUBLE_EQ(link.max_from(5), 0.080);
  EXPECT_THROW((void)link.min_from(7), std::logic_error);
}

TEST(AsymmetricLinkTest, SymmetricConstructorFillsBoth) {
  const LinkSpec link(0, 1, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(link.min_from(0), link.min_from(1));
  EXPECT_DOUBLE_EQ(link.max_from(0), link.max_from(1));
}

TEST(AsymmetricLinkTest, SpecValidatesBothDirections) {
  EXPECT_THROW(SystemSpec({ClockSpec{0.0}, ClockSpec{1e-4}},
                          {LinkSpec(0, 1, 0.0, 1.0, 2.0, 1.0)}, 0),
               std::logic_error);
}

SystemSpec asym_spec() {
  // Downlink (0 -> 1) is fast and tight; uplink (1 -> 0) slow and loose.
  return SystemSpec({ClockSpec{0.0}, ClockSpec{1e-4}},
                    {LinkSpec(0, 1, 0.001, 0.002, 0.050, 0.200)}, 0);
}

TEST(AsymmetricLinkTest, EngineUsesDirectionalBounds) {
  const SystemSpec spec = asym_spec();
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  // A single downlink message: transit known within [1, 2] ms.
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 500.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  const Interval est = engine.estimate(500.0);
  EXPECT_TRUE(intervals_close(est, Interval{10.001, 10.002}));
}

TEST(AsymmetricLinkTest, UplinkUsesItsOwnBounds) {
  const SystemSpec spec = asym_spec();
  SyncEngine engine(spec, 0);  // view from the source side
  EventFactory fac(2);
  const EventRecord s = fac.send(1, 100.0, 0);
  const EventRecord r = fac.receive(0, 20.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  // RT(r) - RT(s) in [0.05, 0.2] (uplink bounds).
  EXPECT_TRUE(intervals_close(engine.rt_difference_bounds(r.id, s.id),
                              Interval{0.05, 0.2}));
}

TEST(AsymmetricLinkTest, SimulatorSamplesPerDirection) {
  const SystemSpec spec = asym_spec();
  sim::SimConfig cfg;
  cfg.seed = 2;
  cfg.record_trace = true;
  sim::LinkRuntime rt;
  rt.latency = sim::LatencyModel::uniform(0.001, 0.002);
  rt.latency_reverse = sim::LatencyModel::uniform(0.050, 0.200);
  sim::Simulator simulator(spec, {rt}, cfg);
  workloads::ProbeApp::Config pc;
  pc.upstreams = {0};
  pc.period = 0.3;
  for (ProcId p = 0; p < 2; ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    workloads::ProbeApp::Config cfg_p = p == 1 ? pc : workloads::ProbeApp::Config{};
    simulator.attach_node(p, sim::ClockModel::constant(p * 5.0, 1.0),
                          std::make_unique<workloads::ProbeApp>(cfg_p),
                          std::move(csas));
  }
  simulator.run_until(10.0);
  // Check ground-truth transit per direction from the trace.
  std::map<std::uint64_t, RealTime> send_rt;
  int down = 0, up = 0;
  for (const sim::TraceEntry& te : simulator.trace()) {
    if (te.record.kind == EventKind::kSend) {
      send_rt[te.record.id.pack()] = te.rt;
    } else if (te.record.kind == EventKind::kReceive) {
      const double transit = te.rt - send_rt.at(te.record.match.pack());
      if (te.record.peer == 0) {
        EXPECT_LE(transit, 0.002 + 1e-12);
        ++down;
      } else {
        EXPECT_GE(transit, 0.050 - 1e-12);
        ++up;
      }
    }
  }
  EXPECT_GT(down, 10);
  EXPECT_GT(up, 10);
}

TEST(AsymmetricLinkTest, RejectsWrongDirectionModel) {
  const SystemSpec spec = asym_spec();
  sim::LinkRuntime rt;
  rt.latency = sim::LatencyModel::uniform(0.050, 0.200);  // violates a->b
  EXPECT_THROW(sim::Simulator(spec, {rt}, sim::SimConfig{}),
               std::logic_error);
}

TEST(AsymmetricLinkTest, OptimalMatchesOracleUnderAsymmetry) {
  const SystemSpec spec = asym_spec();
  sim::SimConfig cfg;
  cfg.seed = 6;
  sim::LinkRuntime rt;
  rt.latency = sim::LatencyModel::uniform(0.001, 0.002);
  rt.latency_reverse = sim::LatencyModel::uniform(0.050, 0.200);
  sim::Simulator simulator(spec, {rt}, cfg);
  for (ProcId p = 0; p < 2; ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    csas.push_back(std::make_unique<FullViewCsa>());
    csas.push_back(std::make_unique<NtpCsa>());
    workloads::ProbeApp::Config pc;
    if (p == 1) {
      pc.upstreams = {0};
      pc.period = 0.4;
    }
    simulator.attach_node(
        p,
        p == 0 ? sim::ClockModel::constant(0.0, 1.0)
               : sim::ClockModel::constant(7.0, 1.00005),
        std::make_unique<workloads::ProbeApp>(pc), std::move(csas));
  }
  struct Obs : sim::SimObserver {
    void on_event(sim::Simulator& sim, const EventRecord& rec,
                  RealTime rtime) override {
      const Interval fast = sim.csa(rec.id.proc, 0).estimate(rec.lt);
      const Interval slow = sim.csa(rec.id.proc, 1).estimate(rec.lt);
      const Interval ntp = sim.csa(rec.id.proc, 2).estimate(rec.lt);
      EXPECT_TRUE(intervals_close(fast, slow, 1e-7));
      EXPECT_TRUE(fast.contains(rtime));
      EXPECT_TRUE(ntp.contains(rtime));  // conservative asymmetric bound
      ++n;
    }
    int n = 0;
  } obs;
  simulator.set_observer(&obs);
  simulator.run_until(12.0);
  EXPECT_GT(obs.n, 50);
  // The optimal algorithm nails the tight downlink; NTP's midpoint halves
  // the RTT and must carry a much wider error bound.
  const Interval opt = simulator.csa(1, 0).estimate(
      simulator.clock(1).lt_at(12.0));
  const Interval ntp = simulator.csa(1, 2).estimate(
      simulator.clock(1).lt_at(12.0));
  EXPECT_LT(opt.width() * 10, ntp.width());
}

// ------------------------------------------------ virtual reference links

TEST(ReferenceLinkTest, NegativeLowerBoundAccepted) {
  const SystemSpec spec({ClockSpec{0.0}, ClockSpec{1e-4}},
                        {LinkSpec(0, 1, -0.001, 0.001)}, 0);
  EXPECT_DOUBLE_EQ(spec.link_between(0, 1)->min_from(0), -0.001);
}

TEST(ReferenceLinkTest, ReadingAccuracyBecomesEstimateWidth) {
  // A reference "reading" is a message over a [-a, +a] link: one reading
  // pins the source time to within 2a (plus drift afterwards).
  const double a = 0.0005;
  const SystemSpec spec({ClockSpec{0.0}, ClockSpec{1e-4}},
                        {LinkSpec(0, 1, -a, a)}, 0);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 50.0, 1);
  const EventRecord r = fac.receive(1, 1000.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  const Interval est = engine.estimate(1000.0);
  EXPECT_TRUE(intervals_close(est, Interval{50.0 - a, 50.0 + a}));
}

TEST(ReferenceLinkTest, SimulatedGpsReceiverStaysCorrect) {
  // Physical delivery is [0, a] (non-negative), well inside the claimed
  // [-a, +a]: the estimate must contain true time at all probes.
  const double a = 0.001;
  const SystemSpec spec({ClockSpec{0.0}, ClockSpec{1e-4}},
                        {LinkSpec(0, 1, -a, a)}, 0);
  sim::SimConfig cfg;
  cfg.seed = 4;
  cfg.probe_interval = 0.2;
  sim::LinkRuntime rt;
  rt.latency = sim::LatencyModel::uniform(0.0, a);
  sim::Simulator simulator(spec, {rt}, cfg);
  struct BeaconApp : sim::App {
    void on_start(sim::NodeApi& api) override {
      if (api.self() == 0) api.set_timer(1.0, 1);
    }
    void on_timer(sim::NodeApi& api, std::uint32_t) override {
      api.send(1, 1);
      api.set_timer(1.0, 1);
    }
  };
  for (ProcId p = 0; p < 2; ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    simulator.attach_node(p, sim::ClockModel::constant(p * 3.0, 1.0),
                          std::make_unique<BeaconApp>(), std::move(csas));
  }
  struct Obs : sim::SimObserver {
    void on_probe(sim::Simulator& sim, RealTime rtime) override {
      const Interval est =
          sim.csa(1, 0).estimate(sim.clock(1).lt_at(rtime));
      EXPECT_TRUE(est.contains(rtime));
      if (est.bounded()) {
        EXPECT_LE(est.width(), 2 * 0.001 + 1.2 * 2e-4);
        ++bounded;
      }
    }
    int bounded = 0;
  } obs;
  simulator.set_observer(&obs);
  simulator.run_until(20.0);
  EXPECT_GT(obs.bounded, 80);
}

}  // namespace
}  // namespace driftsync
