// Differential fuzzer: endless random scenarios, OptimalCsa vs the
// full-view oracle after every event, plus ground-truth containment and
// live-set equality.  In about a third of the scenarios one processor other
// than the source sends a single message and then falls silent, so its
// last event stays live beside points whose kernel ids are recycled.  Runs
// until the iteration budget (or --seconds) is exhausted; any divergence
// aborts with a reproducer seed.
//
//   $ ./fuzz_differential [--iterations=N] [--seconds=S] [--seed0=K]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "baselines/full_view_csa.h"
#include "common/flags.h"
#include "core/optimal_csa.h"
#include "sim/simulator.h"
#include "workloads/apps.h"
#include "workloads/topology.h"

using namespace driftsync;

namespace {

struct DiffObserver : sim::SimObserver {
  explicit DiffObserver(std::uint64_t seed) : seed_(seed) {}
  void on_event(sim::Simulator& sim, const EventRecord& rec,
                RealTime rt) override {
    const ProcId p = rec.id.proc;
    auto& optimal = dynamic_cast<OptimalCsa&>(sim.csa(p, 0));
    auto& oracle = dynamic_cast<FullViewCsa&>(sim.csa(p, 1));
    const Interval fast = optimal.estimate(rec.lt);
    const Interval slow = oracle.estimate(rec.lt);
    if (!intervals_close(fast, slow, 1e-7) || !fast.contains(rt)) {
      std::fprintf(stderr,
                   "DIVERGENCE at seed=%llu event=%s: optimal=%s oracle=%s "
                   "truth=%.9f\n",
                   static_cast<unsigned long long>(seed_),
                   rec.id.str().c_str(), fast.str().c_str(),
                   slow.str().c_str(), rt);
      std::abort();
    }
    auto live_engine = optimal.engine().live_points();
    auto live_view = oracle.view().live_points();
    std::sort(live_view.begin(), live_view.end());
    if (live_engine != live_view) {
      std::fprintf(stderr, "LIVE-SET DIVERGENCE at seed=%llu event=%s\n",
                   static_cast<unsigned long long>(seed_),
                   rec.id.str().c_str());
      std::abort();
    }
    ++events;
  }
  std::uint64_t seed_;
  std::size_t events = 0;
};

/// Sends one message to a random neighbor and is silent after it.
class OneMessageApp : public sim::App {
 public:
  void on_start(sim::NodeApi& api) override {
    api.set_timer(api.rng().uniform(0.0, 0.5), 0);
  }
  void on_timer(sim::NodeApi& api, std::uint32_t tag) override {
    (void)tag;
    const auto& nbrs = api.neighbors();
    if (!nbrs.empty()) api.send(nbrs[api.rng().uniform_index(nbrs.size())], 0);
  }
};

std::size_t fuzz_once(std::uint64_t seed) {
  Rng rng(seed);
  workloads::TopoParams params;
  params.rho = rng.uniform(0.0, 0.01);
  const double lo = rng.uniform(0.0, 0.02);
  params.latency = sim::LatencyModel::uniform(lo, lo + rng.uniform(0.001, 0.1));
  const std::size_t n = 3 + rng.uniform_index(6);
  workloads::Network net;
  switch (rng.uniform_index(4)) {
    case 0: net = workloads::make_path(n, params); break;
    case 1: net = workloads::make_ring(std::max<std::size_t>(n, 3), params); break;
    case 2: net = workloads::make_star(n, params); break;
    default: net = workloads::make_random(n, n / 2, seed ^ 0xabc, params);
  }
  sim::SimConfig cfg;
  cfg.seed = seed * 977 + 3;
  sim::Simulator simulator(net.spec, net.links, cfg);
  const std::size_t procs = net.spec.num_procs();
  ProcId silent = kInvalidProc;
  if (rng.flip(1.0 / 3.0)) {
    silent = static_cast<ProcId>(
        (net.spec.source() + 1 + rng.uniform_index(procs - 1)) % procs);
  }
  for (ProcId p = 0; p < procs; ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    csas.push_back(std::make_unique<FullViewCsa>());
    const double rho = net.spec.clock(p).rho;
    sim::ClockModel clock = sim::ClockModel::constant(0.0, 1.0);
    if (p != net.spec.source()) {
      clock = sim::ClockModel::constant(rng.uniform(-500.0, 500.0),
                                        1.0 + rng.uniform(-rho, rho));
      if (rng.flip(0.5) && rho > 0.0) {
        for (double t = 0.5; t < 5.0; t += 0.5) {
          clock.add_rate_change(t, 1.0 + rng.uniform(-rho, rho));
        }
      }
    }
    std::unique_ptr<sim::App> app;
    if (p == silent) {
      app = std::make_unique<OneMessageApp>();
    } else if (rng.flip(0.5)) {
      app = std::make_unique<workloads::GossipApp>(workloads::GossipApp::Config{
          rng.uniform(0.05, 0.5), rng.uniform(0.0, 1.0)});
    } else {
      workloads::ProbeApp::Config pc;
      pc.upstreams = net.upstreams[p];
      pc.peers = net.peers[p];
      pc.period = rng.uniform(0.1, 1.0);
      app = std::make_unique<workloads::ProbeApp>(pc);
    }
    simulator.attach_node(p, std::move(clock), std::move(app),
                          std::move(csas));
  }
  DiffObserver obs(seed);
  simulator.set_observer(&obs);
  simulator.run_until(rng.uniform(2.0, 6.0));
  return obs.events;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const auto iterations =
      static_cast<std::uint64_t>(flags.get_int("iterations", 50));
  const double seconds = flags.get_double("seconds", 0.0);
  const std::uint64_t seed0 = flags.get_seed("seed0", 1);
  flags.reject_unknown(
      "usage: fuzz_differential [--iterations=N] [--seconds=S] [--seed0=N]");

  const auto start = std::chrono::steady_clock::now();
  std::size_t total_events = 0;
  std::uint64_t i = 0;
  for (;; ++i) {
    if (seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= seconds) break;
    } else if (i >= iterations) {
      break;
    }
    total_events += fuzz_once(seed0 + i);
  }
  std::printf("fuzzed %llu scenarios, %zu events, 0 divergences\n",
              static_cast<unsigned long long>(i), total_events);
  return 0;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
