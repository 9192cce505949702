// Clock discipline: using the interval output to steer a software clock.
//
// External synchronization gives an *interval*; real systems usually need a
// point estimate ("what time is it?").  This example runs a small system
// with the optimal CSA and disciplines a per-node software clock toward the
// interval midpoint with the library's clock::DisciplinedClock (the one a
// runtime Node externalizes): proportional steering, slew-limited at
// 500 ppm, never a step after the first snap, like ntpd's disciplined
// clock.  It then reports the achieved offset from true time — which lands
// well inside the interval half-width, the theoretical bound any
// discipline could guarantee.
//
//   $ ./clock_discipline [seconds=60]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "clock/disciplined_clock.h"
#include "common/stats.h"
#include "core/optimal_csa.h"
#include "sim/simulator.h"
#include "workloads/apps.h"
#include "workloads/topology.h"

using namespace driftsync;

int main(int argc, char** argv) {
  const double duration = argc > 1 ? std::atof(argv[1]) : 60.0;
  workloads::TopoParams params;
  params.rho = 100e-6;
  params.latency = sim::LatencyModel::uniform(0.002, 0.015);
  const workloads::Network net = workloads::make_ntp_hierarchy(
      {2, 4}, 2, true, 3, params);

  sim::SimConfig cfg;
  cfg.seed = 31;
  sim::Simulator simulator(net.spec, net.links, cfg);
  Rng rng(8);
  for (ProcId p = 0; p < net.spec.num_procs(); ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<OptimalCsa>());
    const double rho = net.spec.clock(p).rho;
    sim::ClockModel clock =
        p == 0 ? sim::ClockModel::constant(0.0, 1.0)
               : sim::ClockModel::constant(rng.uniform(-3600.0, 3600.0),
                                           1.0 + rng.uniform(-rho, rho));
    workloads::ProbeApp::Config pc;
    pc.upstreams = net.upstreams[p];
    pc.peers = net.peers[p];
    pc.period = 1.0;
    simulator.attach_node(p, std::move(clock),
                          std::make_unique<workloads::ProbeApp>(pc),
                          std::move(csas));
  }

  clock::DisciplineOptions dopts;
  dopts.max_slew = 500e-6;
  std::vector<clock::DisciplinedClock> soft(net.spec.num_procs(),
                                            clock::DisciplinedClock(dopts));
  std::vector<RunningStats> abs_err(net.spec.num_procs());
  std::vector<RunningStats> half_width(net.spec.num_procs());
  for (double t = 0.1; t <= duration; t += 0.1) {
    simulator.run_until(t);
    for (ProcId p = 1; p < net.spec.num_procs(); ++p) {
      const LocalTime hw = simulator.clock(p).lt_at(t);
      const Interval est = simulator.csa(p, 0).estimate(hw);
      soft[p].steer(hw, est);
      if (soft[p].initialized() && t > duration / 4) {
        abs_err[p].add(std::fabs(soft[p].now(hw) - t));
        if (est.bounded()) half_width[p].add(est.width() / 2);
      }
    }
  }

  std::printf("%6s %8s %16s %16s %18s\n", "proc", "stratum",
              "mean |error| (s)", "max |error| (s)", "mean half-width (s)");
  for (ProcId p = 1; p < net.spec.num_procs(); ++p) {
    std::printf("%6u %8zu %16.6f %16.6f %18.6f\n", p, net.level[p],
                abs_err[p].mean(), abs_err[p].max(), half_width[p].mean());
  }
  std::printf(
      "\nThe disciplined clocks track true time within the interval\n"
      "half-width — the tightest guarantee any discipline could offer,\n"
      "since the midpoint minimizes worst-case error over the interval.\n");
  return 0;
}
