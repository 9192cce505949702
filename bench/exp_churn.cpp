// EXP-17 — membership churn envelope (DESIGN.md decision 19).
//
// How much join/leave churn does the mesh absorb while staying correct —
// and what does churn cost in gradient sharpness and reconvergence time?
// The experiment runs the real runtime stack (a runtime::Mesh: ThreadHub,
// Node threads, dynamic membership on) and has one seeded non-source seat
// cycle through leave/rejoin at a fixed rate, sweeping
//
//   topology  x  churn rate (cycles/second)  x  seed
//
// and reporting, per cell, the oracle's containment violations (ground
// truth, checked through every membership transition), the number of
// completed leave/rejoin cycles, the p99 over sampled per-neighbor
// gradient widths (what KLLO-style gradient sync bounds; sampled from
// peer_clock_bounds on every spec edge), and the churned seat's
// reconvergence time after its final rejoin.
//
// The gate is containment only: churn within the spec must NEVER cost
// soundness, at any rate — a violation anywhere exits nonzero.  What
// churn is allowed to cost is liveness, and that is the curve: gradient
// p99 and reconvergence time vs rate, per topology.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/flags.h"
#include "common/interval.h"
#include "common/rng.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/mesh.h"
#include "runtime/time_source.h"
#include "workloads/topology.h"

using namespace driftsync;
using namespace driftsync::runtime;

namespace {

constexpr const char* kUsage =
    "usage: exp_churn [--seed=N] [--seeds=N] [--duration=S] "
    "[--topos=ring,grid,random]";

constexpr double kRho = 5e-4;
constexpr double kSpecMaxTransit = 0.05;
constexpr double kConvergedWidth = 0.5;

/// The swept meshes: ring-6, grid-3x3, and a dense random-7 (G(7, 0.55),
/// re-drawn until connected, so the churned seat's neighbors still reach
/// the source while it is away).  Source 0; every link specced [0, 50 ms].
SystemSpec make_topology(const std::string& name, std::uint64_t seed) {
  const workloads::TopoParams params{
      .rho = kRho, .latency = sim::LatencyModel::uniform(0.0, kSpecMaxTransit)};
  if (name == "ring") return workloads::make_ring(6, params).spec;
  if (name == "grid") return workloads::make_grid(3, 3, params).spec;
  return workloads::make_erdos_renyi(7, 0.55, seed, params).spec;
}

struct CellResult {
  std::uint64_t violations = 0;
  std::uint64_t cycles = 0;
  std::size_t converged = 0;
  double mean_width = 0.0;
  double gradient_p99 = 0.0;
  std::size_t gradient_samples = 0;
  double reconverge_time = -1.0;  ///< Seconds after final rejoin; -1 = never.
};

CellResult run_cell(const SystemSpec& spec, double rate, std::uint64_t seed,
                    double duration) {
  const std::size_t n = spec.num_procs();
  // The oracle counts only; one sweep prints many cells.
  Mesh mesh(spec, seed ^ 0xC0FFEEULL, {.out = nullptr});
  Rng clock_rng(seed * 31 + 7);
  for (ProcId p = 0; p < n; ++p) {
    NodeConfig cfg;
    cfg.self = p;
    cfg.poll_period = 0.04;
    cfg.fate_timeout = 0.25;
    cfg.skip_retry = 0.08;
    cfg.dynamic_join = true;
    OptimalCsa::Options opts;
    opts.loss_tolerant = true;
    const double offset = p == 0 ? 0.0 : clock_rng.uniform(-50.0, 50.0);
    const double clock_rate =
        p == 0 ? 1.0 : 1.0 + clock_rng.uniform(-0.6 * kRho, 0.6 * kRho);
    mesh.add(cfg, opts, offset, clock_rate);
  }
  // Gradient envelope (oracle invariant 5) on every spec edge, both ways.
  for (const LinkSpec& link : spec.links()) {
    mesh.oracle().track_gradient_pair(Mesh::name(link.a),
                                      Mesh::name(link.b));
  }
  mesh.start();

  // One seeded non-source seat churns; everyone else holds still, so the
  // measured reconvergence is the churned seat's and the gradient samples
  // show the churn's blast radius on its neighbors.
  Rng churn_rng(seed ^ 0xC11A05ULL);
  const auto churner = static_cast<ProcId>(
      1 + static_cast<std::size_t>(churn_rng.uniform(0.0, 1.0) *
                                   static_cast<double>(n - 1)) %
              (n - 1));
  const std::vector<ProcId>& neighbors = spec.neighbors(churner);

  // Churn runs in the first 60% of the cell; the rest is the measured
  // reconvergence tail.  At rate r each cycle is 1/r seconds, 30% away.
  CellResult r;
  const double churn_window = duration * 0.6;
  const double period = rate > 0.0 ? 1.0 / rate : 0.0;
  std::vector<double> gradient_widths;
  const SystemTimeSource wall;
  const double started = wall.now();
  bool away = false;
  // First leave early in the cell (after a short warm-up) so even the
  // slowest swept rate completes at least one full cycle inside the churn
  // window; subsequent cycles keep the 70% dwell / 30% away duty cycle.
  double next_flip = rate > 0.0 ? started + period * 0.2 : 0.0;
  double last_rejoin = started;
  double next_observe = started;
  for (;;) {
    const double now = wall.now();
    if (now - started >= duration) break;
    const bool in_window = now - started < churn_window;
    // In the window the churner flips on schedule; once the window has
    // closed, a churner caught away rejoins at once.
    const bool flip = in_window ? rate > 0.0 && now >= next_flip : away;
    if (flip && !away) {
      for (const ProcId q : neighbors) mesh.node(churner).remove_peer(q);
      away = true;
      next_flip = now + period * 0.3;
    } else if (flip) {
      for (const ProcId q : neighbors) mesh.node(churner).admit_peer(q);
      away = false;
      ++r.cycles;
      last_rejoin = now;
      next_flip = now + period * 0.7;
    }
    if (!away && r.reconverge_time < 0.0 && !in_window) {
      if (mesh.node(churner).estimate().width() < kConvergedWidth) {
        r.reconverge_time = now - last_rejoin;
      }
    }
    for (const LinkSpec& link : spec.links()) {
      const Interval ab = mesh.node(link.a).peer_clock_bounds(link.b);
      if (std::isfinite(ab.width())) gradient_widths.push_back(ab.width());
      const Interval ba = mesh.node(link.b).peer_clock_bounds(link.a);
      if (std::isfinite(ba.width())) gradient_widths.push_back(ba.width());
    }
    if (now >= next_observe) {
      mesh.oracle().observe();
      next_observe = now + 0.1;
    }
    nap(0.02);
  }
  mesh.oracle().observe();

  r.violations = mesh.oracle().violations();
  for (ProcId p = 0; p < n; ++p) {
    const NodeStats s = mesh.node(p).stats();
    r.mean_width += s.width;
    if (s.width < kConvergedWidth) ++r.converged;
  }
  r.mean_width /= static_cast<double>(n);
  r.gradient_samples = gradient_widths.size();
  if (!gradient_widths.empty()) {
    std::sort(gradient_widths.begin(), gradient_widths.end());
    r.gradient_p99 =
        gradient_widths[(gradient_widths.size() - 1) * 99 / 100];
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const std::uint64_t seed0 = flags.get_seed("seed", 1);
  const auto seeds =
      static_cast<std::uint64_t>(flags.get_uint_range("seeds", 1, 1, 64));
  const double duration = flags.get_double("duration", 2.0);
  const std::vector<std::string> topos =
      flags.get_subset("topos", {"ring", "grid", "random"});
  flags.reject_unknown(kUsage);
  if (duration <= 0.0) throw FlagError("--duration must be > 0");

  const std::vector<double> rates{0.0, 0.5, 1.0, 2.0};
  std::printf("EXP: membership churn envelope — containment, gradient p99 "
              "and reconvergence vs leave/rejoin rate\n");

  std::uint64_t total_violations = 0;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = seed0 + s;
    for (const std::string& name : topos) {
      const SystemSpec spec = make_topology(name, seed);
      for (const double rate : rates) {
        const CellResult r = run_cell(spec, rate, seed, duration);
        total_violations += r.violations;
        std::printf(
            "{\"exp\":\"churn\",\"topo\":\"%s\",\"n\":%zu,\"rate\":%.2f,"
            "\"seed\":%llu,\"cycles\":%llu,"
            "\"containment_violations\":%llu,\"converged\":%zu,"
            "\"mean_width\":%.6f,\"gradient_p99\":%.6f,"
            "\"gradient_samples\":%zu,\"reconverge_time\":%.3f}\n",
            name.c_str(), spec.num_procs(), rate,
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.violations), r.converged,
            r.mean_width, r.gradient_p99, r.gradient_samples,
            r.reconverge_time);
      }
    }
  }

  std::printf("{\"exp\":\"churn\",\"summary\":true,"
              "\"total_containment_violations\":%llu}\n",
              static_cast<unsigned long long>(total_violations));
  if (total_violations > 0) {
    std::fprintf(stderr,
                 "exp_churn: churn within the spec cost containment "
                 "(%llu violations)\n",
                 static_cast<unsigned long long>(total_violations));
    return 1;
  }
  return 0;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n%s\n", e.what(), kUsage);
  return 2;
}
