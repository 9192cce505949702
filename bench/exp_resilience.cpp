// EXP-16 — Byzantine resilience envelope (DESIGN.md decision 18).
//
// How many colluding liars does the mesh absorb before honest nodes stop
// converging — and does containment survive even past that point?  The
// experiment runs the real runtime stack (a runtime::Mesh: Hub, Nodes,
// cross-path validation on, all in the hub's virtual time, so a cell replays
// from its seed) with f of the non-source seats wrapped in ByzantinePeer,
// sweeping
//
//   topology  x  f (number of Byzantine seats)  x  strategy  x  seed
//
// and reports, per cell, the honest nodes' containment violations (the
// InvariantOracle's ground-truth check), how many honest nodes converged,
// and the width inflation against the same topology's f = 0 baseline.
//
// The gate encodes the classic connectivity bound: interval-based sync with
// renounce-only defense tolerates f < conn/2 Byzantine processors, i.e.
// f_tol = ceil(conn/2) - 1 for vertex connectivity `conn` (computed from
// the graph by trying every vertex cut, not assumed from its name).  At
// or below f_tol the run FAILS on any honest containment violation or any
// honest node left unconverged; above it the same numbers are reported as
// the measured breakdown — the point of the experiment is the envelope, so
// breakdown is data, never a crash.
//
// Because the defense renounces and never fabricates (a rejected message
// contributes nothing, rather than a guessed bound), containment is
// expected to hold at EVERY f; what degrades past the bound is liveness —
// isolated honest nodes keep drifting wider.  The summary separates the two
// so a regression in either direction is visible.
//
// Output: one JSON object per line, a header line aside.  An honest node
// that never bounds its estimate has an infinite width, so its cell's
// mean_width (and width_inflation) is not a number JSON can hold: those
// fields print null.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/byzantine.h"
#include "runtime/mesh.h"
#include "workloads/topology.h"

using namespace driftsync;
using namespace driftsync::runtime;

namespace {

constexpr const char* kUsage =
    "usage: exp_resilience [--seed=N] [--seeds=N] [--max-f=N] "
    "[--duration=S] [--topos=ring,grid,star,random]";

constexpr double kRho = 5e-4;
constexpr double kSpecMaxTransit = 0.05;
constexpr double kConvergedWidth = 0.5;

/// `v` printed with `format` as a JSON number, or null when it is not
/// finite (JSON has no infinity).
std::string json_number(double v, const char* format) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// The swept meshes: ring-6, grid-3x3, star-6, and a dense random-7
/// (G(7, 0.55), re-drawn until connected, dense enough that its vertex
/// connectivity usually clears 2, making f = 1 a gated point rather than
/// report-only).  Source 0; every link specced [0, 50 ms].
SystemSpec make_topology(const std::string& name, std::uint64_t seed) {
  const workloads::TopoParams params{
      .rho = kRho, .latency = sim::LatencyModel::uniform(0.0, kSpecMaxTransit)};
  if (name == "ring") return workloads::make_ring(6, params).spec;
  if (name == "grid") return workloads::make_grid(3, 3, params).spec;
  if (name == "star") return workloads::make_star(6, params).spec;
  return workloads::make_erdos_renyi(7, 0.55, seed, params).spec;
}

ByzantineStrategy make_strategy(const std::string& name) {
  ByzantineStrategy s;
  if (name == "skew") {
    // Gross per-message lies — each one lands outside the single-edge
    // envelope and is renounced; the attack tests quarantine + liveness.
    s.skew_rate = 2.0;
    s.skew_max = 100.0;
  } else if (name == "equivocate") {
    // A constant ±0.4 ms story split each edge finds feasible forever;
    // only honest relaying of both versions exposes it.
    s.skew_rate = 1.0;
    s.skew_max = 4e-4;
    s.equivocate = true;
  } else if (name == "replay") {
    s.replay = 0.5;
  }
  return s;
}

struct CellResult {
  std::uint64_t violations = 0;
  std::size_t honest = 0;
  std::size_t converged = 0;
  double mean_width = 0.0;
  std::uint64_t renounced = 0;
  std::uint64_t quarantines = 0;
};

CellResult run_cell(const SystemSpec& spec, std::size_t f,
                    const std::string& strategy, std::uint64_t seed,
                    double duration) {
  const std::size_t n = spec.num_procs();
  // Pick the f Byzantine seats among the non-source nodes, seeded.
  Rng rng(seed ^ 0xBADC0DEULL);
  std::vector<ProcId> pool;
  for (ProcId p = 1; p < n; ++p) pool.push_back(p);
  std::vector<bool> byzantine(n, false);
  for (std::size_t k = 0; k < f && !pool.empty(); ++k) {
    const auto i =
        static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                 static_cast<double>(pool.size())) %
        pool.size();
    byzantine[pool[i]] = true;
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  const ByzantineStrategy attack = make_strategy(strategy);

  // The oracle counts only; one sweep prints many cells.
  Mesh mesh(spec, seed ^ 0xC0FFEEULL, {.out = nullptr});
  Rng clock_rng(seed * 31 + 7);
  for (ProcId p = 0; p < n; ++p) {
    NodeConfig cfg;
    cfg.self = p;
    cfg.poll_period = 0.04;
    cfg.fate_timeout = 0.25;
    cfg.skip_retry = 0.08;
    cfg.suspicion_decay = 0.9;
    OptimalCsa::Options opts;
    opts.loss_tolerant = true;
    opts.cross_validation = true;
    const double offset = p == 0 ? 0.0 : clock_rng.uniform(-50.0, 50.0);
    const double rate =
        p == 0 ? 1.0 : 1.0 + clock_rng.uniform(-0.6 * kRho, 0.6 * kRho);
    // The gate is about the honest mesh; a liar's own estimate is forfeit
    // by assumption, so the oracle skips it as it skips a clock that broke
    // its spec.  (Loss soundness is never checked: renounced datagrams
    // resolve as losses on honest nodes.)
    if (byzantine[p]) mesh.set_byzantine(p, attack, seed ^ (0xB52B52ULL + p));
    mesh.add(cfg, opts, offset, rate);
    if (byzantine[p]) mesh.oracle().mark_clock_violated(Mesh::name(p));
  }
  mesh.start();
  mesh.observe_for(duration);
  mesh.oracle().observe();

  CellResult r;
  r.violations = mesh.oracle().violations();
  for (ProcId p = 0; p < n; ++p) {
    if (byzantine[p]) continue;
    const NodeStats s = mesh.node(p).stats();
    ++r.honest;
    r.mean_width += s.width;
    if (s.width < kConvergedWidth) ++r.converged;
    r.renounced += s.infeasible_rejected + s.suspect_rejected +
                   s.replay_rejected + s.cross_check_failures;
    r.quarantines += s.peer_quarantines;
  }
  r.mean_width /= static_cast<double>(r.honest);
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const std::uint64_t seed0 = flags.get_seed("seed", 1);
  const auto seeds =
      static_cast<std::uint64_t>(flags.get_uint_range("seeds", 1, 1, 64));
  const auto max_f =
      static_cast<std::size_t>(flags.get_uint_range("max-f", 2, 0, 8));
  const double duration = flags.get_double("duration", 2.0);
  const std::vector<std::string> topos =
      flags.get_subset("topos", {"ring", "grid", "star", "random"});
  flags.reject_unknown(kUsage);
  if (duration <= 0.0) throw FlagError("--duration must be > 0");

  const std::vector<std::string> strategies{"skew", "equivocate", "replay"};
  std::printf("EXP: Byzantine resilience envelope — honest containment and "
              "convergence vs colluding liars\n");

  std::uint64_t gated_violations = 0;
  std::uint64_t gated_unconverged = 0;
  std::uint64_t total_violations = 0;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = seed0 + s;
    for (const std::string& name : topos) {
      const SystemSpec spec = make_topology(name, seed);
      const std::size_t conn = workloads::vertex_connectivity(spec);
      const std::size_t f_tol = (conn + 1) / 2 == 0 ? 0 : (conn + 1) / 2 - 1;
      // Baseline width per (topo, seed), for the inflation column.
      double base_width = 0.0;
      for (std::size_t f = 0; f <= max_f; ++f) {
        for (const std::string& strategy : strategies) {
          const CellResult r = run_cell(spec, f, strategy, seed, duration);
          if (f == 0) base_width = r.mean_width;
          const bool gated = f <= f_tol;
          total_violations += r.violations;
          if (gated) {
            gated_violations += r.violations;
            gated_unconverged += r.honest - r.converged;
          }
          std::printf(
              "{\"exp\":\"resilience\",\"topo\":\"%s\",\"n\":%zu,"
              "\"conn\":%zu,\"f_tol\":%zu,\"f\":%zu,\"strategy\":\"%s\","
              "\"seed\":%llu,\"honest\":%zu,\"converged\":%zu,"
              "\"containment_violations\":%llu,\"mean_width\":%s,"
              "\"width_inflation\":%s,\"renounced\":%llu,"
              "\"quarantines\":%llu,\"gated\":%s}\n",
              name.c_str(), spec.num_procs(), conn, f_tol, f,
              f == 0 ? "none" : strategy.c_str(),
              static_cast<unsigned long long>(seed), r.honest, r.converged,
              static_cast<unsigned long long>(r.violations),
              json_number(r.mean_width, "%.6f").c_str(),
              json_number(base_width > 0.0 ? r.mean_width / base_width : 1.0,
                          "%.3f")
                  .c_str(),
              static_cast<unsigned long long>(r.renounced),
              static_cast<unsigned long long>(r.quarantines),
              gated ? "true" : "false");
          if (f == 0) break;  // Strategy is irrelevant with zero liars.
        }
      }
    }
  }

  std::printf("{\"exp\":\"resilience\",\"summary\":true,"
              "\"gated_containment_violations\":%llu,"
              "\"gated_unconverged\":%llu,"
              "\"total_containment_violations\":%llu}\n",
              static_cast<unsigned long long>(gated_violations),
              static_cast<unsigned long long>(gated_unconverged),
              static_cast<unsigned long long>(total_violations));
  if (gated_violations > 0 || gated_unconverged > 0) {
    std::fprintf(stderr,
                 "exp_resilience: breakdown below the tolerance bound "
                 "(%llu violations, %llu unconverged honest nodes)\n",
                 static_cast<unsigned long long>(gated_violations),
                 static_cast<unsigned long long>(gated_unconverged));
    return 1;
  }
  return 0;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n%s\n", e.what(), kUsage);
  return 2;
}
