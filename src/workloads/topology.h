// Topology builders: system specifications plus per-link runtime behavior
// for the simulator, and the BFS "upstream" structure probe apps use to
// direct traffic toward the source (the NTP organization of Section 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/spec.h"
#include "sim/latency.h"
#include "sim/simulator.h"

namespace driftsync::workloads {

struct Network {
  SystemSpec spec;
  std::vector<sim::LinkRuntime> links;
  /// upstreams[p]: neighbors of p strictly closer (in hops) to the source.
  std::vector<std::vector<ProcId>> upstreams;
  /// peers[p]: neighbors of p at the same hop distance.  Probe apps poll
  /// them occasionally: every link must carry traffic now and then or the
  /// history protocol cannot garbage-collect (the Lemma 3.3 traffic
  /// assumption; NTP peer associations poll each other for the same reason).
  std::vector<std::vector<ProcId>> peers;
  /// BFS hop distance from the source.
  std::vector<std::size_t> level;
};

struct TopoParams {
  double rho = 100e-6;  ///< Drift bound for every non-source clock.
  sim::LatencyModel latency = sim::LatencyModel::uniform(0.001, 0.010);
  double loss_prob = 0.0;
  ProcId source = 0;
};

/// Path 0 - 1 - ... - n-1 (diameter n-1; EXP-3 sweeps this).
Network make_path(std::size_t n, const TopoParams& params);

/// Cycle over n >= 3 processors.
Network make_ring(std::size_t n, const TopoParams& params);

/// Star with the source at the center.
Network make_star(std::size_t n, const TopoParams& params);

/// w x h grid, source at a corner.
Network make_grid(std::size_t w, std::size_t h, const TopoParams& params);

/// Connected random graph: a random spanning tree plus `extra_edges`
/// additional random edges (no duplicates).
Network make_random(std::size_t n, std::size_t extra_edges,
                    std::uint64_t seed, const TopoParams& params);

/// Erdős–Rényi G(n, edge_prob) over pairs a < b in lexicographic order,
/// re-drawn until connected.  The draw is Rng(seed * 7919 + 11), which is
/// what the runtime experiments (EXP-16/17) have always swept.
Network make_erdos_renyi(std::size_t n, double edge_prob, std::uint64_t seed,
                         const TopoParams& params);

/// Vertex connectivity: the fewest processors whose removal disconnects the
/// rest (n - 1 for a complete graph).  Tries every cut, so n <= 20.
std::size_t vertex_connectivity(const SystemSpec& spec);

/// Complete `branching`-ary tree of the given depth, source at the root
/// (depth 0 = just the source).
Network make_tree(std::size_t depth, std::size_t branching,
                  const TopoParams& params);

/// NTP-style server hierarchy (Section 4): `width_per_level[l]` servers at
/// stratum l+1; every server links to `fanout` servers of the previous
/// stratum (all of stratum 0 is the single source).  Peers within a level
/// are optionally ringed together.
Network make_ntp_hierarchy(const std::vector<std::size_t>& width_per_level,
                           std::size_t fanout, bool peer_rings,
                           std::uint64_t seed, const TopoParams& params);

/// Recomputes the upstream/level structure (used internally; exposed for
/// custom-built networks).
void compute_levels(Network& net);

}  // namespace driftsync::workloads
