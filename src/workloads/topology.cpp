#include "workloads/topology.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"

namespace driftsync::workloads {

namespace {

std::vector<ClockSpec> make_clocks(std::size_t n, const TopoParams& params) {
  std::vector<ClockSpec> clocks(n, ClockSpec{params.rho});
  clocks[params.source].rho = 0.0;
  return clocks;
}

LinkSpec make_link(ProcId a, ProcId b, const TopoParams& params) {
  return LinkSpec{a, b, params.latency.min_delay(),
                  params.latency.max_delay()};
}

Network assemble(std::vector<ClockSpec> clocks, std::vector<LinkSpec> links,
                 const TopoParams& params) {
  Network net{SystemSpec(std::move(clocks), std::move(links), params.source),
              {},
              {},
              {},
              {}};
  sim::LinkRuntime runtime;
  runtime.latency = params.latency;
  runtime.loss_prob = params.loss_prob;
  net.links.assign(net.spec.links().size(), runtime);
  compute_levels(net);
  return net;
}

/// True iff the processors outside `cut` (a bit set; n < 64) are connected
/// by the links that avoid it.
bool connected_without(std::size_t n, const std::vector<LinkSpec>& links,
                       std::uint64_t cut) {
  std::uint64_t reached = std::uint64_t{1} << std::countr_one(cut);
  for (bool grew = true; grew;) {
    grew = false;
    for (const LinkSpec& l : links) {
      const std::uint64_t ends =
          (std::uint64_t{1} << l.a) | (std::uint64_t{1} << l.b);
      if ((ends & cut) != 0 || (ends & reached) == 0) continue;
      if ((ends & reached) == ends) continue;
      reached |= ends;
      grew = true;
    }
  }
  return (reached | cut) == (std::uint64_t{1} << n) - 1;
}

}  // namespace

void compute_levels(Network& net) {
  const std::size_t n = net.spec.num_procs();
  net.level.assign(n, SIZE_MAX);
  net.upstreams.assign(n, {});
  net.peers.assign(n, {});
  std::deque<ProcId> queue{net.spec.source()};
  net.level[net.spec.source()] = 0;
  while (!queue.empty()) {
    const ProcId u = queue.front();
    queue.pop_front();
    for (const ProcId v : net.spec.neighbors(u)) {
      if (net.level[v] == SIZE_MAX) {
        net.level[v] = net.level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  for (ProcId v = 0; v < n; ++v) {
    DS_CHECK(net.level[v] != SIZE_MAX);
    for (const ProcId u : net.spec.neighbors(v)) {
      if (net.level[u] + 1 == net.level[v]) net.upstreams[v].push_back(u);
      if (net.level[u] == net.level[v]) net.peers[v].push_back(u);
    }
  }
}

Network make_path(std::size_t n, const TopoParams& params) {
  DS_CHECK(n >= 1 && params.source < n);
  std::vector<LinkSpec> links;
  for (ProcId i = 0; i + 1 < n; ++i) {
    links.push_back(make_link(i, i + 1, params));
  }
  return assemble(make_clocks(n, params), std::move(links), params);
}

Network make_ring(std::size_t n, const TopoParams& params) {
  DS_CHECK(n >= 3 && params.source < n);
  std::vector<LinkSpec> links;
  for (ProcId i = 0; i < n; ++i) {
    links.push_back(make_link(i, static_cast<ProcId>((i + 1) % n), params));
  }
  return assemble(make_clocks(n, params), std::move(links), params);
}

Network make_star(std::size_t n, const TopoParams& params) {
  DS_CHECK(n >= 2 && params.source == 0);
  std::vector<LinkSpec> links;
  for (ProcId i = 1; i < n; ++i) links.push_back(make_link(0, i, params));
  return assemble(make_clocks(n, params), std::move(links), params);
}

Network make_grid(std::size_t w, std::size_t h, const TopoParams& params) {
  DS_CHECK(w >= 1 && h >= 1 && w * h >= 1 && params.source < w * h);
  const auto id = [w](std::size_t x, std::size_t y) {
    return static_cast<ProcId>(y * w + x);
  };
  std::vector<LinkSpec> links;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) links.push_back(make_link(id(x, y), id(x + 1, y), params));
      if (y + 1 < h) links.push_back(make_link(id(x, y), id(x, y + 1), params));
    }
  }
  return assemble(make_clocks(w * h, params), std::move(links), params);
}

Network make_random(std::size_t n, std::size_t extra_edges,
                    std::uint64_t seed, const TopoParams& params) {
  DS_CHECK(n >= 2 && params.source < n);
  Rng rng(seed);
  std::vector<LinkSpec> links;
  std::unordered_set<std::uint64_t> used;
  const auto key = [](ProcId a, ProcId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  // Random spanning tree: attach each node to a uniformly random earlier one.
  for (ProcId v = 1; v < n; ++v) {
    const ProcId u = static_cast<ProcId>(rng.uniform_index(v));
    links.push_back(make_link(u, v, params));
    used.insert(key(u, v));
  }
  const std::size_t max_edges = n * (n - 1) / 2;
  std::size_t added = 0;
  while (added < extra_edges && links.size() < max_edges) {
    const ProcId a = static_cast<ProcId>(rng.uniform_index(n));
    const ProcId b = static_cast<ProcId>(rng.uniform_index(n));
    if (a == b || used.contains(key(a, b))) continue;
    links.push_back(make_link(a, b, params));
    used.insert(key(a, b));
    ++added;
  }
  return assemble(make_clocks(n, params), std::move(links), params);
}

Network make_erdos_renyi(std::size_t n, double edge_prob, std::uint64_t seed,
                         const TopoParams& params) {
  DS_CHECK(n >= 2 && n < 64 && edge_prob > 0.0 && params.source == 0);
  Rng rng(seed * 7919 + 11);
  for (;;) {
    std::vector<LinkSpec> links;
    for (ProcId a = 0; a < n; ++a) {
      for (ProcId b = a + 1; b < n; ++b) {
        if (rng.uniform(0.0, 1.0) < edge_prob) {
          links.push_back(make_link(a, b, params));
        }
      }
    }
    if (connected_without(n, links, 0)) {
      return assemble(make_clocks(n, params), std::move(links), params);
    }
  }
}

std::size_t vertex_connectivity(const SystemSpec& spec) {
  const std::size_t n = spec.num_procs();
  DS_CHECK(n <= 20);
  std::size_t conn = n - 1;
  for (std::uint64_t cut = 0; cut < (std::uint64_t{1} << n); ++cut) {
    const auto k = static_cast<std::size_t>(std::popcount(cut));
    if (k < conn && k + 2 <= n && !connected_without(n, spec.links(), cut)) {
      conn = k;
    }
  }
  return conn;
}

Network make_tree(std::size_t depth, std::size_t branching,
                  const TopoParams& params) {
  DS_CHECK(branching >= 1 && params.source == 0);
  std::vector<LinkSpec> links;
  std::vector<ProcId> frontier{0};
  ProcId next = 1;
  for (std::size_t level = 0; level < depth; ++level) {
    std::vector<ProcId> children;
    for (const ProcId parent : frontier) {
      for (std::size_t c = 0; c < branching; ++c) {
        links.push_back(make_link(parent, next, params));
        children.push_back(next++);
      }
    }
    frontier = std::move(children);
  }
  return assemble(make_clocks(next, params), std::move(links), params);
}

Network make_ntp_hierarchy(const std::vector<std::size_t>& width_per_level,
                           std::size_t fanout, bool peer_rings,
                           std::uint64_t seed, const TopoParams& params) {
  DS_CHECK(!width_per_level.empty() && fanout >= 1 && params.source == 0);
  Rng rng(seed);
  std::vector<std::vector<ProcId>> strata;
  strata.push_back({0});  // stratum 0: the source
  ProcId next = 1;
  for (const std::size_t width : width_per_level) {
    DS_CHECK(width >= 1);
    std::vector<ProcId> level;
    for (std::size_t i = 0; i < width; ++i) level.push_back(next++);
    strata.push_back(std::move(level));
  }
  std::vector<LinkSpec> links;
  std::unordered_set<std::uint64_t> used;
  const auto key = [](ProcId a, ProcId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  const auto add = [&](ProcId a, ProcId b) {
    if (used.insert(key(a, b)).second) links.push_back(make_link(a, b, params));
  };
  for (std::size_t s = 1; s < strata.size(); ++s) {
    const auto& parents = strata[s - 1];
    for (const ProcId v : strata[s]) {
      // Each server consults `fanout` (distinct if possible) lower-stratum
      // servers, like NTP's multiple upstream associations.
      const std::size_t want = std::min(fanout, parents.size());
      std::unordered_set<ProcId> chosen;
      while (chosen.size() < want) {
        chosen.insert(parents[rng.uniform_index(parents.size())]);
      }
      for (const ProcId p : chosen) add(p, v);
    }
    if (peer_rings && strata[s].size() >= 3) {
      for (std::size_t i = 0; i < strata[s].size(); ++i) {
        add(strata[s][i], strata[s][(i + 1) % strata[s].size()]);
      }
    }
  }
  return assemble(make_clocks(next, params), std::move(links), params);
}

}  // namespace driftsync::workloads
