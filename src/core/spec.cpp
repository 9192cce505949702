#include "core/spec.h"

#include <algorithm>
#include <deque>
#include <utility>

namespace driftsync {

SystemSpec::SystemSpec(std::vector<ClockSpec> clocks,
                       std::vector<LinkSpec> links, ProcId source)
    : clocks_(std::move(clocks)), links_(std::move(links)), source_(source) {
  DS_CHECK_MSG(!clocks_.empty(), "a system needs at least one processor");
  DS_CHECK_MSG(source_ < clocks_.size(), "source id out of range");
  DS_CHECK_MSG(clocks_[source_].rho == 0.0,
               "the source clock runs at the rate of real time (rho = 0)");
  for (const ClockSpec& c : clocks_) {
    DS_CHECK_MSG(c.rho >= 0.0 && c.rho < 1.0, "drift bound must be in [0,1)");
  }
  std::vector<std::vector<std::pair<ProcId, std::size_t>>> ends(
      clocks_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkSpec& l = links_[i];
    DS_CHECK(l.a < clocks_.size() && l.b < clocks_.size());
    DS_CHECK_MSG(l.a != l.b, "self-links are not allowed");
    // Negative lower bounds are allowed (virtual reference links); each
    // direction's bound interval must merely be non-empty.
    DS_CHECK_MSG(l.max_ab >= l.min_ab && l.max_ba >= l.min_ba,
                 "empty transit bound");
    ends[l.a].emplace_back(l.b, i);
    ends[l.b].emplace_back(l.a, i);
  }
  adjacency_.resize(clocks_.size());
  link_index_.resize(clocks_.size());
  for (std::size_t p = 0; p < clocks_.size(); ++p) {
    std::sort(ends[p].begin(), ends[p].end());
    for (const auto& [v, i] : ends[p]) {
      DS_CHECK_MSG(adjacency_[p].empty() || adjacency_[p].back() != v,
                   "duplicate link");
      adjacency_[p].push_back(v);
      link_index_[p].push_back(i);
    }
    max_degree_ = std::max(max_degree_, adjacency_[p].size());
  }

  // BFS from proc 0 for connectivity and diameter (exact for small systems:
  // we run BFS from every node; systems here are at most a few hundred
  // processors).
  const std::size_t n = clocks_.size();
  if (n > 1) {
    for (ProcId start = 0; start < n; ++start) {
      std::vector<std::size_t> depth(n, SIZE_MAX);
      std::deque<ProcId> queue{start};
      depth[start] = 0;
      while (!queue.empty()) {
        const ProcId u = queue.front();
        queue.pop_front();
        for (const ProcId v : adjacency_[u]) {
          if (depth[v] == SIZE_MAX) {
            depth[v] = depth[u] + 1;
            queue.push_back(v);
          }
        }
      }
      for (ProcId v = 0; v < n; ++v) {
        DS_CHECK_MSG(depth[v] != SIZE_MAX, "system must be connected");
        diameter_ = std::max(diameter_, depth[v]);
      }
    }
  }
}

const LinkSpec* SystemSpec::link_between(ProcId u, ProcId v) const {
  if (u >= adjacency_.size()) return nullptr;
  // v's rank among u's sorted neighbors, counted without a branch: a
  // degree is a handful of entries, where a binary search's branches
  // mispredict.
  const std::vector<ProcId>& nbrs = adjacency_[u];
  std::size_t k = 0;
  for (const ProcId n : nbrs) k += n < v ? 1 : 0;
  if (k == nbrs.size() || nbrs[k] != v) return nullptr;
  return &links_[link_index_[u][k]];
}

}  // namespace driftsync
