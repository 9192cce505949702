// Micro-benchmark: the IncrementalApsp kernel.
// Complements exp_agdp_complexity with steady-state per-operation numbers.
#include <array>
#include <span>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "graph/incremental_apsp.h"

namespace driftsync::graph {
namespace {

using Handle = IncrementalApsp::Handle;

/// Inserts a node with up to three edges to random members of `live`.
/// The edges sit in stack arrays, as SyncEngine::ingest builds them, so the
/// allocs/op column shows the kernel's own allocations.
Handle window_step(IncrementalApsp& apsp, std::span<const Handle> live,
                   Rng& rng) {
  std::array<IncrementalApsp::HalfEdge, 3> ins;
  std::array<IncrementalApsp::HalfEdge, 3> outs;
  std::size_t n_in = 0;
  std::size_t n_out = 0;
  for (int d = 0; d < 3 && !live.empty(); ++d) {
    const Handle other = live[rng.uniform_index(live.size())];
    if (rng.flip(0.5)) {
      ins[n_in++] = {other, rng.uniform(0.0, 1.0)};
    } else {
      outs[n_out++] = {other, rng.uniform(0.0, 1.0)};
    }
  }
  return apsp.insert_node(std::span(ins.data(), n_in),
                          std::span(outs.data(), n_out));
}

std::vector<Handle> fill_window(IncrementalApsp& apsp, std::size_t window,
                                Rng& rng) {
  std::vector<Handle> live;
  while (live.size() < window) live.push_back(window_step(apsp, live, rng));
  return live;
}

// Sliding window: insert a node, then drop the oldest.  `live` is a ring
// whose slot `oldest` holds the oldest handle.
void BM_InsertNodeAtWindow(bench::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  Rng rng(99);
  IncrementalApsp apsp;
  std::vector<Handle> live = fill_window(apsp, window, rng);
  std::size_t oldest = 0;
  for (auto _ : state) {
    const Handle h = window_step(apsp, live, rng);
    apsp.remove_node(live[oldest]);
    live[oldest] = h;
    oldest = (oldest + 1) % window;
  }
}
DS_BENCHMARK(apsp, BM_InsertNodeAtWindow)->arg(8)->arg(32)->arg(128)->arg(512);

// Removing a random live node: with dense slots that moves the last slot's
// row and column into the hole, O(L).  An edge-free node re-fills the
// window; its insert relaxes nothing and is O(L) too.
void BM_RemoveNodeAtWindow(bench::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  IncrementalApsp apsp;
  std::vector<Handle> live = fill_window(apsp, window, rng);
  for (auto _ : state) {
    const std::size_t k = rng.uniform_index(live.size());
    apsp.remove_node(live[k]);
    live[k] = apsp.insert_node({}, {});
  }
}
DS_BENCHMARK(apsp, BM_RemoveNodeAtWindow)->arg(8)->arg(32)->arg(128);

// The engine's pattern (SyncEngine::ingest): a chain in which every insert
// retires its predecessor, beside a window of other live nodes standing in
// for pending sends.  Half the inserts meet only the predecessor, as a send
// or internal event does; the other half also take the two transit edges
// of a receive to a random live send.  Weights are non-negative reduced
// costs around random potentials, so no insert closes a negative cycle.
void BM_InsertNodeRetiring(bench::State& state) {
  struct Point {
    Handle handle;
    double phi;
  };
  const auto window = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  IncrementalApsp apsp;
  const auto to = [&](const Point& from, double phi) {
    return rng.uniform(0.0, 1.0) + phi - from.phi;
  };
  std::vector<Point> sends;
  while (sends.size() + 1 < window) {
    const double phi = rng.uniform(-1.0, 1.0);
    if (sends.empty()) {
      sends.push_back({apsp.insert_node({}, {}), phi});
      continue;
    }
    const Point& other = sends[rng.uniform_index(sends.size())];
    sends.push_back(
        {apsp.insert_node({{other.handle, to(other, phi)}},
                          {{other.handle, to(Point{0, phi}, other.phi)}}),
         phi});
  }
  const Point& first = sends.back();
  Point prev{apsp.insert_node({{first.handle, to(first, 0.0)}}, {}), 0.0};
  bool receive = false;
  for (auto _ : state) {
    const double phi = rng.uniform(-1.0, 1.0);
    std::array<IncrementalApsp::HalfEdge, 2> ins;
    std::array<IncrementalApsp::HalfEdge, 2> outs;
    ins[0] = {prev.handle, 1e-3 * rng.next_double() + phi - prev.phi};
    outs[0] = {prev.handle, 1e-3 * rng.next_double() + prev.phi - phi};
    std::size_t n = 1;
    if (receive) {
      const Point& send = sends[rng.uniform_index(sends.size())];
      ins[1] = {send.handle, to(send, phi)};
      outs[1] = {send.handle, rng.uniform(0.0, 1.0) + send.phi - phi};
      n = 2;
    }
    receive = !receive;
    prev = {apsp.insert_node(std::span(ins.data(), n),
                             std::span(outs.data(), n), prev.handle),
            phi};
  }
}
DS_BENCHMARK(apsp, BM_InsertNodeRetiring)->arg(8)->arg(32)->arg(128);

void BM_InsertEdge(bench::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  IncrementalApsp apsp;
  const std::vector<Handle> live = fill_window(apsp, window, rng);
  for (auto _ : state) {
    const auto u = live[rng.uniform_index(live.size())];
    const auto v = live[rng.uniform_index(live.size())];
    if (u != v) {
      bench::do_not_optimize(apsp.insert_edge(u, v, rng.uniform(0.5, 1.0)));
    }
  }
}
DS_BENCHMARK(apsp, BM_InsertEdge)->arg(32)->arg(128)->arg(512);

void BM_DistanceQuery(bench::State& state) {
  Rng rng(11);
  IncrementalApsp apsp;
  const std::vector<Handle> live = fill_window(apsp, 256, rng);
  for (auto _ : state) {
    const auto u = live[rng.uniform_index(live.size())];
    const auto v = live[rng.uniform_index(live.size())];
    bench::do_not_optimize(apsp.distance(u, v));
  }
}
DS_BENCHMARK(apsp, BM_DistanceQuery);

}  // namespace
}  // namespace driftsync::graph
