// Micro-benchmark: checkpoint/restore of the optimal CSA at varying state
// sizes (the restore path rebuilds the APSP matrix in O(L^3), which is
// where the cost lives), and the receive-then-checkpoint step of a durable
// node's write path at varying history sizes.
#include <memory>

#include "bench/harness.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "workloads/topology.h"

namespace driftsync {
namespace {

SystemSpec star_spec(std::size_t n) {
  return workloads::make_star(
             n, {.rho = 1e-4,
                 .latency = sim::LatencyModel::uniform(0.001, 0.02)})
      .spec;
}

/// Builds a center-node CSA that knows `rounds` of exchanges with every
/// leaf: live points scale with the leaf count.
std::unique_ptr<OptimalCsa> loaded_center(const SystemSpec& spec,
                                          int rounds) {
  auto center = std::make_unique<OptimalCsa>();
  center->init(spec, 0);
  std::vector<std::uint32_t> seq(spec.num_procs(), 0);
  double t = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (ProcId leaf = 1; leaf < spec.num_procs(); ++leaf) {
      t += 0.01;
      // Leaf sends to center (header-only knowledge suffices for the graph;
      // report batches are what the center's own protocol would have seen —
      // here we drive the center directly with leaf sends it receives).
      EventRecord s;
      s.id = EventId{leaf, seq[leaf]++};
      s.lt = 500.0 * leaf + t;
      s.kind = EventKind::kSend;
      s.peer = 0;
      EventRecord recv;
      recv.id = EventId{0, seq[0]++};
      recv.lt = t + 0.005;
      recv.kind = EventKind::kReceive;
      recv.peer = leaf;
      recv.match = s.id;
      CsaPayload payload;
      payload.reports = {s};
      center->on_receive(RecvContext{0, leaf, recv, s, 1}, payload);
    }
  }
  return center;
}

void BM_Checkpoint(bench::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const SystemSpec spec = star_spec(n);
  const auto center = loaded_center(spec, 4);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto snapshot = center->checkpoint();
    bytes = snapshot.size();
    bench::do_not_optimize(snapshot);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["live"] =
      static_cast<double>(center->stats().live_points);
}
DS_BENCHMARK(checkpoint, BM_Checkpoint)->arg(4)->arg(16)->arg(64);

void BM_Restore(bench::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const SystemSpec spec = star_spec(n);
  const auto center = loaded_center(spec, 4);
  const auto snapshot = center->checkpoint();
  for (auto _ : state) {
    OptimalCsa restored;
    restored.init(spec, 0);
    restored.restore(snapshot);
    bench::do_not_optimize(restored.stats().live_points);
  }
}
DS_BENCHMARK(checkpoint, BM_Restore)->arg(4)->arg(16)->arg(64);

// The durable node's write path: one receive, then one checkpoint, on a
// history buffer of H records.  Node 0 hears from neighbors 1 and 2 in
// turn; each message echoes what the other neighbor said last, so GC
// removes the churn near the tail (as on a real mesh), while H events of
// processor 3 (behind 2) stay owed to 1 and hold the buffer at ~H.  The
// encoded buffer is kept between checkpoints, so the cost is flat in H.
void BM_CheckpointAfterReceive(bench::State& state) {
  const auto h = static_cast<std::uint32_t>(state.range(0));
  const SystemSpec spec(std::vector<ClockSpec>{{0.0}, {1e-4}, {1e-4}, {1e-4}},
                        std::vector<LinkSpec>{{0, 1, 0.001, 0.02},
                                              {0, 2, 0.001, 0.02},
                                              {2, 3, 0.001, 0.02}},
                        0);
  OptimalCsa center;
  center.init(spec, 0);
  std::vector<std::uint32_t> seq(4, 0);
  std::vector<EventRecord> last(4);  // Each processor's newest event.
  double t = 1.0;
  const auto mint = [&](ProcId p, double lt, EventKind kind, ProcId peer) {
    EventRecord r;
    r.id = EventId{p, seq[p]++};
    r.lt = lt;
    r.kind = kind;
    r.peer = peer;
    last[p] = r;
    return r;
  };
  // One message from `from`: its new send, echoing the other leaf's last
  // send and the center's last event, received 5 ms later.
  const auto deliver = [&](ProcId from, CsaPayload payload) {
    const EventRecord s = mint(from, 500.0 * from + t, EventKind::kSend, 0);
    payload.reports.push_back(s);
    EventRecord recv = mint(0, t + 0.005, EventKind::kReceive, from);
    recv.match = s.id;
    last[0] = recv;
    center.on_receive(RecvContext{0, from, recv, s, 1}, payload);
    t += 0.01;
  };
  CsaPayload relayed;
  for (std::uint32_t i = 0; i < h; ++i) {
    relayed.reports.push_back(
        mint(3, 3000.0 + 1e-3 * i, EventKind::kInternal, kInvalidProc));
  }
  deliver(2, relayed);
  ProcId from = 1;
  const auto step = [&] {
    const ProcId other = from == 1 ? 2 : 1;
    CsaPayload echo;
    if (seq[other] > 0 && last[other].kind == EventKind::kSend) {
      echo.reports.push_back(last[other]);
    }
    echo.reports.push_back(last[0]);
    deliver(from, std::move(echo));
    from = other;
  };
  for (int i = 0; i < 8; ++i) step();  // Reach the steady buffer size.
  std::size_t bytes = 0;
  for (auto _ : state) {
    step();
    const auto snapshot = center.checkpoint();
    bytes = snapshot.size();
    bench::do_not_optimize(snapshot);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["H"] =
      static_cast<double>(center.history().history_size());
}
DS_BENCHMARK(checkpoint, BM_CheckpointAfterReceive)
    ->arg(256)
    ->arg(1024)
    ->arg(4096);

}  // namespace
}  // namespace driftsync
