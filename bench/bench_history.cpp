// Micro-benchmark: history-protocol operations (Figure 2).
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "common/check.h"
#include "core/history.h"
#include "core/spec.h"
#include "workloads/topology.h"

namespace driftsync {
namespace {

SystemSpec path_spec(std::size_t n) {
  return workloads::make_path(
             n, {.rho = 1e-4, .latency = sim::LatencyModel::uniform(0.0, 1.0)})
      .spec;
}

EventRecord mk(ProcId p, std::uint32_t seq, LocalTime lt, EventKind kind,
               ProcId peer = kInvalidProc, EventId match = kInvalidEvent) {
  EventRecord r;
  r.id = EventId{p, seq};
  r.lt = lt;
  r.kind = kind;
  r.peer = peer;
  r.match = match;
  return r;
}

// One full exchange cycle over a relay node: receive a batch from the left
// neighbor, forward to the right neighbor.
void BM_RelayExchange(bench::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const SystemSpec spec = path_spec(n);
  HistoryProtocol left(spec, 0);
  HistoryProtocol relay(spec, 1);
  std::uint32_t seq_left = 0;
  std::uint32_t seq_relay = 0;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.1;
    const EventRecord s = mk(0, seq_left++, t, EventKind::kSend, 1);
    const EventBatch batch = left.fill_message(1, s);
    DS_CHECK(relay.receive_message(0, batch) == MergeVerdict::kMerged);
    bench::do_not_optimize(relay.fresh().size());
    relay.record_own_event(
        mk(1, seq_relay++, t + 0.01, EventKind::kReceive, 0, s.id));
    const EventRecord s2 =
        mk(1, seq_relay++, t + 0.02, EventKind::kSend, 2);
    const EventBatch fwd = relay.fill_message(2, s2);
    bench::do_not_optimize(fwd.size());
  }
}
DS_BENCHMARK(history, BM_RelayExchange)->arg(4)->arg(16)->arg(64);

void BM_GarbageCollectedBufferStaysFlat(bench::State& state) {
  const SystemSpec spec = path_spec(2);
  HistoryProtocol a(spec, 0);
  std::uint32_t seq = 0;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.1;
    a.record_own_event(mk(0, seq++, t, EventKind::kInternal));
    const EventRecord s = mk(0, seq++, t + 0.01, EventKind::kSend, 1);
    bench::do_not_optimize(a.fill_message(1, s));
  }
  // With one neighbor, GC keeps the buffer from growing across iterations.
  state.counters["final_H"] = static_cast<double>(a.history_size());
}
DS_BENCHMARK(history, BM_GarbageCollectedBufferStaysFlat);

// The Figure-2 GC schedule under bursty forwarding.  The relay sends a
// burst to one neighbor while the other is briefly silent; every burst
// record is still owed to the silent neighbor, so the sweep after each send
// visits a growing buffer — O(K^2) record visits per K-message burst.  The
// closing exchange with the quiet neighbor lets GC drain the buffer, so
// each iteration does identical steady-state work.  The name and the arg
// (1, a sweep after every message) keep the case comparable with earlier
// reports, which also ran batched schedules of 16 and 64.
void BM_BatchedGcExchange(bench::State& state) {
  const SystemSpec spec = path_spec(3);  // 0 — 1 — 2; the subject is 1.
  HistoryProtocol relay(spec, 1);
  std::uint32_t seq = 0;
  double t = 0.0;
  constexpr int kBurst = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      t += 0.1;
      bench::do_not_optimize(
          relay.fill_message(2, mk(1, seq++, t, EventKind::kSend, 2)));
    }
    t += 0.1;
    bench::do_not_optimize(
        relay.fill_message(0, mk(1, seq++, t, EventKind::kSend, 0)));
  }
  state.counters["gc_passes"] = static_cast<double>(relay.gc_passes());
  state.counters["max_H"] = static_cast<double>(relay.max_history_size());
}
DS_BENCHMARK(history, BM_BatchedGcExchange)->arg(1);

// A send whose sweep can remove nothing, beside H records pinned in the
// buffer.  Relay 1 (neighbors 0 and 2, loss-tolerant) holds H records of
// processor 3, relayed by 2 and owed to 0, which never hears them.  0 once
// reported 1's events far ahead (a report whose predecessors were lost),
// so 1's own events are owed only to 2.  Each iteration sends to 2: the
// sweep after the send can remove nothing, since 2 has not confirmed it.
// Then 2 confirms, and that sweep removes the send, at the tail.  The
// buffer stays at H or H + 1, and neither sweep, nor the send's scan for
// owed records, needs to visit the pinned records.
void BM_SendBesidePinnedHistory(bench::State& state) {
  const auto h = static_cast<std::uint32_t>(state.range(0));
  const SystemSpec spec(std::vector<ClockSpec>{{0.0}, {1e-4}, {1e-4}, {1e-4}},
                        std::vector<LinkSpec>{{0, 1, 0.001, 0.02},
                                              {1, 2, 0.001, 0.02},
                                              {2, 3, 0.001, 0.02}},
                        0);
  HistoryProtocol::Options opts;
  opts.loss_tolerant = true;
  HistoryProtocol relay(spec, 1, opts);
  EventBatch pinned;
  for (std::uint32_t i = 0; i < h; ++i) {
    pinned.push_back(mk(3, i, 3000.0 + 1e-3 * i, EventKind::kInternal));
  }
  DS_CHECK(relay.receive_message(2, pinned) == MergeVerdict::kMerged);
  DS_CHECK(relay.receive_message(
               0, {mk(1, 1U << 31, 0.0, EventKind::kInternal)}) ==
           MergeVerdict::kMerged);
  std::uint32_t seq = 0;
  double t = 1.0;
  for (auto _ : state) {
    t += 0.01;
    bench::do_not_optimize(
        relay.fill_message(2, mk(1, seq++, t, EventKind::kSend, 2)));
    relay.confirm_delivery(2);
  }
  state.counters["H"] = static_cast<double>(relay.history_size());
}
DS_BENCHMARK(history, BM_SendBesidePinnedHistory)
    ->arg(256)
    ->arg(1024)
    ->arg(4096);

}  // namespace
}  // namespace driftsync
