// Micro-benchmark: the MembershipTable hot paths (DESIGN.md decision 19).
//
// BM_MembershipLookup isolates find() — the per-datagram cost every
// receive pays to map a sender onto its PeerState; BM_AdmitRetireCycle
// measures a full leave/rejoin round trip on a resident peer (retire to
// the journal, re-admit from it), which is the steady-state churn path.
// Both must report 0 allocs/op in steady state, per membership.h's
// promise: the slab and index are preallocated, and journaled
// re-admission touches no allocator at all.
#include <cstdint>

#include "bench/harness.h"
#include "common/ids.h"
#include "runtime/membership.h"

namespace driftsync::runtime {
namespace {

void BM_MembershipLookup(bench::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  MembershipTable table;
  table.reserve(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    table.admit(static_cast<ProcId>(p));
  }
  ProcId p = 0;
  for (auto _ : state) {
    bench::do_not_optimize(table.find(p));
    p = static_cast<ProcId>((p + 1) % peers);
  }
  state.counters["resident"] = static_cast<double>(table.size());
}
DS_BENCHMARK(membership, BM_MembershipLookup)->arg(16)->arg(256);

void BM_AdmitRetireCycle(bench::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  MembershipTable table;
  table.reserve(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    table.admit(static_cast<ProcId>(p));
  }
  // One peer churns against a resident mesh; its frontier survives each
  // cycle (journaled re-admission), so no slot is ever added.
  const auto churner = static_cast<ProcId>(peers / 2);
  for (auto _ : state) {
    table.retire(churner);
    bench::do_not_optimize(table.admit(churner));
  }
  state.counters["resident"] = static_cast<double>(table.size());
}
DS_BENCHMARK(membership, BM_AdmitRetireCycle)->arg(16)->arg(256);

}  // namespace
}  // namespace driftsync::runtime
