// Shared helpers for the driftsync test suites: compact builders for
// specifications and hand-crafted event sequences, plus the runtime-layer
// fixtures (specs, NodeConfigs, the 3-node path mesh, and the ground-truth
// containment assertion) shared by runtime_test, udp_test and the
// observability suites.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "core/event.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "workloads/topology.h"

namespace driftsync::testing {

/// Path 0-1-...-n-1 with identical link bounds.
inline SystemSpec line_spec(std::size_t n, double rho = 1e-4,
                            double min_delay = 0.0, double max_delay = 1.0,
                            ProcId source = 0) {
  std::vector<ClockSpec> clocks(n, ClockSpec{rho});
  clocks[source].rho = 0.0;
  std::vector<LinkSpec> links;
  for (ProcId i = 0; i + 1 < n; ++i) {
    links.push_back(LinkSpec{i, static_cast<ProcId>(i + 1), min_delay,
                             max_delay});
  }
  return SystemSpec(std::move(clocks), std::move(links), source);
}

/// Fully connected spec.
inline SystemSpec clique_spec(std::size_t n, double rho = 1e-4,
                              double min_delay = 0.0, double max_delay = 1.0) {
  std::vector<ClockSpec> clocks(n, ClockSpec{rho});
  clocks[0].rho = 0.0;
  std::vector<LinkSpec> links;
  for (ProcId i = 0; i < n; ++i) {
    for (ProcId j = i + 1; j < n; ++j) {
      links.push_back(LinkSpec{i, j, min_delay, max_delay});
    }
  }
  return SystemSpec(std::move(clocks), std::move(links), 0);
}

/// Mints per-processor event records with strictly increasing sequence
/// numbers; callers supply local times.
class EventFactory {
 public:
  explicit EventFactory(std::size_t num_procs) : next_seq_(num_procs, 0) {}

  EventRecord internal(ProcId p, LocalTime lt) {
    return make(p, lt, EventKind::kInternal, kInvalidProc, kInvalidEvent);
  }
  EventRecord send(ProcId p, LocalTime lt, ProcId dest) {
    return make(p, lt, EventKind::kSend, dest, kInvalidEvent);
  }
  EventRecord receive(ProcId p, LocalTime lt, const EventRecord& send_event,
                      double slack = 0.0) {
    EventRecord rec = make(p, lt, EventKind::kReceive, send_event.id.proc,
                           send_event.id);
    rec.slack = slack;
    return rec;
  }
  EventRecord loss_decl(ProcId p, LocalTime lt,
                        const EventRecord& send_event) {
    return make(p, lt, EventKind::kLossDecl, send_event.peer, send_event.id);
  }

 private:
  EventRecord make(ProcId p, LocalTime lt, EventKind kind, ProcId peer,
                   EventId match) {
    EventRecord rec;
    rec.id = EventId{p, next_seq_[p]++};
    rec.lt = lt;
    rec.kind = kind;
    rec.peer = peer;
    rec.match = match;
    return rec;
  }

  std::vector<std::uint32_t> next_seq_;
};

// ---------------------------------------------------------------------------
// Runtime-layer fixtures (DESIGN.md S7)

/// The CSA every runtime test hosts: optimal, loss-tolerant (real
/// transports lose messages).
inline OptimalCsa::Options loss_tolerant() {
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  return opts;
}
inline std::unique_ptr<Csa> loss_tolerant_csa() {
  return std::make_unique<OptimalCsa>(loss_tolerant());
}

/// Source (rho 0) and one drifting peer over a single 50 ms link.
inline SystemSpec two_node_spec() {
  return SystemSpec(std::vector<ClockSpec>{{0.0}, {5e-4}},
                    std::vector<LinkSpec>{{0, 1, 0.0, 0.05}}, 0);
}

/// Uniform NodeConfig for short integration runs; callers that need slower
/// fate resolution (e.g. real sockets) override the periods.
inline runtime::NodeConfig node_config(ProcId self, const SystemSpec& spec,
                                       double poll_period = 0.04,
                                       double fate_timeout = 0.2,
                                       double skip_retry = 0.08) {
  runtime::NodeConfig cfg;
  cfg.self = self;
  cfg.spec = spec;
  cfg.poll_period = poll_period;
  cfg.fate_timeout = fate_timeout;
  cfg.skip_retry = skip_retry;
  return cfg;
}

/// runtime::contains_truth as a gtest assertion: the estimate, read
/// between two readings of true source time, must overlap them.
inline ::testing::AssertionResult brackets_truth(
    const runtime::Node& node, const runtime::TimeSource& truth) {
  const runtime::TruthBracket b = runtime::contains_truth(node, truth);
  if (b) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "estimate [" << b.est.lo << ", " << b.est.hi
         << "] misses true source time in [" << b.t0 << ", " << b.t1 << "]";
}


/// The canonical 3-node path (source - relay - leaf) as a runtime mesh:
/// spec rho 5e-4, 50 ms link bounds, hub seed 11 unless given.  Tests
/// re-shape the hub's per-direction latency/loss themselves.
inline runtime::Mesh three_node_path(std::uint64_t hub_seed = 11) {
  return runtime::Mesh(
      workloads::make_path(
          3, {.rho = 5e-4, .latency = sim::LatencyModel::uniform(0.0, 0.05)})
          .spec,
      hub_seed);
}

}  // namespace driftsync::testing
