// Micro-benchmark: per-message cost of each CSA under identical traffic.
// The oracle's cost grows with execution length (the problem the paper
// solves); the optimal algorithm's cost stays flat (O(L^2), L bounded by
// the communication pattern).
#include <memory>

#include "baselines/full_view_csa.h"
#include "baselines/interval_csa.h"
#include "baselines/ntp_csa.h"
#include "bench/harness.h"
#include "core/optimal_csa.h"
#include "workloads/scenario.h"
#include "workloads/topology.h"

namespace driftsync {
namespace {

workloads::Network make_net() {
  workloads::TopoParams params;
  params.rho = 100e-6;
  params.latency = sim::LatencyModel::uniform(0.002, 0.02);
  return workloads::make_star(6, params);
}

template <typename MakeCsa>
void run_once(const workloads::Network& net, RealTime duration,
              MakeCsa make_csa, bench::State& state) {
  std::size_t messages = 0;
  for (auto _ : state) {
    workloads::ScenarioConfig cfg;
    cfg.seed = 5;
    cfg.duration = duration;
    cfg.sample_interval = 0.0;
    std::vector<workloads::CsaSlot> slots{{"bench", make_csa}};
    const auto report = workloads::run_scenario(
        net, workloads::periodic_probe_apps(net, 0.25), slots, cfg);
    messages = report.messages_sent;
    bench::do_not_optimize(report.total_events);
  }
  state.counters["msgs"] = static_cast<double>(messages);
  const double total_msgs =
      static_cast<double>(messages) * static_cast<double>(state.iterations());
  if (total_msgs > 0.0) {
    state.counters["us_per_msg"] =
        state.elapsed_seconds() * 1e6 / total_msgs;
  }
}

void BM_OptimalCsa(bench::State& state) {
  const auto net = make_net();
  run_once(net, static_cast<double>(state.range(0)),
           [](ProcId) { return std::make_unique<OptimalCsa>(); }, state);
}
DS_BENCHMARK(csa_message, BM_OptimalCsa)->arg(5)->arg(20)->arg(80);

// A/B partner for BM_OptimalCsa: the same traffic ingested with the
// Byzantine defense's screen on.  The runtime screens every inbound message
// with cross_validation's cross-path and payload screens before ingesting
// it (runtime/node.cpp handle_data); the sim delivers straight to
// on_receive, which takes the same rollback point, so this wrapper
// reproduces the runtime's order — screen first, then ingest — and the
// delta against BM_OptimalCsa is the price of the screen on clean traffic.
class ScreenedOptimalCsa : public OptimalCsa {
 public:
  using OptimalCsa::OptimalCsa;
  void on_receive(const RecvContext& ctx,
                  const CsaPayload& payload) override {
    bench::do_not_optimize(screen_message(ctx.from, ctx.send_event.lt,
                                          ctx.recv_event.lt, payload));
    OptimalCsa::on_receive(ctx, payload);
  }
};

void BM_OptimalCsaCrossVal(bench::State& state) {
  const auto net = make_net();
  run_once(net, static_cast<double>(state.range(0)),
           [](ProcId) {
             OptimalCsa::Options opts;
             opts.cross_validation = true;
             return std::make_unique<ScreenedOptimalCsa>(opts);
           },
           state);
}
DS_BENCHMARK(csa_message, BM_OptimalCsaCrossVal)->arg(5)->arg(20)->arg(80);

void BM_FullViewOracle(bench::State& state) {
  const auto net = make_net();
  run_once(net, static_cast<double>(state.range(0)),
           [](ProcId) { return std::make_unique<FullViewCsa>(); }, state);
}
DS_BENCHMARK(csa_message, BM_FullViewOracle)->arg(5)->arg(20);

void BM_IntervalCsa(bench::State& state) {
  const auto net = make_net();
  run_once(net, static_cast<double>(state.range(0)),
           [](ProcId) { return std::make_unique<IntervalCsa>(); }, state);
}
DS_BENCHMARK(csa_message, BM_IntervalCsa)->arg(5)->arg(20)->arg(80);

void BM_NtpCsa(bench::State& state) {
  const auto net = make_net();
  run_once(net, static_cast<double>(state.range(0)),
           [](ProcId) { return std::make_unique<NtpCsa>(); }, state);
}
DS_BENCHMARK(csa_message, BM_NtpCsa)->arg(5)->arg(20)->arg(80);

}  // namespace
}  // namespace driftsync
