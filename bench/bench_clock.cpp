// Micro-benchmark: the disciplined output clock (DESIGN.md decision 21).
//
// BM_DisciplinedNow is the consumer-facing read — two multiplies off the
// ref pair — which sits on every sample(), stats and serve path once the
// clock initializes; BM_Resteer is the steering decision alone (continuity
// advance, proportional term, clamp, counters and the drift span);
// BM_SteerAndRead is one externalization's clock work, a steer and then the
// reading against the same interval at the same lt, which every estimate(),
// sample(), probe reply and client reply pays; BM_Accuracy is the
// stats-path report (the steering counters plus the sliding-window drift
// integration over the span ring), which only stats and metrics scrapes
// pay.  All four must report 0 allocs/op: the span ring is preallocated at
// construction.
#include <cstddef>

#include "bench/harness.h"
#include "clock/disciplined_clock.h"
#include "common/interval.h"

namespace driftsync::clock {
namespace {

void BM_DisciplinedNow(bench::State& state) {
  DisciplinedClock clk;
  clk.steer(0.0, Interval{100.0, 100.001});
  double lt = 0.0;
  for (auto _ : state) {
    lt += 1e-7;
    bench::do_not_optimize(clk.now(lt));
  }
}
DS_BENCHMARK(clock, BM_DisciplinedNow);

void BM_Resteer(bench::State& state) {
  DisciplinedClock clk;
  clk.steer(0.0, Interval{100.0, 100.001});
  double lt = 0.0;
  // The interval tracks local time with a wobbling midpoint, so steers
  // alternate between the chase and the clamp branches like a live node's.
  double wobble = 1e-4;
  for (auto _ : state) {
    lt += 1e-3;
    wobble = -wobble;
    bench::do_not_optimize(
        clk.steer(lt, Interval{100.0 + lt + wobble, 100.001 + lt + wobble}));
  }
  state.counters["clamped"] =
      static_cast<double>(clk.accuracy().slew_clamps);
}
DS_BENCHMARK(clock, BM_Resteer);

void BM_SteerAndRead(bench::State& state) {
  DisciplinedClock clk;
  clk.steer(0.0, Interval{100.0, 100.001});
  double lt = 0.0;
  double wobble = 1e-4;  // As in BM_Resteer: chase and clamp alternate.
  for (auto _ : state) {
    lt += 1e-3;
    wobble = -wobble;
    const Interval est{100.0 + lt + wobble, 100.001 + lt + wobble};
    bench::do_not_optimize(clk.steer(lt, est));
    bench::do_not_optimize(clk.reading(lt, est));
  }
}
DS_BENCHMARK(clock, BM_SteerAndRead);

void BM_Accuracy(bench::State& state) {
  DisciplinedClock clk;
  clk.steer(0.0, Interval{100.0, 100.001});
  double lt = 0.0;
  // Populate the full span ring so the drift integration walks its
  // worst-case length every call.
  for (int i = 0; i < 512; ++i) {
    lt += 0.05;
    clk.steer(lt, Interval{100.0 + lt, 100.001 + lt});
  }
  for (auto _ : state) {
    bench::do_not_optimize(clk.accuracy());
  }
}
DS_BENCHMARK(clock, BM_Accuracy);

}  // namespace
}  // namespace driftsync::clock
