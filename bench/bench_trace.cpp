// Micro-benchmark: the observability hot paths (DESIGN.md §8).  The numbers
// that matter are the two costs every datagram pays when tracing is wired
// in: the disabled-tracer fast path (one bool test) and the enabled record
// (a clock read and a store into the single-writer ring).  Export and
// histogram costs are off the datagram path but bound the metrics-query
// stall.
#include "bench/harness.h"
#include "common/histogram.h"
#include "common/trace.h"

namespace driftsync {
namespace {

void BM_RecordDisabled(bench::State& state) {
  Tracer tracer(1024);
  tracer.set_enabled(false);
  for (auto _ : state) {
    tracer.record(TraceEventKind::kSend, 42, 1, 2, 0.5);
  }
  bench::do_not_optimize(tracer.recorded());
}
DS_BENCHMARK(trace, BM_RecordDisabled);

void BM_RecordEnabled(bench::State& state) {
  Tracer tracer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    tracer.record(TraceEventKind::kSend, 42, 1, 2, 0.5);
  }
  bench::do_not_optimize(tracer.recorded());
}
DS_BENCHMARK(trace, BM_RecordEnabled)->arg(1024)->arg(65536);

void BM_Snapshot(bench::State& state) {
  Tracer tracer(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < tracer.capacity(); ++i) {
    tracer.record(TraceEventKind::kDeliver, i + 1, 1, 2, 0.25);
  }
  for (auto _ : state) {
    bench::do_not_optimize(tracer.snapshot());
  }
}
DS_BENCHMARK(trace, BM_Snapshot)->arg(1024)->arg(4096);

void BM_ChromeExport(bench::State& state) {
  Tracer tracer(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < tracer.capacity(); ++i) {
    tracer.record(TraceEventKind::kSend, mint_trace_id(1, 2, i), 1, 2, 0.125);
  }
  const auto events = tracer.snapshot();
  for (auto _ : state) {
    bench::do_not_optimize(trace_to_chrome_json(events));
  }
  state.counters["bytes"] =
      static_cast<double>(trace_to_chrome_json(events).size());
}
DS_BENCHMARK(trace, BM_ChromeExport)->arg(256)->arg(1024);

void BM_HistogramAdd(bench::State& state) {
  Histogram hist = Histogram::exponential(1e-6, 4.0, 10);
  double v = 1e-6;
  for (auto _ : state) {
    hist.add(v);
    v = v * 1.7;
    if (v > 1.0) v = 1e-6;
  }
  bench::do_not_optimize(hist.count());
}
DS_BENCHMARK(trace, BM_HistogramAdd);

void BM_PrometheusRender(bench::State& state) {
  Histogram hist = Histogram::exponential(1e-6, 4.0, 10);
  for (int i = 0; i < 1000; ++i) {
    hist.add(1e-6 * static_cast<double>(1 + i % 997));
  }
  for (auto _ : state) {
    std::string out;
    append_prometheus(out, "driftsync_width_seconds", "node=\"1\"", hist);
    bench::do_not_optimize(out);
  }
}
DS_BENCHMARK(trace, BM_PrometheusRender);

}  // namespace
}  // namespace driftsync
