// driftbench: the repository's end-to-end benchmark.
//
//   driftbench --workload sim-mesh|node-ingest|serve-mixed --seed N
//              --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a human-readable summary, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics (from a traced run, with untraced
// replays interleaved for the overhead share and the count comparison)
// with --trace 1.  Exits 1 when a correctness gate fails, 2 on bad usage.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metrics;

int usage(const char* why) {
  std::fprintf(stderr,
               "driftbench: %s\nusage: driftbench --workload "
               "sim-mesh|node-ingest|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

void print_table(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.value, metric.unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.work_dir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
    } else if (key == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  ::mkdir(cfg.work_dir.c_str(), 0755);

  perfbench::RunResult result;
  try {
    perfbench::run_workload(cfg, result);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "driftbench: %s\n", e.what());
    return 1;
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* rs : {&result.untraced, &result.traced}) {
    for (const perfbench::Replay& r : *rs) {
      attempted += r.ops;
      failed += r.failed;
    }
  }
  const Metrics e2e = perfbench::end_to_end_metrics(result);
  const Metrics layers = perfbench::per_layer_metrics(result);
  std::printf("driftbench %s seed=%llu: %zu untraced + %zu traced replays, "
              "%zu latency samples\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              result.untraced.size(), result.traced.size(),
              result.latency_samples);
  print_table("end to end:", e2e);
  if (cfg.trace) {
    print_table("per layer (traced replays; counts from every replay):", layers);
    const std::string path = cfg.work_dir + "/trace-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".json";
    if (result.spans.write_chrome(path)) {
      std::printf("chrome trace: %s\n", path.c_str());
    } else {
      result.errors.push_back("could not write " + path);
    }
  }
  const Metrics& reported = cfg.trace ? layers : e2e;
  for (const auto& [name, metric] : reported) {
    if (!std::isfinite(metric.value)) result.errors.push_back(name + " is not finite");
  }
  for (const std::string& e : result.errors) std::printf("GATE FAILED: %s\n", e.c_str());
  if (failed != 0) {
    std::printf("GATE FAILED: %llu of %llu operations failed a check\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  }
  const bool correct = result.errors.empty() && failed == 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : reported) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
