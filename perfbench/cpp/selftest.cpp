// Determinism self-test of the benchmark (ctest: driftbench_determinism).
//
// For every workload, at tiny scale: two runs with the same seed must give
// bit-identical virtual-time facts and per-layer counts, traced and
// untraced replays alike, with every correctness gate passing; and a
// different seed must change the generated inputs.
#include <cstdio>
#include <string>

#include "bench.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

perfbench::RunResult run(const perfbench::RunConfig& cfg) {
  perfbench::RunResult r;
  perfbench::run_workload(cfg, r);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : {"sim-mesh", "node-ingest", "serve-mixed"}) {
    perfbench::RunConfig cfg;
    cfg.workload = name;
    cfg.seed = 7;
    cfg.seconds = 0.0;  // One untraced and one traced replay per realization.
    cfg.trace = true;
    cfg.scale = perfbench::Scale::kTiny;
    cfg.work_dir = argc > 1 ? argv[1] : ".";
    const std::string w = name;

    const perfbench::RunResult a = run(cfg);
    const perfbench::RunResult b = run(cfg);
    for (const std::string& e : a.errors) expect(false, w + ": gate: " + e);
    std::uint64_t failed = 0;
    for (const auto* rs : {&a.untraced, &a.traced}) {
      for (const perfbench::Replay& r : *rs) failed += r.failed;
    }
    expect(failed == 0, w + ": operations failed a check");
    expect(a.input_digest == b.input_digest, w + ": same seed, different inputs");
    expect(a.facts == b.facts, w + ": same seed, different facts across runs");
    expect(a.traced.size() == a.untraced.size(), w + ": traced replays missing");
    expect(a.facts.count("width_p50_us") == 1 && a.facts.at("width_p50_us") > 0.0,
           w + ": no bounded estimate sampled");

    cfg.seed = 8;
    const perfbench::RunResult c = run(cfg);
    expect(c.input_digest != a.input_digest, w + ": new seed, same inputs");
    std::printf("%s: %zu facts, digest %016llx / %016llx\n", name,
                a.facts.size(),
                static_cast<unsigned long long>(a.input_digest),
                static_cast<unsigned long long>(c.input_digest));
  }
  std::printf(failures == 0 ? "selftest PASS\n" : "selftest FAIL\n");
  return failures == 0 ? 0 : 1;
}
