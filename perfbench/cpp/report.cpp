// The replay loop shared by every workload, and the mapping from replays
// and spans to the metrics the result line reports.
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

std::unique_ptr<Workload> make_workload(const RunConfig& cfg, std::uint64_t seed) {
  if (cfg.workload == "sim-mesh") return make_sim_mesh(cfg, seed);
  if (cfg.workload == "node-ingest") return make_node_ingest(cfg, seed);
  if (cfg.workload == "serve-mixed") return make_serve_mixed(cfg, seed);
  throw std::invalid_argument("unknown workload: " + cfg.workload);
}

/// Seed of realization i of a run (splitmix64 finalizer: distinct run
/// seeds give unrelated realizations).
std::uint64_t realization_seed(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Metrics that summarize pooled samples: (fact, sample key, quantile).
struct Pooled {
  const char* fact;
  const char* key;
  double q;
};
constexpr Pooled kPooled[] = {
    {"width_p50_us", "width_us", 0.50},
    {"width_p99_us", "width_us", 0.99},
    {"clock.err_p50_us", "clock.err_us", 0.50},
    {"core.live_points_p50", "core.live_points", 0.50},
    {"wire.data_dgram_bytes_p50", "wire.data_dgram_bytes", 0.50},
};

}  // namespace

void run_workload(const RunConfig& cfg, RunResult& out) {
  const std::size_t k = realizations(cfg.scale);
  std::vector<std::unique_ptr<Workload>> ws;
  for (std::size_t i = 0; i < k; ++i) {
    ws.push_back(make_workload(cfg, realization_seed(cfg.seed, i)));
    out.input_digest = (out.input_digest ^ ws.back()->input_digest()) * 1099511628211ULL;
  }
  out.outside_metric = ws.front()->outside_metric();

  const std::int64_t start = now_ns();
  for (std::size_t turn = 0;; ++turn) {
    const double elapsed = 1e-9 * static_cast<double>(now_ns() - start);
    const bool covered = out.untraced.size() >= k && (!cfg.trace || out.traced.size() >= k);
    if (covered && elapsed >= cfg.seconds) break;
    const bool traced = cfg.trace && turn % 2 == 1;
    const std::size_t i = (cfg.trace ? turn / 2 : turn) % k;
    std::vector<float> latency_us;
    Replay r = traced ? ws[i]->run_once(&out.spans, nullptr)
                      : ws[i]->run_once(nullptr, &latency_us);
    r.realization = i;
    // Per-replay percentiles, then medians over replays: a slow spell of
    // the machine spoils a few replays, not the run's tail.
    r.latency_p50_us = percentile(latency_us, 0.50);
    r.latency_p99_us = percentile(latency_us, 0.99);
    out.latency_samples += latency_us.size();
    (traced ? out.traced : out.untraced).push_back(std::move(r));
  }
  // The untimed gates and probes need one realization, not all.
  ws.front()->finish(out.extra, out.errors);

  // Determinism gate: every replay of a realization, traced or not,
  // repeats the virtual-time facts, samples and per-layer counts of its
  // first replay exactly.
  std::vector<const Replay*> first(k, nullptr);
  for (const Replay& r : out.untraced) {
    if (first[r.realization] == nullptr) first[r.realization] = &r;
  }
  const auto check = [&](const std::vector<Replay>& rs, const char* kind) {
    for (std::size_t j = 0; j < rs.size(); ++j) {
      const Replay& ref = *first[rs[j].realization];
      if (rs[j].facts != ref.facts || rs[j].samples != ref.samples) {
        out.errors.push_back(std::string(kind) + " replay " + std::to_string(j) +
                             " differs from the first replay of realization " +
                             std::to_string(rs[j].realization));
        return;
      }
    }
  };
  check(out.untraced, "untraced");
  check(out.traced, "traced");

  Samples pooled;
  for (const Replay* r : first) {
    for (const auto& [key, value] : r->facts) out.facts[key] += value / static_cast<double>(k);
    for (const auto& [key, v] : r->samples) {
      pooled[key].insert(pooled[key].end(), v.begin(), v.end());
    }
  }
  for (const Pooled& p : kPooled) {
    const auto it = pooled.find(p.key);
    if (it != pooled.end()) out.facts[p.fact] = percentile(it->second, p.q);
  }
}

namespace {

template <typename F>
double median_of(const std::vector<Replay>& rs, F&& f) {
  std::vector<double> v;
  for (const Replay& r : rs) v.push_back(f(r));
  return percentile(v, 0.5);
}

double fact(const Facts& f, const char* key) {
  const auto it = f.find(key);
  return it == f.end() ? 0.0 : it->second;
}

}  // namespace

Metrics end_to_end_metrics(const RunResult& r) {
  const std::vector<Replay>& u = r.untraced;
  const Facts& f = r.facts;
  Metrics m;
  m["setup_s"] = {median_of(u, [](const Replay& x) { return x.setup_s; }), "s"};
  m["ops_per_s"] = {
      median_of(u, [](const Replay& x) { return static_cast<double>(x.ops) / x.wall_s; }),
      "1/s"};
  m["cpu_us_per_op"] = {
      median_of(u, [](const Replay& x) { return 1e6 * x.cpu_s / static_cast<double>(x.ops); }),
      "us"};
  m["latency_p50_us"] = {median_of(u, [](const Replay& x) { return x.latency_p50_us; }), "us"};
  m["latency_p99_us"] = {median_of(u, [](const Replay& x) { return x.latency_p99_us; }), "us"};
  m["width_p50_us"] = {fact(f, "width_p50_us"), "us"};
  m["width_p99_us"] = {fact(f, "width_p99_us"), "us"};
  m["wire_bytes_per_op"] = {fact(f, "wire_bytes_per_op"), "B"};
  m["state_kb"] = {fact(f, "state_kb"), "KiB"};
  m["run.cpu_wall_ratio"] = {median_of(u, [](const Replay& x) { return x.cpu_s / x.wall_s; }),
                             "ratio"};
  return m;
}

Metrics per_layer_metrics(const RunResult& r) {
  const Facts& f = r.facts;
  const Spans& s = r.spans;
  const auto p50 = [&](SpanName n) { return percentile(s.durations(n), 0.50); };
  Metrics m;
  m["core.on_send_us_p50"] = {1e-3 * p50(kOnSend), "us"};
  m["core.on_receive_us_p50"] = {1e-3 * p50(kOnReceive), "us"};
  m["core.on_receive_us_p99"] = {1e-3 * percentile(s.durations(kOnReceive), 0.99), "us"};
  m["core.screen_us_p50"] = {1e-3 * p50(kScreen), "us"};
  m["core.checkpoint_us_p50"] = {1e-3 * p50(kCheckpoint), "us"};
  m["core.estimate_ns_p50"] = {p50(kEstimate), "ns"};
  for (const char* key :
       {"core.allocs_per_msg", "core.reports_per_msg", "core.history_events_max",
        "core.gc_passes_per_msg", "core.live_points_p50", "core.live_points_max",
        "graph.relaxations_per_msg", "runtime.msg_path_allocs_per_dgram",
        "runtime.acks_per_dgram", "runtime.renounced", "runtime.fsyncs_per_dgram",
        "serve.sessions_active", "serve.rejected", "serve.evicted",
        "clock.resteers_per_op", "clock.slew_clamps"}) {
    m[key] = {fact(f, key), "count"};
  }
  m["runtime.checkpoint_kb"] = {fact(f, "runtime.checkpoint_kb"), "KiB"};
  m["serve.session_kb"] = {fact(f, "serve.session_kb"), "KiB"};
  m["clock.err_p50_us"] = {fact(f, "clock.err_p50_us"), "us"};
  m["wire.data_dgram_bytes_p50"] = {fact(f, "wire.data_dgram_bytes_p50"), "B"};
  m["runtime.decode_ns_p50"] = {fact(r.extra, "runtime.decode_ns_p50"), "ns"};

  // Core time per relaxation over the traced segments: the graph cost
  // with the history merge and bookkeeping folded in.
  double core_ns = 0.0;
  for (SpanName n : {kOnSend, kOnReceive}) {
    for (std::uint32_t d : s.durations(n)) core_ns += d;
  }
  double relaxations = 0.0;
  for (const Replay& x : r.traced) relaxations += fact(x.facts, "graph.relaxations");
  m["graph.ns_per_relaxation"] = {relaxations > 0.0 ? core_ns / relaxations : 0.0, "ns"};

  m["runtime.self_us_p50"] = {1e-3 * percentile(s.handler_self(kHandle), 0.50), "us"};
  m["serve.self_us_p50"] = {1e-3 * percentile(s.handler_self(kServe), 0.50), "us"};
  m["sim.self_share"] = {0.0, "share"};
  m["gen.self_share"] = {0.0, "share"};
  m[r.outside_metric] = {median_of(r.traced, [](const Replay& x) { return x.outside_share; }),
                       "share"};
  const auto wall = [](const Replay& x) { return x.wall_s; };
  m["trace.overhead_share"] = {median_of(r.traced, wall) / median_of(r.untraced, wall) - 1.0,
                               "share"};
  std::uint64_t ops = 0, failed = 0;
  for (const auto* rs : {&r.untraced, &r.traced}) {
    for (const Replay& x : *rs) {
      ops += x.ops;
      failed += x.failed;
    }
  }
  m["run.failed_share"] = {ops > 0 ? static_cast<double>(failed) / static_cast<double>(ops) : 0.0,
                           "share"};
  return m;
}

}  // namespace perfbench
