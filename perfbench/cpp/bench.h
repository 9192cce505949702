// Shared types of the driftbench program: run configuration, the per-replay
// record every workload returns, the span recorder of the traced run, and
// small timing/statistics helpers.
//
// The one rule the whole benchmark follows: whatever the program decides
// is computed in virtual time (simulated real time, virtual local clocks),
// so it repeats exactly for a seed; what is timed is CPU-bound closed-loop
// work on the one load thread.  A replay rebuilds the system from scratch,
// warms it up over a fixed virtual span (timed as set-up) and then runs a
// fixed virtual segment (timed as the measured window).
//
// A run draws several independent realizations of its workload from the
// seed (one execution each is too short for its widths to settle: they
// moved 10-20% from seed to seed) and replays them round-robin.  Every
// replay of one realization does identical work, so its virtual-time
// facts must match exactly; the run reports them pooled over all
// realizations.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time, all threads.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.  Sorts a copy.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// Workload sizes.  kTiny is for the determinism self-test only.
enum class Scale { kFull, kTiny };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Checkpoint and trace files go here.
  Scale scale = Scale::kFull;
};

/// Independent realizations a run replays: enough that pooled widths and
/// counts move little from seed to seed.
inline std::size_t realizations(Scale scale) {
  return scale == Scale::kTiny ? 2 : 8;
}

/// Values decided in virtual time, plus per-layer counts.  Every replay of
/// one seed must produce an identical map (a gate), traced or not.
using Facts = std::map<std::string, double>;

/// Span names: one per layer boundary the bench wraps.
enum SpanName : std::uint8_t {
  kHandle = 0,     ///< Node handler call on a mesh datagram (runtime).
  kServe,          ///< Node handler call on a client request (serve).
  kSample,         ///< Node::sample, the bench's estimate probe (runtime).
  kOnSend,         ///< Csa::on_send (core).
  kOnReceive,      ///< Csa::on_receive / on_receive_validated (core).
  kScreen,         ///< Csa::screen_message (core).
  kCheckpoint,     ///< Csa::checkpoint (core), inside Node::persist.
  kEstimate,       ///< Csa::estimate (core).
  kSpanCount,
};
const char* span_name(SpanName name);

/// In-memory span recorder of the traced run.  Not thread-safe: only the
/// load thread records (the Node's timer thread never reaches a wrapped
/// call while the timer is parked).  Child spans recorded inside a handler
/// go to a fixed scratch array and are filed when the handler span closes,
/// so recording allocates nothing inside the program's own alloc window.
class Spans {
 public:
  Spans();

  /// Opens a top-level program span (kHandle, kServe or kSample).
  void begin_handler(SpanName kind, std::uint64_t request);
  void end_handler();
  /// A wrapped layer call [t0, t1]; its parent is the open handler, if any.
  void child(SpanName name, std::int64_t t0, std::int64_t t1);

  /// Every duration recorded, by span name (ns).
  const std::vector<std::uint32_t>& durations(SpanName n) const {
    return dur_[n];
  }
  /// Handler duration minus its child spans (ns), one per handler call of
  /// the given kind.
  const std::vector<std::uint32_t>& handler_self(SpanName kind) const {
    return self_[kind];
  }
  /// Sum of top-level program time: handler spans, or layer spans recorded
  /// outside any handler (the simulator's CSA calls).
  std::int64_t program_ns() const { return program_ns_; }

  /// Writes the first recorded spans as Chrome trace JSON ("X" events;
  /// args carry the request id and the parent span's index).
  bool write_chrome(const std::string& path) const;

 private:
  struct Raw {
    std::int64_t t0 = 0, t1 = 0;
    std::uint64_t request = 0;
    std::int32_t parent = -1;
    SpanName name = kHandle;
  };
  void file(const Raw& raw, std::int32_t parent);

  std::vector<std::uint32_t> dur_[kSpanCount];
  std::vector<std::uint32_t> self_[kSpanCount];
  std::vector<Raw> raw_;  ///< Capped; reserved up front.
  std::int64_t program_ns_ = 0;
  bool in_handler_ = false;
  Raw handler_;
  Raw pending_[32];
  std::size_t n_pending_ = 0;
};

/// Raw virtual-time samples (e.g. estimate widths), pooled across
/// realizations before percentiles are taken.
using Samples = std::map<std::string, std::vector<double>>;

/// One replay: build + warm-up (timed as set-up), then the measured segment.
struct Replay {
  std::size_t realization = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< Measured segment, wall.
  double cpu_s = 0.0;   ///< Measured segment, process CPU (all threads).
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  /// Untraced replays: percentiles of the replay's per-call latencies.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  Facts facts;
  Samples samples;
  /// Traced replays: share of the segment's wall time spent outside the
  /// program's top-level spans.
  double outside_share = 0.0;
};

/// A workload: seeded inputs made once (untimed), replayed many times.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Digest of the generated inputs (the self-test checks a new seed
  /// changes them).
  virtual std::uint64_t input_digest() const = 0;
  /// Runs one replay.  `spans` is null on untraced replays; `latency_us`
  /// receives one wall-time sample per handled operation.
  virtual Replay run_once(Spans* spans, std::vector<float>* latency_us) = 0;
  /// Untimed gates and probes after the replays; adds facts that are not
  /// per-replay (e.g. decode cost) to `extra` and failures to `errors`.
  virtual void finish(Facts& extra, std::vector<std::string>& errors) {
    (void)extra;
    (void)errors;
  }
  /// Which per-layer share the traced replays' outside_share reports:
  /// "sim.self_share" or "gen.self_share".
  virtual const char* outside_metric() const = 0;
};

/// One realization of the named workload, its inputs drawn from `seed`.
std::unique_ptr<Workload> make_sim_mesh(const RunConfig& cfg, std::uint64_t seed);
std::unique_ptr<Workload> make_node_ingest(const RunConfig& cfg, std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mixed(const RunConfig& cfg, std::uint64_t seed);

/// Everything one run measured.
struct RunResult {
  std::vector<Replay> untraced;
  std::vector<Replay> traced;
  std::size_t latency_samples = 0;  ///< Untraced replays only.
  Spans spans;                      ///< Traced replays only.
  /// Virtual-time facts pooled over the realizations: scalar facts are
  /// averaged, samples concatenated and summarized by percentile.
  Facts facts;
  Facts extra;
  std::vector<std::string> errors;
  std::uint64_t input_digest = 0;
  std::string outside_metric;  ///< See Workload::outside_metric.
};

/// Draws realizations(cfg.scale) realizations from cfg.seed and replays
/// them round-robin until cfg.seconds have passed, each at least once
/// (traced and untraced alternating when tracing), then runs finish() on
/// the first.  Gates that every replay's facts and samples equal those of the
/// realization's first replay, and pools the realizations' facts.
/// Throws std::invalid_argument on an unknown workload name.
void run_workload(const RunConfig& cfg, RunResult& out);

/// Metric name -> (value, unit) as the JSON result line reports them.
struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;
Metrics end_to_end_metrics(const RunResult& r);
Metrics per_layer_metrics(const RunResult& r);

}  // namespace perfbench
