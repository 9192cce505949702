// sim-mesh: the plain paper algorithm (OptimalCsa, default options) on the
// 16-node mesh of make_mesh() under seeded gossip, in the discrete-event
// simulator at CPU speed.  Core (history, sync engine) and graph (incremental APSP) do the
// work; runtime, serve, clock and the datagram codec are bypassed.
#include <memory>

#include "baselines/full_view_csa.h"
#include "bench.h"
#include "core/optimal_csa.h"
#include "mesh_stream.h"
#include "probe_csa.h"
#include "sim/simulator.h"
#include "workloads/apps.h"

namespace perfbench {

using namespace driftsync;

namespace {

struct SimMeshParams {
  std::size_t procs;
  std::size_t extra_edges;
  double gossip_interval;
  double warm;      ///< Virtual seconds of warm-up (set-up).
  double span;      ///< Virtual seconds measured.
  double probe;     ///< Virtual cadence of estimate samples.
  double oracle;    ///< Virtual seconds of the FullViewCsa comparison.
};

SimMeshParams params_for(Scale scale) {
  if (scale == Scale::kTiny) return {6, 2, 0.05, 1.0, 1.0, 0.1, 1.0};
  return {16, 12, 0.05, 4.0, 20.0, 0.05, 2.0};
}

/// Samples every non-source estimate at the probe cadence: containment of
/// true time (a gate), width, and live points.
class Sampler final : public sim::SimObserver {
 public:
  Sampler(const std::vector<ProbeCsa*>& probes, double from)
      : probes_(probes), from_(from) {}
  void on_probe(sim::Simulator& sim, RealTime rt) override {
    if (rt <= from_) return;
    for (ProcId p = 0; p < sim.spec().num_procs(); ++p) {
      if (p == sim.spec().source()) continue;
      const Interval est = probes_[p]->estimate(sim.clock(p).lt_at(rt));
      ++samples;
      if (!est.contains(rt)) ++violations;
      if (est.bounded()) widths.push_back(est.width());
      live.push_back(static_cast<double>(probes_[p]->stats().live_points));
    }
  }
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  std::vector<double> widths;
  std::vector<double> live;

 private:
  std::vector<ProbeCsa*> probes_;
  double from_;
};

struct Totals {
  std::uint64_t sends = 0, receives = 0, reports = 0, allocs = 0;
  std::uint64_t payload_bytes = 0, relaxations = 0, gc_passes = 0;
};

Totals totals(const std::vector<ProbeCsa*>& probes) {
  Totals t;
  for (const ProbeCsa* p : probes) {
    const CsaStats s = p->stats();
    t.sends += p->counts().sends;
    t.receives += p->counts().receives;
    t.reports += p->counts().reports_in;
    t.allocs += p->counts().core_allocs;
    t.payload_bytes += s.payload_bytes_sent;
    t.relaxations += s.apsp_relaxations;
    t.gc_passes += s.gc_passes;
  }
  return t;
}

class SimMesh final : public Workload {
 public:
  SimMesh(const RunConfig& cfg, std::uint64_t seed)
      : seed_(seed),
        p_(params_for(cfg.scale)),
        mesh_(make_mesh(p_.procs, p_.extra_edges)) {}

  /// The simulator draws every link delay and gossip decision from the
  /// seed, which is therefore the whole of this workload's varying input.
  std::uint64_t input_digest() const override { return seed_; }

  const char* outside_metric() const override { return "sim.self_share"; }

  Replay run_once(Spans* spans, std::vector<float>* latency_us) override {
    Replay r;
    std::vector<ProbeCsa*> probes;
    std::vector<float> receive_us;
    const std::int64_t t0 = now_ns();
    sim::SimConfig config;
    config.seed = seed_;
    config.probe_interval = p_.probe;
    sim::Simulator sim(mesh_.net.spec, mesh_.net.links, config);
    for (ProcId p = 0; p < mesh_.net.spec.num_procs(); ++p) {
      auto probe = std::make_unique<ProbeCsa>(std::make_unique<OptimalCsa>(),
                                              nullptr);
      probes.push_back(probe.get());
      std::vector<std::unique_ptr<Csa>> csas;
      csas.push_back(std::move(probe));
      sim.attach_node(p, mesh_.clocks[p],
                      std::make_unique<workloads::GossipApp>(
                          workloads::GossipApp::Config{p_.gossip_interval, 0.5}),
                      std::move(csas));
    }
    Sampler sampler(probes, p_.warm);
    sim.set_observer(&sampler);
    sim.run_until(p_.warm);
    r.setup_s = 1e-9 * static_cast<double>(now_ns() - t0);

    const Totals before = totals(probes);
    receive_us.reserve(static_cast<std::size_t>(
        2.0 * static_cast<double>(before.receives) * p_.span / p_.warm + 1024));
    for (ProbeCsa* p : probes) {
      p->set_spans(spans);
      if (latency_us != nullptr) p->set_receive_sink(&receive_us);
    }
    const double c0 = cpu_seconds();
    const std::int64_t w0 = now_ns();
    const std::int64_t prog0 = spans != nullptr ? spans->program_ns() : 0;
    sim.run_until(p_.warm + p_.span);
    const std::int64_t w1 = now_ns();
    r.cpu_s = cpu_seconds() - c0;
    r.wall_s = 1e-9 * static_cast<double>(w1 - w0);
    for (ProbeCsa* p : probes) {
      p->set_spans(nullptr);
      p->set_receive_sink(nullptr);
    }
    if (spans != nullptr) {
      r.outside_share =
          1.0 - static_cast<double>(spans->program_ns() - prog0) /
                    static_cast<double>(w1 - w0);
    }
    if (latency_us != nullptr) {
      latency_us->insert(latency_us->end(), receive_us.begin(), receive_us.end());
    }

    const Totals after = totals(probes);
    const auto msgs = static_cast<double>(after.receives - before.receives);
    r.ops = after.receives - before.receives;
    r.failed = sampler.violations;
    double state_bytes = 0.0, history_max = 0.0, live_max = 0.0;
    for (const ProbeCsa* p : probes) {
      const CsaStats s = p->stats();
      state_bytes += static_cast<double>(s.state_bytes);
      history_max = std::max(history_max, static_cast<double>(s.max_history_events));
      live_max = std::max(live_max, static_cast<double>(s.max_live_points));
    }
    Facts& f = r.facts;
    f["run.ops"] = msgs;
    f["run.samples"] = static_cast<double>(sampler.samples);
    f["wire_bytes_per_op"] =
        static_cast<double>(after.payload_bytes - before.payload_bytes) /
        static_cast<double>(after.sends - before.sends);
    f["state_kb"] = state_bytes / static_cast<double>(probes.size()) / 1024.0;
    f["core.allocs_per_msg"] = static_cast<double>(after.allocs - before.allocs) / msgs;
    f["core.reports_per_msg"] = static_cast<double>(after.reports - before.reports) / msgs;
    f["core.history_events_max"] = history_max;
    f["core.gc_passes_per_msg"] =
        static_cast<double>(after.gc_passes - before.gc_passes) / msgs;
    f["core.live_points_max"] = live_max;
    f["graph.relaxations"] = static_cast<double>(after.relaxations - before.relaxations);
    f["graph.relaxations_per_msg"] = f["graph.relaxations"] / msgs;
    for (double& w : sampler.widths) w *= 1e6;
    r.samples["width_us"] = std::move(sampler.widths);
    r.samples["core.live_points"] = std::move(sampler.live);
    return r;
  }

  /// Theorem 2.1 gate: on a prefix of the same execution, the optimal
  /// algorithm's estimates equal the full-view oracle's at every sample.
  void finish(Facts& extra, std::vector<std::string>& errors) override {
    sim::SimConfig config;
    config.seed = seed_;
    config.probe_interval = p_.probe;
    sim::Simulator sim(mesh_.net.spec, mesh_.net.links, config);
    for (ProcId p = 0; p < mesh_.net.spec.num_procs(); ++p) {
      std::vector<std::unique_ptr<Csa>> csas;
      csas.push_back(std::make_unique<OptimalCsa>());
      csas.push_back(std::make_unique<FullViewCsa>());
      sim.attach_node(p, mesh_.clocks[p],
                      std::make_unique<workloads::GossipApp>(
                          workloads::GossipApp::Config{p_.gossip_interval, 0.5}),
                      std::move(csas));
    }
    struct Compare final : sim::SimObserver {
      void on_probe(sim::Simulator& s, RealTime rt) override {
        for (ProcId p = 0; p < s.spec().num_procs(); ++p) {
          const LocalTime lt = s.clock(p).lt_at(rt);
          const Interval fast = s.csa(p, 0).estimate(lt);
          const Interval slow = s.csa(p, 1).estimate(lt);
          ++compared;
          if (!intervals_close(fast, slow, 1e-7)) ++mismatches;
        }
      }
      std::uint64_t compared = 0, mismatches = 0;
    } compare;
    sim.set_observer(&compare);
    sim.run_until(p_.oracle);
    extra["oracle.samples"] = static_cast<double>(compare.compared);
    if (compare.compared == 0 || compare.mismatches != 0) {
      errors.push_back("sim-mesh: " + std::to_string(compare.mismatches) + " of " +
                       std::to_string(compare.compared) +
                       " estimates differ from FullViewCsa (Thm 2.1)");
    }
  }

 private:
  std::uint64_t seed_;
  SimMeshParams p_;
  Mesh mesh_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_mesh(const RunConfig& cfg, std::uint64_t seed) {
  return std::make_unique<SimMesh>(cfg, seed);
}

}  // namespace perfbench
