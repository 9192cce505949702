// node-ingest and serve-mixed: one real runtime::Node, configured as a
// defended, durable daemon (OptimalCsa{loss_tolerant, cross_validation},
// quarantine screen on, a checkpoint file), driven in-process.
//
//  * node-ingest feeds it the encoded DataMsg stream a seeded simulated
//    mesh delivers to it: decode, screen_message, copy-then-commit ingest,
//    persist() and the ack encode — the runtime write path.
//  * serve-mixed turns serving on and answers tens of thousands of
//    ClientEstimator clients round-robin, below the session cap, with a
//    trickle of mesh data keeping the estimate bounded — the read path:
//    estimate, clock steer and accuracy(), session table, response encode.
//
// The Node's poll period is longer than any run, so its timer thread stays
// parked and the Node never sends data; every call into it is made by the
// load thread through LoopTransport, at a VirtualTime the load thread sets.
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"
#include "core/optimal_csa.h"
#include "hooks.h"
#include "loop.h"
#include "mesh_stream.h"
#include "probe_csa.h"
#include "runtime/datagram.h"
#include "runtime/node.h"
#include "serve/client_session.h"
#include "serve/session_table.h"

namespace perfbench {

using namespace driftsync;

namespace {

/// A poll period no run reaches: the Node's timer never polls a peer.
constexpr double kParkedPoll = 1e9;
/// Session idle timeout no run reaches: nothing is reaped.
constexpr double kNoReap = 1e9;

/// Estimate samples taken on a virtual cadence (widths and errors in us).
struct EstimateSamples {
  std::uint64_t n = 0;
  std::uint64_t violations = 0;
  std::vector<double> widths;
  std::vector<double> clock_err;
  std::vector<double> live;

  void into(Samples& out) {
    out["width_us"] = std::move(widths);
    out["clock.err_us"] = std::move(clock_err);
    out["core.live_points"] = std::move(live);
  }
};

/// One Node with the bench's clock, transport and CSA probe.
class NodeRig {
 public:
  NodeRig(const MeshStream& stream, const std::string& checkpoint,
          std::size_t serve_cap)
      : stream_(&stream) {
    runtime::NodeConfig cfg;
    cfg.self = stream.target;
    cfg.spec = stream.net.spec;
    cfg.poll_period = kParkedPoll;
    cfg.checkpoint_path = checkpoint;
    if (serve_cap > 0) {
      cfg.serve_max_clients = serve_cap;
      cfg.serve_idle_timeout = kNoReap;
    }
    OptimalCsa::Options opts;
    opts.loss_tolerant = true;
    opts.cross_validation = true;
    auto probe = std::make_unique<ProbeCsa>(std::make_unique<OptimalCsa>(opts),
                                            nullptr);
    auto time = std::make_unique<VirtualTime>();
    auto net = std::make_unique<LoopTransport>();
    probe_ = probe.get();
    time_ = time.get();
    net_ = net.get();
    time_->set(stream.target_clock.lt_at(0.0));
    node_ = std::make_unique<runtime::Node>(std::move(cfg), std::move(probe),
                                            std::move(time), std::move(net));
  }

  runtime::Node& node() { return *node_; }
  ProbeCsa& probe() { return *probe_; }
  VirtualTime& time() { return *time_; }
  LoopTransport& net() { return *net_; }
  std::uint64_t acks() const { return acks_; }

  /// Hands one data datagram to the Node at its virtual arrival time and
  /// checks the reply: exactly one ack to the sender, processed up to this
  /// datagram.  Returns 1 on a failed check.
  std::uint64_t ingest(const Arrival& a, std::vector<float>* latency_us,
                       Spans* spans) {
    time_->set(a.lt);
    if (spans != nullptr) spans->begin_handler(kHandle, a.dgram_seq);
    const std::int64_t t0 = now_ns();
    net_->deliver(a.bytes);
    const std::int64_t t1 = now_ns();
    if (spans != nullptr) spans->end_handler();
    if (latency_us != nullptr) {
      latency_us->push_back(1e-3f * static_cast<float>(t1 - t0));
    }
    bool ok = false;
    if (net_->outbox().size() == 1 && net_->outbox()[0].to == a.from) {
      try {
        const runtime::Datagram d = runtime::decode_datagram(net_->outbox()[0].bytes);
        if (const auto* ack = std::get_if<runtime::AckMsg>(&d)) {
          ok = ack->processed_hw == a.dgram_seq && ack->seen_hw == a.dgram_seq;
          ++acks_;
        }
      } catch (const WireError&) {
      }
    }
    net_->recycle();
    return ok ? 0 : 1;
  }

  /// Queries the Node's estimate at ground-truth time `rt` (Node::sample)
  /// and checks it contains rt.
  void sample(double rt, EstimateSamples& out, Spans* spans) {
    time_->set(stream_->target_clock.lt_at(rt));
    if (spans != nullptr) spans->begin_handler(kSample, out.n);
    const runtime::NodeSample s = node_->sample();
    if (spans != nullptr) spans->end_handler();
    ++out.n;
    if (!s.est.contains(rt)) ++out.violations;
    if (s.est.bounded()) out.widths.push_back(1e6 * s.est.width());
    if (s.disc.initialized) out.clock_err.push_back(1e6 * std::fabs(s.disc.out - rt));
    out.live.push_back(static_cast<double>(probe_->stats().live_points));
  }

 private:
  const MeshStream* stream_;
  ProbeCsa* probe_ = nullptr;
  VirtualTime* time_ = nullptr;
  LoopTransport* net_ = nullptr;
  std::unique_ptr<runtime::Node> node_;
  std::uint64_t acks_ = 0;
};

/// Counter snapshot for per-segment deltas.
struct Snap {
  runtime::NodeStats node;
  ProbeCsa::Counts csa;
  CsaStats core;
  std::uint64_t fsyncs = 0;
};

Snap snap(NodeRig& rig) {
  return Snap{rig.node().stats(), rig.probe().counts(), rig.probe().stats(),
              fsync_calls()};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Facts every Node workload reports from a segment's counter deltas.
void node_facts(const Snap& a, const Snap& b, const std::string& checkpoint,
                double ops, Facts& f) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double receives = d(a.csa.receives, b.csa.receives);
  const double dgrams = d(a.node.dgrams_in, b.node.dgrams_in);
  f["run.ops"] = ops;
  f["state_kb"] = static_cast<double>(b.core.state_bytes) / 1024.0;
  f["core.allocs_per_msg"] = ratio(d(a.csa.core_allocs, b.csa.core_allocs), receives);
  f["core.reports_per_msg"] = ratio(d(a.csa.reports_in, b.csa.reports_in), receives);
  f["core.history_events_max"] = static_cast<double>(b.core.max_history_events);
  f["core.gc_passes_per_msg"] = ratio(d(a.core.gc_passes, b.core.gc_passes), receives);
  f["core.live_points_max"] = static_cast<double>(b.core.max_live_points);
  f["graph.relaxations"] = d(a.core.apsp_relaxations, b.core.apsp_relaxations);
  f["graph.relaxations_per_msg"] = ratio(f["graph.relaxations"], receives);
  f["runtime.checkpoint_kb"] = static_cast<double>(memory_file_size(checkpoint)) / 1024.0;
  f["runtime.msg_path_allocs_per_dgram"] =
      ratio(d(a.node.msg_path_allocs, b.node.msg_path_allocs), dgrams);
  f["runtime.renounced"] = static_cast<double>(
      b.node.infeasible_rejected + b.node.suspect_rejected +
      b.node.replay_rejected + b.node.cross_check_failures);
  f["runtime.dropped"] = static_cast<double>(
      b.node.decode_drops + b.node.ignored_dgrams + b.node.duplicate_dgrams);
  f["runtime.fsyncs_per_dgram"] = ratio(d(a.fsyncs, b.fsyncs), receives);
  f["clock.resteers_per_op"] = ratio(d(a.node.clock_resteers, b.node.clock_resteers), ops);
  f["clock.slew_clamps"] = d(a.node.clock_slew_clamps, b.node.clock_slew_clamps);
}

std::uint64_t node_failures(const Facts& f) {
  return static_cast<std::uint64_t>(f.at("runtime.renounced") +
                                    f.at("runtime.dropped"));
}

/// The checkpoint file of a workload, in the in-memory directory.
std::string checkpoint_path(const RunConfig& cfg) {
  const std::string dir = cfg.work_dir + "/checkpoints";
  set_memory_dir(dir);
  return dir + "/" + cfg.workload + ".ckpt";
}

/// Deletes the checkpoint a previous replay left, so start() begins fresh.
void remove_checkpoint(const std::string& path) {
  memory_file_remove(path);
  memory_file_remove(path + ".tmp");
}

struct IngestParams {
  MeshParams mesh;
  std::size_t warm;     ///< Datagrams ingested as set-up.
  std::size_t measure;  ///< Datagrams measured.
  double sample_every;  ///< Virtual seconds between estimate samples.
};

IngestParams ingest_params(Scale scale) {
  if (scale == Scale::kTiny) return {{6, 2, 0.1, 0.5, 40.0}, 20, 60, 0.5};
  return {{6, 2, 0.5, 0.5, 800.0}, 200, 1000, 0.5};
}

class NodeIngest final : public Workload {
 public:
  NodeIngest(const RunConfig& cfg, std::uint64_t seed)
      : p_(ingest_params(cfg.scale)),
        stream_(make_mesh_stream(seed, p_.mesh)),
        checkpoint_(checkpoint_path(cfg)) {
    if (stream_.arrivals.size() < p_.warm + p_.measure) {
      throw std::runtime_error("node-ingest: mesh stream too short");
    }
    for (std::size_t i = p_.warm; i < p_.warm + p_.measure; ++i) {
      data_bytes_.push_back(static_cast<double>(stream_.arrivals[i].bytes.size()));
    }
  }

  std::uint64_t input_digest() const override { return stream_.digest; }
  const char* outside_metric() const override { return "gen.self_share"; }

  Replay run_once(Spans* spans, std::vector<float>* latency_us) override {
    Replay r;
    remove_checkpoint(checkpoint_);
    const std::int64_t t0 = now_ns();
    NodeRig rig(stream_, checkpoint_, 0);
    const std::int64_t t1 = now_ns();
    rig.node().start();  // Thread start-up is not set-up work.
    const std::int64_t t2 = now_ns();
    const std::vector<Arrival>& in = stream_.arrivals;
    for (std::size_t i = 0; i < p_.warm; ++i) r.failed += rig.ingest(in[i], nullptr, nullptr);
    r.setup_s = 1e-9 * static_cast<double>((t1 - t0) + (now_ns() - t2));

    const Snap before = snap(rig);
    const std::uint64_t acks0 = rig.acks();
    EstimateSamples samples;
    if (latency_us != nullptr) latency_us->reserve(latency_us->size() + p_.measure);
    rig.probe().set_spans(spans);
    double next_sample = in[p_.warm - 1].rt + p_.sample_every;
    const std::int64_t prog0 = spans != nullptr ? spans->program_ns() : 0;
    const double c0 = cpu_seconds();
    const std::int64_t w0 = now_ns();
    for (std::size_t i = p_.warm; i < p_.warm + p_.measure; ++i) {
      for (; next_sample < in[i].rt; next_sample += p_.sample_every) {
        rig.sample(next_sample, samples, spans);
      }
      r.failed += rig.ingest(in[i], latency_us, spans);
    }
    const std::int64_t w1 = now_ns();
    r.cpu_s = cpu_seconds() - c0;
    r.wall_s = 1e-9 * static_cast<double>(w1 - w0);
    rig.probe().set_spans(nullptr);
    if (spans != nullptr) {
      r.outside_share = 1.0 - static_cast<double>(spans->program_ns() - prog0) /
                                  static_cast<double>(w1 - w0);
    }
    const Snap after = snap(rig);

    r.ops = p_.measure;
    const auto ops = static_cast<double>(r.ops);
    Facts& f = r.facts;
    node_facts(before, after, checkpoint_, ops, f);
    f["run.samples"] = static_cast<double>(samples.n);
    f["wire_bytes_per_op"] =
        static_cast<double>((after.node.bytes_in - before.node.bytes_in) +
                            (after.node.bytes_out - before.node.bytes_out)) / ops;
    f["runtime.acks_per_dgram"] = static_cast<double>(rig.acks() - acks0) / ops;
    r.failed += samples.violations + node_failures(f);
    samples.into(r.samples);
    r.samples["wire.data_dgram_bytes"] = data_bytes_;
    return r;
  }

  void finish(Facts& extra, std::vector<std::string>& errors) override {
    (void)errors;
    std::vector<std::uint32_t> ns;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = p_.warm; i < p_.warm + p_.measure; ++i) {
        const std::int64_t t0 = now_ns();
        const runtime::Datagram d = runtime::decode_datagram(stream_.arrivals[i].bytes);
        const std::int64_t t1 = now_ns();
        ns.push_back(static_cast<std::uint32_t>(t1 - t0));
        (void)d;
      }
    }
    extra["runtime.decode_ns_p50"] = percentile(ns, 0.5);
  }

 private:
  IngestParams p_;
  MeshStream stream_;
  std::string checkpoint_;
  std::vector<double> data_bytes_;  ///< Sizes of the measured datagrams.
};

struct ServeParams {
  MeshParams mesh;
  std::size_t clients;
  std::size_t cap;        ///< Session cap, above the client count.
  std::size_t rounds;     ///< Measured round-robin passes over all clients.
  double warm_mesh;       ///< Virtual seconds of mesh data before clients.
  double step;            ///< Virtual seconds between requests.
  double d_up;            ///< Client -> server transit (virtual).
  std::size_t sample_every;  ///< Requests between bracket samples.
};

ServeParams serve_params(Scale scale) {
  if (scale == Scale::kTiny) {
    return {{6, 2, 0.1, 0.5, 20.0}, 200, 256, 2, 10.0, 1e-3, 150e-6, 4};
  }
  return {{6, 2, 0.5, 0.5, 140.0}, 40000, 65536, 4, 30.0, 500e-6, 150e-6, 16};
}

class ServeMixed final : public Workload {
 public:
  ServeMixed(const RunConfig& cfg, std::uint64_t seed)
      : p_(serve_params(cfg.scale)),
        stream_(make_mesh_stream(seed, p_.mesh)),
        checkpoint_(checkpoint_path(cfg)) {
    const double end = p_.warm_mesh + p_.step * static_cast<double>(
                                                   p_.clients * (p_.rounds + 1));
    if (stream_.arrivals.empty() || stream_.arrivals.back().rt < end) {
      throw std::runtime_error("serve-mixed: mesh stream too short");
    }
    Rng rng(seed ^ 0x5E77E5E77E5E77E5ULL);
    for (std::size_t c = 0; c < p_.clients; ++c) {
      // Client clocks drift within half the estimator's declared bound.
      offset_.push_back(rng.uniform(-100.0, 100.0));
      rate_.push_back(1.0 + rng.uniform(-5e-5, 5e-5));
    }
    digest_ = stream_.digest ^ rng.next_u64();
  }

  std::uint64_t input_digest() const override { return digest_; }
  const char* outside_metric() const override { return "gen.self_share"; }

  Replay run_once(Spans* spans, std::vector<float>* latency_us) override {
    Replay r;
    remove_checkpoint(checkpoint_);
    const std::int64_t t0 = now_ns();
    NodeRig rig(stream_, checkpoint_, p_.cap);
    const std::int64_t t1 = now_ns();
    rig.node().start();  // Thread start-up is not set-up work.
    const std::int64_t t2 = now_ns();
    std::size_t next = 0;  // Next mesh arrival.
    const std::vector<Arrival>& in = stream_.arrivals;
    for (; in[next].rt <= p_.warm_mesh; ++next) {
      r.failed += rig.ingest(in[next], nullptr, nullptr);
    }
    std::vector<serve::ClientEstimator> clients;
    clients.reserve(p_.clients);
    for (std::size_t c = 0; c < p_.clients; ++c) {
      clients.emplace_back(serve::ClientEstimator::Options{c + 1, 1e-4, 1.0});
    }
    Loop loop{rig, in, next, clients};
    loop.req.reserve(64);
    for (std::size_t k = 0; k < p_.clients; ++k) {
      r.failed += request(loop, k, nullptr, nullptr, false);
    }
    r.setup_s = 1e-9 * static_cast<double>((t1 - t0) + (now_ns() - t2));

    const Snap before = snap(rig);
    const std::uint64_t acks0 = rig.acks();
    const std::size_t first = p_.clients;
    const std::size_t last = p_.clients * (p_.rounds + 1);
    if (latency_us != nullptr) latency_us->reserve(latency_us->size() + last - first);
    loop.bytes = 0;
    loop.data = 0;
    rig.probe().set_spans(spans);
    const std::int64_t prog0 = spans != nullptr ? spans->program_ns() : 0;
    const double c0 = cpu_seconds();
    const std::int64_t w0 = now_ns();
    for (std::size_t k = first; k < last; ++k) {
      r.failed += request(loop, k, latency_us, spans, true);
    }
    const std::int64_t w1 = now_ns();
    r.cpu_s = cpu_seconds() - c0;
    r.wall_s = 1e-9 * static_cast<double>(w1 - w0);
    rig.probe().set_spans(nullptr);
    if (spans != nullptr) {
      r.outside_share = 1.0 - static_cast<double>(spans->program_ns() - prog0) /
                                  static_cast<double>(w1 - w0);
    }
    const Snap after = snap(rig);

    r.ops = last - first;
    const auto ops = static_cast<double>(r.ops);
    Facts& f = r.facts;
    node_facts(before, after, checkpoint_, ops, f);
    const serve::SessionTable table(serve::SessionTable::Options{p_.cap, kNoReap, 1.0});
    const double session_bytes = static_cast<double>(table.memory_bytes());
    f["state_kb"] += session_bytes / 1024.0;
    f["run.data_dgrams"] = static_cast<double>(loop.data);
    f["wire_bytes_per_op"] = static_cast<double>(loop.bytes) / ops;
    f["runtime.acks_per_dgram"] = ratio(static_cast<double>(rig.acks() - acks0),
                                        static_cast<double>(loop.data));
    f["serve.sessions_active"] = static_cast<double>(after.node.serve_active);
    f["serve.session_kb"] = session_bytes / 1024.0;
    f["serve.rejected"] = static_cast<double>(after.node.serve_rejected);
    f["serve.evicted"] = static_cast<double>(after.node.serve_evicted);
    r.failed += node_failures(f) + after.node.serve_rejected + after.node.serve_evicted;
    r.samples["width_us"] = std::move(loop.widths);
    r.samples["clock.err_us"] = std::move(loop.clock_err);
    r.samples["core.live_points"] = std::move(loop.live);
    r.samples["wire.data_dgram_bytes"] = std::move(loop.data_bytes);
    return r;
  }

  void finish(Facts& extra, std::vector<std::string>& errors) override {
    (void)errors;
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint32_t> ns;
    for (std::size_t c = 0; c < 3000; ++c) {
      serve::ClientEstimator est(serve::ClientEstimator::Options{c + 1, 1e-4, 1.0});
      runtime::encode_datagram_into(
          bytes, runtime::Datagram{est.make_request(offset_[c % p_.clients])});
      const std::int64_t t0 = now_ns();
      const runtime::Datagram d = runtime::decode_datagram(bytes);
      const std::int64_t t1 = now_ns();
      ns.push_back(static_cast<std::uint32_t>(t1 - t0));
      (void)d;
    }
    extra["runtime.decode_ns_p50"] = percentile(ns, 0.5);
  }

 private:
  struct Loop {
    NodeRig& rig;
    const std::vector<Arrival>& in;
    std::size_t& next;
    std::vector<serve::ClientEstimator>& clients;
    std::vector<double> widths = {};
    std::vector<double> clock_err = {};
    std::vector<double> live = {};
    std::vector<double> data_bytes = {};  ///< Sizes of measured mesh data.
    std::vector<std::uint8_t> req = {};  ///< Reused request buffer.
    std::uint64_t bytes = 0;             ///< Request + response bytes.
    std::uint64_t data = 0;              ///< Mesh datagrams ingested.
  };

  /// One closed-loop exchange: client k mod C asks at virtual time
  /// warm_mesh + k*step, the Node answers d_up later (mesh data due by then
  /// is ingested first), and the reply reaches the client after a seeded
  /// per-request return delay.  Returns the number of failed checks.
  std::uint64_t request(Loop& l, std::size_t k, std::vector<float>* latency_us,
                        Spans* spans, bool measured) {
    std::uint64_t failed = 0;
    const double rt = p_.warm_mesh + p_.step * static_cast<double>(k);
    const double srv_rt = rt + p_.d_up;
    for (; l.next < l.in.size() && l.in[l.next].rt <= srv_rt; ++l.next) {
      failed += l.rig.ingest(l.in[l.next], nullptr, measured ? spans : nullptr);
      if (measured) {
        l.data_bytes.push_back(static_cast<double>(l.in[l.next].bytes.size()));
      }
      ++l.data;
    }
    const std::size_t c = k % p_.clients;
    serve::ClientEstimator& client = l.clients[c];
    const runtime::ClientReq req =
        client.make_request(offset_[c] + rate_[c] * rt);
    runtime::encode_datagram_into(l.req, runtime::Datagram{req});
    l.rig.time().set(stream_.target_clock.lt_at(srv_rt));
    if (spans != nullptr) spans->begin_handler(kServe, k);
    const std::int64_t t0 = now_ns();
    l.rig.net().deliver(l.req);
    const std::int64_t t1 = now_ns();
    if (spans != nullptr) spans->end_handler();
    if (latency_us != nullptr) latency_us->push_back(1e-3f * static_cast<float>(t1 - t0));
    // Seeded return delay in [50, 300) us, a pure function of k.
    const std::uint64_t mix = (k + 1) * 0x9E3779B97F4A7C15ULL;
    const double d_down = 50e-6 + 250e-6 * static_cast<double>(mix >> 40) /
                                      static_cast<double>(1ULL << 24);
    const double recv_rt = srv_rt + d_down;
    const double recv_lt = offset_[c] + rate_[c] * recv_rt;
    bool ok = false;
    if (l.rig.net().outbox().size() == 1) {
      const std::vector<std::uint8_t>& out = l.rig.net().outbox()[0].bytes;
      l.bytes += l.req.size() + out.size();
      try {
        const runtime::Datagram d = runtime::decode_datagram(out);
        if (const auto* resp = std::get_if<runtime::ClientResp>(&d)) {
          ok = client.on_response(*resp, recv_lt);
          const Interval bracket = client.estimate(recv_lt);
          ok = ok && bracket.contains(recv_rt);
          if (measured && k % p_.sample_every == 0) {
            l.widths.push_back(1e6 * bracket.width());
            l.live.push_back(static_cast<double>(l.rig.probe().stats().live_points));
            if (resp->has_disc) {
              l.clock_err.push_back(1e6 * std::fabs(resp->disc_time - srv_rt));
            }
          }
        }
      } catch (const WireError&) {
      }
    }
    l.rig.net().recycle();
    return failed + (ok ? 0 : 1);
  }

  ServeParams p_;
  MeshStream stream_;
  std::string checkpoint_;
  std::vector<double> offset_, rate_;
  std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_node_ingest(const RunConfig& cfg, std::uint64_t seed) {
  return std::make_unique<NodeIngest>(cfg, seed);
}

std::unique_ptr<Workload> make_serve_mixed(const RunConfig& cfg, std::uint64_t seed) {
  return std::make_unique<ServeMixed>(cfg, seed);
}

}  // namespace perfbench
