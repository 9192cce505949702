#include "mesh_stream.h"

#include <map>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "core/history.h"
#include "runtime/datagram.h"
#include "sim/simulator.h"
#include "workloads/apps.h"

namespace perfbench {

using namespace driftsync;

Mesh make_mesh(std::size_t procs, std::size_t extra_edges) {
  constexpr std::uint64_t kHardwareSeed = 0x6D657368;
  Mesh m;
  m.net = workloads::make_random(procs, extra_edges, kHardwareSeed,
                                 workloads::TopoParams{});
  const SystemSpec& spec = m.net.spec;
  Rng rng(kHardwareSeed);
  for (ProcId p = 0; p < spec.num_procs(); ++p) {
    if (p == spec.source()) {
      m.clocks.push_back(sim::ClockModel::constant(0.0, 1.0));
      continue;
    }
    const double rho = spec.clock(p).rho;
    // Positive offsets: a Node treats its clock as CLOCK_MONOTONIC and
    // stamps no event below local time 0 (it nudges such readings up and
    // books the gap as processing slack), so a clock reading negative
    // would loosen every estimate the Node makes.
    const double offset = rng.uniform(1.0, 200.0);
    m.clocks.push_back(
        sim::ClockModel::constant(offset, 1.0 + rng.uniform(-rho, rho)));
  }
  return m;
}

namespace {

/// A peer of the mesh: the Figure-2 history protocol alone is enough to
/// fill faithful payloads; the peers' own estimates are never queried.
class HistoryOnlyCsa final : public Csa {
 public:
  void init(const SystemSpec& spec, ProcId self) override {
    history_.emplace(spec, self);
  }
  CsaPayload on_send(const SendContext& ctx) override {
    CsaPayload p;
    p.reports = history_->fill_message(ctx.dest, ctx.send_event);
    return p;
  }
  void on_receive(const RecvContext& ctx, const CsaPayload& payload) override {
    (void)history_->receive_message(ctx.from, payload.reports);
    history_->record_own_event(ctx.recv_event);
  }
  void on_internal(const EventRecord& event) override {
    history_->record_own_event(event);
  }
  Interval estimate(LocalTime now) const override {
    (void)now;
    return Interval::everything();
  }
  const char* name() const override { return "history-only"; }

 private:
  std::optional<HistoryProtocol> history_;
};

/// The listening target: turns each delivery into an encoded DataMsg.
class RecorderCsa final : public Csa {
 public:
  explicit RecorderCsa(std::vector<Arrival>* out) : out_(out) {}
  void init(const SystemSpec& spec, ProcId self) override {
    (void)spec;
    (void)self;
  }
  CsaPayload on_send(const SendContext& ctx) override {
    (void)ctx;
    return {};
  }
  void on_receive(const RecvContext& ctx, const CsaPayload& payload) override {
    runtime::DataMsg msg;
    msg.from = ctx.from;
    msg.dgram_seq = ++next_seq_[ctx.from];
    msg.app_tag = ctx.app_tag;
    msg.send_seq = ctx.send_event.id.seq;
    msg.send_lt = ctx.send_event.lt;
    msg.payload = payload;
    Arrival a;
    a.lt = ctx.recv_event.lt;
    a.from = ctx.from;
    a.dgram_seq = msg.dgram_seq;
    a.bytes = runtime::encode_datagram(runtime::Datagram{std::move(msg)});
    out_->push_back(std::move(a));
  }
  Interval estimate(LocalTime now) const override {
    (void)now;
    return Interval::everything();
  }
  const char* name() const override { return "recorder"; }

 private:
  std::vector<Arrival>* out_;
  std::map<ProcId, std::uint64_t> next_seq_;
};

/// Stamps the ground-truth delivery time on the arrival just recorded.
class ArrivalTimes final : public sim::SimObserver {
 public:
  ArrivalTimes(ProcId target, std::vector<Arrival>* out)
      : target_(target), out_(out) {}
  void on_event(sim::Simulator& sim, const EventRecord& record,
                RealTime rt) override {
    (void)sim;
    if (record.id.proc == target_ && record.kind == EventKind::kReceive) {
      out_->back().rt = rt;
    }
  }

 private:
  ProcId target_;
  std::vector<Arrival>* out_;
};

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

MeshStream make_mesh_stream(std::uint64_t seed, const MeshParams& params) {
  MeshStream s;
  Mesh mesh = make_mesh(params.procs, params.extra_edges);
  s.net = std::move(mesh.net);
  const std::vector<sim::ClockModel>& clocks = mesh.clocks;
  const SystemSpec& spec = s.net.spec;
  for (ProcId p = 0; p < spec.num_procs(); ++p) {
    if (p == spec.source()) continue;
    if (s.target == kInvalidProc ||
        spec.neighbors(p).size() > spec.neighbors(s.target).size()) {
      s.target = p;
    }
  }
  s.target_clock = clocks[s.target];

  sim::SimConfig config;
  config.seed = seed;
  sim::Simulator simulator(spec, s.net.links, config);
  for (ProcId p = 0; p < spec.num_procs(); ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    std::unique_ptr<sim::App> app;
    if (p == s.target) {
      csas.push_back(std::make_unique<RecorderCsa>(&s.arrivals));
      app = std::make_unique<sim::App>();  // Listens; never sends.
    } else {
      csas.push_back(std::make_unique<HistoryOnlyCsa>());
      app = std::make_unique<workloads::GossipApp>(workloads::GossipApp::Config{
          params.gossip_interval, params.reply_prob});
    }
    simulator.attach_node(p, clocks[p], std::move(app), std::move(csas));
  }
  ArrivalTimes times(s.target, &s.arrivals);
  simulator.set_observer(&times);
  simulator.run_until(params.duration);

  std::uint64_t h = 1469598103934665603ULL;
  for (const Arrival& a : s.arrivals) {
    h = fnv(h, &a.rt, sizeof(a.rt));
    h = fnv(h, a.bytes.data(), a.bytes.size());
  }
  s.digest = h;
  return s;
}

}  // namespace perfbench
