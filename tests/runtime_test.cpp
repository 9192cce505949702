// Tests for the driftsync_runtime subsystem (DESIGN.md S7): datagram
// framing, the in-process Hub transport, and the Node driver — the
// skip-commit fate protocol and write-ahead checkpointing included.  The
// integration tests run a Mesh in the hub's virtual time on the test
// thread, so each one replays exactly from its seeds; assertions still
// state what the protocol promises (containment of ground truth, counter
// inequalities) rather than one run's exact counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/interval.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/csa.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/chaos.h"
#include "runtime/datagram.h"
#include "runtime/hub.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "runtime/oracle.h"
#include "runtime/time_source.h"
#include "runtime/transport.h"
#include "test_util.h"

namespace driftsync::runtime {
namespace {

using driftsync::testing::brackets_truth;
using driftsync::testing::loss_tolerant;
using driftsync::testing::node_config;
using driftsync::testing::three_node_path;

// ---------------------------------------------------------------------------
// Datagram codec

DataMsg sample_data_msg() {
  DataMsg msg;
  msg.from = 3;
  msg.dgram_seq = 17;
  msg.processed_hw = 8;
  msg.seen_hw = 9;
  msg.app_tag = 2;
  msg.send_seq = 41;
  msg.send_lt = 123.456;
  EventRecord rec;
  rec.id = EventId{3, 40};
  rec.lt = 123.0;
  rec.kind = EventKind::kSend;
  rec.peer = 1;
  msg.payload.reports.push_back(rec);
  msg.payload.scalars = {1.5, -2.25};
  return msg;
}

TEST(DatagramCodec, DataRoundTrip) {
  const DataMsg msg = sample_data_msg();
  const auto bytes = encode_datagram(msg);
  const Datagram decoded = decode_datagram(bytes);
  ASSERT_TRUE(std::holds_alternative<DataMsg>(decoded));
  EXPECT_EQ(std::get<DataMsg>(decoded), msg);
}

TEST(DatagramCodec, AckRoundTrip) {
  const AckMsg msg{2, 5, 7};
  const Datagram decoded = decode_datagram(encode_datagram(msg));
  ASSERT_TRUE(std::holds_alternative<AckMsg>(decoded));
  EXPECT_EQ(std::get<AckMsg>(decoded), msg);
}

TEST(DatagramCodec, SkipRoundTrip) {
  const SkipMsg msg{4, 11};
  const Datagram decoded = decode_datagram(encode_datagram(msg));
  ASSERT_TRUE(std::holds_alternative<SkipMsg>(decoded));
  EXPECT_EQ(std::get<SkipMsg>(decoded), msg);
}

TEST(DatagramCodec, ProbeRoundTrip) {
  const ProbeReq req{0xdeadbeefcafeULL};
  const Datagram dreq = decode_datagram(encode_datagram(req));
  ASSERT_TRUE(std::holds_alternative<ProbeReq>(dreq));
  EXPECT_EQ(std::get<ProbeReq>(dreq), req);

  ProbeResp resp;
  resp.nonce = 99;
  resp.from = 1;
  resp.local_time = 55.5;
  resp.lo = 54.0;
  resp.hi = 56.0;
  resp.stats_json = "{\"events\":3}";
  const Datagram dresp = decode_datagram(encode_datagram(resp));
  ASSERT_TRUE(std::holds_alternative<ProbeResp>(dresp));
  EXPECT_EQ(std::get<ProbeResp>(dresp), resp);
}

TEST(DatagramCodec, UnboundedProbeIntervalSurvives) {
  ProbeResp resp;
  resp.nonce = 1;
  resp.from = 0;
  resp.local_time = 1.0;
  resp.lo = -std::numeric_limits<double>::infinity();
  resp.hi = std::numeric_limits<double>::infinity();
  const Datagram decoded = decode_datagram(encode_datagram(resp));
  ASSERT_TRUE(std::holds_alternative<ProbeResp>(decoded));
  EXPECT_EQ(std::get<ProbeResp>(decoded), resp);
}

TEST(DatagramCodec, RejectsBadMagicVersionType) {
  auto bytes = encode_datagram(AckMsg{1, 2, 2});
  ASSERT_GE(bytes.size(), 4u);
  auto bad = bytes;
  bad[0] ^= 0xff;  // magic
  EXPECT_THROW((void)decode_datagram(bad), WireError);
  bad = bytes;
  bad[2] ^= 0xff;  // version
  EXPECT_THROW((void)decode_datagram(bad), WireError);
  bad = bytes;
  bad[3] = 0x7f;  // unknown type
  EXPECT_THROW((void)decode_datagram(bad), WireError);
}

TEST(DatagramCodec, RejectsTruncationAndTrailingBytes) {
  const auto bytes = encode_datagram(sample_data_msg());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW((void)decode_datagram(prefix), WireError) << "cut=" << cut;
  }
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW((void)decode_datagram(padded), WireError);
}

TEST(DatagramCodec, RejectsSemanticViolations) {
  const auto reject = [](const Datagram& dgram) {
    EXPECT_THROW((void)decode_datagram(encode_datagram(dgram)), WireError);
  };
  // seen_hw < processed_hw breaks the cumulative-ack invariant.
  reject(AckMsg{1, 5, 3});
  // dgram_seq of 0 is reserved ("nothing sent yet").
  DataMsg zero_seq = sample_data_msg();
  zero_seq.dgram_seq = 0;
  reject(zero_seq);
  // skip_to of 0 would renounce nothing.
  reject(SkipMsg{1, 0});
  // A NaN send time can never enter anyone's history.
  DataMsg nan_lt = sample_data_msg();
  nan_lt.send_lt = std::numeric_limits<double>::quiet_NaN();
  reject(nan_lt);
  // An inverted probe estimate cannot contain anything.
  ProbeResp inverted;
  inverted.from = 0;
  inverted.lo = 2.0;
  inverted.hi = 1.0;
  reject(inverted);
}

TEST(DatagramCodec, GarbageNeverEscapesWireError) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.uniform_index(64));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    try {
      (void)decode_datagram(junk);
    } catch (const WireError&) {
      // Expected for nearly every input.
    }
    // Anything else (DS_CHECK logic_error, crash) fails the test.
  }
}

// ---------------------------------------------------------------------------
// Hub transport (the suites keep the class's former name, ThreadHub)

TEST(ThreadHub, DeliversInFifoOrderAndCountsDrops) {
  Hub hub(3);
  hub.set_link(0, 1, 0.0, 0.002);
  hub.drop_next(0, 1, 1);

  std::vector<std::uint8_t> got;
  auto rx = hub.endpoint(1);
  rx->start([&](std::span<const std::uint8_t> bytes) {
    got.insert(got.end(), bytes.begin(), bytes.end());
  });
  auto tx = hub.endpoint(0);
  tx->start([](std::span<const std::uint8_t>) {});

  for (std::uint8_t i = 0; i < 5; ++i) tx->send(1, {i});
  hub.run_for(0.002);  // Every latency is at most 2 ms.
  // First datagram force-dropped; the rest arrive in send order.
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(hub.dropped(), 1u);
  EXPECT_EQ(hub.delivered(), 4u);
  tx->stop();
  rx->stop();
}

// Regression test for backlog accounting: flood a lossy link and check
// that every datagram leaves the in-flight queue through exactly one exit
// path (delivery, loss, overflow, destination-down drop) — the backlog
// must return to zero and the counters must add up to the flood size.
TEST(ThreadHub, FloodedLossyLinkBacklogReturnsToZero) {
  Hub hub(11);
  hub.set_link(0, 1, 0.0, 0.001, /*loss=*/0.5);

  std::uint64_t received = 0;
  auto rx = hub.endpoint(1);
  rx->start([&](std::span<const std::uint8_t>) { ++received; });
  auto tx = hub.endpoint(0);
  tx->start([](std::span<const std::uint8_t>) {});

  constexpr std::uint64_t kFlood = 2000;
  for (std::uint64_t i = 0; i < kFlood; ++i) {
    tx->send(1, {static_cast<std::uint8_t>(i)});
    // The per-direction bound caps the queue no matter how fast we flood.
    EXPECT_LE(hub.backlog_depth(0, 1), 256u);
  }
  hub.run_for(0.001);
  EXPECT_EQ(hub.backlog_depth(0, 1), 0u);
  EXPECT_EQ(hub.backlog_depth(), 0u);
  // Every flooded datagram was either delivered or dropped — none leaked.
  EXPECT_EQ(hub.delivered() + hub.dropped(), kFlood);
  EXPECT_EQ(hub.delivered(), received);
  // loss=0.5 makes both outcomes overwhelmingly likely in 2000 tries.
  EXPECT_GT(hub.delivered(), 0u);
  EXPECT_GT(hub.dropped(), 0u);
  tx->stop();
  rx->stop();
}

TEST(ThreadHub, UnlinkedDirectionDropsEverything) {
  Hub hub(4);
  hub.set_directed(0, 1, 0.0, 0.001);  // No 1 -> 0 link.
  auto a = hub.endpoint(0);
  auto b = hub.endpoint(1);
  a->start([](std::span<const std::uint8_t>) {});
  b->start([](std::span<const std::uint8_t>) {});
  b->send(0, {42});
  hub.run_for(0.02);
  EXPECT_EQ(hub.delivered(), 0u);
  EXPECT_GE(hub.dropped(), 1u);
  a->stop();
  b->stop();
}

// ---------------------------------------------------------------------------
// Node integration over a runtime::Mesh (fixtures: tests/test_util.h)

TEST(NodeIntegration, ThreeNodePathConvergesUnderLatencyAndLoss) {
  Mesh mesh = three_node_path();
  // Asymmetric per-direction latencies, 10% loss on both links.
  mesh.hub().set_directed(0, 1, 0.0005, 0.003, 0.10);
  mesh.hub().set_directed(1, 0, 0.001, 0.006, 0.10);
  mesh.hub().set_directed(1, 2, 0.0005, 0.008, 0.10);
  mesh.hub().set_directed(2, 1, 0.002, 0.004, 0.10);

  const double offsets[3] = {0.0, 17.0, -8.5};
  const double rates[3] = {1.0, 1.0 + 4e-4, 1.0 - 3e-4};
  for (ProcId p = 0; p < 3; ++p) {
    mesh.add(node_config(p, mesh.spec()), loss_tolerant(), offsets[p],
             rates[p]);
  }
  mesh.start();
  mesh.hub().run_for(1.5);

  for (ProcId p = 0; p < 3; ++p) {
    SCOPED_TRACE("node " + std::to_string(p));
    EXPECT_TRUE(brackets_truth(mesh.node(p), mesh.hub()));
  }
  // The source knows its own time exactly; the others converge to a width
  // bounded by accumulated link uncertainty + drift, far below the 50 ms
  // spec bound per hop that they start from.
  EXPECT_EQ(mesh.node(0).estimate().width(), 0.0);
  EXPECT_LT(mesh.node(1).estimate().width(), 0.05);
  EXPECT_LT(mesh.node(2).estimate().width(), 0.10);
  // Loss actually happened and the protocol processed real traffic.
  EXPECT_GT(mesh.hub().dropped(), 0u);
  const NodeStats s1 = mesh.node(1).stats();
  EXPECT_GT(s1.deliveries_confirmed, 0u);
  EXPECT_EQ(s1.decode_drops, 0u);
}

TEST(NodeIntegration, DeterministicLossYieldsLossDeclaration) {
  Mesh mesh = three_node_path();
  mesh.hub().set_link(0, 1, 0.0005, 0.002);
  // Drop exactly one data datagram 0 -> 1; the fate timeout must resolve
  // it as lost (receiver renounces it via the skip commit), never as
  // delivered, and node 0 keeps serving a correct estimate.
  mesh.hub().drop_next(0, 1, 1);

  NodeConfig cfg0 = node_config(0, mesh.spec());
  cfg0.peers = {1};
  NodeConfig cfg1 = node_config(1, mesh.spec());
  cfg1.peers = {0};
  const Node& n0 = mesh.add(std::move(cfg0), loss_tolerant(), 0.0, 1.0);
  const Node& n1 =
      mesh.add(std::move(cfg1), loss_tolerant(), 3.0, 1.0 + 1e-4);
  mesh.start();
  mesh.hub().run_for(1.2);

  const NodeStats s0 = n0.stats();
  EXPECT_GE(s0.loss_declarations, 1u);
  EXPECT_GE(s0.skips_sent, 1u);
  EXPECT_GT(s0.deliveries_confirmed, 0u);  // Later datagrams get through.
  EXPECT_TRUE(brackets_truth(n0, mesh.hub()));
  EXPECT_TRUE(brackets_truth(n1, mesh.hub()));
}

TEST(NodeIntegration, LostAckNeverBecomesFalseLossDeclaration) {
  Mesh mesh = three_node_path();
  mesh.hub().set_link(0, 1, 0.0005, 0.002);
  // Node 1 sends no data of its own (no peers), so all 1 -> 0 traffic is
  // acks.  Dropping one forces node 0 through the skip path, where the
  // receiver's processed_hw proves delivery: the outcome must be a
  // (late) delivery confirmation, never a loss declaration.
  mesh.hub().drop_next(1, 0, 1);

  NodeConfig cfg0 = node_config(0, mesh.spec());
  cfg0.peers = {1};
  NodeConfig cfg1 = node_config(1, mesh.spec());
  cfg1.peers = {};
  const Node& n0 = mesh.add(std::move(cfg0), loss_tolerant(), 0.0, 1.0);
  mesh.add(std::move(cfg1), loss_tolerant(), -2.0, 1.0 - 1e-4);
  mesh.start();
  mesh.hub().run_for(1.2);

  const NodeStats s0 = n0.stats();
  EXPECT_EQ(s0.loss_declarations, 0u);
  EXPECT_GE(s0.deliveries_confirmed, 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint / restart

/// ctest runs tests from the build tree; keep checkpoint files CWD-relative
/// and clean them up so reruns start fresh.
struct CheckpointFile {
  std::string path;
  explicit CheckpointFile(const std::string& name) : path(name) {
    std::remove(path.c_str());
  }
  ~CheckpointFile() { std::remove(path.c_str()); }
};

/// Kills the middle node of a 3-node path and restarts it from its
/// checkpoint over hub seed `hub_seed`; every check is a gtest expectation.
void kill_and_restart_reconverges(std::uint64_t hub_seed) {
  Mesh mesh = three_node_path(hub_seed);
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  mesh.hub().set_link(1, 2, 0.0005, 0.003);

  const double offsets[3] = {0.0, 9.0, -4.0};
  const double rates[3] = {1.0, 1.0 + 2e-4, 1.0 - 2e-4};
  for (ProcId p = 0; p < 3; ++p) {
    NodeConfig cfg = node_config(p, mesh.spec());
    if (p == 1) cfg.checkpoint_path = mesh.checkpoint_path(1);
    mesh.add(std::move(cfg), loss_tolerant(), offsets[p], rates[p]);
  }
  mesh.start();
  mesh.hub().run_for(0.7);
  EXPECT_TRUE(brackets_truth(mesh.node(1), mesh.hub()));
  EXPECT_GT(mesh.node(1).stats().checkpoints_written, 0u);
  // The encoded-history cache exists only where checkpoints are written,
  // and is reported on its own, outside state_bytes.
  const auto cache_bytes = [](const Node& node) {
    return json::parse(node.stats_json())
        .at("checkpoint_cache_bytes")
        .as_number();
  };
  EXPECT_GT(cache_bytes(mesh.node(1)), 0.0);
  EXPECT_EQ(cache_bytes(mesh.node(0)), 0.0);
  EXPECT_NE(
      mesh.node(1).metrics_text().find("driftsync_checkpoint_cache_bytes"),
      std::string::npos);

  // "Kill" the middle node: tear it down (its endpoint unregisters) while
  // its neighbors keep running — their fate timers fire into the void.
  mesh.kill(1);
  mesh.hub().run_for(0.4);

  // Restart from the checkpoint with the same clock (the hub kept
  // running) and re-converge next to peers that remember the old history.
  mesh.restart(1);
  mesh.hub().run_for(1.5);

  for (ProcId p = 0; p < 3; ++p) {
    SCOPED_TRACE("node " + std::to_string(p));
    EXPECT_TRUE(brackets_truth(mesh.node(p), mesh.hub()));
  }
  EXPECT_LT(mesh.node(1).estimate().width(), 0.05);
  EXPECT_LT(mesh.node(2).estimate().width(), 0.10);
}

TEST(NodeCheckpoint, KillAndRestartReconverges) {
  kill_and_restart_reconverges(11);
}

// The same scenario over a fixed set of hub seeds: a wall-clock run of it
// once missed true source time by 0.13 ms and could not be replayed; in
// virtual time any miss names its seed and replays.
TEST(NodeCheckpoint, KillAndRestartReconvergesOverHubSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("hub seed " + std::to_string(seed));
    kill_and_restart_reconverges(seed);
  }
}

TEST(NodeCheckpoint, ClockRegressionIsRejected) {
  const CheckpointFile ckpt("runtime_test_regress.ckpt");
  const SystemSpec spec(std::vector<ClockSpec>{{0.0}, {5e-4}},
                        std::vector<LinkSpec>{{0, 1, 0.0, 0.05}}, 0);
  Hub hub(5);  // No links: sends drop, but events are still minted.

  auto make = [&](double offset) {
    NodeConfig cfg;
    cfg.self = 1;
    cfg.spec = spec;
    cfg.poll_period = 0.02;
    cfg.fate_timeout = 5.0;
    cfg.checkpoint_path = ckpt.path;
    OptimalCsa::Options opts;
    opts.loss_tolerant = true;
    return std::make_unique<Node>(
        cfg, std::make_unique<OptimalCsa>(opts),
        std::make_unique<ScaledTimeSource>(hub, offset, 1.0),
        hub.endpoint(1));
  };

  auto node = make(1000.0);
  node->start();
  hub.run_for(0.2);
  ASSERT_GT(node->stats().checkpoints_written, 0u);
  node->stop();
  node.reset();

  // A clock far behind the checkpoint's last event time means the local
  // clock "went backwards" (e.g. a reboot): the image must be rejected
  // loudly, not silently restarted fresh.
  auto reborn = make(0.0);
  EXPECT_THROW(reborn->start(), CheckpointError);
}

/// A local clock the test sets by hand.  With a nonzero `step`, every read
/// also advances it by `step` seconds, so no two readings are equal.
class ManualTimeSource final : public TimeSource {
 public:
  explicit ManualTimeSource(std::shared_ptr<double> now, double step = 0.0)
      : now_(std::move(now)), step_(step) {}
  [[nodiscard]] LocalTime now() const override {
    return *now_ + step_ * static_cast<double>(reads_++);
  }

 private:
  std::shared_ptr<double> now_;
  double step_;
  mutable std::uint64_t reads_ = 0;
};

/// Keeps the Node's datagram handler so the test can call it directly;
/// the last datagram the Node sends lands in `sent` (dropped if null).
class DirectTransport final : public Transport {
 public:
  explicit DirectTransport(DatagramHandler* handler,
                           std::vector<std::uint8_t>* sent = nullptr)
      : handler_(handler), sent_(sent) {}
  void start(DatagramHandler handler) override {
    *handler_ = std::move(handler);
  }
  void stop() override {}
  void send(ProcId /*to*/, std::vector<std::uint8_t> bytes) override {
    if (sent_ != nullptr) *sent_ = std::move(bytes);
  }

 private:
  DatagramHandler* handler_;
  std::vector<std::uint8_t>* sent_;
};

// A local clock that reads below zero mints its events at its own
// readings: the first receive lands at -5 with no processing slack, so the
// estimate is as tight as the link allows and contains true time.  This
// holds on a fresh node and on one restored from an image written before
// its first event.
TEST(NodeLocalTime, NegativeClockMintsAtItsOwnReading) {
  const CheckpointFile ckpt("runtime_test_negative_clock.ckpt");
  const SystemSpec spec = driftsync::testing::two_node_spec();
  const auto clock = std::make_shared<double>(-5.0);
  DatagramHandler handler;
  auto make = [&] {
    NodeConfig cfg = driftsync::testing::node_config(1, spec, 1e9, 1e9, 1e9);
    cfg.checkpoint_path = ckpt.path;
    return std::make_unique<Node>(std::move(cfg),
                                  driftsync::testing::loss_tolerant_csa(),
                                  std::make_unique<ManualTimeSource>(clock),
                                  std::make_unique<DirectTransport>(&handler));
  };
  const auto deliver = [&handler](const Datagram& dgram) {
    const std::vector<std::uint8_t> bytes = encode_datagram(dgram);
    handler(bytes);
  };

  // A skip commit persists an image before node 1 has minted any event.
  auto node = make();
  node->start();
  deliver(SkipMsg{0, 1});
  ASSERT_GE(node->stats().checkpoints_written, 1u);
  node->stop();
  node = make();
  ASSERT_NO_THROW(node->start());

  // The source's clock is real time; node 1 reads real time - 15.01.
  OptimalCsa source;
  source.init(spec, 0);
  for (std::uint32_t k = 0; k < 2; ++k) {
    const double send_rt = 10.0 + k;
    EventRecord send;
    send.id = EventId{0, k};
    send.lt = send_rt;
    send.kind = EventKind::kSend;
    send.peer = 1;
    DataMsg msg;
    msg.from = 0;
    msg.dgram_seq = 2 + k;
    msg.send_seq = k;
    msg.send_lt = send_rt;
    msg.payload = source.on_send(SendContext{0, 1, send, 0});
    const double recv_rt = send_rt + 0.01;
    *clock = recv_rt - 15.01;
    deliver(msg);

    SCOPED_TRACE("message " + std::to_string(k));
    const NodeSample s = node->sample();
    EXPECT_DOUBLE_EQ(s.lt, -5.0 + k);  // Minted at the reading, not above 0.
    EXPECT_TRUE(s.est.contains(recv_rt)) << s.est.lo << " " << s.est.hi;
    // Zero slack: no wider than the link's transit bounds [0, 0.05].
    EXPECT_LE(s.est.width(), 0.05 + 1e-9);
  }
  EXPECT_EQ(node->stats().infeasible_rejected, 0u);
  node->stop();
}

/// One exported scalar: its JSON key (null: Prometheus only), its
/// Prometheus series, and the NodeStats value both renderings must carry.
/// This table pins the export surface — every name the formats have ever
/// emitted stays emitted — so it is written out here rather than taken
/// from the node's own list.
struct ExportRow {
  const char* key;
  const char* series;
  double (*value)(const NodeStats&);
};

#define EXPORT_ROW(key, series, expr) \
  ExportRow { key, series, [](const NodeStats& s) { \
    return static_cast<double>(expr); } }

const ExportRow kExportRows[] = {
    EXPORT_ROW("lt", "driftsync_local_time_seconds", s.lt),
    EXPORT_ROW("lo", "driftsync_estimate_lo_seconds", s.est.lo),
    EXPORT_ROW("hi", "driftsync_estimate_hi_seconds", s.est.hi),
    EXPORT_ROW("width", "driftsync_estimate_width_seconds", s.width),
    EXPORT_ROW("disciplined", "driftsync_clock_disciplined_seconds",
               s.disc.initialized ? s.disc.out : std::nan("")),
    EXPORT_ROW("clock_err", "driftsync_clock_error_bound_seconds",
               s.disc.initialized ? s.disc.err_bound : std::nan("")),
    EXPORT_ROW("clock_drift", "driftsync_clock_drift", s.clock_drift),
    EXPORT_ROW("clock_resteers", "driftsync_clock_resteers",
               s.clock_resteers),
    EXPORT_ROW("clock_holds", "driftsync_clock_holds", s.clock_holds),
    EXPORT_ROW("clock_slew_clamps", "driftsync_clock_slew_clamps",
               s.clock_slew_clamps),
    EXPORT_ROW("dgrams_in", "driftsync_dgrams_in", s.dgrams_in),
    EXPORT_ROW("dgrams_out", "driftsync_dgrams_out", s.dgrams_out),
    EXPORT_ROW("bytes_in", "driftsync_bytes_in", s.bytes_in),
    EXPORT_ROW("bytes_out", "driftsync_bytes_out", s.bytes_out),
    EXPORT_ROW("decode_drops", "driftsync_decode_drops", s.decode_drops),
    EXPORT_ROW("ignored_dgrams", "driftsync_ignored_dgrams",
               s.ignored_dgrams),
    EXPORT_ROW("duplicate_dgrams", "driftsync_duplicate_dgrams",
               s.duplicate_dgrams),
    EXPORT_ROW("loss_declarations", "driftsync_loss_declarations",
               s.loss_declarations),
    EXPORT_ROW("deliveries_confirmed", "driftsync_deliveries_confirmed",
               s.deliveries_confirmed),
    EXPORT_ROW("skips_sent", "driftsync_skips_sent", s.skips_sent),
    EXPORT_ROW("checkpoints_written", "driftsync_checkpoints_written",
               s.checkpoints_written),
    EXPORT_ROW("checkpoint_failures", "driftsync_checkpoint_failures",
               s.checkpoint_failures),
    EXPORT_ROW("events", "driftsync_events", s.events),
    EXPORT_ROW("infeasible_rejected", "driftsync_infeasible_rejected",
               s.infeasible_rejected),
    EXPORT_ROW("suspect_rejected", "driftsync_byzantine_suspect_rejected",
               s.suspect_rejected),
    EXPORT_ROW("replay_rejected", "driftsync_byzantine_replay_rejected",
               s.replay_rejected),
    EXPORT_ROW("cross_check_failures",
               "driftsync_byzantine_cross_check_failures",
               s.cross_check_failures),
    EXPORT_ROW("equivocations_detected",
               "driftsync_byzantine_equivocations",
               s.equivocations_detected),
    EXPORT_ROW(nullptr, "driftsync_byzantine_suspicion_total", [&s] {
      double total = 0.0;
      for (const auto& [peer, score] : s.suspicion) total += score;
      return total;
    }()),
    EXPORT_ROW("peer_quarantines", "driftsync_peer_quarantines",
               s.peer_quarantines),
    EXPORT_ROW("peer_readmissions", "driftsync_peer_readmissions",
               s.peer_readmissions),
    EXPORT_ROW("backoff_resets", "driftsync_backoff_resets",
               s.backoff_resets),
    EXPORT_ROW("peer_joins", "driftsync_peer_joins", s.peer_joins),
    EXPORT_ROW("peer_leaves", "driftsync_peer_leaves", s.peer_leaves),
    EXPORT_ROW("membership_active", "driftsync_membership_active",
               s.membership_active),
    EXPORT_ROW("membership_journal", "driftsync_membership_journal",
               s.peers_journaled),
    EXPORT_ROW("msg_path_allocs", "driftsync_msg_path_allocs",
               s.msg_path_allocs),
    EXPORT_ROW("msg_path_alloc_bytes", "driftsync_msg_path_alloc_bytes",
               s.msg_path_alloc_bytes),
    EXPORT_ROW("serve_requests", "driftsync_serve_requests",
               s.serve_requests),
    EXPORT_ROW("serve_active", "driftsync_serve_active", s.serve_active),
    EXPORT_ROW("serve_evicted", "driftsync_serve_evicted", s.serve_evicted),
    EXPORT_ROW("serve_reaped", "driftsync_serve_reaped", s.serve_reaped),
    EXPORT_ROW("serve_rejected", "driftsync_serve_rejected",
               s.serve_rejected),
    EXPORT_ROW("transport_send_drops", "driftsync_transport_send_drops",
               s.transport.send_drops),
    EXPORT_ROW("transport_recv_drops", "driftsync_transport_recv_drops",
               s.transport.recv_drops),
    EXPORT_ROW("transport_socket_errors",
               "driftsync_transport_socket_errors",
               s.transport.socket_errors),
    EXPORT_ROW("transport_recv_batches", "driftsync_transport_recv_batches",
               s.transport.recv_batches),
    EXPORT_ROW("transport_recv_datagrams",
               "driftsync_transport_recv_datagrams",
               s.transport.recv_datagrams),
    EXPORT_ROW("transport_send_batches", "driftsync_transport_send_batches",
               s.transport.send_batches),
    EXPORT_ROW("transport_send_datagrams",
               "driftsync_transport_send_datagrams",
               s.transport.send_datagrams),
    EXPORT_ROW("payload_bytes_sent", "driftsync_payload_bytes_sent",
               s.csa.payload_bytes_sent),
    EXPORT_ROW("payload_bytes_received", "driftsync_payload_bytes_received",
               s.csa.payload_bytes_received),
    EXPORT_ROW("reports_sent", "driftsync_reports_sent", s.csa.reports_sent),
    EXPORT_ROW("history_events", "driftsync_history_events",
               s.csa.history_events),
    EXPORT_ROW("live_points", "driftsync_live_points", s.csa.live_points),
    EXPORT_ROW("apsp_relaxations", "driftsync_apsp_relaxations",
               s.csa.apsp_relaxations),
    EXPORT_ROW("gc_passes", "driftsync_gc_passes", s.csa.gc_passes),
    EXPORT_ROW("state_bytes", "driftsync_state_bytes", s.csa.state_bytes),
    EXPORT_ROW("checkpoint_cache_bytes", "driftsync_checkpoint_cache_bytes",
               s.csa.checkpoint_cache_bytes),
    EXPORT_ROW("scratch_bytes", "driftsync_scratch_bytes",
               s.csa.scratch_bytes),
    EXPORT_ROW("trace_recorded", "driftsync_trace_recorded",
               s.trace_recorded),
    EXPORT_ROW("trace_dropped", "driftsync_trace_dropped", s.trace_dropped),
};

#undef EXPORT_ROW

/// Series of the form `name{node="<self>"} value` in a Prometheus text,
/// name -> value text; bucket lines (which carry an `le` label) are not.
std::map<std::string, std::string> prometheus_scalars(const std::string& text,
                                                      ProcId self) {
  const std::string labels = "{node=\"" + std::to_string(self) + "\"} ";
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t at = line.find(labels);
    if (at == std::string::npos) continue;
    EXPECT_TRUE(out.emplace(line.substr(0, at), line.substr(at + labels.size()))
                    .second)
        << "series emitted twice: " << line;
  }
  return out;
}

// The export surface: stats(), stats_json() and metrics_text() carry the
// same scalars under pinned names, with the same values.  The node is
// quiescent — a hand-set clock, polls parked, stopped before it is read —
// so all three readings see one state.
TEST(NodeCheckpoint, StatsJsonIsWellShaped) {
  const SystemSpec spec = driftsync::testing::two_node_spec();
  const auto clock = std::make_shared<double>(0.0);
  DatagramHandler handler;
  Tracer tracer(256);
  NodeConfig cfg = node_config(1, spec, 1e9, 1e9, 1e9);
  cfg.tracer = &tracer;
  Node node(std::move(cfg), driftsync::testing::loss_tolerant_csa(),
            std::make_unique<ManualTimeSource>(clock),
            std::make_unique<DirectTransport>(&handler));
  node.start();
  // Two messages from the source (real time t, node 1 reads t + 40) and
  // one malformed datagram: nonzero counters, a bounded estimate, and a
  // disciplined clock initialized by the sample() that externalizes it.
  OptimalCsa source;
  source.init(spec, 0);
  for (std::uint32_t k = 0; k < 2; ++k) {
    const double send_rt = 10.0 + k;
    EventRecord send;
    send.id = EventId{0, k};
    send.lt = send_rt;
    send.kind = EventKind::kSend;
    send.peer = 1;
    DataMsg msg;
    msg.from = 0;
    msg.dgram_seq = 1 + k;
    msg.send_seq = k;
    msg.send_lt = send_rt;
    msg.payload = source.on_send(SendContext{0, 1, send, 0});
    *clock = send_rt + 0.01 + 40.0;
    const std::vector<std::uint8_t> bytes = encode_datagram(Datagram{msg});
    handler(bytes);
  }
  const std::vector<std::uint8_t> garbage = {0xFF, 0x00};
  handler(garbage);
  ASSERT_TRUE(node.sample().est.bounded());
  node.stop();

  const NodeStats s = node.stats();
  const std::string json_text = node.stats_json();
  const std::string prom = node.metrics_text();
  EXPECT_EQ(json_text.find('\n'), std::string::npos) << "must be one line";
  ASSERT_TRUE(s.est.bounded());
  ASSERT_TRUE(s.disc.initialized);
  EXPECT_GT(s.width, 0.0);
  EXPECT_GT(s.dgrams_in, 0u);
  EXPECT_GT(s.decode_drops, 0u);
  EXPECT_GT(s.trace_recorded, 0u);
  EXPECT_GT(s.csa.history_events, 0u);

  const json::Value doc = json::parse(json_text);
  const std::map<std::string, std::string> series =
      prometheus_scalars(prom, 1);
  std::set<std::string> want_keys = {"proc", "algo", "last_heard",
                                     "quarantined", "suspicion"};
  std::set<std::string> want_series;
  for (const char* hist :
       {"driftsync_width_seconds", "driftsync_clock_jump_seconds",
        "driftsync_clock_error_seconds", "driftsync_handle_seconds",
        "driftsync_gradient_skew_seconds",
        "driftsync_gradient_width_seconds"}) {
    want_series.insert(std::string(hist) + "_sum");
    want_series.insert(std::string(hist) + "_count");
  }
  for (const ExportRow& row : kExportRows) {
    SCOPED_TRACE(row.series);
    const double v = row.value(s);
    if (row.key != nullptr) {
      want_keys.insert(row.key);
      const json::Value* j = doc.find(row.key);
      ASSERT_NE(j, nullptr) << "JSON lacks " << row.key;
      if (std::isfinite(v)) {
        EXPECT_EQ(j->as_number(), v);
      } else {
        EXPECT_TRUE(j->is_null());
      }
    }
    want_series.insert(row.series);
    const auto it = series.find(row.series);
    ASSERT_NE(it, series.end()) << "Prometheus lacks " << row.series;
    const double p = std::strtod(it->second.c_str(), nullptr);
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(p)) << it->second;
    } else {
      EXPECT_EQ(p, v) << it->second;
    }
  }
  // Nothing beyond the pinned surface, in either format.
  std::set<std::string> got_keys;
  for (const auto& [key, value] : doc.as_object()) got_keys.insert(key);
  EXPECT_EQ(got_keys, want_keys);
  std::set<std::string> got_series;
  for (const auto& [name, value] : series) got_series.insert(name);
  EXPECT_EQ(got_series, want_series);

  EXPECT_EQ(doc.at("proc").as_number(), 1.0);
  EXPECT_EQ(doc.at("algo").as_string(), "optimal");
  // Per-peer health renders the snapshot's maps: every configured peer in
  // last_heard (an age on the wall clock, so it only grows between the two
  // readings), only nonzero scores in suspicion.
  ASSERT_EQ(doc.at("last_heard").as_object().size(), s.last_heard.size());
  for (const auto& [peer, ago] : s.last_heard) {
    const json::Value& j = doc.at("last_heard").at(std::to_string(peer));
    if (ago < 0.0) {
      EXPECT_TRUE(j.is_null());
    } else {
      EXPECT_GE(j.as_number(), ago);
      EXPECT_LT(j.as_number(), ago + 10.0);
    }
  }
  EXPECT_EQ(doc.at("quarantined").as_array().size(), s.quarantined.size());
  std::size_t suspects = 0;
  for (const auto& [peer, score] : s.suspicion) suspects += score > 0.0;
  EXPECT_EQ(doc.at("suspicion").as_object().size(), suspects);
}

// Times keep every digit in stats_json: at a local clock near 1e6 s, nine
// significant digits would leave 10 ms of resolution for an interval a few
// milliseconds wide, and hi - lo would stop matching the width next to it.
TEST(NodeCheckpoint, StatsJsonKeepsFullPrecisionAtLargeClockReadings) {
  Mesh mesh = three_node_path();
  mesh.hub().set_link(0, 1, 0.0005, 0.002);
  mesh.add(node_config(0, mesh.spec()), loss_tolerant(), 1e6, 1.0);
  Node& n1 = mesh.add(node_config(1, mesh.spec()), loss_tolerant(), 1e6, 1.0);
  mesh.start();
  for (int i = 0; i < 100 && !n1.estimate().bounded(); ++i) {
    mesh.hub().run_for(0.03);
  }
  const json::Value doc = json::parse(n1.stats_json());
  mesh.stop();

  ASSERT_FALSE(doc.at("lo").is_null());
  ASSERT_FALSE(doc.at("hi").is_null());
  const double lo = doc.at("lo").as_number();
  const double hi = doc.at("hi").as_number();
  const double width = doc.at("width").as_number();
  EXPECT_GT(lo, 1e6);
  EXPECT_GT(width, 0.0);
  EXPECT_EQ(hi - lo, width);
}

// A probe reply is one reading of the node: the stats it carries are taken
// at the reply's own local_time, so their lt/lo/hi equal the reply's
// exactly even though the clock moves on every read.
TEST(NodeProbe, ReplyStatsShareTheReplyReading) {
  const SystemSpec spec = driftsync::testing::two_node_spec();
  const auto clock = std::make_shared<double>(0.0);
  DatagramHandler handler;
  std::vector<std::uint8_t> sent;
  Node node(node_config(1, spec, 1e9, 1e9, 1e9),
            driftsync::testing::loss_tolerant_csa(),
            std::make_unique<ManualTimeSource>(clock, 1e-6),
            std::make_unique<DirectTransport>(&handler, &sent));
  node.start();
  OptimalCsa source;
  source.init(spec, 0);
  for (std::uint32_t k = 0; k < 2; ++k) {
    const double send_rt = 10.0 + k;
    EventRecord send;
    send.id = EventId{0, k};
    send.lt = send_rt;
    send.kind = EventKind::kSend;
    send.peer = 1;
    DataMsg msg;
    msg.from = 0;
    msg.dgram_seq = 1 + k;
    msg.send_seq = k;
    msg.send_lt = send_rt;
    msg.payload = source.on_send(SendContext{0, 1, send, 0});
    *clock = send_rt + 0.01 + 40.0;
    handler(encode_datagram(Datagram{msg}));
  }
  sent.clear();
  handler(encode_datagram(Datagram{ProbeReq{42}}));
  node.stop();

  ASSERT_FALSE(sent.empty()) << "no probe reply";
  const Datagram reply = decode_datagram(sent);
  ASSERT_TRUE(std::holds_alternative<ProbeResp>(reply));
  const ProbeResp& resp = std::get<ProbeResp>(reply);
  EXPECT_EQ(resp.nonce, 42u);
  ASSERT_TRUE(std::isfinite(resp.lo) && std::isfinite(resp.hi));
  const json::Value stats = json::parse(resp.stats_json);
  EXPECT_EQ(stats.at("lt").as_number(), resp.local_time);
  EXPECT_EQ(stats.at("lo").as_number(), resp.lo);
  EXPECT_EQ(stats.at("hi").as_number(), resp.hi);
}

// A client reply steers before it reads, like a probe reply: the first
// request after the estimate becomes bounded already carries the
// disciplined reading, because serving it is what initializes the clock.
// The node is quiescent and nothing else externalizes first.
TEST(NodeServe, FirstBoundedClientReplyCarriesTheDisciplinedReading) {
  const SystemSpec spec = driftsync::testing::two_node_spec();
  const auto clock = std::make_shared<double>(0.0);
  DatagramHandler handler;
  std::vector<std::uint8_t> sent;
  NodeConfig cfg = node_config(1, spec, 1e9, 1e9, 1e9);
  cfg.serve_max_clients = 4;
  Node node(std::move(cfg), driftsync::testing::loss_tolerant_csa(),
            std::make_unique<ManualTimeSource>(clock),
            std::make_unique<DirectTransport>(&handler, &sent));
  node.start();
  OptimalCsa source;
  source.init(spec, 0);
  EventRecord send;
  send.id = EventId{0, 0};
  send.lt = 10.0;
  send.kind = EventKind::kSend;
  send.peer = 1;
  DataMsg msg;
  msg.from = 0;
  msg.dgram_seq = 1;
  msg.send_seq = 0;
  msg.send_lt = 10.0;
  msg.payload = source.on_send(SendContext{0, 1, send, 0});
  *clock = 10.01 + 40.0;
  handler(encode_datagram(Datagram{msg}));
  sent.clear();
  handler(encode_datagram(Datagram{ClientReq{7, 1, 3.0, 0.0}}));
  node.stop();

  ASSERT_FALSE(sent.empty()) << "no client reply";
  const Datagram reply = decode_datagram(sent);
  ASSERT_TRUE(std::holds_alternative<ClientResp>(reply));
  const ClientResp& resp = std::get<ClientResp>(reply);
  ASSERT_TRUE(std::isfinite(resp.lo) && std::isfinite(resp.hi));
  EXPECT_TRUE(resp.has_disc);
  EXPECT_TRUE(std::isfinite(resp.disc_time));
  EXPECT_TRUE(std::isfinite(resp.disc_err));
  EXPECT_GE(resp.disc_err, 0.0);
  EXPECT_GE(resp.disc_time, resp.lo);
  EXPECT_LE(resp.disc_time, resp.hi);
}

// A restart re-snaps the disciplined clock (DESIGN.md decision 21): the
// Node persists its CSA, not its clock.  The clock snaps to the midpoint
// of a wide first estimate; a second message collapses the estimate
// ~90 ms ahead of it, further than a 500 ppm slew closes before the
// restart, and the restored node snaps straight to the new midpoint.  The
// oracle checks the restarted estimate against the old interval
// (invariant 3) and starts its disciplined-clock chain over (invariant
// 6), so the snap is no violation.
TEST(NodeRestart, ReSnappedClockStartsANewOracleChain) {
  const CheckpointFile ckpt("runtime_test_resnap.ckpt");
  const SystemSpec spec(std::vector<ClockSpec>{{0.0}, {5e-4}},
                        std::vector<LinkSpec>{{0, 1, 0.0, 0.2}}, 0);
  const auto clock = std::make_shared<double>(0.0);
  DatagramHandler handler;
  const auto make = [&] {
    NodeConfig cfg = node_config(1, spec, 1e9, 1e9, 1e9);
    cfg.checkpoint_path = ckpt.path;
    return std::make_unique<Node>(
        std::move(cfg), driftsync::testing::loss_tolerant_csa(),
        std::make_unique<ManualTimeSource>(clock),
        std::make_unique<DirectTransport>(&handler));
  };
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  InvariantOracle::Options oracle_opts;
  oracle_opts.out = log;
  // True source time is node 1's clock less its 40 s offset.
  const ManualTimeSource node_clock(clock);
  const ScaledTimeSource truth(node_clock, -40.0, 1.0);
  InvariantOracle oracle(truth, oracle_opts);
  auto node = make();
  node->start();
  oracle.track("n1", node.get(), 5e-4);

  // The source's clock is real time; node 1 reads real time + 40.
  OptimalCsa source;
  source.init(spec, 0);
  const auto deliver = [&](std::uint32_t k, double send_rt, double transit) {
    EventRecord send;
    send.id = EventId{0, k};
    send.lt = send_rt;
    send.kind = EventKind::kSend;
    send.peer = 1;
    DataMsg msg;
    msg.from = 0;
    msg.dgram_seq = 1 + k;
    msg.send_seq = k;
    msg.send_lt = send_rt;
    msg.payload = source.on_send(SendContext{0, 1, send, 0});
    *clock = send_rt + transit + 40.0;
    handler(encode_datagram(Datagram{msg}));
  };
  deliver(0, 10.0, 0.19);  // [10, 10.2]: the clock snaps to 10.1.
  oracle.observe();
  deliver(1, 11.0, 0.0);  // [11, ~11.01] while the clock reads ~10.91.
  oracle.observe();
  const NodeSample before = node->sample();
  ASSERT_TRUE(before.disc.initialized);
  ASSERT_GT(before.disc.deficit, 0.05);
  node->stop();

  node = make();
  node->start();
  oracle.note_restart("n1", node.get());
  const std::uint64_t checks = oracle.checks();
  oracle.observe();
  const NodeSample after = node->sample();
  node->stop();

  EXPECT_EQ(after.est, before.est);  // Nothing was forgotten ...
  ASSERT_TRUE(after.disc.initialized);
  EXPECT_EQ(after.disc.deficit, 0.0);  // ... but the clock snapped.
  EXPECT_GT(after.disc.out - before.disc.out, 0.05);
  // Containment and width dynamics ran; the disciplined check did not.
  EXPECT_EQ(oracle.checks() - checks, 2u);
  std::string lines;
  std::rewind(log);
  for (int c = std::fgetc(log); c != EOF; c = std::fgetc(log)) {
    lines += static_cast<char>(c);
  }
  std::fclose(log);
  EXPECT_EQ(lines.find("\"invariant\":\"disciplined-"), std::string::npos)
      << lines;
  EXPECT_EQ(lines.find("\"invariant\":\"width-dynamics\""),
            std::string::npos)
      << lines;
}

// ---------------------------------------------------------------------------
// Chaos layer and peer health

TEST(ThreadHubValidation, RejectsBadLatencyAndLoss) {
  Hub hub(5);
  EXPECT_THROW(hub.set_directed(0, 0, 0.0, 0.001), std::logic_error);
  EXPECT_THROW(hub.set_directed(0, 1, -0.001, 0.001), std::logic_error);
  EXPECT_THROW(hub.set_directed(0, 1, 0.002, 0.001), std::logic_error);
  EXPECT_THROW(
      hub.set_directed(0, 1, 0.0, std::numeric_limits<double>::infinity()),
      std::logic_error);
  EXPECT_THROW(hub.set_directed(0, 1, 0.0,
                                std::numeric_limits<double>::quiet_NaN()),
               std::logic_error);
  EXPECT_THROW(hub.set_directed(0, 1, 0.0, 0.001, -0.1), std::logic_error);
  EXPECT_THROW(hub.set_directed(0, 1, 0.0, 0.001, 1.5), std::logic_error);

  // loss == 1.0 is legal: a configured-but-blackholed direction, which
  // counts drops (unlike a missing link it also supports drop_next).
  hub.set_directed(0, 1, 0.0, 0.001, 1.0);
  auto a = hub.endpoint(0);
  auto b = hub.endpoint(1);
  a->start([](std::span<const std::uint8_t>) {});
  b->start([](std::span<const std::uint8_t>) {});
  a->send(1, {7});
  hub.run_for(0.02);
  EXPECT_EQ(hub.delivered(), 0u);
  EXPECT_EQ(hub.dropped(), 1u);
  a->stop();
  b->stop();
}

TEST(FaultyTimeSourceTest, StepsScaleAndNeverRunBackwards) {
  Hub hub;
  FaultyTimeSource clock(std::make_unique<ScaledTimeSource>(hub, 100.0, 1.0));
  const double t1 = clock.now();
  clock.inject_step(5.0);
  const double t2 = clock.now();
  EXPECT_GE(t2, t1 + 5.0);
  EXPECT_DOUBLE_EQ(clock.fault_offset(), 5.0);

  // A large negative step freezes the reading (the TimeSource contract
  // forbids running backwards) until the inner clock catches up.
  clock.inject_step(-1000.0);
  EXPECT_DOUBLE_EQ(clock.fault_offset(), 5.0 - 1000.0);
  const double t3 = clock.now();
  EXPECT_GE(t3, t2);
  hub.run_for(0.02);
  EXPECT_GE(clock.now(), t3);
  EXPECT_LT(clock.now(), t3 + 0.001);  // Still frozen, ~1000 s to thaw.

  clock.set_rate_multiplier(0.0);
  EXPECT_DOUBLE_EQ(clock.rate_multiplier(), 0.0);
  clock.set_rate_multiplier(2.0);
  EXPECT_DOUBLE_EQ(clock.rate_multiplier(), 2.0);
}

TEST(NodeIntegration, DuplicateDeliveryIsIdempotent) {
  Mesh mesh = three_node_path();
  mesh.hub().set_link(0, 1, 0.0005, 0.002);
  NodeConfig cfg0 = node_config(0, mesh.spec());
  cfg0.peers = {1};
  NodeConfig cfg1 = node_config(1, mesh.spec());
  cfg1.peers = {0};
  // Every datagram node 0 sends is delivered twice; the receiver must
  // process each exactly once (counting the echoes) and the duplicated
  // acks must never confuse node 0's fate machine into a loss.
  ChaosFaults faults;
  faults.duplicate = 1.0;
  const Node& n0 =
      mesh.add(std::move(cfg0), loss_tolerant(), 0.0, 1.0, faults, 9);
  const Node& n1 =
      mesh.add(std::move(cfg1), loss_tolerant(), 7.5, 1.0 + 2e-4);
  mesh.start();
  mesh.hub().run_for(0.9);

  EXPECT_GE(n1.stats().duplicate_dgrams, 1u);
  EXPECT_EQ(n0.stats().loss_declarations, 0u);
  EXPECT_TRUE(brackets_truth(n0, mesh.hub()));
  EXPECT_TRUE(brackets_truth(n1, mesh.hub()));
}

TEST(NodeIntegration, PartitionHealReconvergesUnderChaosTransport) {
  Mesh mesh = three_node_path();
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  mesh.hub().set_link(1, 2, 0.001, 0.004);
  const double offsets[3] = {0.0, 11.0, -4.5};
  const double rates[3] = {1.0, 1.0 + 3e-4, 1.0 - 2e-4};
  for (ProcId p = 0; p < 3; ++p) {
    mesh.add(node_config(p, mesh.spec()), loss_tolerant(), offsets[p],
             rates[p], ChaosFaults{}, 100 + p);
  }
  mesh.start();
  mesh.hub().run_for(0.6);
  EXPECT_TRUE(brackets_truth(mesh.node(1), mesh.hub()));

  // Sever 0 <-> 1: the whole 1-2 side loses the source.  Containment
  // cannot break while partitioned — estimates only widen with drift.
  mesh.chaos(0).set_partitioned(1, true);
  mesh.chaos(1).set_partitioned(0, true);
  mesh.hub().run_for(0.6);
  EXPECT_TRUE(brackets_truth(mesh.node(1), mesh.hub()));
  EXPECT_TRUE(brackets_truth(mesh.node(2), mesh.hub()));
  EXPECT_GT(mesh.chaos(0).injected() + mesh.chaos(1).injected(), 0u);

  mesh.chaos(0).set_partitioned(1, false);
  mesh.chaos(1).set_partitioned(0, false);
  mesh.hub().run_for(0.9);
  for (ProcId p = 0; p < 3; ++p) {
    SCOPED_TRACE("node " + std::to_string(p));
    EXPECT_TRUE(brackets_truth(mesh.node(p), mesh.hub()));
  }
  EXPECT_LT(mesh.node(1).estimate().width(), 0.05);
  EXPECT_LT(mesh.node(2).estimate().width(), 0.10);
}

TEST(NodeIntegration, SpecViolatingClockIsQuarantinedExactly) {
  Mesh mesh = three_node_path();
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  mesh.hub().set_link(1, 2, 0.001, 0.004);
  const double offsets[3] = {0.0, 11.0, -4.5};
  const double rates[3] = {1.0, 1.0 + 3e-4, 1.0 - 2e-4};
  for (ProcId p = 0; p < 3; ++p) {
    mesh.add(node_config(p, mesh.spec()), loss_tolerant(), offsets[p],
             rates[p]);
  }
  mesh.start();
  mesh.hub().run_for(0.6);

  // +0.5 s is far outside the rho = 5e-4 drift spec: node 2's subsequent
  // timestamps are infeasible, so node 1 must renounce them (no estimate
  // poisoning) and quarantine node 2 — and ONLY node 2.
  mesh.clock(2).inject_step(0.5);
  mesh.hub().run_for(0.9);

  const NodeStats s1 = mesh.node(1).stats();
  EXPECT_GE(s1.infeasible_rejected, 1u);
  EXPECT_GE(s1.peer_quarantines, 1u);
  ASSERT_EQ(s1.quarantined.size(), 1u);
  EXPECT_EQ(s1.quarantined[0], 2u);
  EXPECT_EQ(s1.last_heard.size(), 2u);  // Both peers heard from.
  for (const auto& [peer, age] : s1.last_heard) EXPECT_GE(age, 0.0);
  // The survivors keep containing true source time at tight width; the
  // faulty node's output is forfeit (its own clock broke the spec).
  EXPECT_TRUE(brackets_truth(mesh.node(0), mesh.hub()));
  EXPECT_TRUE(brackets_truth(mesh.node(1), mesh.hub()));
  EXPECT_LT(mesh.node(1).estimate().width(), 0.05);
}

}  // namespace
}  // namespace driftsync::runtime
