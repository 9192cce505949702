// Differential test of the incremental checkpoint image.  HistoryProtocol
// keeps the encoding of its buffer H_v between saves and re-encodes only the
// records appended since, or moved by a GC removal.  After every step of
// seeded runs, OptimalCsa::checkpoint() must equal
//   * the image a cold instance (freshly restored from it) writes, and
//   * a reference whose history batch is encoded here from scratch with
//     wire::encode_batch over the buffer, the path save() used to take.
// The runs cover GC removals at the head, middle and tail of the cached
// buffer, loss rollbacks, a forged batch the cross-check rolls back, a
// mid-run restore, and per-processor sequence numbers that wrap past
// UINT32_MAX in the next-seq delta flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/history.h"
#include "core/optimal_csa.h"
#include "core/wire.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workloads/apps.h"
#include "workloads/topology.h"

namespace driftsync {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Where the history batch sits in an OptimalCsa image: `len_at` is the
/// offset of its length prefix, [begin, end) the batch bytes.
struct BatchSpan {
  std::size_t len_at = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Walks the history section of an image (HistoryProtocol::save) up to
/// its buffer batch.
BatchSpan find_history_batch(std::span<const std::uint8_t> image) {
  std::size_t cur = 0;
  (void)wire::get_varint(image, cur);  // magic
  (void)wire::get_varint(image, cur);  // self
  const std::uint64_t procs = wire::get_varint(image, cur);
  for (std::uint64_t i = 0; i < procs; ++i) (void)wire::get_varint(image, cur);
  const std::uint64_t neighbors = wire::get_varint(image, cur);
  for (std::uint64_t u = 0; u < neighbors; ++u) {
    (void)wire::get_varint(image, cur);  // id
    for (std::uint64_t i = 0; i < procs; ++i) {
      (void)wire::get_varint(image, cur);
    }
    if (wire::get_varint(image, cur) > 0) {  // pending snapshots
      for (std::uint64_t i = 0; i < procs; ++i) {
        (void)wire::get_varint(image, cur);
      }
    }
  }
  BatchSpan s;
  s.len_at = cur;
  const std::uint64_t len = wire::get_varint(image, cur);
  s.begin = cur;
  s.end = cur + len;
  return s;
}

/// `image` with its history batch replaced by a from-scratch encoding of
/// `csa`'s buffer.
Bytes reference_image(const OptimalCsa& csa, const Bytes& image) {
  const BatchSpan s = find_history_batch(image);
  const std::span<const EventRecord> buffer = csa.history().buffer();
  const Bytes batch =
      wire::encode_batch(EventBatch(buffer.begin(), buffer.end()));
  Bytes out(image.begin(), image.begin() + static_cast<long>(s.len_at));
  wire::put_varint(out, batch.size());
  out.insert(out.end(), batch.begin(), batch.end());
  out.insert(out.end(), image.begin() + static_cast<long>(s.end), image.end());
  return out;
}

/// The image a cold instance restored from `image` writes.
Bytes cold_image(OptimalCsa::Options opts, const SystemSpec& spec,
                 ProcId self, const Bytes& image) {
  OptimalCsa cold(opts);
  cold.init(spec, self);
  cold.restore(image);
  return cold.checkpoint();
}

/// Asserts warm == reference == cold for `csa`'s current state.
void expect_image_matches(const OptimalCsa& csa, OptimalCsa::Options opts,
                          const SystemSpec& spec, ProcId self) {
  const Bytes warm = csa.checkpoint();
  ASSERT_EQ(warm, reference_image(csa, warm));
  ASSERT_EQ(warm, cold_image(opts, spec, self, warm));
}

/// Where GC removals hit the buffer as it stood before a step (the part a
/// warm cache covers): from its first record on, or after kept records.
/// Runs of gossip rarely remove near the tail;
/// TailRemovalKeepsCachedPrefix drives that case.
struct Coverage {
  std::size_t head = 0;
  std::size_t middle = 0;
  std::size_t restarts = 0;
};

/// An OptimalCsa that checks its checkpoint image after every hook, which
/// also keeps its cache warm from step to step.  Every `restart_every`-th
/// step it restarts in place from its own image.
class CheckedCsa : public OptimalCsa {
 public:
  CheckedCsa(Options opts, Coverage& coverage, std::size_t restart_every)
      : OptimalCsa(opts),
        opts_(opts),
        coverage_(&coverage),
        restart_every_(restart_every) {}

  void init(const SystemSpec& spec, ProcId self) override {
    OptimalCsa::init(spec, self);
    spec_ = &spec;
    self_ = self;
  }
  CsaPayload on_send(const SendContext& ctx) override {
    before();
    CsaPayload payload = OptimalCsa::on_send(ctx);
    after();
    return payload;
  }
  void on_receive(const RecvContext& ctx, const CsaPayload& payload) override {
    before();
    OptimalCsa::on_receive(ctx, payload);
    after();
  }
  void on_internal(const EventRecord& event) override {
    before();
    OptimalCsa::on_internal(event);
    after();
  }
  void on_delivery_confirmed(ProcId dest) override {
    before();
    OptimalCsa::on_delivery_confirmed(dest);
    after();
  }

 private:
  void before() {
    const std::span<const EventRecord> buffer = history().buffer();
    prior_.assign(buffer.begin(), buffer.end());
  }

  void after() {
    std::unordered_set<std::uint64_t> kept;
    for (const EventRecord& r : history().buffer()) kept.insert(r.id.pack());
    const auto removed = [&](const EventRecord& r) {
      return kept.count(r.id.pack()) == 0;
    };
    const auto first = std::find_if(prior_.begin(), prior_.end(), removed);
    if (first == prior_.begin() && first != prior_.end()) {
      ++coverage_->head;
    } else if (first != prior_.end()) {
      ++coverage_->middle;
    }
    expect_image_matches(*this, opts_, *spec_, self_);
    if (++steps_ % restart_every_ == 0) {
      const Bytes image = checkpoint();
      OptimalCsa::init(*spec_, self_);
      restore(image);
      ++coverage_->restarts;
      ASSERT_EQ(checkpoint(), image);
    }
  }

  Options opts_;
  Coverage* coverage_;
  std::size_t restart_every_;
  const SystemSpec* spec_ = nullptr;
  ProcId self_ = kInvalidProc;
  std::vector<EventRecord> prior_;
  std::size_t steps_ = 0;
};

/// Runs a seeded gossip mesh with a CheckedCsa at every node.
void run_mesh(OptimalCsa::Options opts, std::uint64_t seed, bool lossy,
              Coverage& coverage) {
  Rng rng(seed);
  workloads::TopoParams params;
  params.rho = 1e-4;
  params.latency = sim::LatencyModel::uniform(0.001, 0.02);
  params.loss_prob = lossy ? 0.15 : 0.0;
  const workloads::Network net =
      workloads::make_random(5, 3, seed ^ 0x5eedULL, params);
  sim::SimConfig cfg;
  cfg.seed = seed * 31 + 7;
  cfg.detection_timeout = lossy ? 0.2 : 0.0;
  sim::Simulator simulator(net.spec, net.links, cfg);
  for (ProcId p = 0; p < net.spec.num_procs(); ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::make_unique<CheckedCsa>(opts, coverage, 37 + p));
    const double rho = net.spec.clock(p).rho;
    const sim::ClockModel clock =
        p == net.spec.source()
            ? sim::ClockModel::constant(0.0, 1.0)
            : sim::ClockModel::constant(rng.uniform(-50.0, 50.0),
                                        1.0 + rng.uniform(-rho, rho));
    simulator.attach_node(
        p, clock,
        std::make_unique<workloads::GossipApp>(
            workloads::GossipApp::Config{rng.uniform(0.05, 0.2), 0.3}),
        std::move(csas));
  }
  simulator.run_until(6.0);
  if (lossy) {
    EXPECT_GT(simulator.messages_lost(), 0u);
  }
}

TEST(CheckpointCacheTest, WarmImageEqualsColdOnPlainMesh) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_mesh(OptimalCsa::Options{}, seed, /*lossy=*/false, coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.head, 0u);
  EXPECT_GT(coverage.middle, 0u);
  EXPECT_GT(coverage.restarts, 0u);
}

TEST(CheckpointCacheTest, WarmImageEqualsColdUnderLossAndCrossValidation) {
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  opts.cross_validation = true;
  Coverage coverage;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    run_mesh(opts, seed, /*lossy=*/true, coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.head, 0u);
  EXPECT_GT(coverage.middle, 0u);
  EXPECT_GT(coverage.restarts, 0u);
}

TEST(CheckpointCacheTest, TailRemovalKeepsCachedPrefix) {
  // A triangle: v = 1 hears a = 0's event directly and then relayed by
  // b = 2, which makes it known to both neighbors while v's own events
  // ahead of it stay owed.
  const SystemSpec spec = testing::clique_spec(3, 1e-4, 0.002, 0.03);
  testing::EventFactory fac(3);
  OptimalCsa::Options opts;
  OptimalCsa v(opts);
  v.init(spec, 1);
  for (int i = 0; i < 10; ++i) {
    v.on_internal(fac.internal(1, 1.0 + 0.01 * i));
    expect_image_matches(v, opts, spec, 1);
  }
  const EventRecord a0 = fac.send(0, 1.2, 1);
  v.on_receive(RecvContext{1, 0, fac.receive(1, 1.21, a0), a0, 0},
               CsaPayload{{a0}, {}});
  expect_image_matches(v, opts, spec, 1);
  ASSERT_EQ(v.history().history_size(), 12u);  // v:0-9, a:0, v:10

  const EventRecord a1 = fac.send(0, 1.22, 2);
  const EventRecord b0 = fac.receive(2, 1.23, a1);
  const EventRecord b1 = fac.send(2, 1.24, 1);
  v.on_receive(RecvContext{1, 2, fac.receive(1, 1.25, b1), b1, 0},
               CsaPayload{{a0, a1, b0, b1}, {}});
  // a:0 went from index 10 of 12; v:10 behind it re-encodes.
  ASSERT_EQ(v.history().history_size(), 15u);
  EXPECT_EQ(v.history().buffer()[10].id, (EventId{1, 10}));
  expect_image_matches(v, opts, spec, 1);
}

TEST(CheckpointCacheTest, ForgedBatchRollbackKeepsImageExact) {
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  opts.cross_validation = true;
  const SystemSpec spec = testing::line_spec(2, 1e-4, 0.002, 0.03);
  testing::EventFactory fac(2);
  OptimalCsa source;
  source.init(spec, 0);
  OptimalCsa client(opts);
  client.init(spec, 1);
  // Honest probe/response rounds, the image checked (and so the cache
  // warmed) after every step.
  const auto round = [&](double t, double lie) {
    const EventRecord probe = fac.send(1, 100.0 + t, 0);
    const CsaPayload out = client.on_send(SendContext{1, 0, probe, 1});
    expect_image_matches(client, opts, spec, 1);
    source.on_receive(
        RecvContext{0, 1, fac.receive(0, t + 0.01, probe), probe, 1}, out);
    const EventRecord resp = fac.send(0, t + 0.02, 1);
    CsaPayload back = source.on_send(SendContext{0, 1, resp, 2});
    // A forged retelling of the response: its send time moved by `lie`.
    EventRecord told = resp;
    told.lt += lie;
    for (EventRecord& r : back.reports) {
      if (r.id == resp.id) r = told;
    }
    const bool applied = client.on_receive_validated(
        RecvContext{1, 0, fac.receive(1, 100.0 + t + 0.03, resp), told, 2},
        back);
    expect_image_matches(client, opts, spec, 1);
    return applied;
  };
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(round(1.0 + i, 0.0));
  // +0.5 s on a 30 ms link contradicts the view: rolled back wholesale.
  EXPECT_FALSE(round(8.0, 0.5));
  EXPECT_EQ(client.stats().cross_check_failures, 1u);
}

TEST(CheckpointCacheTest, LoadDropsTheCache) {
  // OptimalCsa::restore loads into a fresh copy; a protocol loaded in
  // place must not keep the encoding of the buffer it replaced.
  const SystemSpec spec = testing::line_spec(2, 1e-4, 0.002, 0.03);
  testing::EventFactory fac_a(2);
  testing::EventFactory fac_b(2);
  HistoryProtocol a(spec, 1);
  HistoryProtocol b(spec, 1);
  for (int i = 0; i < 4; ++i) {
    a.record_own_event(fac_a.internal(1, 1.0 + i));
    b.record_own_event(fac_b.internal(1, 2.0 + i));
  }
  Bytes warm;
  a.save(warm);  // Warms a's cache.
  Bytes image;
  b.save(image);
  std::size_t offset = 0;
  a.load(image, offset);
  Bytes resaved;
  a.save(resaved);
  EXPECT_EQ(resaved, image);
}

/// Per-processor sequence numbers straddling UINT32_MAX: the delta flag of
/// the record after 0xFFFFFFFF compares against the uint32 successor, 0.
/// Reachable only through a restored image, so one is crafted here: the
/// history section of a fresh instance's image with a non-neighbor
/// processor's records spliced in.
TEST(CheckpointCacheTest, SequenceWrapSurvivesRewind) {
  const SystemSpec spec = testing::line_spec(4, 1e-4, 0.002, 0.03);
  const ProcId self = 1;  // Neighbors 0 and 2; processor 3 is remote.
  OptimalCsa::Options opts;
  OptimalCsa fresh(opts);
  fresh.init(spec, self);
  const Bytes fresh_image = fresh.checkpoint();
  const BatchSpan s = find_history_batch(fresh_image);

  const auto internal = [](ProcId p, std::uint32_t seq, double lt) {
    EventRecord r;
    r.id = EventId{p, seq};
    r.lt = lt;
    r.kind = EventKind::kInternal;
    return r;
  };
  // 0:0 sits between 3:0xFFFFFFFF and 3:0; both neighbors know it, so the
  // first GC removes it and 3:0 must re-encode with the wrapped next-seq.
  const EventBatch buffer = {
      internal(3, 0xFFFFFFFEu, 5.0), internal(3, 0xFFFFFFFFu, 5.1),
      internal(0, 0, 1.0), internal(3, 0, 5.2), internal(3, 1, 5.3)};
  const auto code = [](std::int64_t seq) {
    return static_cast<std::uint64_t>(seq + 1);
  };
  Bytes image;
  std::size_t cur = 0;
  wire::put_varint(image, wire::get_varint(fresh_image, cur));  // magic
  wire::put_varint(image, self);
  wire::put_varint(image, 4);
  for (const std::int64_t known : {0LL, -1LL, -1LL, 0xFFFFFFFFLL}) {
    wire::put_varint(image, code(known));
  }
  wire::put_varint(image, 2);
  for (const ProcId u : {ProcId{0}, ProcId{2}}) {
    wire::put_varint(image, u);
    for (const std::int64_t c : {0LL, -1LL, -1LL, -1LL}) {
      wire::put_varint(image, code(c));
    }
    wire::put_varint(image, 0);  // no pending snapshots
  }
  const Bytes batch = wire::encode_batch(buffer);
  wire::put_varint(image, batch.size());
  image.insert(image.end(), batch.begin(), batch.end());
  cur = s.end;
  (void)wire::get_varint(fresh_image, cur);  // max |H_v| of the fresh state
  wire::put_varint(image, buffer.size());
  image.insert(image.end(), fresh_image.begin() + static_cast<long>(cur),
               fresh_image.end());
  // The wrapped successor gives 3:0 its next-seq flag in the batch.
  {
    const EventBatch decoded = wire::decode_batch(batch);
    ASSERT_EQ(decoded, buffer);
  }

  OptimalCsa csa(opts);
  csa.init(spec, self);
  csa.restore(image);
  ASSERT_EQ(csa.checkpoint(), image);  // Warms the cache over the buffer.

  EventRecord send;
  send.id = EventId{self, 0};
  send.lt = 10.0;
  send.kind = EventKind::kSend;
  send.peer = 0;
  (void)csa.on_send(SendContext{self, 0, send, 0});
  // GC removed 0:0 (known to both neighbors) from the middle.
  ASSERT_EQ(csa.history().history_size(), 5u);
  EXPECT_EQ(csa.history().buffer()[2].id, (EventId{3, 0}));
  expect_image_matches(csa, opts, spec, self);

  EventRecord send2 = send;
  send2.id = EventId{self, 1};
  send2.lt = 10.5;
  send2.peer = 2;
  (void)csa.on_send(SendContext{self, 2, send2, 0});
  // Both neighbors now know everything but send2: only it remains.
  EXPECT_EQ(csa.history().history_size(), 1u);
  expect_image_matches(csa, opts, spec, self);
}

}  // namespace
}  // namespace driftsync
