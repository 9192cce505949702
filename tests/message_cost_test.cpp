// What a message costs the Figure-2 bookkeeping, pinned against the
// straightforward code it replaced.
//
//  * Payload accounting: OptimalCsa counts payload bytes in the loops that
//    build and merge a batch.  Over seeded meshes (plain, loss_tolerant,
//    cross_validation) each CSA's payload_bytes_sent must equal the sum of
//    wire::encoded_size over the batches it sent, and payload_bytes_received
//    the sum over the batches it applied; a refused batch adds nothing.
//  * The GC sweep: HistoryProtocol keeps per-processor bounds beside H_v so
//    a sweep that can remove nothing returns early.  A reference model that
//    keeps the full find_if/remove_if sweep over all of H_v runs beside the
//    protocol through seeded runs with losses, confirmations, rolled-back
//    receives and checkpoint reloads; after every hook H_v and save() must
//    be byte-identical and the bounds must pass audit().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
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

using testing::EventFactory;

// ---------------------------------------------------------------------------
// Payload accounting

/// Forwards to an OptimalCsa and sums wire::encoded_size over the batches
/// it sends and over the batches it applies.
class TallyCsa final : public Csa {
 public:
  explicit TallyCsa(OptimalCsa::Options opts) : inner_(opts) {}

  void init(const SystemSpec& spec, ProcId self) override {
    inner_.init(spec, self);
  }
  CsaPayload on_send(const SendContext& ctx) override {
    CsaPayload payload = inner_.on_send(ctx);
    sent_ += wire::encoded_size(payload.reports);
    return payload;
  }
  void on_receive(const RecvContext& ctx, const CsaPayload& payload) override {
    inner_.on_receive(ctx, payload);
    received_ += wire::encoded_size(payload.reports);
  }
  bool on_receive_validated(const RecvContext& ctx,
                            const CsaPayload& payload) override {
    const bool applied = inner_.on_receive_validated(ctx, payload);
    if (applied) received_ += wire::encoded_size(payload.reports);
    return applied;
  }
  void on_internal(const EventRecord& event) override {
    inner_.on_internal(event);
  }
  void on_delivery_confirmed(ProcId dest) override {
    inner_.on_delivery_confirmed(dest);
  }
  Interval estimate(LocalTime now) const override {
    return inner_.estimate(now);
  }
  CsaStats stats() const override { return inner_.stats(); }
  const char* name() const override { return "tally"; }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }

 private:
  OptimalCsa inner_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

enum class Flavor { kPlain, kLossTolerant, kCrossValidation };

void expect_accounting_on_a_mesh(Flavor flavor, std::uint64_t seed) {
  workloads::TopoParams params;
  params.rho = 1e-4;
  params.latency = sim::LatencyModel::uniform(0.001, 0.02);
  OptimalCsa::Options opts;
  sim::SimConfig config;
  config.seed = seed;
  if (flavor == Flavor::kLossTolerant) {
    params.loss_prob = 0.1;
    opts.loss_tolerant = true;
    config.detection_timeout = 0.1;
  }
  opts.cross_validation = flavor == Flavor::kCrossValidation;
  const workloads::Network net = workloads::make_random(7, 4, seed, params);
  sim::Simulator sim(net.spec, net.links, config);
  Rng rng(seed + 1);
  std::vector<const TallyCsa*> tallies;
  for (ProcId p = 0; p < net.spec.num_procs(); ++p) {
    const double rho = net.spec.clock(p).rho;
    auto tally = std::make_unique<TallyCsa>(opts);
    tallies.push_back(tally.get());
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(std::move(tally));
    sim.attach_node(
        p,
        p == net.spec.source()
            ? sim::ClockModel::constant(0.0, 1.0)
            : sim::ClockModel::constant(rng.uniform(-5.0, 5.0),
                                        1.0 + rng.uniform(-rho, rho)),
        std::make_unique<workloads::GossipApp>(
            workloads::GossipApp::Config{0.2, 0.3}),
        std::move(csas));
  }
  sim.run_until(30.0);
  std::uint64_t sent = 0;
  for (ProcId p = 0; p < tallies.size(); ++p) {
    SCOPED_TRACE("processor " + std::to_string(p));
    const CsaStats s = tallies[p]->stats();
    EXPECT_GT(tallies[p]->sent(), 0u);
    EXPECT_GT(tallies[p]->received(), 0u);
    EXPECT_EQ(s.payload_bytes_sent, tallies[p]->sent());
    EXPECT_EQ(s.payload_bytes_received, tallies[p]->received());
    sent += tallies[p]->sent();
  }
  EXPECT_GT(sent, 10'000u);
}

class PayloadAccountingTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PayloadAccountingTest, PlainMeshCountsEveryBatchSentAndApplied) {
  expect_accounting_on_a_mesh(Flavor::kPlain, GetParam());
}

TEST_P(PayloadAccountingTest, LossTolerantMeshCountsEveryBatchSentAndApplied) {
  expect_accounting_on_a_mesh(Flavor::kLossTolerant, GetParam());
}

TEST_P(PayloadAccountingTest,
       CrossValidatedMeshCountsEveryBatchSentAndApplied) {
  expect_accounting_on_a_mesh(Flavor::kCrossValidation, GetParam());
}

// Gossip on the path 0 - 1 - 2 with a defended victim at 2: before each
// honest batch from 1, two forgeries of it are refused, one by the engine
// (a record moved 1000 s back) and one by the history (a foreign
// processor).  Only the honest batches count.
TEST_P(PayloadAccountingTest, RefusedBatchesCountNothing) {
  const SystemSpec spec = testing::line_spec(3, 1e-4, 0.001, 0.02);
  Rng rng(GetParam());
  EventFactory fac(3);
  OptimalCsa::Options defended;
  defended.loss_tolerant = true;
  defended.cross_validation = true;
  OptimalCsa p1;
  TallyCsa victim(defended);
  p1.init(spec, 1);
  victim.init(spec, 2);
  double now = 1.0;
  bool heard_from_1 = false;
  std::size_t refused = 0;
  for (int step = 0; step < 200; ++step) {
    now += rng.uniform(0.01, 0.1);
    if (rng.flip(0.3)) {
      const EventRecord send = fac.send(2, now, 1);
      const CsaPayload payload = victim.on_send(SendContext{2, 1, send, 0});
      now += rng.uniform(0.002, 0.019);
      p1.on_receive(RecvContext{1, 2, fac.receive(1, now, send), send, 0},
                    payload);
      victim.on_delivery_confirmed(1);
      continue;
    }
    if (rng.flip(0.3)) p1.on_internal(fac.internal(1, now));
    const EventRecord send = fac.send(1, now, 2);
    const CsaPayload payload = p1.on_send(SendContext{1, 2, send, 0});
    now += rng.uniform(0.002, 0.019);
    const RecvContext ctx{2, 1, fac.receive(2, now, send), send, 0};
    // Once the victim holds an event of 1, a send of 1 moved back runs
    // 1's clock backwards.
    if (heard_from_1) {
      CsaPayload backwards = payload;
      backwards.reports.back().lt -= 1000.0;
      CsaPayload foreign = payload;
      foreign.reports.front().id.proc = 50;
      for (const CsaPayload* lie : {&backwards, &foreign}) {
        const std::uint64_t before = victim.stats().payload_bytes_received;
        EXPECT_FALSE(victim.on_receive_validated(ctx, *lie));
        EXPECT_EQ(victim.stats().payload_bytes_received, before);
        ++refused;
      }
    }
    EXPECT_TRUE(victim.on_receive_validated(ctx, payload));
    heard_from_1 = true;
  }
  EXPECT_GT(refused, 100u);
  EXPECT_EQ(victim.stats().cross_check_failures, refused);
  EXPECT_GT(victim.received(), 0u);
  EXPECT_EQ(victim.stats().payload_bytes_received, victim.received());
  EXPECT_EQ(victim.stats().payload_bytes_sent, victim.sent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadAccountingTest,
                         ::testing::Values(3u, 17u, 101u));

// ---------------------------------------------------------------------------
// The GC sweep against a full-sweep reference

/// Figure 2 in loss-tolerant mode, written the plain way: every sweep
/// visits all of H_v (find_if, then remove_if), and save() encodes H_v
/// from scratch.  Its image follows HistoryProtocol::save's layout.
class FullSweepHistory {
 public:
  FullSweepHistory(const SystemSpec& spec, ProcId self)
      : self_(self), known_(spec.num_procs(), -1) {
    for (const ProcId u : spec.neighbors(self)) {
      neighbors_.push_back(
          Neighbor{u, std::vector<std::int64_t>(spec.num_procs(), -1), {}, 0});
    }
  }

  void record_own_event(const EventRecord& e) {
    known_[self_] = e.id.seq;
    append(e);
  }

  EventBatch fill_message(ProcId dest, const EventRecord& send) {
    record_own_event(send);
    Neighbor& ns = neighbor(dest);
    if (ns.n_pending++ == 0) {
      ns.pending_min = ns.c;
    } else {
      for (std::size_t w = 0; w < ns.c.size(); ++w) {
        ns.pending_min[w] = std::min(ns.pending_min[w], ns.c[w]);
      }
    }
    EventBatch batch;
    for (const EventRecord& p : history_) {
      if (static_cast<std::int64_t>(p.id.seq) > ns.c[p.id.proc]) {
        batch.push_back(p);
      }
    }
    reports_sent_ += batch.size();
    ns.c = known_;
    sweep();
    return batch;
  }

  /// Merges `batch` (loss-tolerant: gaps are dropped); with `commit` the
  /// sweep runs and `recv` is recorded, else the state is left as it was.
  void receive(ProcId from, const EventBatch& batch, bool commit,
               const EventRecord& recv) {
    if (!commit) return;  // A rolled-back receive leaves no trace.
    Neighbor& ns = neighbor(from);
    for (const EventRecord& p : batch) {
      const auto seq = static_cast<std::int64_t>(p.id.seq);
      ns.c[p.id.proc] = std::max(ns.c[p.id.proc], seq);
      if (seq <= known_[p.id.proc]) {
        ++duplicates_;
        continue;
      }
      const bool needs_match =
          p.kind == EventKind::kReceive || p.kind == EventKind::kLossDecl;
      if (seq != known_[p.id.proc] + 1 ||
          (needs_match &&
           static_cast<std::int64_t>(p.match.seq) > known_[p.match.proc])) {
        ++gaps_;
        continue;
      }
      known_[p.id.proc] = seq;
      append(p);
    }
    sweep();
    record_own_event(recv);
  }

  void confirm_delivery(ProcId dest) {
    Neighbor& ns = neighbor(dest);
    if (--ns.n_pending == 0) ns.pending_min.clear();
    sweep();
  }

  void handle_loss(ProcId dest) {
    Neighbor& ns = neighbor(dest);
    for (std::size_t w = 0; w < ns.c.size(); ++w) {
      ns.c[w] = std::min(ns.c[w], ns.pending_min[w]);
    }
    if (--ns.n_pending == 0) ns.pending_min.clear();
  }

  const std::vector<EventRecord>& buffer() const { return history_; }

  std::vector<std::uint8_t> save() const {
    std::vector<std::uint8_t> out;
    const auto seqs = [&out](const std::vector<std::int64_t>& v) {
      for (const std::int64_t s : v) {
        wire::put_varint(out, static_cast<std::uint64_t>(s + 1));
      }
    };
    wire::put_varint(out, 0xD5711);
    wire::put_varint(out, self_);
    wire::put_varint(out, known_.size());
    seqs(known_);
    wire::put_varint(out, neighbors_.size());
    for (const Neighbor& ns : neighbors_) {
      wire::put_varint(out, ns.id);
      seqs(ns.c);
      wire::put_varint(out, ns.n_pending);
      if (ns.n_pending > 0) seqs(ns.pending_min);
    }
    const std::vector<std::uint8_t> image = wire::encode_batch(history_);
    wire::put_varint(out, image.size());
    out.insert(out.end(), image.begin(), image.end());
    wire::put_varint(out, max_history_);
    wire::put_varint(out, reports_sent_);
    wire::put_varint(out, duplicates_);
    wire::put_varint(out, gaps_);
    return out;
  }

 private:
  struct Neighbor {
    ProcId id;
    std::vector<std::int64_t> c;
    std::vector<std::int64_t> pending_min;
    std::size_t n_pending;
  };

  Neighbor& neighbor(ProcId u) {
    return *std::find_if(neighbors_.begin(), neighbors_.end(),
                         [u](const Neighbor& ns) { return ns.id == u; });
  }

  void append(const EventRecord& e) {
    history_.push_back(e);
    max_history_ = std::max(max_history_, history_.size());
  }

  void sweep() {
    const auto known_to_all = [this](const EventRecord& p) {
      std::int64_t known = std::numeric_limits<std::int64_t>::max();
      for (const Neighbor& ns : neighbors_) {
        std::int64_t c = ns.c[p.id.proc];
        if (ns.n_pending > 0) c = std::min(c, ns.pending_min[p.id.proc]);
        known = std::min(known, c);
      }
      return static_cast<std::int64_t>(p.id.seq) <= known;
    };
    const auto first =
        std::find_if(history_.begin(), history_.end(), known_to_all);
    history_.erase(std::remove_if(first, history_.end(), known_to_all),
                   history_.end());
  }

  ProcId self_;
  std::vector<std::int64_t> known_;
  std::vector<Neighbor> neighbors_;
  std::vector<EventRecord> history_;
  std::size_t max_history_ = 0;
  std::size_t reports_sent_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t gaps_ = 0;
};

class HistorySweepDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Gossip on a 5-clique over FIFO links.  The oldest message on a link
// meets one of three fates: a delivery (confirmed to the sender), a loss
// (the sender rolls C back and records a loss declaration), or a receive
// the receiver rolls back (then treated as lost).  Now and then a
// processor is saved and reloaded into a fresh instance.
TEST_P(HistorySweepDifferentialTest, MatchesTheFullSweepAfterEveryHook) {
  constexpr std::size_t kProcs = 5;
  const SystemSpec spec = testing::clique_spec(kProcs);
  Rng rng(GetParam());
  EventFactory fac(kProcs);
  HistoryProtocol::Options opts;
  opts.loss_tolerant = true;
  std::vector<std::unique_ptr<HistoryProtocol>> real;
  std::vector<FullSweepHistory> ref;
  for (ProcId p = 0; p < kProcs; ++p) {
    real.push_back(std::make_unique<HistoryProtocol>(spec, p, opts));
    ref.emplace_back(spec, p);
  }
  struct InFlight {
    EventRecord send;
    EventBatch batch;
  };
  std::vector<std::deque<InFlight>> links(kProcs * kProcs);
  std::vector<double> lt(kProcs, 0.0);
  std::size_t hooks = 0;
  std::size_t removals = 0;
  std::size_t idle_sweeps = 0;

  const auto check = [&](ProcId p, const char* hook) {
    ++hooks;
    SCOPED_TRACE(std::string(hook) + " at processor " + std::to_string(p) +
                 ", hook " + std::to_string(hooks));
    const std::span<const EventRecord> have = real[p]->buffer();
    ASSERT_TRUE(std::equal(have.begin(), have.end(), ref[p].buffer().begin(),
                           ref[p].buffer().end()));
    std::vector<std::uint8_t> image;
    real[p]->save(image);
    ASSERT_EQ(image, ref[p].save());
    ASSERT_EQ(real[p]->audit(), "");
  };
  // Tallies whether p's last sweep removed anything: `size_before` is
  // p's buffer size going into it.
  const auto swept = [&](ProcId p, std::size_t size_before) {
    if (real[p]->history_size() < size_before) {
      ++removals;
    } else {
      ++idle_sweeps;
    }
  };

  for (int step = 0; step < 4000; ++step) {
    const ProcId v = static_cast<ProcId>(rng.uniform_index(kProcs));
    lt[v] += rng.uniform(0.01, 0.1);
    const double action = rng.next_double();
    if (action < 0.1) {
      const EventRecord e = fac.internal(v, lt[v]);
      real[v]->record_own_event(e);
      ref[v].record_own_event(e);
      ASSERT_NO_FATAL_FAILURE(check(v, "internal"));
    } else if (action < 0.5) {
      ProcId u = static_cast<ProcId>(rng.uniform_index(kProcs - 1));
      if (u >= v) ++u;
      const EventRecord s = fac.send(v, lt[v], u);
      const std::size_t before = real[v]->history_size() + 1;
      const EventBatch batch = real[v]->fill_message(u, s);
      ASSERT_EQ(batch, ref[v].fill_message(u, s));
      swept(v, before);
      links[v * kProcs + u].push_back({s, batch});
      ASSERT_NO_FATAL_FAILURE(check(v, "send"));
    } else if (action < 0.97) {
      // The oldest message on a busy link into v meets its fate.
      ProcId from = static_cast<ProcId>(rng.uniform_index(kProcs));
      for (std::size_t k = 0; k < kProcs; ++k) {
        if (!links[from * kProcs + v].empty()) break;
        from = static_cast<ProcId>((from + 1) % kProcs);
      }
      std::deque<InFlight>& link = links[from * kProcs + v];
      if (link.empty()) continue;
      const InFlight msg = link.front();
      link.pop_front();
      const double fate = rng.next_double();
      bool delivered = false;
      if (fate < 0.9) {
        ASSERT_EQ(real[v]->begin_receive(from, msg.batch),
                  MergeVerdict::kMerged);
        const bool commit = fate < 0.8;
        const EventRecord recv =
            commit ? fac.receive(v, lt[v], msg.send) : EventRecord{};
        const std::size_t before = real[v]->history_size();
        if (commit) {
          real[v]->commit_receive(recv);
          swept(v, before + 1);
        } else {
          real[v]->rollback_receive();
        }
        ref[v].receive(from, msg.batch, commit, recv);
        ASSERT_NO_FATAL_FAILURE(check(v, commit ? "commit" : "rollback"));
        delivered = commit;
      }
      lt[from] = std::max(lt[from], lt[v]) + 0.01;
      if (delivered) {
        const std::size_t before = real[from]->history_size();
        real[from]->confirm_delivery(v);
        ref[from].confirm_delivery(v);
        swept(from, before);
        ASSERT_NO_FATAL_FAILURE(check(from, "confirm_delivery"));
      } else {
        real[from]->handle_loss(v);
        ref[from].handle_loss(v);
        ASSERT_NO_FATAL_FAILURE(check(from, "handle_loss"));
        const EventRecord decl = fac.loss_decl(from, lt[from], msg.send);
        real[from]->record_own_event(decl);
        ref[from].record_own_event(decl);
        ASSERT_NO_FATAL_FAILURE(check(from, "loss declaration"));
      }
    } else {
      // Restart from a checkpoint: the reloaded instance must carry on.
      std::vector<std::uint8_t> image;
      real[v]->save(image);
      auto reloaded = std::make_unique<HistoryProtocol>(spec, v, opts);
      std::size_t offset = 0;
      reloaded->load(image, offset);
      ASSERT_EQ(offset, image.size());
      real[v] = std::move(reloaded);
      ASSERT_NO_FATAL_FAILURE(check(v, "load"));
    }
  }
  EXPECT_GT(hooks, 3000u);
  // Both kinds of sweep ran: ones that removed records and ones that
  // found nothing to remove and returned early.
  EXPECT_GT(removals, 50u) << idle_sweeps;
  EXPECT_GT(idle_sweeps, 500u) << removals;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistorySweepDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace driftsync
