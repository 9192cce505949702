// Steady-state SyncEngine::ingest allocates nothing, and neither does a
// warm validated OptimalCsa receive, applied or refused, with
// cross_validation on or off; a warm OptimalCsa::on_send allocates only
// the payload it returns, and a warm OptimalCsa::checkpoint() only the
// image it returns.  This binary links the counting
// operator-new hook (driftsync_allochook), so alloc_stats::allocations()
// sees every heap allocation in the process.
//
// The stream is a seeded gossip round on a 6-processor clique: each round
// every processor sends to a random peer, and every message of the previous
// round is received in a random order.  The live set (each processor's last
// event plus its pending sends) is bounded, so once the engine has warmed up
// its matrix, id tables and per-processor live lists have all stopped
// growing.  The steady-state ingest and the option-off receive also run
// beside one processor that reports once and then goes quiet: its last
// event stays live for good (Definition 3.1), so the live points' ages
// spread without bound while their number does not, and nothing may be
// sized by that spread.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_stats.h"
#include "common/rng.h"
#include "core/optimal_csa.h"
#include "core/sync_engine.h"
#include "test_util.h"

namespace driftsync {
namespace {

using testing::EventFactory;
using testing::clique_spec;

class GossipStream {
 public:
  /// With `last_goes_quiet`, processor n-1 sends once, in the first round,
  /// and nobody sends to it.
  GossipStream(std::size_t n, std::uint64_t seed, bool last_goes_quiet)
      : n_(n), active_(last_goes_quiet ? n - 1 : n), rng_(seed), fac_(n) {
    in_flight_.reserve(2 * n);
    next_.reserve(2 * n);
  }

  /// Feeds one round to `engine`; returns the number of records ingested.
  /// All clocks run at rate 1, so local times double as real times: sends
  /// happen in [r, r + 0.1) and receives in [r + 0.5, r + 0.6), a transit
  /// of ~1.5 s inside the spec's [0.05, 2] bounds.
  std::size_t round(SyncEngine& engine) {
    const bool first = round_ == 0;
    const auto t = static_cast<double>(round_++);
    std::size_t fed = 0;
    for (ProcId p = 0; p < n_; ++p) {
      if (p >= active_ && !first) continue;
      auto q = static_cast<ProcId>(rng_.uniform_index(active_ - 1));
      if (q >= p) ++q;
      next_.push_back(fac_.send(p, t + 0.01 * p, q));
      EXPECT_EQ(engine.ingest(next_.back()), IngestVerdict::kApplied);
      ++fed;
    }
    for (std::size_t k = in_flight_.size(); k > 0; --k) {
      std::swap(in_flight_[k - 1], in_flight_[rng_.uniform_index(k)]);
      const EventRecord& s = in_flight_[k - 1];
      EXPECT_EQ(engine.ingest(fac_.receive(
                    s.peer, t + 0.5 + 0.01 * static_cast<double>(fed), s)),
                IngestVerdict::kApplied);
      ++fed;
    }
    in_flight_.swap(next_);
    next_.clear();
    return fed;
  }

 private:
  std::size_t n_;
  std::size_t active_;  ///< Processors 0..active_-1 keep gossiping.
  Rng rng_;
  EventFactory fac_;
  std::uint64_t round_ = 0;
  std::vector<EventRecord> in_flight_;
  std::vector<EventRecord> next_;
};

void expect_steady_ingest_allocates_nothing(bool last_goes_quiet) {
  ASSERT_TRUE(alloc_stats::hooked());
  const SystemSpec spec = clique_spec(6, 1e-3, 0.05, 2.0);
  SyncEngine engine(spec, 1);
  GossipStream stream(6, 2024, last_goes_quiet);
  for (int r = 0; r < 200; ++r) stream.round(engine);

  const std::uint64_t before = alloc_stats::allocations();
  std::size_t fed = 0;
  for (int r = 0; r < 2000; ++r) fed += stream.round(engine);
  const std::uint64_t allocs = alloc_stats::allocations() - before;

  EXPECT_EQ(fed, 2000u * (last_goes_quiet ? 10u : 12u));
  EXPECT_EQ(allocs, 0u) << "over " << fed << " ingests";
  EXPECT_TRUE(engine.knows_source());
  EXPECT_LE(engine.max_live_count(), 2u * 6u + 1u);
  if (last_goes_quiet) {
    EXPECT_TRUE(engine.is_live(EventId{5, 0}));
  }
}

TEST(SyncEngineAllocTest, SteadyStateIngestAllocatesNothing) {
  expect_steady_ingest_allocates_nothing(/*last_goes_quiet=*/false);
}

TEST(SyncEngineAllocTest,
     SteadyStateIngestBesideASilentProcessorAllocatesNothing) {
  expect_steady_ingest_allocates_nothing(/*last_goes_quiet=*/true);
}

/// Seeded gossip on the path 0 - 1 - 2 around a defended (loss-tolerant,
/// validated-receive) OptimalCsa at processor 2.  The victim reports back
/// to 1 now and then, so its history buffer stays bounded.  The counters
/// see only the victim's on_receive_validated and checkpoint calls;
/// payloads, and a forged copy when asked for, are built before each call.
/// With `zero_goes_quiet`, 0 and 1 exchange one message, 0 to 1, and no
/// more, so 0's one event stays live in the victim's view for good.
class DefendedVictim {
 public:
  explicit DefendedVictim(std::uint64_t seed, bool cross_validation = true,
                          bool zero_goes_quiet = false)
      : spec_(testing::line_spec(3, 1e-4, 0.001, 0.02)),
        rng_(seed),
        fac_(3),
        zero_goes_quiet_(zero_goes_quiet),
        victim_([&] {
          OptimalCsa::Options opts;
          opts.loss_tolerant = true;
          opts.cross_validation = cross_validation;
          return opts;
        }()) {
    p0_.init(spec_, 0);
    p1_.init(spec_, 1);
    victim_.init(spec_, 2);
  }

  /// One gossip step; returns true when it delivered to the victim.  With
  /// `forge`, once the victim holds an event of 1, a copy of each message
  /// to it with the last record (1's send) moved 1000 s back is refused
  /// first.  The forgery draws nothing from the gossip's generator, so the
  /// stream, and with it the buffers' high-water marks, are the same with
  /// and without it.
  bool step(bool forge = false) {
    now_ += rng_.uniform(0.01, 0.1);
    const auto pick = rng_.uniform_index(4);
    const auto transit = [&] { now_ += rng_.uniform(0.002, 0.019); };
    if (pick < 2) {
      if (zero_goes_quiet_ && zero_spoke_) return false;
      zero_spoke_ = true;
      const ProcId from = pick == 0 || zero_goes_quiet_ ? 0 : 1;
      const ProcId to = 1 - from;
      OptimalCsa& s = from == 0 ? p0_ : p1_;
      OptimalCsa& r = from == 0 ? p1_ : p0_;
      const EventRecord send = fac_.send(from, now_, to);
      const CsaPayload payload = s.on_send(SendContext{from, to, send, 0});
      transit();
      const EventRecord recv = fac_.receive(to, now_, send);
      r.on_receive(RecvContext{to, from, recv, send, 0}, payload);
      return false;
    }
    if (pick == 2) {
      const EventRecord send = fac_.send(2, now_, 1);
      const std::uint64_t before = alloc_stats::allocations();
      const CsaPayload payload = victim_.on_send(SendContext{2, 1, send, 0});
      last_send_allocs_ = alloc_stats::allocations() - before;
      ++sends_;
      transit();
      const EventRecord recv = fac_.receive(1, now_, send);
      p1_.on_receive(RecvContext{1, 2, recv, send, 0}, payload);
      victim_.on_delivery_confirmed(1);
      return false;
    }
    const EventRecord send = fac_.send(1, now_, 2);
    const CsaPayload payload = p1_.on_send(SendContext{1, 2, send, 0});
    transit();
    const RecvContext ctx{2, 1, fac_.receive(2, now_, send), send, 0};
    if (forge && victim_.engine().last_event_of(1).valid()) {
      CsaPayload lie = payload;
      lie.reports.back().lt -= 1000.0;
      const std::uint64_t before = alloc_stats::allocations();
      const bool applied = victim_.on_receive_validated(ctx, lie);
      receive_allocs_ += alloc_stats::allocations() - before;
      EXPECT_FALSE(applied);
    }
    const std::uint64_t before = alloc_stats::allocations();
    const bool applied = victim_.on_receive_validated(ctx, payload);
    receive_allocs_ += alloc_stats::allocations() - before;
    EXPECT_TRUE(applied);
    return true;
  }

  const OptimalCsa& victim() const { return victim_; }
  std::uint64_t receive_allocs() const { return receive_allocs_; }
  std::size_t sends() const { return sends_; }
  /// Allocations made by the victim's last on_send.
  std::uint64_t last_send_allocs() const { return last_send_allocs_; }

 private:
  SystemSpec spec_;
  Rng rng_;
  EventFactory fac_;
  bool zero_goes_quiet_;
  bool zero_spoke_ = false;
  OptimalCsa p0_;
  OptimalCsa p1_;
  OptimalCsa victim_;
  double now_ = 1.0;
  std::uint64_t receive_allocs_ = 0;
  std::size_t sends_ = 0;
  std::uint64_t last_send_allocs_ = 0;
};

// Warm-up lets every buffer reach the run's high-water marks: the live
// set, the batch length and |H_v|.
constexpr int kWarmSteps = 2000;

TEST(OptimalCsaAllocTest, WarmCrossValidatedReceiveAllocatesNothing) {
  ASSERT_TRUE(alloc_stats::hooked());
  DefendedVictim run(7);
  for (int i = 0; i < kWarmSteps; ++i) run.step();
  const std::uint64_t warm = run.receive_allocs();
  std::size_t receives = 0;
  for (int i = 0; i < 4000; ++i) receives += run.step() ? 1U : 0U;
  EXPECT_GT(receives, 500u);
  EXPECT_EQ(run.receive_allocs() - warm, 0u)
      << "over " << receives << " receives";
  EXPECT_EQ(run.victim().stats().cross_check_failures, 0u);
}

// The rollback point does not depend on the option: with it off (the
// daemon's setting), a warm receive and a refused one allocate nothing
// either.  Warm-up refuses too, so both engines' buffers have grown.
void expect_warm_receive_and_refusal_allocate_nothing(bool zero_goes_quiet) {
  ASSERT_TRUE(alloc_stats::hooked());
  DefendedVictim run(7, /*cross_validation=*/false, zero_goes_quiet);
  for (int i = 0; i < kWarmSteps; ++i) run.step(/*forge=*/true);
  const std::uint64_t warm = run.receive_allocs();
  const std::uint64_t refused = run.victim().stats().cross_check_failures;
  std::size_t receives = 0;
  for (int i = 0; i < 4000; ++i) receives += run.step(true) ? 1U : 0U;
  EXPECT_GT(receives, 500u);
  EXPECT_EQ(run.victim().stats().cross_check_failures - refused, receives);
  EXPECT_EQ(run.receive_allocs() - warm, 0u)
      << "over " << receives << " receives and as many refusals";
  if (zero_goes_quiet) {
    EXPECT_TRUE(run.victim().engine().is_live(EventId{0, 0}));
  }
}

TEST(OptimalCsaAllocTest,
     WarmReceiveAndRefusalAllocateNothingWithoutCrossValidation) {
  expect_warm_receive_and_refusal_allocate_nothing(/*zero_goes_quiet=*/false);
}

TEST(OptimalCsaAllocTest,
     WarmReceiveAndRefusalBesideASilentProcessorAllocateNothing) {
  expect_warm_receive_and_refusal_allocate_nothing(/*zero_goes_quiet=*/true);
}

// A warm send allocates exactly its payload's record vector: the batch is
// sized before it is filled, and its byte count comes from the loop that
// fills it.
TEST(OptimalCsaAllocTest, WarmSendAllocatesOnlyThePayload) {
  ASSERT_TRUE(alloc_stats::hooked());
  DefendedVictim run(7);
  for (int i = 0; i < kWarmSteps; ++i) run.step();
  const std::size_t warm = run.sends();
  for (int i = 0; i < 4000; ++i) {
    const std::size_t sends = run.sends();
    run.step();
    if (run.sends() == sends) continue;
    ASSERT_EQ(run.last_send_allocs(), 1u) << "send " << run.sends() - warm;
  }
  EXPECT_GT(run.sends() - warm, 500u);
}

TEST(OptimalCsaAllocTest, CheckpointAllocatesOnlyTheImage) {
  ASSERT_TRUE(alloc_stats::hooked());
  DefendedVictim run(8);
  for (int i = 0; i < kWarmSteps; ++i) {
    run.step();
    (void)run.victim().checkpoint();  // Grows the history image cache.
  }
  std::size_t checkpoints = 0;
  for (int i = 0; i < 4000; ++i) {
    if (!run.step()) continue;
    const std::uint64_t before = alloc_stats::allocations();
    const std::vector<std::uint8_t> image = run.victim().checkpoint();
    ASSERT_EQ(alloc_stats::allocations() - before, 1u)
        << "checkpoint " << checkpoints << " of " << image.size() << " bytes";
    ASSERT_EQ(image.capacity(), image.size());
    ++checkpoints;
  }
  EXPECT_GT(checkpoints, 500u);
}

}  // namespace
}  // namespace driftsync
