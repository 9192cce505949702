// Steady-state SyncEngine::ingest allocates nothing (ROADMAP item 2).  This
// binary links the counting operator-new hook (driftsync_allochook), so
// alloc_stats::allocations() sees every heap allocation in the process.
//
// The stream is a seeded gossip round on a 6-processor clique: each round
// every processor sends to a random peer, and every message of the previous
// round is received in a random order.  The live set (each processor's last
// event plus its pending sends) and the live handles' age span are both
// bounded, so once the engine has warmed up its matrix, slot index and
// per-processor live lists have all stopped growing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_stats.h"
#include "common/rng.h"
#include "core/sync_engine.h"
#include "test_util.h"

namespace driftsync {
namespace {

using testing::EventFactory;
using testing::clique_spec;

class GossipStream {
 public:
  GossipStream(std::size_t n, std::uint64_t seed)
      : n_(n), rng_(seed), fac_(n) {
    in_flight_.reserve(2 * n);
    next_.reserve(2 * n);
  }

  /// Feeds one round to `engine`; returns the number of records ingested.
  /// All clocks run at rate 1, so local times double as real times: sends
  /// happen in [r, r + 0.1) and receives in [r + 0.5, r + 0.6), a transit
  /// of ~1.5 s inside the spec's [0.05, 2] bounds.
  std::size_t round(SyncEngine& engine) {
    const auto t = static_cast<double>(round_++);
    std::size_t fed = 0;
    for (ProcId p = 0; p < n_; ++p) {
      auto q = static_cast<ProcId>(rng_.uniform_index(n_ - 1));
      if (q >= p) ++q;
      next_.push_back(fac_.send(p, t + 0.01 * p, q));
      engine.ingest(next_.back());
      ++fed;
    }
    for (std::size_t k = in_flight_.size(); k > 0; --k) {
      std::swap(in_flight_[k - 1], in_flight_[rng_.uniform_index(k)]);
      const EventRecord& s = in_flight_[k - 1];
      engine.ingest(
          fac_.receive(s.peer, t + 0.5 + 0.01 * static_cast<double>(fed), s));
      ++fed;
    }
    in_flight_.swap(next_);
    next_.clear();
    return fed;
  }

 private:
  std::size_t n_;
  Rng rng_;
  EventFactory fac_;
  std::uint64_t round_ = 0;
  std::vector<EventRecord> in_flight_;
  std::vector<EventRecord> next_;
};

TEST(SyncEngineAllocTest, SteadyStateIngestAllocatesNothing) {
  ASSERT_TRUE(alloc_stats::hooked());
  const SystemSpec spec = clique_spec(6, 1e-3, 0.05, 2.0);
  SyncEngine engine(spec, 1);
  GossipStream stream(6, 2024);
  for (int r = 0; r < 200; ++r) stream.round(engine);

  const std::uint64_t before = alloc_stats::allocations();
  std::size_t fed = 0;
  for (int r = 0; r < 2000; ++r) fed += stream.round(engine);
  const std::uint64_t allocs = alloc_stats::allocations() - before;

  EXPECT_EQ(fed, 2000u * 12u);
  EXPECT_EQ(allocs, 0u) << "over " << fed << " ingests";
  EXPECT_TRUE(engine.knows_source());
  EXPECT_LE(engine.max_live_count(), 2u * 6u + 1u);
}

}  // namespace
}  // namespace driftsync
