// Tests for checkpoint/restore of the optimal CSA: a restored instance must
// be indistinguishable from one that never restarted.  The Node-level suite
// at the bottom covers the membership dimension of the image (DESIGN.md
// decision 19): a checkpoint written under one roster restoring under
// another.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>

#include "common/errors.h"
#include "common/rng.h"
#include "core/optimal_csa.h"
#include "runtime/hub.h"
#include "runtime/node.h"
#include "runtime/time_source.h"
#include "test_util.h"

namespace driftsync {
namespace {

using testing::EventFactory;
using testing::line_spec;

/// Drives proc 0 (source) and proc 1 (client) through `rounds` exchanges,
/// feeding identical contexts to every CSA in `clients`; used to keep an
/// original and a restored instance in lockstep.
struct TwoNodeDriver {
  explicit TwoNodeDriver(const SystemSpec& spec_in)
      : spec(spec_in), fac(2) {
    source.init(spec, 0);
  }

  void round(std::vector<OptimalCsa*> clients, double t) {
    // Client probes source; source replies.
    const EventRecord probe = fac.send(1, 100.0 + t, 0);
    std::vector<CsaPayload> probe_payloads;
    for (OptimalCsa* c : clients) {
      probe_payloads.push_back(c->on_send(SendContext{1, 0, probe, 1}));
    }
    const EventRecord preq = fac.receive(0, t + 0.01, probe);
    source.on_receive(RecvContext{0, 1, preq, probe, 1}, probe_payloads[0]);
    const EventRecord resp = fac.send(0, t + 0.02, 1);
    const CsaPayload resp_payload =
        source.on_send(SendContext{0, 1, resp, 2});
    const EventRecord rresp = fac.receive(1, 100.0 + t + 0.03, resp);
    for (OptimalCsa* c : clients) {
      c->on_receive(RecvContext{1, 0, rresp, resp, 2}, resp_payload);
    }
    now = 100.0 + t + 0.03;
  }

  const SystemSpec& spec;
  EventFactory fac;
  OptimalCsa source;
  LocalTime now = 0.0;
};

TEST(CheckpointTest, RestoredInstanceContinuesIdentically) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  TwoNodeDriver driver(spec);
  OptimalCsa original;
  original.init(spec, 1);
  for (int i = 0; i < 5; ++i) driver.round({&original}, 1.0 + i);

  // Snapshot, restore into a fresh instance.
  const auto bytes = original.checkpoint();
  OptimalCsa restored;
  restored.init(spec, 1);
  restored.restore(bytes);

  // Identical immediately...
  EXPECT_TRUE(intervals_close(restored.estimate(driver.now),
                              original.estimate(driver.now), 1e-12));
  EXPECT_EQ(restored.engine().live_points(),
            original.engine().live_points());
  EXPECT_EQ(restored.history().history_size(),
            original.history().history_size());

  // ... and through ten more rounds of identical traffic.
  for (int i = 0; i < 10; ++i) {
    driver.round({&original, &restored}, 10.0 + i);
    const Interval a = original.estimate(driver.now);
    const Interval b = restored.estimate(driver.now);
    EXPECT_TRUE(intervals_close(a, b, 1e-12)) << a.str() << " vs " << b.str();
    EXPECT_EQ(restored.engine().live_points(),
              original.engine().live_points());
  }
}

TEST(CheckpointTest, SaveLoadSaveIsIdentity) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  TwoNodeDriver driver(spec);
  OptimalCsa original;
  original.init(spec, 1);
  for (int i = 0; i < 4; ++i) driver.round({&original}, 1.0 + i);
  const auto bytes = original.checkpoint();
  OptimalCsa restored;
  restored.init(spec, 1);
  restored.restore(bytes);
  EXPECT_EQ(restored.checkpoint(), bytes);
}

TEST(CheckpointTest, EmptyStateRoundTrips) {
  const SystemSpec spec = line_spec(3, 1e-4, 0.0, 1.0);
  OptimalCsa fresh;
  fresh.init(spec, 2);
  const auto bytes = fresh.checkpoint();
  OptimalCsa restored;
  restored.init(spec, 2);
  restored.restore(bytes);
  EXPECT_EQ(restored.estimate(5.0), Interval::everything());
  EXPECT_EQ(restored.checkpoint(), bytes);
}

TEST(CheckpointTest, WrongProcessorRejected) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  OptimalCsa a;
  a.init(spec, 1);
  const auto bytes = a.checkpoint();
  OptimalCsa b;
  b.init(spec, 0);
  EXPECT_THROW(b.restore(bytes), CheckpointError);
}

TEST(CheckpointTest, WrongSystemRejected) {
  const SystemSpec small = line_spec(2, 1e-4, 0.002, 0.03);
  const SystemSpec big = line_spec(4, 1e-4, 0.002, 0.03);
  OptimalCsa a;
  a.init(small, 1);
  const auto bytes = a.checkpoint();
  OptimalCsa b;
  b.init(big, 1);
  EXPECT_THROW(b.restore(bytes), CheckpointError);
}

TEST(CheckpointTest, TruncationRejected) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  TwoNodeDriver driver(spec);
  OptimalCsa a;
  a.init(spec, 1);
  driver.round({&a}, 1.0);
  auto bytes = a.checkpoint();
  bytes.resize(bytes.size() / 2);
  OptimalCsa b;
  b.init(spec, 1);
  EXPECT_THROW(b.restore(bytes), CheckpointError);
}

TEST(CheckpointTest, TrailingBytesRejected) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  OptimalCsa a;
  a.init(spec, 1);
  auto bytes = a.checkpoint();
  bytes.push_back(0);
  OptimalCsa b;
  b.init(spec, 1);
  EXPECT_THROW(b.restore(bytes), CheckpointError);
}

TEST(CheckpointTest, FailedRestoreLeavesInstanceUnmodified) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  TwoNodeDriver driver(spec);
  OptimalCsa original;
  original.init(spec, 1);
  for (int i = 0; i < 3; ++i) driver.round({&original}, 1.0 + i);
  const auto bytes = original.checkpoint();

  OptimalCsa target;
  target.init(spec, 1);
  // Sample single-byte corruptions across the whole image: each attempt
  // must either throw the recoverable CheckpointError (anything else —
  // notably a DS_CHECK logic_error — fails the test) or accept a state the
  // engine can still query.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0xff;
    OptimalCsa probe;
    probe.init(spec, 1);
    try {
      probe.restore(bad);
      (void)probe.estimate(std::numeric_limits<double>::max());
    } catch (const CheckpointError&) {
      // Rejected: the failed load must have left the instance pristine.
      EXPECT_EQ(probe.engine().live_count(), 0u) << "byte " << i;
      EXPECT_EQ(probe.history().history_size(), 0u) << "byte " << i;
      probe.restore(bytes);  // still a usable fresh instance
      EXPECT_EQ(probe.checkpoint(), bytes) << "byte " << i;
    }
  }

  // Truncation mid-image: target stays fresh and then accepts the good one.
  auto truncated = bytes;
  truncated.resize(bytes.size() - 3);
  EXPECT_THROW(target.restore(truncated), CheckpointError);
  EXPECT_EQ(target.engine().live_count(), 0u);
  EXPECT_EQ(target.history().history_size(), 0u);
  target.restore(bytes);
  EXPECT_TRUE(intervals_close(target.estimate(driver.now),
                              original.estimate(driver.now), 1e-12));
}

/// Round-trip property on randomized engine states: random round counts,
/// random inter-round gaps, interleaved internal events; checkpoint →
/// restore → checkpoint must be the identity and the restored instance must
/// stay in lockstep with the original under further traffic.
class CheckpointPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointPropertyTest, RandomizedStatesRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * std::uint64_t{0x9E3779B97F4A7C15} + 11);
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  TwoNodeDriver driver(spec);
  OptimalCsa original;
  original.init(spec, 1);
  const int rounds = static_cast<int>(rng.uniform_index(8));
  double t = 1.0;
  for (int i = 0; i < rounds; ++i) {
    t += rng.uniform(0.05, 2.0);
    driver.round({&original}, t);
    if (rng.flip(0.3)) {
      driver.now += 0.001;
      original.on_internal(driver.fac.internal(1, driver.now));
    }
  }

  const auto bytes = original.checkpoint();
  OptimalCsa restored;
  restored.init(spec, 1);
  restored.restore(bytes);
  EXPECT_EQ(restored.checkpoint(), bytes);
  const LocalTime q = driver.now + rng.uniform(0.0, 1.0);
  EXPECT_TRUE(
      intervals_close(restored.estimate(q), original.estimate(q), 1e-12));
  EXPECT_EQ(restored.engine().live_points(), original.engine().live_points());

  t += rng.uniform(0.05, 2.0);
  driver.round({&original, &restored}, t);
  EXPECT_TRUE(intervals_close(restored.estimate(driver.now),
                              original.estimate(driver.now), 1e-12));
  EXPECT_EQ(restored.engine().live_points(), original.engine().live_points());
}

INSTANTIATE_TEST_SUITE_P(RandomizedStates, CheckpointPropertyTest,
                         ::testing::Range(0, 25));

TEST(CheckpointTest, LossTolerantStateRoundTrips) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.002, 0.03);
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  OptimalCsa a(opts);
  a.init(spec, 1);
  EventFactory fac(2);
  // One unresolved outstanding send (pending snapshot held).
  const EventRecord s = fac.send(1, 50.0, 0);
  a.on_send(SendContext{1, 0, s, 1});
  const auto bytes = a.checkpoint();
  OptimalCsa b(opts);
  b.init(spec, 1);
  b.restore(bytes);
  EXPECT_EQ(b.checkpoint(), bytes);
  // The restored instance can resolve the pending fate.
  b.on_delivery_confirmed(0);
}

// ---------------------------------------------------------------------------
// Node-level checkpoint × membership roster (DESIGN.md decision 19)

/// ctest runs from the build tree; keep checkpoint files CWD-relative and
/// clean them up so reruns start fresh.
struct CheckpointFile {
  std::string path;
  explicit CheckpointFile(const std::string& name) : path(name) {
    std::remove(path.c_str());
  }
  ~CheckpointFile() { std::remove(path.c_str()); }
};

/// Regression: a checkpoint written under roster {0, 2} restored under
/// roster {0} was rejected outright ("checkpoint names an unconfigured
/// peer"), so shrinking a deployment made every surviving node refuse to
/// boot.  The fixed load is transactional on the intersection: in-roster
/// peers restore as active, the rest are journaled — wire frontier kept
/// for a sound later rejoin, never resurrected, never a rejection.
TEST(NodeCheckpointRoster, SmallerRosterLoadsIntersectionAndJournalsRest) {
  const CheckpointFile ckpt("checkpoint_test_roster.ckpt");
  const SystemSpec spec = testing::line_spec(3, 5e-4, 0.0, 0.05);
  runtime::Hub hub(7);
  hub.set_link(0, 1, 0.0005, 0.003);

  auto make = [&](std::vector<ProcId> roster) {
    runtime::NodeConfig cfg = testing::node_config(1, spec);
    cfg.peers = std::move(roster);
    cfg.checkpoint_path = ckpt.path;
    return std::make_unique<runtime::Node>(
        std::move(cfg), testing::loss_tolerant_csa(),
        std::make_unique<runtime::ScaledTimeSource>(hub, 3.0, 1.0),
        hub.endpoint(1));
  };

  // The source keeps running across every node-1 restart, so own events
  // (and thus checkpoints) keep flowing in each phase.
  runtime::NodeConfig cfg0 = testing::node_config(0, spec);
  cfg0.peers = {1};
  runtime::Node source(std::move(cfg0), testing::loss_tolerant_csa(),
                       std::make_unique<runtime::ScaledTimeSource>(hub, 0.0,
                                                                   1.0),
                       hub.endpoint(0));
  source.start();

  auto node = make({0, 2});
  node->start();
  hub.run_for(0.25);
  ASSERT_GT(node->stats().checkpoints_written, 0u);
  node->stop();
  node.reset();

  // Peer 2 dropped from the roster: the image must load (intersection),
  // with peer 2's entry journaled rather than active or lost.
  auto shrunk = make({0});
  ASSERT_NO_THROW(shrunk->start());
  EXPECT_EQ(shrunk->stats().peers_journaled, 1u);
  EXPECT_NE(shrunk->stats_json().find("\"membership_journal\":1"),
            std::string::npos);
  // Run long enough to write a v2 image carrying the journaled entry.
  hub.run_for(0.25);
  ASSERT_GT(shrunk->stats().checkpoints_written, 0u);
  shrunk->stop();
  shrunk.reset();

  // Growing back to the full roster reactivates the journaled frontier:
  // nothing stays journaled, nothing was forgotten in between.
  auto full = make({0, 2});
  ASSERT_NO_THROW(full->start());
  EXPECT_EQ(full->stats().peers_journaled, 0u);
  full->stop();
  source.stop();
}

}  // namespace
}  // namespace driftsync
