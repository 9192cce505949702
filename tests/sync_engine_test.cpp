// Tests for SyncEngine: the AGDP reduction (Section 3.1/3.2).  Liveness must
// match Definition 3.1 (checked against View), distances must match batch
// Bellman-Ford over the full view (Lemma 3.4), and estimates must equal the
// Section 2.3 formula.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/sync_engine.h"
#include "core/view.h"
#include "core/wire.h"
#include "graph/shortest_paths.h"
#include "test_util.h"

namespace driftsync {
namespace {

using testing::EventFactory;
using testing::clique_spec;
using testing::line_spec;

// Feeds the same records to a SyncEngine and a View, and cross-checks.
class EngineHarness {
 public:
  EngineHarness(const SystemSpec& spec, ProcId self)
      : spec_(&spec), engine_(spec, self), view_(&spec) {}

  void ingest(const EventRecord& r) {
    EXPECT_EQ(engine_.ingest(r), IngestVerdict::kApplied);
    view_.add(r);
  }

  void check_liveness() const {
    auto expected = view_.live_points();
    auto actual = engine_.live_points();
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(actual, expected);
  }

  void check_distances() const {
    const View::SyncGraph sg = view_.build_sync_graph();
    for (const EventId p : engine_.live_points()) {
      const auto res = graph::bellman_ford(sg.graph, sg.index_of.at(p));
      ASSERT_FALSE(res.negative_cycle);
      for (const EventId q : engine_.live_points()) {
        const double expected = res.dist[sg.index_of.at(q)];
        const double actual = engine_.distance(p, q);
        EXPECT_TRUE(time_close(expected, actual))
            << "d(" << p.str() << "," << q.str() << ") engine=" << actual
            << " oracle=" << expected;
      }
    }
  }

  SyncEngine& engine() { return engine_; }
  View& view() { return view_; }

 private:
  const SystemSpec* spec_;
  SyncEngine engine_;
  View view_;
};

TEST(SyncEngineTest, EmptyEngineKnowsNothing) {
  const SystemSpec spec = line_spec(2);
  SyncEngine engine(spec, 1);
  EXPECT_FALSE(engine.knows_source());
  EXPECT_EQ(engine.estimate(100.0), Interval::everything());
  EXPECT_EQ(engine.live_count(), 0u);
}

TEST(SyncEngineTest, SourceEstimatesItselfExactly) {
  const SystemSpec spec = line_spec(2);
  SyncEngine engine(spec, 0);
  EventFactory fac(2);
  EXPECT_EQ(engine.ingest(fac.send(0, 5.0, 1)), IngestVerdict::kApplied);
  const Interval est = engine.estimate(7.5);
  EXPECT_TRUE(intervals_close(est, Interval::point(7.5)));
}

TEST(SyncEngineTest, SingleMessageBoundsMatchTheorem) {
  // Source sends at LT 10 over a link with transit in [0.2, 1.0]; receiver
  // clock reads 100 at the receive, drift 1e-3.
  const SystemSpec spec = line_spec(2, 1e-3, 0.2, 1.0);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 100.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  // At the receive point: RT in [10 + 0.2, 10 + 1.0].
  const Interval est = engine.estimate(100.0);
  EXPECT_TRUE(intervals_close(est, Interval{10.2, 11.0}));
}

TEST(SyncEngineTest, EstimateWidensBetweenEvents) {
  const SystemSpec spec = line_spec(2, 1e-3, 0.2, 1.0);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 100.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  const Interval at_event = engine.estimate(100.0);
  const Interval later = engine.estimate(110.0);
  // Extrapolation: lo advances by dl/(1+rho), hi by dl/(1-rho).
  EXPECT_NEAR(later.lo, at_event.lo + 10.0 / 1.001, 1e-9);
  EXPECT_NEAR(later.hi, at_event.hi + 10.0 / 0.999, 1e-9);
  EXPECT_GT(later.width(), at_event.width());
}

TEST(SyncEngineTest, RoundTripTightensUpperSide) {
  // Only lower transit bounds (max unbounded): a one-way message gives a
  // one-sided estimate; the round trip closes the interval.
  const SystemSpec spec = line_spec(2, 1e-3, 0.1, kNoBound);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s1 = fac.send(1, 50.0, 0);   // my probe
  EXPECT_EQ(engine.ingest(s1), IngestVerdict::kApplied);
  EXPECT_EQ(engine.estimate(50.0), Interval::everything());
  const EventRecord r1 = fac.receive(0, 20.0, s1);  // source receives
  const EventRecord s2 = fac.send(0, 20.5, 1);      // source replies
  const EventRecord r2 = fac.receive(1, 51.2, s2);  // I receive
  EXPECT_EQ(engine.ingest(r1), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(s2), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r2), IngestVerdict::kApplied);
  const Interval est = engine.estimate(51.2);
  EXPECT_TRUE(est.bounded());
  // lo: source reply sent at RT 20.5, took >= 0.1.
  EXPECT_NEAR(est.lo, 20.6, 1e-9);
  // hi: my probe left at my 50.0, arrived at source RT 20.0 after >= 0.1,
  // so RT(my send) <= 19.9; my elapsed local 1.2 maps to <= 1.2/(1-rho).
  EXPECT_NEAR(est.hi, 19.9 + 1.2 / 0.999, 1e-6);
}

TEST(SyncEngineTest, LivenessMatchesViewOnHandSequence) {
  const SystemSpec spec = line_spec(3, 1e-4, 0.0, 1.0);
  EngineHarness h(spec, 1);
  EventFactory fac(3);
  const EventRecord s = fac.send(0, 1.0, 1);
  const EventRecord r = fac.receive(1, 1.5, s);
  const EventRecord s2 = fac.send(1, 2.0, 2);
  h.ingest(s);
  h.check_liveness();
  h.ingest(r);
  h.check_liveness();  // s dead (receive seen, superseded)... unless last
  h.ingest(s2);
  h.check_liveness();
  EXPECT_TRUE(h.engine().is_live(s2.id));  // pending send
  EXPECT_FALSE(h.engine().is_live(r.id));  // superseded receive
}

TEST(SyncEngineTest, PendingSendStaysLiveUntilReceiveIngested) {
  const SystemSpec spec = line_spec(3, 1e-4, 0.0, 1.0);
  EngineHarness h(spec, 1);
  EventFactory fac(3);
  const EventRecord s = fac.send(1, 1.0, 2);
  const EventRecord x = fac.internal(1, 2.0);
  h.ingest(s);
  h.ingest(x);
  EXPECT_TRUE(h.engine().is_live(s.id));
  const EventRecord r = fac.receive(2, 3.0, s);
  h.ingest(r);
  h.check_liveness();
  EXPECT_FALSE(h.engine().is_live(s.id));
}

TEST(SyncEngineTest, LossDeclarationKillsPendingSend) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.0, 1.0);
  EngineHarness h(spec, 0);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 1.0, 1);
  h.ingest(s);
  EXPECT_TRUE(h.engine().is_live(s.id));
  const EventRecord decl = fac.loss_decl(0, 2.0, s);
  h.ingest(decl);
  h.check_liveness();
  EXPECT_FALSE(h.engine().is_live(s.id));
  EXPECT_EQ(h.engine().live_count(), 1u);  // just the declaration point
}

// A sender's loss declaration can reach a view that already holds the
// receive, and then names the sender's last event, a send no longer
// pending.  The declaration takes that point's slot; the engine used to
// dereference the dropped send.
TEST(SyncEngineTest, LossDeclarationOfAReceivedPredecessor) {
  const SystemSpec spec = line_spec(2, 1e-4, 0.0, 1.0);
  EngineHarness h(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 1.0, 1);
  h.ingest(s);
  h.ingest(fac.receive(1, 1.5, s));
  h.ingest(fac.loss_decl(0, 2.0, s));
  h.check_liveness();
  h.check_distances();
  EXPECT_FALSE(h.engine().is_live(s.id));
  EXPECT_EQ(h.engine().live_count(), 2u);
}

// The engine's checkpoint image: a refused record must leave it unchanged.
std::vector<std::uint8_t> image_of(const SyncEngine& engine) {
  std::vector<std::uint8_t> out;
  engine.save(out);
  return out;
}

TEST(SyncEngineTest, OutOfOrderIngestThrows) {
  const SystemSpec spec = line_spec(2);
  SyncEngine engine(spec, 0);
  EventFactory fac(2);
  fac.internal(0, 1.0);  // consume seq 0
  const std::vector<std::uint8_t> before = image_of(engine);
  EXPECT_EQ(engine.ingest(fac.internal(0, 2.0)), IngestVerdict::kSequenceGap);
  EXPECT_EQ(image_of(engine), before);
}

TEST(SyncEngineTest, ReceiveWithoutSendThrows) {
  const SystemSpec spec = line_spec(2);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 1.0, 1);
  const std::vector<std::uint8_t> before = image_of(engine);
  EXPECT_EQ(engine.ingest(fac.receive(1, 2.0, s)),
            IngestVerdict::kUnmatchedReceive);
  EXPECT_EQ(image_of(engine), before);
}

TEST(SyncEngineTest, BackwardClockThrows) {
  const SystemSpec spec = line_spec(2);
  SyncEngine engine(spec, 0);
  EventFactory fac(2);
  EXPECT_EQ(engine.ingest(fac.internal(0, 5.0)), IngestVerdict::kApplied);
  const std::vector<std::uint8_t> before = image_of(engine);
  EXPECT_EQ(engine.ingest(fac.internal(0, 4.0)),
            IngestVerdict::kClockBackwards);
  EXPECT_EQ(image_of(engine), before);
}

TEST(SyncEngineTest, InconsistentSpecDetected) {
  // Claim the link delivers within [0, 0.1] but stamp a round trip whose
  // local times are impossible under drift 0: a negative cycle.
  const SystemSpec spec = line_spec(2, 0.0, 0.0, 0.1);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 20.0, s);   // fine on its own
  const EventRecord s2 = fac.send(1, 20.1, 0);
  const EventRecord r2 = fac.receive(0, 10.05, s2);  // impossible: rt loops
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(s2), IngestVerdict::kApplied);
  const std::vector<std::uint8_t> before = image_of(engine);
  EXPECT_EQ(engine.ingest(r2), IngestVerdict::kNegativeCycle);
  EXPECT_EQ(image_of(engine), before);
}

TEST(SyncEngineTest, ProcessingSlackWidensTransitUpperBoundOnly) {
  // Same geometry as SingleMessageBoundsMatchTheorem, but the receive
  // record was minted 0.3 local seconds after the datagram arrived
  // (handler queueing).  Only the upper transit bound absorbs the slack.
  const SystemSpec spec = line_spec(2, 0.0, 0.2, 1.0);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 100.0, s, 0.3);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  const Interval est = engine.estimate(100.0);
  EXPECT_TRUE(intervals_close(est, Interval{10.2, 11.3}));
}

TEST(SyncEngineTest, ProcessingSlackAvoidsFalseNegativeCycle) {
  // A round trip pins the offset, then the reply's mint-to-mint "transit"
  // reads 0.25-0.35 s against a 0.1 s wire budget — exactly what a receive
  // that waited out a lock convoy looks like.  Without the slack the view
  // declares the (honest) execution inconsistent; with the handler latency
  // carried on the record it must ingest cleanly.
  const SystemSpec spec = line_spec(2, 0.0, 0.0, 0.1);
  SyncEngine engine(spec, 0);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 20.0, s);
  const EventRecord s2 = fac.send(1, 20.1, 0);
  const EventRecord r2 = fac.receive(0, 10.45, s2, 0.3);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(s2), IngestVerdict::kApplied);
  EventRecord r2_bad = r2;
  r2_bad.slack = 0.0;
  const std::vector<std::uint8_t> before = image_of(engine);
  EXPECT_EQ(engine.ingest(r2_bad), IngestVerdict::kNegativeCycle);
  EXPECT_EQ(image_of(engine), before);
  EXPECT_EQ(engine.ingest(r2), IngestVerdict::kApplied);
  // Death processing has collected the matched send and the superseded
  // receive: only the last event of each processor stays live.
  EXPECT_EQ(engine.live_count(), 2u);
}

TEST(SyncEngineTest, NegativeSlackThrows) {
  const SystemSpec spec = line_spec(2, 0.0, 0.0, 0.1);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  EventRecord r = fac.receive(1, 20.0, s);
  r.slack = -0.1;
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  const std::vector<std::uint8_t> before = image_of(engine);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kBadSlack);
  EXPECT_EQ(image_of(engine), before);
}

TEST(SyncEngineTest, RtDifferenceBoundsMatchTheoremForm) {
  const SystemSpec spec = line_spec(2, 1e-3, 0.2, 1.0);
  SyncEngine engine(spec, 1);
  EventFactory fac(2);
  const EventRecord s = fac.send(0, 10.0, 1);
  const EventRecord r = fac.receive(1, 100.0, s);
  EXPECT_EQ(engine.ingest(s), IngestVerdict::kApplied);
  EXPECT_EQ(engine.ingest(r), IngestVerdict::kApplied);
  const Interval b = engine.rt_difference_bounds(r.id, s.id);
  // RT(r) - RT(s) in [0.2, 1.0] exactly (the transit bounds).
  EXPECT_TRUE(intervals_close(b, Interval{0.2, 1.0}));
}

// Property: random causally consistent multi-processor histories, engine
// distances/liveness always match the batch recomputation.
class SyncEnginePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SyncEnginePropertyTest, MatchesViewOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 77);
  const std::size_t n = 3 + rng.uniform_index(3);
  const SystemSpec spec = clique_spec(n, 1e-3, 0.05, 2.0);
  EngineHarness h(spec, 0);
  EventFactory fac(n);

  // Ground-truth-ish per-proc local clocks advance as we generate.
  std::vector<double> lt(n, 0.0);
  std::vector<EventRecord> pending_sends;
  for (int step = 0; step < 80; ++step) {
    const ProcId p = static_cast<ProcId>(rng.uniform_index(n));
    lt[p] += rng.uniform(0.01, 0.5);
    const double action = rng.next_double();
    if (action < 0.4) {
      ProcId q = static_cast<ProcId>(rng.uniform_index(n));
      if (q == p) q = static_cast<ProcId>((q + 1) % n);
      const EventRecord s = fac.send(p, lt[p], q);
      h.ingest(s);
      pending_sends.push_back(s);
    } else if (action < 0.8 && !pending_sends.empty()) {
      // Deliver a random pending send with a transit consistent with the
      // declared bounds AND the receiver's monotone clock (all clocks run at
      // rate 1 here, so local numbers double as real times).
      const std::size_t k = rng.uniform_index(pending_sends.size());
      const EventRecord s = pending_sends[k];
      const ProcId q = s.peer;
      const double min_transit = std::max(0.05, lt[q] - s.lt);
      if (min_transit > 2.0) continue;  // undeliverable in-bounds: stays live
      pending_sends.erase(pending_sends.begin() +
                          static_cast<std::ptrdiff_t>(k));
      lt[q] = s.lt + rng.uniform(min_transit, 2.0);
      h.ingest(fac.receive(q, lt[q], s));
    } else {
      h.ingest(fac.internal(p, lt[p]));
    }
    if (step % 16 == 15) {
      h.check_liveness();
      h.check_distances();
    }
  }
  h.check_liveness();
  h.check_distances();
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, SyncEnginePropertyTest,
                         ::testing::Range(0, 12));

// ------------------------------------------------------- checkpoint image

// The engine image written the plain way, from the public interface: the
// frontiers, the live records as one encode_batch image behind its byte
// length, a flag byte each, then every distance through distance(), one
// put_double at a time, and the high-water mark.  `flags` holds what each
// send has seen (1: its receive, 2: a loss declaration).
std::vector<std::uint8_t> reference_image(
    const SyncEngine& engine, ProcId self, std::size_t num_procs,
    const std::map<EventId, std::uint8_t>& flags) {
  std::vector<std::uint8_t> out;
  wire::put_varint(out, 0xE5617);
  wire::put_varint(out, self);
  wire::put_varint(out, num_procs);
  for (ProcId p = 0; p < num_procs; ++p) {
    const EventId last = engine.last_event_of(p);
    wire::put_varint(out, last.valid() ? std::uint64_t{last.seq} + 1 : 0);
  }
  const std::vector<EventId> live = engine.live_points();
  EventBatch records;
  for (const EventId& id : live) records.push_back(*engine.live_record(id));
  const std::vector<std::uint8_t> batch = wire::encode_batch(records);
  wire::put_varint(out, batch.size());
  out.insert(out.end(), batch.begin(), batch.end());
  for (const EventId& id : live) {
    const auto it = flags.find(id);
    out.push_back(it == flags.end() ? 0 : it->second);
  }
  for (const EventId& a : live) {
    for (const EventId& b : live) {
      wire::put_double(out, engine.distance(a, b));
    }
  }
  wire::put_varint(out, engine.max_live_count());
  return out;
}

// Seeded histories on a 5-clique with sends, receives, loss declarations
// and internal events: after every record the engine's image must equal
// the reference byte for byte and be exactly saved_size() long.  In the
// keep_dead_nodes ablation, sends stay live after a receive or a loss
// declaration, so both flags reach the image.
void expect_images_match_reference(std::uint64_t seed, bool keep_dead,
                                   int steps) {
  const std::size_t n = 5;
  const ProcId self = 2;
  const SystemSpec spec = clique_spec(n, 1e-4, 0.05, 2.0);
  SyncEngine::Options opts;
  opts.keep_dead_nodes = keep_dead;
  SyncEngine engine(spec, self, opts);
  EventFactory fac(n);
  Rng rng(seed);
  std::vector<double> lt(n, 1.0);
  std::vector<EventRecord> pending;
  std::map<EventId, std::uint8_t> flags;
  std::size_t flagged = 0;
  const auto feed = [&](const EventRecord& r) {
    ASSERT_EQ(engine.ingest(r), IngestVerdict::kApplied);
    if (r.kind == EventKind::kReceive) flags[r.match] |= 1;
    if (r.kind == EventKind::kLossDecl) flags[r.match] |= 2;
    std::vector<std::uint8_t> image;
    engine.save(image);
    ASSERT_EQ(image.size(), engine.saved_size());
    ASSERT_EQ(image, reference_image(engine, self, n, flags))
        << "after " << r.id.str();
    for (const EventId& id : engine.live_points()) {
      flagged += flags.count(id);
    }
  };
  for (int step = 0; step < steps; ++step) {
    const auto p = static_cast<ProcId>(rng.uniform_index(n));
    lt[p] += rng.uniform(0.01, 0.3);
    const double action = rng.next_double();
    if (action < 0.4) {
      auto q = static_cast<ProcId>(rng.uniform_index(n - 1));
      if (q >= p) ++q;
      pending.push_back(fac.send(p, lt[p], q));
      feed(pending.back());
    } else if (action < 0.75 && !pending.empty()) {
      const std::size_t k = rng.uniform_index(pending.size());
      const EventRecord s = pending[k];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
      if (rng.flip(0.2)) {
        lt[s.id.proc] += 0.01;
        feed(fac.loss_decl(s.id.proc, lt[s.id.proc], s));
        continue;
      }
      const ProcId q = s.peer;
      const double min_transit = std::max(0.05, lt[q] - s.lt);
      if (min_transit > 2.0) continue;  // Undeliverable: stays pending.
      lt[q] = s.lt + rng.uniform(min_transit, 2.0);
      feed(fac.receive(q, lt[q], s));
    } else {
      feed(fac.internal(p, lt[p]));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(flagged, 0u);
}

TEST(SyncEngineCheckpointTest, ImageMatchesReferenceEncoding) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    SCOPED_TRACE(seed);
    expect_images_match_reference(seed, /*keep_dead=*/false, 300);
  }
}

TEST(SyncEngineCheckpointTest, AblationImageMatchesReferenceEncoding) {
  expect_images_match_reference(5, /*keep_dead=*/true, 120);
}

}  // namespace
}  // namespace driftsync
