// Property + oracle suite for the disciplined output clock (DESIGN.md
// decision 21).
//
// Three layers of lockdown:
//   * Unit behaviors: init snap, proportional steering, slew clamping,
//     continuity across re-steers, hold on unbounded input, the reading's
//     error bound and the stats-path drift integration.
//   * Randomized properties: 1000+ seeded sequences of interval updates —
//     adversarial midpoint jumps, quarantine-style widenings, collapses,
//     unbounded spells, and clock steps through a FaultyTimeSource — assert
//     monotonicity, the per-pair rate bound, and containment-when-feasible
//     via the production oracle check (InvariantOracle::disciplined_check),
//     so the test and the chaos harness share one definition of "legal".
//   * A golden transcript: one seeded sequence pins the steer() decisions,
//     rendered here, to the byte, so any steering-policy change is a
//     deliberate diff.
//
// The oracle check itself gets a teeth test: a NaiveSteppingClock double
// that snaps to the midpoint (what the disciplined clock refuses to do)
// must be caught as disciplined-rate / disciplined-monotone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "clock/disciplined_clock.h"
#include "common/interval.h"
#include "common/rng.h"
#include "runtime/chaos.h"
#include "runtime/node.h"
#include "runtime/oracle.h"
#include "runtime/time_source.h"

namespace driftsync::clock {
namespace {

using runtime::FaultyTimeSource;
using runtime::InvariantOracle;
using runtime::NodeSample;

// ---------------------------------------------------------------------------
// Unit behaviors.

TEST(DisciplinedClockTest, FreeRunsUntilFirstBoundedInterval) {
  DisciplinedClock clk;
  EXPECT_FALSE(clk.initialized());
  EXPECT_DOUBLE_EQ(clk.now(3.5), 3.5);  // Identity free-run.
  const SteerDecision d = clk.steer(4.0, Interval::everything());
  EXPECT_EQ(d.kind, SteerDecision::Kind::kHold);
  EXPECT_FALSE(clk.initialized());
  EXPECT_FALSE(clk.reading(4.0, Interval{1.0, 2.0}).initialized);
}

TEST(DisciplinedClockTest, InitSnapsToMidpointOnce) {
  DisciplinedClock clk;
  const SteerDecision d = clk.steer(5.0, Interval{10.0, 12.0});
  EXPECT_EQ(d.kind, SteerDecision::Kind::kInit);
  EXPECT_TRUE(clk.initialized());
  EXPECT_DOUBLE_EQ(d.out, 11.0);
  EXPECT_DOUBLE_EQ(d.rate, 1.0);
  EXPECT_DOUBLE_EQ(clk.now(5.0), 11.0);
  EXPECT_DOUBLE_EQ(clk.now(6.0), 12.0);  // Rate 1 until the next steer.
}

TEST(DisciplinedClockTest, SteersProportionallyTowardMidpoint) {
  DisciplineOptions opts;
  opts.max_slew = 1e-3;
  opts.steer_horizon = 10.0;
  DisciplinedClock clk(opts);
  clk.steer(0.0, Interval{100.0, 100.0});
  // Midpoint 1 ms ahead of the output: err/horizon = 1e-4, inside budget.
  const SteerDecision d = clk.steer(1.0, Interval{101.0005, 101.0015});
  EXPECT_EQ(d.kind, SteerDecision::Kind::kSteer);
  EXPECT_NEAR(d.error, 1e-3, 1e-12);
  EXPECT_NEAR(d.rate, 1.0 + 1e-4, 1e-12);
  EXPECT_FALSE(d.clamped);
}

TEST(DisciplinedClockTest, ClampsToSlewBudget) {
  DisciplineOptions opts;
  opts.max_slew = 5e-4;
  opts.steer_horizon = 1.0;
  DisciplinedClock clk(opts);
  clk.steer(0.0, Interval{50.0, 50.0});
  // A 2-second error cannot be corrected at 5e-4: the budget saturates.
  const SteerDecision d = clk.steer(1.0, Interval{53.0, 53.0});
  EXPECT_EQ(d.kind, SteerDecision::Kind::kSteer);
  EXPECT_TRUE(d.clamped);
  EXPECT_DOUBLE_EQ(d.rate, 1.0 + 5e-4);
  EXPECT_EQ(clk.accuracy().slew_clamps, 1u);
  // And symmetrically for a clock ahead of the interval.
  const SteerDecision d2 = clk.steer(2.0, Interval{40.0, 40.0});
  EXPECT_TRUE(d2.clamped);
  EXPECT_DOUBLE_EQ(d2.rate, 1.0 - 5e-4);
}

TEST(DisciplinedClockTest, OutputContinuousAcrossResteer) {
  DisciplinedClock clk;
  clk.steer(0.0, Interval{10.0, 10.0});
  const double before = clk.now(2.0);
  const SteerDecision d = clk.steer(2.0, Interval{90.0, 90.0});
  EXPECT_DOUBLE_EQ(d.out, before);  // Continuity: no step, only a new rate.
  EXPECT_DOUBLE_EQ(clk.now(2.0), before);
}

TEST(DisciplinedClockTest, HoldKeepsRateThroughUnboundedSpell) {
  DisciplinedClock clk;
  clk.steer(0.0, Interval{0.0, 0.0});
  const SteerDecision s = clk.steer(1.0, Interval{5.0, 5.0});
  ASSERT_EQ(s.kind, SteerDecision::Kind::kSteer);
  const SteerDecision h = clk.steer(2.0, Interval::everything());
  EXPECT_EQ(h.kind, SteerDecision::Kind::kHold);
  EXPECT_DOUBLE_EQ(h.rate, s.rate);  // The chase continues uninterrupted.
  EXPECT_EQ(clk.accuracy().holds, 1u);
}

TEST(DisciplinedClockTest, ReadingFreezesAtRegressingLocalTime) {
  DisciplinedClock clk;
  clk.steer(10.0, Interval{10.0, 10.0});
  const double at_ref = clk.now(10.0);
  EXPECT_DOUBLE_EQ(clk.now(9.0), at_ref);  // Never backward, even misused.
  EXPECT_GE(clk.now(11.0), at_ref);
}

TEST(DisciplinedClockTest, DriftIntegrationMeasuresAppliedRate) {
  DisciplineOptions opts;
  opts.max_slew = 1e-3;
  opts.steer_horizon = 1.0;
  DisciplinedClock clk(opts);
  clk.steer(0.0, Interval{0.0, 0.0});
  // Keep the midpoint running away so every steer saturates at +1e-3, for
  // longer than the window: the init-era rate-1 span has aged out, so the
  // integral reads pure applied slew.
  const int steers = static_cast<int>(kDriftWindow) + 10;
  for (int i = 1; i <= steers; ++i) {
    clk.steer(static_cast<double>(i),
              Interval{static_cast<double>(i) + 10.0,
                       static_cast<double>(i) + 10.0});
  }
  EXPECT_NEAR(clk.accuracy().drift, 1e-3, 1e-9);
}

TEST(DisciplinedClockTest, WorstCaseErrorFollowsIntervalGeometry) {
  DisciplinedClock clk;
  const Interval first{10.0, 14.0};
  clk.steer(0.0, first);  // Snap to 12.
  DisciplinedReading r = clk.reading(0.0, first);
  EXPECT_DOUBLE_EQ(r.err_bound, 2.0);
  EXPECT_DOUBLE_EQ(r.deficit, 0.0);
  // The interval jumps away; the slew-limited output is now outside it.
  const Interval second{20.0, 21.0};
  clk.steer(1.0, second);
  r = clk.reading(1.0, second);
  EXPECT_GT(r.deficit, 0.0);
  EXPECT_NEAR(r.deficit, 20.0 - clk.now(1.0), 1e-9);
  EXPECT_NEAR(r.err_bound, 21.0 - clk.now(1.0), 1e-9);
  // An unbounded interval bounds nothing.
  EXPECT_EQ(clk.reading(1.0, Interval::everything()).err_bound, kNoBound);
}

// ---------------------------------------------------------------------------
// Randomized properties.  One seeded episode drives a DisciplinedClock
// through an adversarial interval sequence and checks every consecutive
// pair of readings against the contract — with the SAME production check
// the chaos oracle runs, so "legal" has exactly one definition.

struct EpisodeResult {
  std::uint64_t steers = 0;
  std::uint64_t checked_pairs = 0;
};

NodeSample make_sample(const DisciplinedClock& clk, LocalTime lt,
                       const Interval& est) {
  NodeSample s;
  s.lt = lt;
  s.est = est;
  s.disc = clk.reading(lt, est);
  return s;
}

EpisodeResult run_episode(std::uint64_t seed) {
  Rng rng(seed);
  DisciplineOptions opts;
  opts.max_slew = rng.uniform(1e-4, 2e-3);
  opts.steer_horizon = rng.uniform(0.5, 8.0);
  DisciplinedClock clk(opts);

  // The local clock may itself misbehave: steps and rate churn through the
  // chaos harness's FaultyTimeSource over a frozen base, so lt advances
  // exactly as the test dictates plus whatever faults it injects.
  auto base = std::make_unique<runtime::ScaledTimeSource>(0.0, 0.0);
  FaultyTimeSource faulty(std::move(base));

  double mid = rng.uniform(-50.0, 50.0);
  double prev_out = -kNoBound;
  LocalTime prev_lt = 0.0;
  bool have_prev_sample = false;
  NodeSample prev_sample;
  EpisodeResult result;

  const int steps = 30;
  for (int i = 0; i < steps; ++i) {
    // Advance local time; occasionally the "oscillator" steps forward (a
    // negative step would freeze the FaultyTimeSource reading, which the
    // clock must also survive — exercised via inject_step < 0 below).
    if (rng.flip(0.10)) faulty.inject_step(rng.uniform(-0.3, 0.5));
    faulty.inject_step(rng.uniform(0.001, 0.4));  // Simulated elapsing.
    const LocalTime lt = faulty.now();

    // Adversarial interval: drifts, jumps, widens, collapses, vanishes.
    mid += rng.uniform(-0.01, 0.02);
    if (rng.flip(0.15)) mid += rng.uniform(-2.0, 2.0);  // Ingest jump.
    double half = rng.uniform(1e-4, 0.05);
    if (rng.flip(0.10)) half *= 40.0;  // Quarantine-style widening.
    Interval est{mid - half, mid + half};
    if (rng.flip(0.08)) est = Interval::everything();

    // Interleaved read between the previous steer and this one (a consumer
    // asking for the time mid-chase): monotone against everything so far.
    if (clk.initialized() && lt > prev_lt) {
      const LocalTime probe_lt = prev_lt + (lt - prev_lt) * rng.next_double();
      const double probe_out = clk.now(probe_lt);
      EXPECT_GE(probe_out, prev_out - 1e-9) << "seed " << seed << " step "
                                            << i;
      prev_out = std::max(prev_out, probe_out);
    }

    clk.steer(lt, est);
    ++result.steers;
    prev_lt = lt;

    if (clk.initialized()) {
      // Monotone, and rate-bounded against the *local* clock: the pair
      // contract that makes two reads measure a real duration.
      const double out = clk.now(lt);
      EXPECT_GE(out, prev_out - 1e-9) << "seed " << seed << " step " << i;
      prev_out = std::max(prev_out, out);

      const NodeSample cur = make_sample(clk, lt, est);
      if (have_prev_sample) {
        std::string detail;
        const char* inv = InvariantOracle::disciplined_check(
            prev_sample, cur, /*rho=*/0.0, /*tolerance=*/1e-7, &detail);
        EXPECT_EQ(inv, nullptr)
            << "seed " << seed << " step " << i << ": " << inv << " — "
            << detail;
        ++result.checked_pairs;
      }
      prev_sample = cur;
      have_prev_sample = true;
    }
  }
  return result;
}

TEST(DisciplineProperty, ThousandSeededEpisodesHoldTheContract) {
  std::uint64_t steers = 0;
  std::uint64_t pairs = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const EpisodeResult r = run_episode(seed);
    steers += r.steers;
    pairs += r.checked_pairs;
  }
  // The adversary must actually have exercised the check, not vacuously
  // skipped it (e.g. by never producing a bounded interval).
  EXPECT_GT(steers, 25'000u);
  EXPECT_GT(pairs, 15'000u);
}

TEST(DisciplineProperty, RateBoundHoldsBetweenArbitraryReadPairs) {
  Rng rng(0xD15C1F71);
  DisciplineOptions opts;
  opts.max_slew = 5e-4;
  DisciplinedClock clk(opts);
  clk.steer(0.0, Interval{100.0, 100.0});
  LocalTime lt = 0.0;
  double prev_lt = 0.0;
  double prev_out = clk.now(0.0);
  for (int i = 0; i < 2000; ++i) {
    lt += rng.uniform(0.0, 0.05);
    if (rng.flip(0.2)) {
      clk.steer(lt, Interval{100.0 + lt + rng.uniform(-1.0, 1.0),
                             100.0 + lt + rng.uniform(0.0, 0.01) + 1.0});
    }
    const double out = clk.now(lt);
    const double dlt = lt - prev_lt;
    EXPECT_GE(out - prev_out, dlt * (1.0 - opts.max_slew) - 1e-9);
    EXPECT_LE(out - prev_out, dlt * (1.0 + opts.max_slew) + 1e-9);
    prev_lt = lt;
    prev_out = out;
  }
}

// ---------------------------------------------------------------------------
// Oracle teeth.  A clock that SNAPS to the midpoint — the obvious naive
// implementation the disciplined clock exists to replace — must be caught
// by the production invariant-6 check.  If this test fails, the oracle has
// lost its teeth and the chaos scenarios prove nothing about clocks.

/// Deliberately broken test double: externalizes midpoint snapping while
/// claiming the disciplined contract (max_slew as configured).
class NaiveSteppingClock {
 public:
  explicit NaiveSteppingClock(double max_slew) : max_slew_(max_slew) {}

  NodeSample update(LocalTime lt, const Interval& est) {
    if (est.bounded() && !est.empty()) {
      out_ = est.midpoint();  // The snap a disciplined clock never takes.
      initialized_ = true;
    }
    NodeSample s;
    s.lt = lt;
    s.est = est;
    s.disc.initialized = initialized_;
    s.disc.out = out_;
    s.disc.max_slew = max_slew_;
    s.disc.deficit = 0.0;  // Snapping is always "inside" — that's the lie.
    return s;
  }

 private:
  double max_slew_;
  double out_ = 0.0;
  bool initialized_ = false;
};

TEST(DisciplineOracleTest, CatchesForwardSnapAsRateViolation) {
  NaiveSteppingClock naive(5e-4);
  const NodeSample a = naive.update(1.0, Interval{10.0, 10.2});
  // A good exchange moves the midpoint +0.5 s; the naive clock snaps.
  const NodeSample b = naive.update(1.01, Interval{10.5, 10.7});
  std::string detail;
  const char* inv =
      InvariantOracle::disciplined_check(a, b, 1e-4, 0.02, &detail);
  ASSERT_NE(inv, nullptr);
  EXPECT_STREQ(inv, "disciplined-rate");
  EXPECT_FALSE(detail.empty());
}

TEST(DisciplineOracleTest, CatchesBackwardSnapAsMonotoneViolation) {
  NaiveSteppingClock naive(5e-4);
  const NodeSample a = naive.update(1.0, Interval{10.0, 10.2});
  const NodeSample b = naive.update(1.01, Interval{9.4, 9.6});
  std::string detail;
  const char* inv =
      InvariantOracle::disciplined_check(a, b, 1e-4, 0.02, &detail);
  ASSERT_NE(inv, nullptr);
  EXPECT_STREQ(inv, "disciplined-monotone");
}

TEST(DisciplineOracleTest, CatchesDeficitLieAsContainmentViolation) {
  // A clock whose rate stays legal but whose containment deficit balloons
  // with no interval motion to justify it: the allowance is only the
  // slew+drift gap over dlt, so a deficit appearing from nowhere trips the
  // containment branch specifically (rate and monotone both pass).
  NodeSample a;
  a.lt = 0.0;
  a.est = Interval{10.0, 10.1};
  a.disc = {true, 10.05, 5e-4, 0.0, 0.05};
  NodeSample b;
  b.lt = 1.0;
  b.est = Interval{11.0, 11.1};  // Advanced exactly with local time...
  b.disc = {true, 11.05, 5e-4, 0.9, 0.95};  // ...yet deficit 0.9 claimed.
  std::string detail;
  const char* inv =
      InvariantOracle::disciplined_check(a, b, 1e-4, 0.02, &detail);
  ASSERT_NE(inv, nullptr);
  EXPECT_STREQ(inv, "disciplined-containment");
}

TEST(DisciplineOracleTest, AcceptsTheRealClockUnderTheSameAdversary) {
  // The same update schedule that convicts the naive clock acquits the
  // disciplined one (rho = 0: local time here IS the envelope clock).
  DisciplineOptions opts;
  opts.max_slew = 5e-4;
  DisciplinedClock clk(opts);
  clk.steer(1.0, Interval{10.0, 10.2});
  NodeSample a = make_sample(clk, 1.0, Interval{10.0, 10.2});
  clk.steer(1.01, Interval{10.5, 10.7});
  NodeSample b = make_sample(clk, 1.01, Interval{10.5, 10.7});
  std::string detail;
  EXPECT_EQ(InvariantOracle::disciplined_check(a, b, 0.0, 1e-7, &detail),
            nullptr)
      << detail;
}

TEST(DisciplineOracleTest, UninitializedPairsClaimNothing) {
  NodeSample a;
  a.lt = 0.0;
  NodeSample b;
  b.lt = 1.0;
  EXPECT_EQ(InvariantOracle::disciplined_check(a, b, 1e-4, 0.02, nullptr),
            nullptr);
}

// ---------------------------------------------------------------------------
// Golden transcript: one fixed sequence pins the steering controller —
// kinds, rates, clamps — through a fixed-format rendering of the returned
// decisions, so any behavior change is a deliberate diff against this
// literal.

/// %.9g round-trips the magnitudes steering produces (seconds, rates near
/// 1, sub-second errors) and renders identically across libcs for finite
/// values.
std::string g9(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string render(std::uint64_t seq, const SteerDecision& d) {
  static const char* const kKinds[] = {"init", "steer", "hold"};
  return "{\"seq\":" + std::to_string(seq) + ",\"kind\":\"" +
         kKinds[static_cast<int>(d.kind)] + "\",\"lt\":" + g9(d.lt) +
         ",\"out\":" + g9(d.out) + ",\"rate\":" + g9(d.rate) +
         ",\"err\":" + g9(d.error) + ",\"width\":" +
         (std::isfinite(d.width) ? g9(d.width) : "\"inf\"") +
         ",\"clamped\":" + (d.clamped ? "true" : "false") + "}\n";
}

TEST(DisciplinedClockTest, GoldenJournalIsByteStable) {
  DisciplineOptions opts;
  opts.max_slew = 5e-4;
  opts.steer_horizon = 2.0;
  DisciplinedClock clk(opts);
  const std::pair<LocalTime, Interval> inputs[] = {
      {0.5, Interval::everything()},    // Pre-init hold.
      {1.0, Interval{100.0, 100.5}},    // Init: snap to 100.25.
      {2.0, Interval{101.25, 101.35}},  // Small chase.
      {3.0, Interval{104.0, 104.5}},    // Saturating error.
      {4.0, Interval::everything()},    // Hold mid-chase.
      {5.0, Interval{102.0, 108.0}},    // Wide, gentle pull.
  };
  std::string transcript;
  std::uint64_t seq = 0;
  for (const auto& [lt, est] : inputs) {
    transcript += render(++seq, clk.steer(lt, est));
  }
  const std::string expected =
      "{\"seq\":1,\"kind\":\"hold\",\"lt\":0.5,\"out\":0.5,\"rate\":1,"
      "\"err\":0,\"width\":\"inf\",\"clamped\":false}\n"
      "{\"seq\":2,\"kind\":\"init\",\"lt\":1,\"out\":100.25,\"rate\":1,"
      "\"err\":0,\"width\":0.5,\"clamped\":false}\n"
      "{\"seq\":3,\"kind\":\"steer\",\"lt\":2,\"out\":101.25,\"rate\":1.0005,"
      "\"err\":0.05,\"width\":0.1,\"clamped\":true}\n"
      "{\"seq\":4,\"kind\":\"steer\",\"lt\":3,\"out\":102.2505,"
      "\"rate\":1.0005,\"err\":1.9995,\"width\":0.5,\"clamped\":true}\n"
      "{\"seq\":5,\"kind\":\"hold\",\"lt\":4,\"out\":103.251,"
      "\"rate\":1.0005,\"err\":0,\"width\":\"inf\",\"clamped\":false}\n"
      "{\"seq\":6,\"kind\":\"steer\",\"lt\":5,\"out\":104.2515,"
      "\"rate\":1.0005,\"err\":0.7485,\"width\":6,\"clamped\":true}\n";
  EXPECT_EQ(transcript, expected);
}

}  // namespace
}  // namespace driftsync::clock
