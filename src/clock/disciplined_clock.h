// Disciplined output clock: a monotone, rate-bounded scalar timestamp
// steered toward the optimal interval estimate (ROADMAP item 5).
//
// The engine's externalized product is an interval [lo, hi] containing true
// source time — and it JUMPS: every ingest can shrink it discontinuously,
// every quarantine widens it, a restart re-derives it.  Production
// consumers (the serve tier, tracing timestamps, anything reading
// `driftsyncd`) want the opposite contract: a scalar reading that never
// steps backward and whose rate against the local oscillator is bounded, so
// two consecutive reads measure a real duration.
//
// DisciplinedClock supplies that contract with a piecewise-linear ref-pair
// model in the XCPlite sync.h style (SNIPPETS.md snippet 2): the output is
//
//     out(lt) = out_ref + (lt - lt_ref) * rate
//
// and every re-steer first advances the pair to the current instant
// (out_ref' = out(lt), lt_ref' = lt) before changing the rate, so the
// output is CONTINUOUS across rate switches and monotone by construction —
// rate stays in [1 - max_slew, 1 + max_slew] with max_slew < 1, hence
// always positive.  Steering is proportional toward the interval midpoint:
// the full observed error would be corrected over `steer_horizon` seconds,
// clamped to the slew budget.  The clock never steps, not even forward; the
// one discontinuity allowed is initialization (the first bounded interval
// snaps the output to its midpoint), before any disciplined reading exists.
//
// A consequence worth spelling out (DESIGN.md decision 21): when the
// interval collapses — a good exchange can shrink 50 ms of uncertainty to
// 2 ms in one ingest — the slew-limited output may legally sit OUTSIDE the
// new interval until it slews back in.  That is the price of the rate
// bound, and it is observable: reading() reports the containment deficit
// and the worst-case error against the interval it is given, and the chaos
// oracle's disciplined-clock check (runtime/oracle.h, invariant 6) holds
// the deficit to exactly the geometry-permitted envelope.
//
// accuracy() is the stats-path report: the steering counters and a
// sliding-window integration of the applied rate offset (the measured
// drift the discipline is currently countering, DRIFTsync-style).
//
// Not thread-safe; the owning Node calls it from its one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "common/time_types.h"

namespace driftsync::clock {

struct DisciplineOptions {
  /// Max |rate - 1| vs the local oscillator.  Default: the drift spec's
  /// rho for this clock (the Node wires that in); standalone uses get the
  /// common harness bound.  Must be in (0, 1).
  double max_slew = 5e-4;
  /// Seconds over which proportional steering would correct the full
  /// observed error; errors beyond max_slew * steer_horizon saturate the
  /// slew budget.  Smaller = snappier but noisier rate.
  double steer_horizon = 1.0;
};

/// Sliding window (local seconds) for the drift integration in
/// accuracy(); decisions older than this fall out of the estimate.
inline constexpr double kDriftWindow = 30.0;

/// What a re-steer decided and why.
struct SteerDecision {
  enum class Kind : std::uint8_t {
    kInit = 0,   ///< First bounded interval: output snapped to midpoint.
    kSteer = 1,  ///< Rate set toward the midpoint, possibly clamped.
    kHold = 2,   ///< Unbounded/empty interval: nothing to steer toward.
  };
  Kind kind = Kind::kHold;
  LocalTime lt = 0.0;     ///< Local time of the decision (new lt_ref).
  double out = 0.0;       ///< Output at lt after continuity (new out_ref).
  double rate = 1.0;      ///< Rate applied from lt on.
  double error = 0.0;     ///< midpoint - out at decision time (0 for hold).
  double width = 0.0;     ///< Interval width (+inf when unbounded).
  bool clamped = false;   ///< Proportional term exceeded the slew budget.
};

/// The disciplined reading at one local time against one interval: what
/// a Node externalizes (NodeSample, NodeStats, the ClientResp extension)
/// and what the oracle's invariant 6 checks.  `initialized` is false until
/// the first bounded estimate snapped the clock; pre-init "readings" are
/// raw local time and carry no contract.
struct DisciplinedReading {
  bool initialized = false;
  double out = 0.0;       ///< Disciplined reading at lt.
  double max_slew = 0.0;  ///< Configured rate bound |rate - 1| <= max_slew.
  double deficit = 0.0;   ///< Distance to the interval (0 = inside).
  /// Worst-case error vs true time, max(|out - lo|, |hi - out|), from
  /// interval geometry alone; +inf before init and while the interval is
  /// unbounded or empty.
  double err_bound = kNoBound;
};

/// The stats-path report.
struct AccuracyStats {
  /// Time-weighted mean of (rate - 1) over the last kDriftWindow seconds:
  /// the local oscillator's measured drift the discipline is countering.
  double drift = 0.0;
  std::uint64_t resteers = 0;     ///< kInit + kSteer decisions.
  std::uint64_t holds = 0;        ///< kHold decisions.
  std::uint64_t slew_clamps = 0;  ///< Decisions that saturated the budget.
};

class DisciplinedClock {
 public:
  explicit DisciplinedClock(DisciplineOptions opts = {});

  /// The disciplined reading at local time `lt`.  Before initialization
  /// this is the raw local time (identity free-run) and NOT covered by the
  /// monotone/rate-bound contract — callers externalizing readings must
  /// gate on initialized().  From the first steer on, readings at
  /// non-decreasing lt are non-decreasing and rate-bounded; a caller
  /// passing lt below the last steer gets the reading frozen at the ref.
  [[nodiscard]] double now(LocalTime lt) const;

  [[nodiscard]] bool initialized() const { return initialized_; }

  /// Re-steers toward `est`'s midpoint at local time `lt`.  Bounded est:
  /// the first call snaps (kInit), later calls set the rate (kSteer).
  /// Unbounded or empty est: kHold, rate kept.  Non-decreasing lt
  /// expected; an earlier lt is clamped to the last ref.
  SteerDecision steer(LocalTime lt, const Interval& est);

  /// now(lt) with its deficit and error bound against `est`.
  [[nodiscard]] DisciplinedReading reading(LocalTime lt,
                                           const Interval& est) const;

  /// Walks the drift span ring; the stats path's, not the read path's.
  [[nodiscard]] AccuracyStats accuracy() const;

 private:
  DisciplineOptions opts_;
  bool initialized_ = false;
  LocalTime lt_ref_ = 0.0;
  double out_ref_ = 0.0;
  double rate_ = 1.0;
  /// Monotonicity backstop for defensive now() calls at regressing lt.
  mutable double last_out_ = kNegInf;

  /// Drift-integration ring of (lt, rate) spans, preallocated.
  struct RateSpan {
    LocalTime lt = 0.0;
    double rate = 1.0;
  };
  std::vector<RateSpan> spans_;
  std::size_t spans_head_ = 0;
  std::size_t spans_size_ = 0;

  std::uint64_t resteers_ = 0;
  std::uint64_t holds_ = 0;
  std::uint64_t slew_clamps_ = 0;
};

}  // namespace driftsync::clock
