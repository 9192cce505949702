#include "clock/disciplined_clock.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace driftsync::clock {

DisciplinedClock::DisciplinedClock(DisciplineOptions opts) : opts_(opts) {
  DS_CHECK(opts_.max_slew > 0.0 && opts_.max_slew < 1.0);
  DS_CHECK(opts_.steer_horizon > 0.0);
  // Sized so a full kDriftWindow of decisions at the Node's externalization
  // cadence fits; old spans simply age out of the estimate when it doesn't.
  spans_.resize(256);
}

double DisciplinedClock::now(LocalTime lt) const {
  if (!initialized_) return lt;
  // lt below the ref would read the line backwards; freeze at the ref
  // instead (the owning Node's local_time() already clamps regressing
  // sources, so this is a backstop, not a code path).
  const double dt = lt > lt_ref_ ? lt - lt_ref_ : 0.0;
  double out = out_ref_ + dt * rate_;
  if (out < last_out_) out = last_out_;
  last_out_ = out;
  return out;
}

SteerDecision DisciplinedClock::steer(LocalTime lt, const Interval& est) {
  if (initialized_ && lt < lt_ref_) lt = lt_ref_;
  SteerDecision d;
  d.lt = lt;
  d.width = est.empty() ? kNoBound : est.width();
  const bool steerable = !est.empty() && est.bounded();
  if (!steerable) {
    // Nothing to steer toward.  Keep the current rate: zeroing it mid-slew
    // would oscillate on alternating bounded/unbounded estimates, and an
    // unbounded estimate after convergence does not happen (knowledge only
    // shrinks intervals).
    d.kind = SteerDecision::Kind::kHold;
    d.out = initialized_ ? now(lt) : lt;
    d.rate = rate_;
    ++holds_;
    return d;
  }
  const double mid = est.midpoint();
  if (!initialized_) {
    // The one discontinuity: no disciplined reading exists yet, so the
    // output may snap to the best available point estimate.  From here on
    // only the rate moves.
    initialized_ = true;
    lt_ref_ = lt;
    out_ref_ = mid;
    rate_ = 1.0;
    last_out_ = mid;
    d.kind = SteerDecision::Kind::kInit;
    d.out = mid;
    d.rate = 1.0;
    d.error = 0.0;
  } else {
    // Continuity first: advance the ref pair to this instant, THEN change
    // the rate — the output never steps across a re-steer.
    const double out = now(lt);
    lt_ref_ = lt;
    out_ref_ = out;
    const double err = mid - out;
    const double desired = err / opts_.steer_horizon;
    const double slew =
        std::clamp(desired, -opts_.max_slew, opts_.max_slew);
    d.clamped = desired != slew;
    if (d.clamped) ++slew_clamps_;
    rate_ = 1.0 + slew;
    d.kind = SteerDecision::Kind::kSteer;
    d.out = out;
    d.rate = rate_;
    d.error = err;
  }
  ++resteers_;
  // Record the applied rate span for the sliding-window drift integral.
  RateSpan& span = spans_[spans_head_];
  span.lt = lt;
  span.rate = rate_;
  spans_head_ = (spans_head_ + 1) % spans_.size();
  if (spans_size_ < spans_.size()) ++spans_size_;
  return d;
}

DisciplinedReading DisciplinedClock::reading(LocalTime lt,
                                             const Interval& est) const {
  DisciplinedReading r;
  r.initialized = initialized_;
  if (!initialized_) return r;
  r.out = now(lt);
  r.max_slew = opts_.max_slew;
  if (!est.empty() && est.bounded()) {
    r.deficit = std::max({0.0, est.lo - r.out, r.out - est.hi});
    r.err_bound =
        std::max(std::fabs(r.out - est.lo), std::fabs(est.hi - r.out));
  }
  return r;
}

AccuracyStats DisciplinedClock::accuracy() const {
  AccuracyStats a;
  a.resteers = resteers_;
  a.holds = holds_;
  a.slew_clamps = slew_clamps_;
  // Drift: time-weighted mean of (rate - 1) over spans younger than the
  // window, each span weighted by how long its rate was applied.  The
  // youngest span extends to "now" = the last decision's lt, so a single
  // span contributes nothing yet (zero elapsed).
  if (spans_size_ >= 2) {
    const std::size_t newest =
        (spans_head_ + spans_.size() - 1) % spans_.size();
    const LocalTime horizon = spans_[newest].lt - kDriftWindow;
    double weighted = 0.0;
    double total = 0.0;
    for (std::size_t i = 1; i < spans_size_; ++i) {
      const std::size_t cur =
          (spans_head_ + spans_.size() - 1 - i) % spans_.size();
      const std::size_t next = (cur + 1) % spans_.size();
      const double span_end = spans_[next].lt;
      if (span_end <= horizon) break;
      const double span_start = std::max(spans_[cur].lt, horizon);
      const double dt = span_end - span_start;
      if (dt <= 0.0) continue;
      weighted += (spans_[cur].rate - 1.0) * dt;
      total += dt;
    }
    if (total > 0.0) a.drift = weighted / total;
  }
  return a;
}

}  // namespace driftsync::clock
