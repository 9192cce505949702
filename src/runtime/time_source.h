// Local clocks for the runtime (DESIGN.md S7).
//
// In the paper's model (Section 2) every processor owns a drifting but
// strictly increasing local clock; algorithms see nothing else.  A
// TimeSource is that clock for a runtime Node: the simulator's ClockModel
// equivalent, backed by a real hardware counter instead of simulated time.
//
// The restart model of the checkpoint path requires the clock to keep
// running across a process restart (the paper's estimates extrapolate from
// the local time of the last recorded event).  CLOCK_MONOTONIC is
// system-wide since boot, so SystemTimeSource gives exactly that
// continuity; a reboot invalidates checkpoints, which Node::start detects
// as a clock regression and rejects.
#pragma once

#include "common/time_types.h"

namespace driftsync::runtime {

class TimeSource {
 public:
  virtual ~TimeSource() = default;

  /// The current local-clock reading in seconds.  Must be non-decreasing
  /// between calls (the Node driver additionally nudges equal readings
  /// apart so event local times are strictly increasing).
  [[nodiscard]] virtual LocalTime now() const = 0;
};

/// CLOCK_MONOTONIC in seconds: continuous across process restarts within
/// one boot.  The production clock of driftsyncd.
class SystemTimeSource : public TimeSource {
 public:
  [[nodiscard]] LocalTime now() const override;
};

/// offset + rate * base: emulates a drifting clock over a shared base, so
/// multi-node tests (and --selftest) get distinct clocks with a known ground
/// truth.  The base is CLOCK_MONOTONIC, or a given TimeSource (a Hub's
/// virtual time) that must outlive this one.  rate must lie within the
/// SystemSpec's drift bound [1 - rho, 1 + rho] for that processor or
/// containment is forfeit.
class ScaledTimeSource : public TimeSource {
 public:
  ScaledTimeSource(double offset, double rate) : offset_(offset), rate_(rate) {}
  ScaledTimeSource(const TimeSource& base, double offset, double rate)
      : base_(&base), offset_(offset), rate_(rate) {}

  [[nodiscard]] LocalTime now() const override;

 private:
  const TimeSource* base_ = nullptr;  ///< Null: CLOCK_MONOTONIC.
  double offset_;
  double rate_;
};

}  // namespace driftsync::runtime
