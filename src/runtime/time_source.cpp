#include "runtime/time_source.h"

#include <ctime>

namespace driftsync::runtime {

namespace {

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

LocalTime SystemTimeSource::now() const { return monotonic_seconds(); }

LocalTime ScaledTimeSource::now() const {
  return offset_ +
         rate_ * (base_ != nullptr ? base_->now() : monotonic_seconds());
}

}  // namespace driftsync::runtime
