// Deterministic fault injection for the runtime (DESIGN.md S7).
//
// The simulator can explore adversarial schedules because it owns the event
// queue; a Node sees only a transport and a clock.  The chaos layer closes
// that gap with two decorators that sit between a Node and the primitives
// it trusts:
//
//  * ChaosTransport wraps any Transport and perturbs the SEND path with a
//    seeded fault mix: partitions (total or per-peer), burst loss,
//    independent drops, duplication, reordering beyond the per-direction
//    FIFO the hub otherwise guarantees, and byte corruption.  Faults are
//    injected sender-side only, so wrapping every endpoint of a Hub covers
//    both directions of every link and the hub's own FIFO/latency model
//    stays intact underneath.
//
//  * FaultyTimeSource wraps any TimeSource and perturbs the clock: a rate
//    multiplier (within-spec drift wobble or a spec-violating rate) and
//    step faults (spec-violating jumps).  Readings stay non-decreasing —
//    a negative step freezes the clock until real time catches up — so the
//    TimeSource contract the Node depends on survives every fault.
//
// Every injected fault is reported to a shared ChaosEventLog as one JSON
// line, every stochastic choice flows through a seeded driftsync::Rng, and
// holds and journal stamps read a given clock.  Over a Hub that clock is
// virtual time and the run has one thread, so a failing chaos run replays
// from its --seed alone: the journal comes out byte-identical, timestamps
// included.  Like the Hub, the decorators and the journal are not
// thread-safe: one thread drives a run.
//
// Corruption is always *detectable*: at least one flipped bit lands in the
// datagram header (magic/version), so the receiver counts a decode drop
// instead of ingesting plausible-but-wrong timestamps.  Undetectable
// corruption is indistinguishable from a spec-violating peer — that case
// is exercised separately through FaultyTimeSource and the quarantine
// machinery (runtime/node.h).
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/trace.h"
#include "runtime/time_source.h"
#include "runtime/transport.h"

namespace driftsync::runtime {

/// Journal of injected faults.  Each entry is one JSON line
/// `{"chaos":"<fault>","node":N,"peer":P,"t":<clock seconds>,"value":V,
/// "trace":"0x..."}` written to `out` (pass nullptr to only count).  The
/// trace field is the causal trace id of the datagram the fault hit ("0x0"
/// when it carried none), so a fault journal cross-references the Tracer's
/// event streams.  The per-fault counters feed scenario verdicts and the
/// oracle's loss-soundness bookkeeping.
class ChaosEventLog {
 public:
  /// `clock` stamps the entries and must outlive the log.
  explicit ChaosEventLog(const TimeSource& clock, std::FILE* out = nullptr)
      : clock_(clock), out_(out) {}

  void log(const char* fault, ProcId node, ProcId peer, double value = 0.0,
           std::uint64_t trace_id = 0);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(const std::string& fault) const;

 private:
  const TimeSource& clock_;
  std::FILE* out_;
  std::uint64_t total_ = 0;
  std::map<std::string, std::uint64_t> per_fault_;
};

/// Per-send fault probabilities (each drawn independently, in the order
/// burst, drop, corrupt, duplicate, reorder).  All default to "no fault".
struct ChaosFaults {
  double drop = 0.0;       ///< Drop this datagram silently.
  double burst = 0.0;      ///< Start a burst: this and the next burst_len-1
                           ///< sends (any peer) are dropped.
  double corrupt = 0.0;    ///< Flip bits (header included: always rejected).
  double duplicate = 0.0;  ///< Deliver the datagram twice.
  double reorder = 0.0;    ///< Hold it; release it AFTER the next send to
                           ///< the same peer (breaks FIFO).
  std::uint32_t burst_len = 8;
  /// Oldest a held datagram may get before it is dropped instead of
  /// released.  A reorder is only a FIFO violation while the total transit
  /// (hold + link latency) stays inside the spec's [min, max] transit
  /// bound; past that it silently becomes a spec violation, which the
  /// engine is *entitled* to fail hard on (DESIGN.md S7).  Longer delays
  /// are modeled explicitly by drop/burst/partition faults, so stale holds
  /// decay into a logged "hold-drop".  Keep this below the spec's max
  /// transit minus the underlying transport's worst-case latency.
  double max_hold = 0.02;
};

class ChaosTransport : public Transport {
 public:
  /// Wraps `inner` (typically a Hub endpoint) for processor `self`; holds
  /// age on `clock`.  `log` may be nullptr.  Both must outlive this
  /// transport.
  ChaosTransport(std::unique_ptr<Transport> inner, ProcId self,
                 ChaosFaults faults, std::uint64_t seed,
                 const TimeSource& clock, ChaosEventLog* log = nullptr);
  ~ChaosTransport() override;

  void start(DatagramHandler handler) override;
  void stop() override;
  void send(ProcId to, std::vector<std::uint8_t> bytes) override;

  /// The timer and buffer recycling pass straight through to the wrapped
  /// transport.
  void set_timer(TimerHandler timer) override {
    inner_->set_timer(std::move(timer));
  }
  [[nodiscard]] std::vector<std::uint8_t> take_buffer(ProcId to) override {
    return inner_->take_buffer(to);
  }

  /// Membership passes through; a retire also discards any datagram the
  /// reorder fault is still holding for that peer (nobody will release it).
  [[nodiscard]] bool admit_current_sender(ProcId peer) override {
    return inner_->admit_current_sender(peer);
  }
  void retire_peer(ProcId peer) override {
    held_.erase(peer);
    partitioned_.erase(peer);
    inner_->retire_peer(peer);
  }

  /// Fault injection adds no counters of its own here (see injected());
  /// the wrapped transport's health flows through unchanged.
  [[nodiscard]] TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }
  void append_metrics(std::string& out,
                      const std::string& labels) const override {
    inner_->append_metrics(out, labels);
  }

  /// Partition control (deterministic, schedule-driven): while set, every
  /// send to `peer` (or to anyone, for the total variant) is dropped.
  /// Inbound traffic is cut by the peer's own ChaosTransport, so a
  /// symmetric partition needs the flag set on both sides.
  void set_partitioned(ProcId peer, bool on);
  void set_partitioned_all(bool on);

  /// Total faults this transport injected (drops, dups, holds, flips).
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

  /// Records a kDrop trace event for every fault that loses a datagram
  /// (partition-drop, burst-drop, drop, hold-drop).  Non-drop faults
  /// (corrupt, duplicate, hold/reorder) appear only in the journal.  Null
  /// disables.  Not owned; must outlive this transport.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  void record(const char* fault, ProcId peer, double value = 0.0,
              std::uint64_t trace_id = 0);
  /// kDrop trace hook for datagram-losing faults.
  void trace_fault_drop(std::uint64_t trace_id, ProcId peer);

  std::unique_ptr<Transport> inner_;
  const ProcId self_;
  const ChaosFaults faults_;
  const TimeSource& clock_;
  ChaosEventLog* log_;
  Tracer* tracer_ = nullptr;
  Rng rng_;
  bool partitioned_all_ = false;
  std::set<ProcId> partitioned_;
  std::uint32_t burst_remaining_ = 0;
  /// One held-back datagram per destination (the reorder fault).
  struct Held {
    double since = 0.0;  ///< clock_ at hold time (max_hold cap).
    std::uint64_t trace_id = 0;  ///< Peeked at hold time (bytes move away).
    std::vector<std::uint8_t> bytes;
  };
  std::map<ProcId, Held> held_;
  std::uint64_t injected_ = 0;
};

/// TimeSource decorator injecting clock faults.  Each fault is journaled
/// as processor `node`'s ("clock-step", value = the delta; "clock-rate",
/// value = the multiplier) when a log is given.
class FaultyTimeSource : public TimeSource {
 public:
  explicit FaultyTimeSource(std::unique_ptr<TimeSource> inner,
                            ProcId node = kInvalidProc,
                            ChaosEventLog* log = nullptr);

  /// Non-decreasing by construction: a fault that would move the reading
  /// backwards freezes it until the underlying clock catches up.
  [[nodiscard]] LocalTime now() const override;

  /// Instantaneous jump by `delta` seconds (spec-violating: the rate is
  /// momentarily unbounded).  Negative deltas freeze (see now()).
  void inject_step(double delta);

  /// Scales the underlying clock's rate from this instant on.  Values
  /// within [1 - rho, 1 + rho] of the processor's spec model legal drift
  /// churn; values outside it are spec violations.  1.0 restores.
  void set_rate_multiplier(double mult);

  /// Ground-truth introspection for the harness/oracle.
  /// Sum of injected steps, and the current multiplier.
  [[nodiscard]] double fault_offset() const { return step_total_; }
  [[nodiscard]] double rate_multiplier() const { return mult_; }

 private:
  std::unique_ptr<TimeSource> inner_;
  ProcId node_;
  ChaosEventLog* log_;
  double base_ = 0.0;        ///< Inner reading at the last fault change.
  double acc_ = 0.0;         ///< Our reading at the last fault change.
  double mult_ = 1.0;
  double step_total_ = 0.0;
  mutable double last_ = 0.0;  ///< Monotonicity clamp.
};

}  // namespace driftsync::runtime
