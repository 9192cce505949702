// In-process datagram network in virtual time (DESIGN.md S7): per-processor
// Transport endpoints joined by a hub that models per-direction latency and
// loss — the runtime analogue of the simulator's LatencyModel.
//
// The hub owns no thread: run_until(t) advances its virtual time to t on
// the caller's thread, delivering each datagram after a uniformly drawn
// latency and firing each endpoint's timer (Transport::set_timer) as it
// falls due, in (due time, insertion) order; a handler or timer takes no
// virtual time.  Delivery is FIFO per direction (a later send is never
// delivered before an earlier one, as over UDP loopback).  Loss is either
// probabilistic (`loss`, seeded Rng) or deterministic (`drop_next`).  The
// hub is also a TimeSource, the one clock every seat, journal, oracle and
// tracer of a run reads, so one seed replays one run exactly.  It is not
// thread-safe: everything that touches it runs on one thread.
//
// Directions without a configured link drop everything, so a hub is also a
// cheap partition/outage injector: nodes keep running, their skip-commit
// timers fire, and reconnection is a matter of re-adding the link.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/trace.h"
#include "runtime/time_source.h"
#include "runtime/transport.h"

namespace driftsync::runtime {

class Hub : public TimeSource {
 public:
  explicit Hub(std::uint64_t seed = 1);

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Virtual time in seconds; starts at 0 and moves only in run_until.
  [[nodiscard]] LocalTime now() const override { return now_; }

  /// Advances virtual time to `t`, delivering every datagram and firing
  /// every timer due by then.  Every endpoint's timer runs first, so work a
  /// caller handed a node between runs (an admit_peer) does not wait for an
  /// old deadline.  Handlers and timers must not call it.
  void run_until(double t);
  void run_for(double seconds) { run_until(now_ + seconds); }

  /// Configures both directions with the same latency range and loss
  /// probability.  Latencies are in (virtual) seconds and must be finite;
  /// loss is in [0, 1], where 1.0 blackholes the direction while keeping
  /// it "configured" (unlike a missing link, drop_next still works).
  /// Bad values fail a DS_CHECK (std::logic_error).
  void set_link(ProcId a, ProcId b, double min_latency, double max_latency,
                double loss = 0.0);
  void set_directed(ProcId from, ProcId to, double min_latency,
                    double max_latency, double loss = 0.0);

  /// Force-drops the next `n` datagrams sent from->to, ahead of any
  /// probabilistic loss.  Deterministic loss injection for tests.
  void drop_next(ProcId from, ProcId to, std::uint64_t n);

  /// Creates the Transport endpoint for processor `p`.  The endpoint keeps
  /// a pointer to this hub: the hub must outlive it.
  [[nodiscard]] std::unique_ptr<Transport> endpoint(ProcId p);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Datagrams currently queued (sent, not yet delivered or dropped) on the
  /// from->to direction; 0 for unconfigured directions.  Every datagram that
  /// enters the queue leaves it through exactly one of delivery or
  /// destination-down drop, so after a quiescent flood this returns to 0.
  [[nodiscard]] std::size_t backlog_depth(ProcId from, ProcId to) const;
  /// Sum of backlog_depth over all directions.
  [[nodiscard]] std::size_t backlog_depth() const;

  /// Records a kDrop trace event (with the dropped datagram's trace id, if
  /// any) whenever the hub drops a datagram: missing link, force_drop,
  /// probabilistic loss, full backlog, destination down.  Null disables
  /// (the default).  Not owned; must outlive the hub.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// Called with every datagram the hub delivers, just before its
  /// destination's handler sees it: an account of what crossed the
  /// network.  Empty disables (the default).
  using Tap = std::function<void(ProcId from, ProcId to,
                                 std::span<const std::uint8_t> bytes)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

 private:
  friend class HubEndpoint;

  struct DirLink {
    double min_latency = 0.0;
    double max_latency = 0.0;
    double loss = 0.0;
    double last_due = 0.0;  ///< FIFO clamp: next delivery not before this.
    std::uint64_t force_drop = 0;
    std::size_t backlog = 0;  ///< Queued, not yet delivered or dropped.
  };

  /// A queued datagram, or (timer, no bytes) an endpoint's timer.
  struct Pending {
    double due = 0.0;
    std::uint64_t order = 0;  ///< Tie-break: queue insertion order.
    ProcId from = kInvalidProc;
    ProcId to = kInvalidProc;
    bool timer = false;
    std::vector<std::uint8_t> bytes;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.due != b.due ? a.due > b.due : a.order > b.order;
    }
  };

  struct Sink {
    DatagramHandler handler;
    TimerHandler timer;
    /// The queue order of this sink's live timer entry (others are stale).
    std::uint64_t timer_order = ~std::uint64_t{0};
    /// Origin of the datagram currently being handled (kReplyPeer target);
    /// kInvalidProc outside a handler call.
    ProcId current_from = kInvalidProc;
  };

  static std::uint64_t dir_key(ProcId from, ProcId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  void register_endpoint(ProcId p, DatagramHandler handler,
                         TimerHandler timer);
  void push(Pending item);
  void unregister_endpoint(ProcId p);
  void send_from(ProcId from, ProcId to, std::vector<std::uint8_t> bytes);
  /// Runs p's timer (if it has one) and queues its next firing.
  void fire_timer(ProcId p);
  void deliver(Pending& item);
  void drop(ProcId from, ProcId to, const std::vector<std::uint8_t>& bytes);

  double now_ = 0.0;
  Tracer* tracer_ = nullptr;
  Tap tap_;
  Rng rng_;
  std::map<std::uint64_t, DirLink> links_;
  std::map<ProcId, Sink> sinks_;
  /// A heap under PendingLater (std::push_heap/pop_heap), so the due item
  /// moves out, bytes and all, instead of being copied off a const top().
  std::vector<Pending> queue_;
  std::uint64_t next_order_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace driftsync::runtime
