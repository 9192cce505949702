#include "runtime/hub.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "runtime/datagram.h"

namespace driftsync::runtime {

namespace {

/// A direction's in-flight queue never holds more than this many datagrams;
/// beyond it new sends are dropped (a real NIC queue is bounded too, and
/// the fate protocol absorbs the loss).  Matches UdpTransport's kMaxBacklog.
constexpr std::size_t kMaxBacklog = 256;

/// The shortest timer delay the hub schedules.  A timer reads its own
/// drifting clock, so a slow clock finds its deadline a little short of due
/// and asks again for the remainder; the floor makes those re-asks advance
/// virtual time instead of converging on one instant.
constexpr double kMinTimerStep = 1e-6;

}  // namespace

/// Endpoint handed to a Node; all real work happens in the hub.
class HubEndpoint : public Transport {
 public:
  HubEndpoint(Hub* hub, ProcId self) : hub_(hub), self_(self) {}
  ~HubEndpoint() override { stop(); }

  void start(DatagramHandler handler) override {
    DS_CHECK_MSG(!started_, "endpoint started twice");
    hub_->register_endpoint(self_, std::move(handler), std::move(timer_));
    started_ = true;
  }

  void stop() override {
    if (!started_) return;
    hub_->unregister_endpoint(self_);
    started_ = false;
  }

  void set_timer(TimerHandler timer) override {
    DS_CHECK_MSG(!started_, "set_timer after start");
    timer_ = std::move(timer);
  }

  void send(ProcId to, std::vector<std::uint8_t> bytes) override {
    hub_->send_from(self_, to, std::move(bytes));
  }

 private:
  Hub* hub_;
  ProcId self_;
  TimerHandler timer_;
  bool started_ = false;
};

Hub::Hub(std::uint64_t seed) : rng_(seed) {}

void Hub::set_link(ProcId a, ProcId b, double min_latency, double max_latency,
                   double loss) {
  set_directed(a, b, min_latency, max_latency, loss);
  set_directed(b, a, min_latency, max_latency, loss);
}

void Hub::set_directed(ProcId from, ProcId to, double min_latency,
                       double max_latency, double loss) {
  DS_CHECK_MSG(from != to, "a processor has no link to itself");
  DS_CHECK_MSG(std::isfinite(min_latency) && min_latency >= 0.0,
               "min latency must be finite and non-negative");
  DS_CHECK_MSG(std::isfinite(max_latency) && max_latency >= min_latency,
               "max latency must be finite and >= min latency");
  DS_CHECK_MSG(loss >= 0.0 && loss <= 1.0, "loss must be in [0, 1]");
  DirLink& link = links_[dir_key(from, to)];
  link.min_latency = min_latency;
  link.max_latency = max_latency;
  link.loss = loss;
}

void Hub::drop_next(ProcId from, ProcId to, std::uint64_t n) {
  const auto it = links_.find(dir_key(from, to));
  DS_CHECK_MSG(it != links_.end(), "drop_next on an unconfigured direction");
  it->second.force_drop += n;
}

std::unique_ptr<Transport> Hub::endpoint(ProcId p) {
  return std::make_unique<HubEndpoint>(this, p);
}

std::size_t Hub::backlog_depth(ProcId from, ProcId to) const {
  const auto it = links_.find(dir_key(from, to));
  return it == links_.end() ? 0 : it->second.backlog;
}

std::size_t Hub::backlog_depth() const {
  std::size_t total = 0;
  for (const auto& [key, link] : links_) total += link.backlog;
  return total;
}

void Hub::drop(ProcId from, ProcId to, const std::vector<std::uint8_t>& bytes) {
  ++dropped_;
  // peek_trace_id fully decodes — only worth it when someone is watching.
  if (tracer_ != nullptr) {
    tracer_->record(TraceEventKind::kDrop, peek_trace_id(bytes), from, to);
  }
}

void Hub::register_endpoint(ProcId p, DatagramHandler handler,
                            TimerHandler timer) {
  Sink& sink = sinks_[p];
  DS_CHECK_MSG(!sink.handler, "two endpoints registered for one processor");
  sink.handler = std::move(handler);
  sink.timer = std::move(timer);
  // The first firing happens at the next run_until, which runs every timer
  // before it advances.
}

void Hub::unregister_endpoint(ProcId p) { sinks_.erase(p); }

void Hub::send_from(ProcId from, ProcId to, std::vector<std::uint8_t> bytes) {
  if (to == kReplyPeer) {
    // Resolve "reply to the datagram being handled": only meaningful while
    // the sender's sink is mid-delivery (this call came from its handler).
    const auto sink_it = sinks_.find(from);
    if (sink_it == sinks_.end() ||
        sink_it->second.current_from == kInvalidProc) {
      drop(from, to, bytes);
      return;
    }
    to = sink_it->second.current_from;
  }
  const auto it = links_.find(dir_key(from, to));
  if (it == links_.end()) {
    drop(from, to, bytes);  // No link configured: a partition, not an error.
    return;
  }
  DirLink& link = it->second;
  if (link.force_drop > 0) {
    --link.force_drop;
    drop(from, to, bytes);
    return;
  }
  if ((link.loss > 0.0 && rng_.flip(link.loss)) ||
      link.backlog >= kMaxBacklog) {
    drop(from, to, bytes);  // Lost, or the direction's queue is full.
    return;
  }
  double due = now_ + rng_.uniform(link.min_latency, link.max_latency);
  if (due < link.last_due) due = link.last_due;  // FIFO per direction.
  link.last_due = due;
  ++link.backlog;
  queue_.push(Pending{due, next_order_++, from, to, false, std::move(bytes)});
}

void Hub::fire_timer(ProcId p) {
  const auto it = sinks_.find(p);
  if (it == sinks_.end() || !it->second.timer) return;
  Sink& sink = it->second;
  const double delay = sink.timer();
  sink.timer_order = next_order_++;
  queue_.push(Pending{now_ + std::max(delay, kMinTimerStep), sink.timer_order,
                      p, p, true, {}});
}

void Hub::deliver(Pending& item) {
  // The pop is the single point where a datagram leaves the queue —
  // decrement here so BOTH exit paths (delivery below, destination-down
  // drop) keep the per-direction backlog exact.
  const auto link_it = links_.find(dir_key(item.from, item.to));
  DS_CHECK_MSG(link_it != links_.end() && link_it->second.backlog > 0,
               "backlog accounting leak");
  --link_it->second.backlog;
  const auto it = sinks_.find(item.to);
  if (it == sinks_.end()) {
    drop(item.from, item.to, item.bytes);  // Destination down.
    return;
  }
  ++delivered_;
  it->second.current_from = item.from;
  it->second.handler(std::span<const std::uint8_t>(item.bytes));
  it->second.current_from = kInvalidProc;
  // A handler may have moved its owner's deadlines (an admission polls at
  // once); the timer finds out and reschedules.
  fire_timer(item.to);
}

void Hub::run_until(double t) {
  std::vector<ProcId> endpoints;
  endpoints.reserve(sinks_.size());
  for (const auto& [p, sink] : sinks_) endpoints.push_back(p);
  for (const ProcId p : endpoints) fire_timer(p);
  while (!queue_.empty() && queue_.top().due <= t) {
    Pending item = queue_.top();
    queue_.pop();
    now_ = std::max(now_, item.due);
    if (!item.timer) {
      deliver(item);
      continue;
    }
    const auto it = sinks_.find(item.to);
    if (it != sinks_.end() && it->second.timer_order == item.order) {
      fire_timer(item.to);
    }
  }
  now_ = std::max(now_, t);
}

}  // namespace driftsync::runtime
