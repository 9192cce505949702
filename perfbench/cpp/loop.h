// The bench's in-process stand-ins for a Node's clock and network.
//
// VirtualTime is the Node's local clock: the load thread sets it to the
// virtual local time of each input before handing the input over, so
// every event the Node mints and every estimate it serves is stamped in
// virtual time and repeats exactly.
//
// LoopTransport hands datagrams to the Node's handler synchronously on the
// load thread and keeps what the Node sends back in an outbox the load
// thread drains after each call.  Buffers are recycled through
// take_buffer(), as a pooled socket transport does, so the steady state
// allocates nothing here.  No socket, no thread, no loopback interface.
#pragma once

#include <atomic>
#include <span>
#include <utility>
#include <vector>

#include "runtime/time_source.h"
#include "runtime/transport.h"

namespace perfbench {

class VirtualTime final : public driftsync::runtime::TimeSource {
 public:
  driftsync::LocalTime now() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void set(driftsync::LocalTime t) { now_.store(t, std::memory_order_relaxed); }

 private:
  // Atomic: the Node's parked timer thread may still read it on a wake-up.
  std::atomic<double> now_{0.0};
};

class LoopTransport final : public driftsync::runtime::Transport {
 public:
  struct Sent {
    driftsync::ProcId to = driftsync::kInvalidProc;
    std::vector<std::uint8_t> bytes;
  };

  LoopTransport() {
    outbox_.reserve(8);
    pool_.reserve(8);
  }

  void start(driftsync::runtime::DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  void stop() override {}

  void send(driftsync::ProcId to, std::vector<std::uint8_t> bytes) override {
    outbox_.push_back(Sent{to, std::move(bytes)});
  }

  std::vector<std::uint8_t> take_buffer(driftsync::ProcId to) override {
    (void)to;
    if (pool_.empty()) return {};
    std::vector<std::uint8_t> b = std::move(pool_.back());
    pool_.pop_back();
    return b;
  }

  /// Runs the Node's handler on `bytes`, on the calling thread.
  void deliver(std::span<const std::uint8_t> bytes) { handler_(bytes); }

  std::vector<Sent>& outbox() { return outbox_; }

  /// Returns the outbox buffers to the pool.
  void recycle() {
    for (Sent& s : outbox_) {
      s.bytes.clear();
      if (pool_.size() < pool_.capacity()) pool_.push_back(std::move(s.bytes));
    }
    outbox_.clear();
  }

 private:
  driftsync::runtime::DatagramHandler handler_;
  std::vector<Sent> outbox_;
  std::vector<std::vector<std::uint8_t>> pool_;
};

}  // namespace perfbench
