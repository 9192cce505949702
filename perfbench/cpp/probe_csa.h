// ProbeCsa: a forwarding Csa the bench hands to the simulator slot or to
// the Node in place of the algorithm itself.  Every call goes straight to
// the wrapped CSA; around the calls the probe keeps counts (always: they
// are cheap and let the traced and untraced replays be compared), and on
// traced replays it records a span per layer call.
//
// Only the load thread reaches the counted calls.  The Node's timer thread
// calls on_tick alone while its poll timer is parked, and on_tick touches
// no probe state.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "common/alloc_stats.h"
#include "core/csa.h"

namespace perfbench {

class ProbeCsa final : public driftsync::Csa {
 public:
  struct Counts {
    std::uint64_t sends = 0;
    std::uint64_t receives = 0;
    std::uint64_t reports_in = 0;   ///< Event records in received payloads.
    std::uint64_t core_allocs = 0;  ///< Heap allocations in send/receive.
  };

  /// `spans` null: untraced.  `receive_us` non-null: one wall-time sample
  /// per receive (sim-mesh's per-message latency).
  ProbeCsa(std::unique_ptr<driftsync::Csa> inner, Spans* spans,
           std::vector<float>* receive_us = nullptr)
      : inner_(std::move(inner)), spans_(spans), receive_us_(receive_us) {}

  const Counts& counts() const { return counts_; }
  void set_spans(Spans* spans) { spans_ = spans; }
  void set_receive_sink(std::vector<float>* receive_us) {
    receive_us_ = receive_us;
  }

  void init(const driftsync::SystemSpec& spec, driftsync::ProcId self) override {
    inner_->init(spec, self);
  }

  driftsync::CsaPayload on_send(const driftsync::SendContext& ctx) override {
    const std::uint64_t a0 = driftsync::alloc_stats::allocations();
    const std::int64_t t0 = spans_ != nullptr ? now_ns() : 0;
    driftsync::CsaPayload payload = inner_->on_send(ctx);
    // Read the counter before recording: filing a span may allocate.
    counts_.core_allocs += driftsync::alloc_stats::allocations() - a0;
    if (spans_ != nullptr) spans_->child(kOnSend, t0, now_ns());
    ++counts_.sends;
    return payload;
  }

  void on_receive(const driftsync::RecvContext& ctx,
                  const driftsync::CsaPayload& payload) override {
    receive([&] {
      inner_->on_receive(ctx, payload);
      return true;
    }, payload);
  }

  bool on_receive_validated(const driftsync::RecvContext& ctx,
                            const driftsync::CsaPayload& payload) override {
    return receive([&] { return inner_->on_receive_validated(ctx, payload); },
                   payload);
  }

  void on_internal(const driftsync::EventRecord& event) override {
    inner_->on_internal(event);
  }
  void on_delivery_confirmed(driftsync::ProcId dest) override {
    inner_->on_delivery_confirmed(dest);
  }
  void on_tick(driftsync::LocalTime now) override { inner_->on_tick(now); }
  void on_peer_join(driftsync::ProcId peer) override {
    inner_->on_peer_join(peer);
  }
  void on_peer_leave(driftsync::ProcId peer) override {
    inner_->on_peer_leave(peer);
  }
  driftsync::Interval peer_clock_estimate(
      driftsync::ProcId w, driftsync::LocalTime now) const override {
    return inner_->peer_clock_estimate(w, now);
  }
  bool send_unmatched(driftsync::EventId send_id) const override {
    return inner_->send_unmatched(send_id);
  }
  bool observation_feasible(driftsync::ProcId from,
                            driftsync::LocalTime send_lt,
                            driftsync::LocalTime now) const override {
    return inner_->observation_feasible(from, send_lt, now);
  }

  driftsync::ObservationScreen screen_message(
      driftsync::ProcId from, driftsync::LocalTime send_lt,
      driftsync::LocalTime now,
      const driftsync::CsaPayload& payload) const override {
    const std::int64_t t0 = spans_ != nullptr ? now_ns() : 0;
    const driftsync::ObservationScreen s =
        inner_->screen_message(from, send_lt, now, payload);
    if (spans_ != nullptr) spans_->child(kScreen, t0, now_ns());
    return s;
  }

  std::vector<std::uint8_t> checkpoint() const override {
    const std::int64_t t0 = spans_ != nullptr ? now_ns() : 0;
    std::vector<std::uint8_t> image = inner_->checkpoint();
    if (spans_ != nullptr) spans_->child(kCheckpoint, t0, now_ns());
    return image;
  }
  void restore(std::span<const std::uint8_t> bytes) override {
    inner_->restore(bytes);
  }

  driftsync::Interval estimate(driftsync::LocalTime now) const override {
    const std::int64_t t0 = spans_ != nullptr ? now_ns() : 0;
    const driftsync::Interval est = inner_->estimate(now);
    if (spans_ != nullptr) spans_->child(kEstimate, t0, now_ns());
    return est;
  }

  driftsync::CsaStats stats() const override { return inner_->stats(); }
  const char* name() const override { return inner_->name(); }

 private:
  template <typename F>
  bool receive(F&& call, const driftsync::CsaPayload& payload) {
    const std::uint64_t a0 = driftsync::alloc_stats::allocations();
    const bool timed = spans_ != nullptr || receive_us_ != nullptr;
    const std::int64_t t0 = timed ? now_ns() : 0;
    const bool ok = call();
    counts_.core_allocs += driftsync::alloc_stats::allocations() - a0;
    if (timed) {
      const std::int64_t t1 = now_ns();
      if (spans_ != nullptr) spans_->child(kOnReceive, t0, t1);
      if (receive_us_ != nullptr) {
        receive_us_->push_back(1e-3f * static_cast<float>(t1 - t0));
      }
    }
    ++counts_.receives;
    counts_.reports_in += payload.reports.size();
    return ok;
  }

  std::unique_ptr<driftsync::Csa> inner_;
  Spans* spans_;
  std::vector<float>* receive_us_;
  Counts counts_;
};

}  // namespace perfbench
