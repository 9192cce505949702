#include "runtime/chaos.h"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "common/check.h"
#include "runtime/datagram.h"

namespace driftsync::runtime {

// ---------------------------------------------------------------------------
// ChaosEventLog

void ChaosEventLog::log(const char* fault, ProcId node, ProcId peer,
                        double value, std::uint64_t trace_id) {
  ++total_;
  ++per_fault_[fault];
  if (out_ != nullptr) {
    std::fprintf(out_,
                 "{\"chaos\":\"%s\",\"node\":%u,\"peer\":%u,\"t\":%.6f,"
                 "\"value\":%g,\"trace\":\"0x%" PRIx64 "\"}\n",
                 fault, node, peer, clock_.now(), value, trace_id);
  }
}

std::uint64_t ChaosEventLog::count(const std::string& fault) const {
  const auto it = per_fault_.find(fault);
  return it == per_fault_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// ChaosTransport

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner, ProcId self,
                               ChaosFaults faults, std::uint64_t seed,
                               const TimeSource& clock, ChaosEventLog* log)
    : inner_(std::move(inner)),
      self_(self),
      faults_(faults),
      clock_(clock),
      log_(log),
      rng_(seed) {
  DS_CHECK(inner_ != nullptr);
  DS_CHECK(faults_.drop >= 0.0 && faults_.drop <= 1.0);
  DS_CHECK(faults_.burst >= 0.0 && faults_.burst <= 1.0);
  DS_CHECK(faults_.corrupt >= 0.0 && faults_.corrupt <= 1.0);
  DS_CHECK(faults_.duplicate >= 0.0 && faults_.duplicate <= 1.0);
  DS_CHECK(faults_.reorder >= 0.0 && faults_.reorder <= 1.0);
  DS_CHECK(faults_.burst_len > 0);
}

ChaosTransport::~ChaosTransport() { stop(); }

void ChaosTransport::start(DatagramHandler handler) {
  inner_->start(std::move(handler));
}

void ChaosTransport::stop() {
  // Held-back datagrams die with the transport; count them as drops so the
  // journal's accounting stays closed.
  for (const auto& [peer, held] : held_) {
    ++injected_;
    if (log_ != nullptr) {
      log_->log("hold-drop", self_, peer, 0.0, held.trace_id);
    }
    trace_fault_drop(held.trace_id, peer);
  }
  held_.clear();
  inner_->stop();
}

void ChaosTransport::record(const char* fault, ProcId peer, double value,
                            std::uint64_t trace_id) {
  ++injected_;
  if (log_ != nullptr) log_->log(fault, self_, peer, value, trace_id);
}

void ChaosTransport::trace_fault_drop(std::uint64_t trace_id, ProcId peer) {
  if (tracer_ != nullptr) {
    tracer_->record(TraceEventKind::kDrop, trace_id, self_, peer);
  }
}

void ChaosTransport::send(ProcId to, std::vector<std::uint8_t> bytes) {
  // Peek the causal id before corruption can mutate the bytes; skip the
  // decode entirely when nobody consumes it.
  const std::uint64_t tid =
      (log_ != nullptr || tracer_ != nullptr) ? peek_trace_id(bytes) : 0;
  if (to != kReplyPeer &&
      (partitioned_all_ || partitioned_.count(to) > 0)) {
    record("partition-drop", to, 0.0, tid);
    trace_fault_drop(tid, to);
    return;
  }
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    record("burst-drop", to, 0.0, tid);
    trace_fault_drop(tid, to);
    return;
  }
  if (faults_.burst > 0.0 && rng_.flip(faults_.burst)) {
    burst_remaining_ = faults_.burst_len - 1;
    record("burst-drop", to, static_cast<double>(faults_.burst_len), tid);
    trace_fault_drop(tid, to);
    return;
  }
  if (faults_.drop > 0.0 && rng_.flip(faults_.drop)) {
    record("drop", to, 0.0, tid);
    trace_fault_drop(tid, to);
    return;
  }
  if (faults_.corrupt > 0.0 && !bytes.empty() && rng_.flip(faults_.corrupt)) {
    // At least one flip in the first three bytes (magic "DS" + version)
    // guarantees the receiver rejects the datagram as a decode drop; the
    // extra flips exercise the decoder on arbitrary garbage tails.
    bytes[rng_.uniform_index(std::min<std::size_t>(3, bytes.size()))] ^=
        static_cast<std::uint8_t>(1u << rng_.uniform_index(8));
    const std::uint64_t extra = rng_.uniform_index(4);
    for (std::uint64_t i = 0; i < extra; ++i) {
      bytes[rng_.uniform_index(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.uniform_index(8));
    }
    record("corrupt", to, static_cast<double>(1 + extra), tid);
  }
  // Reorder: a kReplyPeer send is only routable while the handler that
  // triggered it is running, so it can never be held back.
  std::vector<std::uint8_t> released;
  std::uint64_t released_tid = 0;
  if (to != kReplyPeer) {
    const auto held = held_.find(to);
    if (held != held_.end()) {
      // A hold that outlived max_hold would no longer be a mere FIFO
      // violation but an out-of-spec transit time; decay it into a drop
      // (see ChaosFaults::max_hold).
      const double age = clock_.now() - held->second.since;
      if (age > faults_.max_hold) {
        record("hold-drop", to, age, held->second.trace_id);
        trace_fault_drop(held->second.trace_id, to);
      } else {
        released = std::move(held->second.bytes);
        released_tid = held->second.trace_id;
      }
      held_.erase(held);
    } else if (faults_.reorder > 0.0 && rng_.flip(faults_.reorder)) {
      held_[to] = Held{clock_.now(), tid, std::move(bytes)};
      record("hold", to, 0.0, tid);
      return;
    }
  }
  if (faults_.duplicate > 0.0 && rng_.flip(faults_.duplicate)) {
    record("duplicate", to, 0.0, tid);
    std::vector<std::uint8_t> copy = bytes;
    inner_->send(to, std::move(copy));
  }
  const bool release = !released.empty();
  inner_->send(to, std::move(bytes));
  // Releasing the held datagram AFTER the newer one is what breaks FIFO.
  if (release) {
    record("reorder", to, 0.0, released_tid);
    inner_->send(to, std::move(released));
  }
}

void ChaosTransport::set_partitioned(ProcId peer, bool on) {
  if (on) {
    partitioned_.insert(peer);
  } else {
    partitioned_.erase(peer);
  }
  if (log_ != nullptr) {
    log_->log(on ? "partition" : "heal", self_, peer);
  }
}

void ChaosTransport::set_partitioned_all(bool on) {
  partitioned_all_ = on;
  if (log_ != nullptr) {
    log_->log(on ? "partition-all" : "heal-all", self_, kInvalidProc);
  }
}

// ---------------------------------------------------------------------------
// FaultyTimeSource

FaultyTimeSource::FaultyTimeSource(std::unique_ptr<TimeSource> inner)
    : inner_(std::move(inner)) {
  DS_CHECK(inner_ != nullptr);
  base_ = inner_->now();
  acc_ = base_;
  last_ = base_;
}

LocalTime FaultyTimeSource::now() const {
  double v = acc_ + mult_ * (inner_->now() - base_);
  if (v < last_) v = last_;  // Freeze rather than run backwards.
  last_ = v;
  return v;
}

void FaultyTimeSource::inject_step(double delta) {
  const double raw = inner_->now();
  acc_ += mult_ * (raw - base_) + delta;
  base_ = raw;
  step_total_ += delta;
}

void FaultyTimeSource::set_rate_multiplier(double mult) {
  DS_CHECK_MSG(mult >= 0.0, "a clock cannot run backwards");
  const double raw = inner_->now();
  acc_ += mult_ * (raw - base_);
  base_ = raw;
  mult_ = mult;
}

}  // namespace driftsync::runtime
