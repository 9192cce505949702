#include "runtime/byzantine.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "common/errors.h"
#include "runtime/chaos.h"
#include "runtime/datagram.h"

namespace driftsync::runtime {

ByzantinePeer::ByzantinePeer(std::unique_ptr<Transport> inner, ProcId self,
                             ByzantineStrategy strategy, std::uint64_t seed,
                             const TimeSource& clock, ChaosEventLog* log)
    : inner_(std::move(inner)),
      self_(self),
      strategy_(strategy),
      clock_(clock),
      log_(log),
      rng_(seed),
      start_(clock.now()) {}

ByzantinePeer::~ByzantinePeer() { stop(); }

void ByzantinePeer::start(DatagramHandler handler) {
  // The inbound path is untouched: a Byzantine peer lies, it is not deaf.
  inner_->start(std::move(handler));
}

void ByzantinePeer::stop() {
  // Held datagrams die with the transport — by then they are stale enough
  // that releasing them would be a spec violation, not a delay attack.
  held_.clear();
  inner_->stop();
}

bool ByzantinePeer::mutate(ProcId to, std::vector<std::uint8_t>& bytes) {
  Datagram dgram;
  try {
    dgram = decode_datagram(bytes);
  } catch (const WireError&) {
    return false;  // Not ours to improve; pass malformed bytes through.
  }
  auto* data = std::get_if<DataMsg>(&dgram);
  if (data == nullptr) return false;  // Only observations are worth lying in.
  ++data_sends_;
  bool rewritten = false;

  // Composite timestamp offset: the skew ramp (sign per destination parity
  // when equivocating) plus the flapping spike.  Applied consistently to
  // the header send_lt AND every self-owned payload record, so the lie is
  // internally coherent — monotone per-processor timestamps, header
  // matching the reported send event — and survives every sanity check
  // that an insane clock would trip.
  double offset = 0.0;
  if (strategy_.skew_rate != 0.0) {
    const double ramp = std::min(strategy_.skew_max,
                                 strategy_.skew_rate * (clock_.now() - start_));
    const bool flip = strategy_.equivocate && (to % 2 == 1);
    offset += flip ? -ramp : ramp;
    if (log_ != nullptr && ramp != 0.0) {
      log_->log(strategy_.equivocate ? "byz-equivocate" : "byz-skew", self_,
                to, flip ? -ramp : ramp, data->trace_id);
    }
  }
  if (strategy_.flip_every > 0 && data_sends_ % strategy_.flip_every == 0) {
    offset += strategy_.flip_offset;
    if (log_ != nullptr) {
      log_->log("byz-flip", self_, to, strategy_.flip_offset, data->trace_id);
    }
  }
  if (offset != 0.0) {
    data->send_lt += offset;
    for (EventRecord& r : data->payload.reports) {
      if (r.id.proc == self_) r.lt += offset;
    }
    rewritten = true;
  }

  // Forge a relayed foreign record: frame an honest third party.  Drawn
  // every data send (fixed draw order keeps the run seed-replayable).
  if (strategy_.forge > 0.0 && rng_.next_double() < strategy_.forge) {
    std::vector<std::size_t> foreign;
    for (std::size_t i = 0; i < data->payload.reports.size(); ++i) {
      if (data->payload.reports[i].id.proc != self_) foreign.push_back(i);
    }
    if (!foreign.empty()) {
      EventRecord& victim =
          data->payload.reports[foreign[rng_.uniform_index(foreign.size())]];
      victim.lt += strategy_.forge_magnitude;
      rewritten = true;
      if (log_ != nullptr) {
        log_->log("byz-forge", self_, victim.id.proc,
                  strategy_.forge_magnitude, data->trace_id);
      }
    }
  }

  if (rewritten) {
    encode_datagram_into(bytes, dgram);
    ++mutations_;
  }
  return true;  // bytes hold a (possibly rewritten) data datagram.
}

void ByzantinePeer::send(ProcId to, std::vector<std::uint8_t> bytes) {
  // Release every held datagram that is delay_hold old, oldest first.
  const double now = clock_.now();
  while (!held_.empty() &&
         now - held_.front().held_at >= strategy_.delay_hold) {
    inner_->send(held_.front().to, std::move(held_.front().bytes));
    held_.pop_front();
  }
  if (!active_ || !mutate(to, bytes)) {
    inner_->send(to, std::move(bytes));
    return;
  }
  // Mutating replayer: re-send the previous observation to this
  // destination under its original dgram_seq, timestamps nudged —
  // byte-inequal to what the receiver first resolved.
  if (strategy_.replay > 0.0 && rng_.next_double() < strategy_.replay) {
    const auto it = last_sent_.find(to);
    if (it != last_sent_.end()) {
      try {
        Datagram old = decode_datagram(it->second);
        DataMsg& oldd = std::get<DataMsg>(old);
        oldd.send_lt += rng_.uniform(1e-3, 2e-3);
        ++mutations_;
        if (log_ != nullptr) {
          log_->log("byz-replay", self_, to,
                    static_cast<double>(oldd.dgram_seq), oldd.trace_id);
        }
        inner_->send(to, encode_datagram(old));
      } catch (const WireError&) {
      }
    }
  }
  last_sent_[to] = bytes;
  // Delay attack: hold this observation until it is delay_hold old
  // (asymmetric extra latency, within the transit bounds when delay_hold is
  // budgeted against the spec).
  if (strategy_.delay > 0.0 && rng_.next_double() < strategy_.delay) {
    if (log_ != nullptr) {
      log_->log("byz-delay", self_, to, strategy_.delay_hold,
                peek_trace_id(bytes));
    }
    held_.push_back(Held{to, now, std::move(bytes)});
    return;
  }
  inner_->send(to, std::move(bytes));
}

}  // namespace driftsync::runtime
