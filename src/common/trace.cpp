#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/json.h"

namespace driftsync {

namespace {

double steady_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSend:
      return "send";
    case TraceEventKind::kDeliver:
      return "deliver";
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kRenounce:
      return "renounce";
    case TraceEventKind::kQuarantineEnter:
      return "quarantine_enter";
    case TraceEventKind::kQuarantineExit:
      return "quarantine_exit";
    case TraceEventKind::kSkipCommit:
      return "skip_commit";
    case TraceEventKind::kCheckpoint:
      return "checkpoint";
    case TraceEventKind::kExternalize:
      return "externalize";
    case TraceEventKind::kClientReq:
      return "client_req";
    case TraceEventKind::kClientResp:
      return "client_resp";
    case TraceEventKind::kSuspect:
      return "suspect";
    case TraceEventKind::kCrossCheckFail:
      return "cross_check_fail";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t capacity, std::function<double()> clock)
    : capacity_(round_up_pow2(capacity)),
      slots_(new Slot[capacity_]),
      clock_(clock ? std::move(clock) : steady_seconds) {}

void Tracer::record(TraceEventKind kind, std::uint64_t trace_id, ProcId node,
                    ProcId peer, double value) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  TraceEvent ev;
  ev.t = clock_();
  ev.trace_id = trace_id;
  ev.node = node;
  ev.peer = peer;
  ev.kind = kind;
  ev.value = value;

  const std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[i & (capacity_ - 1)];
  // Seqlock publish: odd stamp marks the write in flight for generation i,
  // even stamp (2i+2) marks it complete.  A reader that sees differing or
  // odd stamps around its copy discards the slot.  The odd stamp is an
  // acquire read-modify-write, so no payload store moves above it, and a
  // reader whose closing read-modify-write it reads from synchronizes with
  // it (Boehm, "Can seqlocks get along with programming language memory
  // models?", 2012).  Fences would do the same, but TSan cannot model them.
  static_assert(std::is_trivially_copyable_v<TraceEvent>);
  std::uint64_t raw[Slot::kWords] = {};
  std::memcpy(raw, &ev, sizeof(ev));
  slot.stamp.exchange(2 * i + 1, std::memory_order_acquire);
  for (std::size_t w = 0; w < Slot::kWords; ++w) {
    slot.words[w].store(raw[w], std::memory_order_relaxed);
  }
  slot.stamp.store(2 * i + 2, std::memory_order_release);
}

std::uint64_t Tracer::dropped() const {
  const std::uint64_t n = head_.load(std::memory_order_relaxed);
  return n > capacity_ ? n - capacity_ : 0;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t live = std::min<std::uint64_t>(head, capacity_);
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(live));
  for (std::uint64_t i = head - live; i < head; ++i) {
    Slot& slot = slots_[i & (capacity_ - 1)];
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before != 2 * i + 2) continue;  // Overwritten or mid-write.
    std::uint64_t raw[Slot::kWords];
    for (std::size_t w = 0; w < Slot::kWords; ++w) {
      raw[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    // A release read-don't-modify-write: the payload loads cannot sink
    // below it, and it reads the latest stamp, so if a writer's odd stamp
    // follows it, that writer's payload stores cannot have been read.
    const std::uint64_t after =
        slot.stamp.fetch_add(0, std::memory_order_release);
    if (after != before) continue;  // Torn by a concurrent writer.
    TraceEvent ev;
    std::memcpy(&ev, raw, sizeof(ev));
    out.push_back(ev);
  }
  return out;
}

std::vector<TraceEvent> Tracer::last_for(ProcId node, std::size_t k) const {
  const std::vector<TraceEvent> all = snapshot();
  std::vector<TraceEvent> out;
  for (auto it = all.rbegin(); it != all.rend() && out.size() < k; ++it) {
    if (it->node == node) out.push_back(*it);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string trace_to_chrome_json(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  char buf[64];
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += trace_event_kind_name(ev.kind);
    out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    // Chrome expects microseconds; llround keeps ties stable across
    // platforms so golden files stay byte-identical.
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::llround(ev.t * 1e6)));
    out += buf;
    out += ",\"pid\":";
    out += std::to_string(ev.node);
    out += ",\"tid\":";
    out += std::to_string(ev.peer);
    out += ",\"args\":{\"trace\":\"0x";
    std::snprintf(buf, sizeof(buf), "%" PRIx64, ev.trace_id);
    out += buf;
    out += "\",\"value\":";
    out += json::number(ev.value);
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace driftsync
