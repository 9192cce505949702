#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {
/// Raw spans kept for the Chrome trace; aggregates cover every span.
constexpr std::size_t kRawCap = 100000;

std::uint32_t clamp_ns(std::int64_t d) {
  if (d < 0) return 0;
  return d > 0xffffffffLL ? 0xffffffffu : static_cast<std::uint32_t>(d);
}
}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case kHandle: return "runtime.handle";
    case kServe: return "serve.handle";
    case kSample: return "runtime.sample";
    case kOnSend: return "core.on_send";
    case kOnReceive: return "core.on_receive";
    case kScreen: return "core.screen";
    case kCheckpoint: return "core.checkpoint";
    case kEstimate: return "core.estimate";
    case kSpanCount: break;
  }
  return "?";
}

Spans::Spans() { raw_.reserve(kRawCap); }

void Spans::begin_handler(SpanName kind, std::uint64_t request) {
  in_handler_ = true;
  n_pending_ = 0;
  handler_ = Raw{};
  handler_.request = request;
  handler_.name = kind;
  handler_.t0 = now_ns();
}

void Spans::end_handler() {
  handler_.t1 = now_ns();
  in_handler_ = false;
  const std::int64_t total = handler_.t1 - handler_.t0;
  std::int64_t children = 0;
  for (std::size_t i = 0; i < n_pending_; ++i) {
    children += pending_[i].t1 - pending_[i].t0;
  }
  self_[handler_.name].push_back(clamp_ns(total - children));
  program_ns_ += total;
  const auto parent = static_cast<std::int32_t>(raw_.size());
  file(handler_, -1);
  for (std::size_t i = 0; i < n_pending_; ++i) {
    pending_[i].request = handler_.request;
    file(pending_[i], parent);
  }
  n_pending_ = 0;
}

void Spans::child(SpanName name, std::int64_t t0, std::int64_t t1) {
  Raw r;
  r.t0 = t0;
  r.t1 = t1;
  r.name = name;
  if (!in_handler_) {
    program_ns_ += t1 - t0;
    file(r, -1);
    return;
  }
  if (n_pending_ < sizeof(pending_) / sizeof(pending_[0])) {
    pending_[n_pending_++] = r;
  }
}

void Spans::file(const Raw& raw, std::int32_t parent) {
  dur_[raw.name].push_back(clamp_ns(raw.t1 - raw.t0));
  if (raw_.size() < kRawCap) {
    Raw r = raw;
    r.parent = parent;
    raw_.push_back(r);
  }
}

bool Spans::write_chrome(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = raw_.empty() ? 0 : raw_.front().t0;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const Raw& r = raw_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"request\":%llu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span_name(r.name),
                 1e-3 * static_cast<double>(r.t0 - base),
                 1e-3 * static_cast<double>(r.t1 - r.t0), i,
                 static_cast<unsigned long long>(r.request), r.parent);
  }
  std::fputs("],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
