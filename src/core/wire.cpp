#include "core/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"

namespace driftsync::wire {

namespace {

// Flag byte layout: bits 0-1 kind, bit 2 "proc is delta-0 from previous
// record's proc", bit 3 "seq is prev_seq(proc)+1", bit 4 "a processing
// slack double follows" (kReceive records only, present exactly when the
// slack is non-zero — canonicity demands one spelling per record).  Bits
// 5-7 are reserved and must be zero.
constexpr std::uint8_t kKindMask = 0x03;
constexpr std::uint8_t kSameProc = 0x04;
constexpr std::uint8_t kNextSeq = 0x08;
constexpr std::uint8_t kHasSlack = 0x10;
constexpr std::uint8_t kKnownFlags =
    kKindMask | kSameProc | kNextSeq | kHasSlack;

// Smallest possible record: flag byte + 8-byte local time (both delta flags
// set, internal kind).  Used to bound count-prefix-driven allocations.
constexpr std::size_t kMinRecordBytes = 9;

/// Throws WireError("<what><why>").  Out of line, so the string building
/// stays out of the readers below and they inline into the record loop.
[[noreturn, gnu::noinline, gnu::cold]] void reject(const char* what,
                                                   const char* why) {
  throw WireError(std::string(what) + why);
}

/// Reads a varint that must fit a 32-bit field (proc ids, seq numbers).
inline std::uint32_t get_varint32(std::span<const std::uint8_t> bytes,
                                  std::size_t& offset, const char* what) {
  const std::uint64_t v = get_varint(bytes, offset);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    reject(what, " does not fit 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

/// Reads a processor id: 32-bit and not the invalid sentinel.
inline ProcId get_proc(std::span<const std::uint8_t> bytes,
                       std::size_t& offset, const char* what) {
  const ProcId p = get_varint32(bytes, offset, what);
  if (p == kInvalidProc) reject(what, " is the invalid-processor sentinel");
  return p;
}

/// Cleared-on-entry scratch reused by every decode pass on this thread.
SeqTracker& seq_scratch() {
  thread_local SeqTracker tracker;
  tracker.clear();
  return tracker;
}

}  // namespace

std::uint32_t& SeqTracker::append(ProcId p) {
  return entries_.emplace_back(p, 0).second;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_double(std::vector<std::uint8_t>& out, double v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  store_double(out.data() + at, v);
}

void prefix_length(std::vector<std::uint8_t>& out, std::size_t at) {
  const std::size_t length = out.size() - at;
  put_varint(out, length);
  const auto first = out.begin() + static_cast<std::ptrdiff_t>(at);
  std::rotate(first, first + static_cast<std::ptrdiff_t>(length), out.end());
}

namespace detail {

void throw_truncated_double() { throw WireError("truncated double"); }

std::uint64_t get_varint_slow(std::span<const std::uint8_t> bytes,
                              std::size_t& offset) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (offset >= bytes.size()) throw WireError("truncated varint");
    const std::uint8_t byte = bytes[offset++];
    // The tenth byte carries only bit 63: any higher payload bit (or a
    // continuation bit) silently discarded would break canonicity.
    if (shift == 63 && (byte & 0xfe) != 0) {
      throw WireError("varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Minimal-length encodings only: a zero continuation byte means the
      // same value had a shorter encoding the encoder would have produced.
      if (shift > 0 && byte == 0) throw WireError("over-long varint");
      return value;
    }
  }
  throw WireError("varint longer than 10 bytes");
}

}  // namespace detail

void RecordEncoder::put(std::vector<std::uint8_t>& out, const EventRecord& r) {
  std::uint8_t flags = static_cast<std::uint8_t>(r.kind) & kKindMask;
  const bool same_proc = r.id.proc == prev_proc_;
  bool found = false;
  std::uint32_t& expected = next_seq_.slot(r.id.proc, found);
  const bool next = found && expected == r.id.seq;
  if (same_proc) flags |= kSameProc;
  if (next) flags |= kNextSeq;
  const bool has_slack = r.kind == EventKind::kReceive && r.slack != 0.0;
  if (has_slack) flags |= kHasSlack;
  out.push_back(flags);
  if (!same_proc) put_varint(out, r.id.proc);
  if (!next) put_varint(out, r.id.seq);
  put_double(out, r.lt);
  if (r.kind == EventKind::kSend || r.kind == EventKind::kReceive ||
      r.kind == EventKind::kLossDecl) {
    put_varint(out, r.peer);
  }
  if (r.kind == EventKind::kReceive || r.kind == EventKind::kLossDecl) {
    put_varint(out, r.match.proc);
    put_varint(out, r.match.seq);
  }
  if (has_slack) put_double(out, r.slack);
  prev_proc_ = r.id.proc;
  expected = r.id.seq + 1;
}

std::size_t RecordEncoder::measure(const EventRecord& r) {
  bool found = false;
  std::uint32_t& expected = next_seq_.slot(r.id.proc, found);
  const std::size_t size = record_size(r, r.id.proc == prev_proc_,
                                       found && expected == r.id.seq);
  prev_proc_ = r.id.proc;
  expected = r.id.seq + 1;
  return size;
}

void encode_batch_into(std::vector<std::uint8_t>& out,
                       const EventBatch& batch) {
  put_varint(out, batch.size());
  thread_local RecordEncoder encoder;
  encoder.clear();
  for (const EventRecord& r : batch) encoder.put(out, r);
}

void IncrementalBatch::append(const EventRecord& r) {
  DS_CHECK(bytes_.size() <= std::numeric_limits<std::uint32_t>::max());
  Entry e;
  e.offset = static_cast<std::uint32_t>(bytes_.size());
  e.proc = r.id.proc;
  if (const std::uint32_t* next = encoder_.next_seq_.find(r.id.proc)) {
    e.prior_next = *next;
    e.had_prior = true;
  }
  records_.push_back(e);
  encoder_.put(bytes_, r);
}

void IncrementalBatch::truncate(std::size_t k) {
  DS_CHECK(k <= records_.size());
  if (k == records_.size()) return;
  // Undo newest first, so each processor ends at its value before record k.
  for (std::size_t i = records_.size(); i-- > k;) {
    const Entry& e = records_[i];
    if (e.had_prior) {
      encoder_.next_seq_.set(e.proc, e.prior_next);
    } else {
      encoder_.next_seq_.erase(e.proc);
    }
  }
  encoder_.prev_proc_ = k == 0 ? kInvalidProc : records_[k - 1].proc;
  bytes_.resize(records_[k].offset);
  records_.resize(k);
}

void IncrementalBatch::clear() {
  encoder_.clear();
  bytes_.clear();
  records_.clear();
}

std::size_t IncrementalBatch::encoded_size() const {
  return varint_size(records_.size()) + bytes_.size();
}

void IncrementalBatch::write(std::vector<std::uint8_t>& out) const {
  put_varint(out, records_.size());
  out.insert(out.end(), bytes_.begin(), bytes_.end());
}

std::size_t IncrementalBatch::memory_bytes() const {
  return bytes_.capacity() + records_.capacity() * sizeof(Entry) +
         encoder_.memory_bytes();
}

std::vector<std::uint8_t> encode_batch(const EventBatch& batch) {
  std::vector<std::uint8_t> out;
  out.reserve(batch.size() * 12 + 4);
  encode_batch_into(out, batch);
  return out;
}

void decode_batch_into(EventBatch& batch,
                       std::span<const std::uint8_t> bytes) {
  batch.clear();
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(bytes, offset);
  // Each record occupies at least kMinRecordBytes, so a count the buffer
  // cannot possibly hold is rejected before any allocation happens: the
  // up-front reserve below is bounded by the buffer size.
  if (count > (bytes.size() - offset) / kMinRecordBytes) {
    throw WireError("implausible batch count");
  }
  batch.reserve(count);
  ProcId prev_proc = kInvalidProc;
  SeqTracker& next_seq = seq_scratch();
  // The previous record's entry in next_seq: a record of the same
  // processor (the common case: the history protocol sends per-processor
  // runs) needs no lookup.  Valid until the next slot() call.
  std::uint32_t* expected = nullptr;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (offset >= bytes.size()) throw WireError("truncated record");
    const std::uint8_t flags = bytes[offset++];
    if ((flags & ~kKnownFlags) != 0) throw WireError("unknown flag bits");
    EventRecord& r = batch.emplace_back();
    r.kind = static_cast<EventKind>(flags & kKindMask);
    bool found = true;
    if (flags & kSameProc) {
      if (prev_proc == kInvalidProc) throw WireError("dangling proc delta");
      r.id.proc = prev_proc;
    } else {
      r.id.proc = get_proc(bytes, offset, "record processor id");
      // The encoder always emits the delta flag when it applies; an
      // explicit equal processor id is a second spelling of the same batch
      // and would break byte-for-byte re-encoding.
      if (r.id.proc == prev_proc) {
        throw WireError("redundant explicit processor id");
      }
      expected = &next_seq.slot(r.id.proc, found);
    }
    if (flags & kNextSeq) {
      if (!found) throw WireError("dangling seq delta");
      r.id.seq = *expected;
    } else {
      r.id.seq = get_varint32(bytes, offset, "record sequence number");
      if (found && *expected == r.id.seq) {
        throw WireError("redundant explicit sequence number");
      }
    }
    r.lt = get_double(bytes, offset);
    if (!std::isfinite(r.lt)) throw WireError("non-finite local time");
    if (r.kind == EventKind::kSend || r.kind == EventKind::kReceive ||
        r.kind == EventKind::kLossDecl) {
      r.peer = get_proc(bytes, offset, "peer processor id");
    }
    if (r.kind == EventKind::kReceive || r.kind == EventKind::kLossDecl) {
      r.match.proc = get_proc(bytes, offset, "match processor id");
      r.match.seq = get_varint32(bytes, offset, "match sequence number");
    }
    if (flags & kHasSlack) {
      if (r.kind != EventKind::kReceive) {
        throw WireError("slack on a non-receive record");
      }
      r.slack = get_double(bytes, offset);
      // Zero slack has exactly one spelling: no flag, no field.  Negative
      // or non-finite slack never leaves an honest encoder and would widen
      // (or, negated, unsoundly tighten) a transit constraint downstream.
      if (!std::isfinite(r.slack) || r.slack <= 0.0) {
        throw WireError("non-positive processing slack");
      }
    }
    prev_proc = r.id.proc;
    *expected = r.id.seq + 1;
  }
  if (offset != bytes.size()) throw WireError("trailing bytes");
}

EventBatch decode_batch(std::span<const std::uint8_t> bytes) {
  EventBatch batch;
  decode_batch_into(batch, bytes);
  return batch;
}

void append_payload(std::vector<std::uint8_t>& out, const CsaPayload& payload) {
  // Encoded straight into `out`: no intermediate buffer.
  const std::size_t at = out.size();
  encode_batch_into(out, payload.reports);
  prefix_length(out, at);
  put_varint(out, payload.scalars.size());
  for (const double s : payload.scalars) {
    DS_CHECK_MSG(!std::isnan(s), "NaN scalar in CSA payload");
    put_double(out, s);
  }
}

std::vector<std::uint8_t> encode_payload(const CsaPayload& payload) {
  std::vector<std::uint8_t> out;
  append_payload(out, payload);
  return out;
}

void decode_payload_into(CsaPayload& payload,
                         std::span<const std::uint8_t> bytes,
                         std::size_t& offset) {
  const std::uint64_t reports_len = get_varint(bytes, offset);
  if (reports_len > bytes.size() - offset) {
    throw WireError("payload report batch overruns buffer");
  }
  const auto len = static_cast<std::size_t>(reports_len);
  decode_batch_into(payload.reports, bytes.subspan(offset, len));
  payload.report_bytes = len;
  offset += len;
  const std::uint64_t scalar_count = get_varint(bytes, offset);
  if (scalar_count > (bytes.size() - offset) / 8) {
    throw WireError("implausible payload scalar count");
  }
  payload.scalars.resize(static_cast<std::size_t>(scalar_count));
  for (double& s : payload.scalars) {
    s = get_double(bytes, offset);
    if (std::isnan(s)) throw WireError("NaN payload scalar");
  }
}

CsaPayload decode_payload(std::span<const std::uint8_t> bytes,
                          std::size_t& offset) {
  CsaPayload payload;
  decode_payload_into(payload, bytes, offset);
  return payload;
}

CsaPayload decode_payload(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  CsaPayload payload = decode_payload(bytes, offset);
  if (offset != bytes.size()) throw WireError("trailing bytes after payload");
  return payload;
}

std::size_t encoded_size(const EventBatch& batch) {
  std::size_t size = varint_size(batch.size());
  thread_local RecordEncoder encoder;
  encoder.clear();
  for (const EventRecord& r : batch) size += encoder.measure(r);
  return size;
}

}  // namespace driftsync::wire
