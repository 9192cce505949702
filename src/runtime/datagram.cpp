#include "runtime/datagram.h"

#include <cmath>
#include <limits>

#include "common/errors.h"
#include "core/wire.h"

namespace driftsync::runtime {

namespace {

constexpr std::uint8_t kMagic0 = 'D';
constexpr std::uint8_t kMagic1 = 'S';
constexpr std::uint8_t kVersion = 1;

enum class Type : std::uint8_t {
  kData = 0,
  kAck = 1,
  kSkip = 2,
  kProbeReq = 3,
  kProbeResp = 4,
  kMetricsReq = 5,
  kMetricsResp = 6,
  kClientReq = 7,
  kClientResp = 8,
  kJoinReq = 9,
  kJoinAck = 10,
  kLeave = 11,
};
constexpr std::uint8_t kMaxType = 11;

/// Extension-block flag bits (kData only).  The block is appended after the
/// payload; each set bit contributes its field in bit order.  An absent
/// block means "no extensions" — the only canonical encoding of a message
/// with no extension fields, so flags == 0 on the wire is rejected.
constexpr std::uint8_t kExtTraceId = 0x01;
constexpr std::uint8_t kExtKnownMask = kExtTraceId;

/// Extension-block flag bits (kClientResp only), same canonical rules:
/// the disciplined reading (decision 21) is appended as flag byte +
/// (disc_time, disc_err) doubles, and omission is the only encoding of
/// "no disciplined reading yet".
constexpr std::uint8_t kExtDisciplined = 0x01;
constexpr std::uint8_t kClientRespExtKnownMask = kExtDisciplined;

constexpr std::size_t kHeaderBytes = 4;

/// Checks the magic and version; returns the type byte.
Type get_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw WireError("truncated datagram header");
  }
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    throw WireError("bad datagram magic");
  }
  if (bytes[2] != kVersion) throw WireError("unknown datagram version");
  if (bytes[3] > kMaxType) throw WireError("unknown datagram type");
  return static_cast<Type>(bytes[3]);
}

void put_header(std::vector<std::uint8_t>& out, Type type) {
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t& offset,
                      const char* what) {
  const std::uint64_t v = wire::get_varint(bytes, offset);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw WireError(std::string(what) + " does not fit 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

ProcId get_proc(std::span<const std::uint8_t> bytes, std::size_t& offset,
                const char* what) {
  const ProcId p = get_u32(bytes, offset, what);
  if (p == kInvalidProc) {
    throw WireError(std::string(what) + " is the invalid-processor sentinel");
  }
  return p;
}

/// (processed_hw, seen_hw) pair with the seen >= processed invariant.
void get_hw_pair(std::span<const std::uint8_t> bytes, std::size_t& offset,
                 std::uint64_t& processed_hw, std::uint64_t& seen_hw) {
  processed_hw = wire::get_varint(bytes, offset);
  seen_hw = wire::get_varint(bytes, offset);
  if (seen_hw < processed_hw) {
    throw WireError("ack seen high-water below processed high-water");
  }
}

void encode_body(std::vector<std::uint8_t>& out, const DataMsg& m) {
  put_header(out, Type::kData);
  wire::put_varint(out, m.from);
  wire::put_varint(out, m.dgram_seq);
  wire::put_varint(out, m.processed_hw);
  wire::put_varint(out, m.seen_hw);
  wire::put_varint(out, m.app_tag);
  wire::put_varint(out, m.send_seq);
  wire::put_double(out, m.send_lt);
  wire::append_payload(out, m.payload);
  if (m.trace_id != 0) {
    out.push_back(kExtTraceId);
    wire::put_varint(out, m.trace_id);
  }
}

void encode_body(std::vector<std::uint8_t>& out, const AckMsg& m) {
  put_header(out, Type::kAck);
  wire::put_varint(out, m.from);
  wire::put_varint(out, m.processed_hw);
  wire::put_varint(out, m.seen_hw);
}

void encode_body(std::vector<std::uint8_t>& out, const SkipMsg& m) {
  put_header(out, Type::kSkip);
  wire::put_varint(out, m.from);
  wire::put_varint(out, m.skip_to);
}

void encode_body(std::vector<std::uint8_t>& out, const ProbeReq& m) {
  put_header(out, Type::kProbeReq);
  wire::put_varint(out, m.nonce);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  wire::put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::string get_string(std::span<const std::uint8_t> bytes,
                       std::size_t& offset, const char* what) {
  const std::uint64_t len = wire::get_varint(bytes, offset);
  if (len > bytes.size() - offset) {
    throw WireError(std::string(what) + " overruns buffer");
  }
  std::string s(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                bytes.begin() + static_cast<std::ptrdiff_t>(offset) +
                    static_cast<std::ptrdiff_t>(len));
  offset += static_cast<std::size_t>(len);
  return s;
}

void encode_body(std::vector<std::uint8_t>& out, const ProbeResp& m) {
  put_header(out, Type::kProbeResp);
  wire::put_varint(out, m.nonce);
  wire::put_varint(out, m.from);
  wire::put_double(out, m.local_time);
  wire::put_double(out, m.lo);
  wire::put_double(out, m.hi);
  put_string(out, m.stats_json);
}

void encode_body(std::vector<std::uint8_t>& out, const MetricsReq& m) {
  put_header(out, Type::kMetricsReq);
  wire::put_varint(out, m.nonce);
  wire::put_varint(out, m.max_trace_events);
}

void encode_body(std::vector<std::uint8_t>& out, const MetricsResp& m) {
  put_header(out, Type::kMetricsResp);
  wire::put_varint(out, m.nonce);
  wire::put_varint(out, m.from);
  put_string(out, m.metrics);
  put_string(out, m.trace_json);
}

void encode_body(std::vector<std::uint8_t>& out, const ClientReq& m) {
  put_header(out, Type::kClientReq);
  wire::put_varint(out, m.client_id);
  wire::put_varint(out, m.req_seq);
  wire::put_double(out, m.client_lt);
  wire::put_double(out, m.last_rtt);
}

void encode_body(std::vector<std::uint8_t>& out, const ClientResp& m) {
  put_header(out, Type::kClientResp);
  wire::put_varint(out, m.client_id);
  wire::put_varint(out, m.req_seq);
  wire::put_double(out, m.echo_lt);
  wire::put_varint(out, m.from);
  wire::put_double(out, m.server_lt);
  wire::put_double(out, m.lo);
  wire::put_double(out, m.hi);
  if (m.has_disc) {
    out.push_back(kExtDisciplined);
    wire::put_double(out, m.disc_time);
    wire::put_double(out, m.disc_err);
  }
}

void encode_body(std::vector<std::uint8_t>& out, const JoinReqMsg& m) {
  put_header(out, Type::kJoinReq);
  wire::put_varint(out, m.from);
  wire::put_varint(out, m.nonce);
}

void encode_body(std::vector<std::uint8_t>& out, const JoinAckMsg& m) {
  put_header(out, Type::kJoinAck);
  wire::put_varint(out, m.from);
  wire::put_varint(out, m.nonce);
}

void encode_body(std::vector<std::uint8_t>& out, const LeaveMsg& m) {
  put_header(out, Type::kLeave);
  wire::put_varint(out, m.from);
}

/// Decodes a data datagram's body into `m`, rewriting every field, and
/// returns its observation bytes (see decode_data_into).
std::span<const std::uint8_t> decode_data(DataMsg& m,
                                          std::span<const std::uint8_t> bytes,
                                          std::size_t& offset) {
  m.from = get_proc(bytes, offset, "data sender");
  m.dgram_seq = wire::get_varint(bytes, offset);
  if (m.dgram_seq == 0) throw WireError("zero data datagram sequence");
  get_hw_pair(bytes, offset, m.processed_hw, m.seen_hw);
  const std::size_t observation = offset;
  m.app_tag = get_u32(bytes, offset, "application tag");
  m.send_seq = get_u32(bytes, offset, "send-event sequence");
  m.send_lt = wire::get_double(bytes, offset);
  if (!std::isfinite(m.send_lt)) throw WireError("non-finite send local time");
  wire::decode_payload_into(m.payload, bytes, offset);
  const std::span<const std::uint8_t> observed =
      bytes.subspan(observation, offset - observation);
  m.trace_id = 0;
  if (offset < bytes.size()) {
    // Optional extension block.  Canonical rules: a zero flag byte encodes
    // nothing (the canonical form is omission), unknown bits are rejected
    // (we cannot skip fields we cannot size), and a zero trace id must be
    // encoded by omission.  A duplicated block trips the trailing-bytes
    // check.
    const std::uint8_t flags = bytes[offset++];
    if (flags == 0) throw WireError("empty datagram extension flags");
    if ((flags & ~kExtKnownMask) != 0) {
      throw WireError("unknown datagram extension flags");
    }
    if ((flags & kExtTraceId) != 0) {
      m.trace_id = wire::get_varint(bytes, offset);
      if (m.trace_id == 0) throw WireError("redundant zero trace id");
    }
  }
  return observed;
}

AckMsg decode_ack(std::span<const std::uint8_t> bytes, std::size_t& offset) {
  AckMsg m;
  m.from = get_proc(bytes, offset, "ack sender");
  get_hw_pair(bytes, offset, m.processed_hw, m.seen_hw);
  return m;
}

SkipMsg decode_skip(std::span<const std::uint8_t> bytes, std::size_t& offset) {
  SkipMsg m;
  m.from = get_proc(bytes, offset, "skip sender");
  m.skip_to = wire::get_varint(bytes, offset);
  if (m.skip_to == 0) throw WireError("zero skip target");
  return m;
}

ProbeReq decode_probe_req(std::span<const std::uint8_t> bytes,
                          std::size_t& offset) {
  ProbeReq m;
  m.nonce = wire::get_varint(bytes, offset);
  return m;
}

ProbeResp decode_probe_resp(std::span<const std::uint8_t> bytes,
                            std::size_t& offset) {
  ProbeResp m;
  m.nonce = wire::get_varint(bytes, offset);
  m.from = get_proc(bytes, offset, "probe responder");
  m.local_time = wire::get_double(bytes, offset);
  if (!std::isfinite(m.local_time)) {
    throw WireError("non-finite probe local time");
  }
  m.lo = wire::get_double(bytes, offset);
  m.hi = wire::get_double(bytes, offset);
  if (std::isnan(m.lo) || std::isnan(m.hi)) {
    throw WireError("NaN probe estimate bound");
  }
  if (m.lo > m.hi) throw WireError("inverted probe estimate");
  m.stats_json = get_string(bytes, offset, "probe stats");
  return m;
}

MetricsReq decode_metrics_req(std::span<const std::uint8_t> bytes,
                              std::size_t& offset) {
  MetricsReq m;
  m.nonce = wire::get_varint(bytes, offset);
  m.max_trace_events = get_u32(bytes, offset, "trace event cap");
  return m;
}

MetricsResp decode_metrics_resp(std::span<const std::uint8_t> bytes,
                                std::size_t& offset) {
  MetricsResp m;
  m.nonce = wire::get_varint(bytes, offset);
  m.from = get_proc(bytes, offset, "metrics responder");
  m.metrics = get_string(bytes, offset, "metrics text");
  m.trace_json = get_string(bytes, offset, "trace snapshot");
  return m;
}

ClientReq decode_client_req(std::span<const std::uint8_t> bytes,
                            std::size_t& offset) {
  ClientReq m;
  m.client_id = wire::get_varint(bytes, offset);
  if (m.client_id == 0) throw WireError("zero client id");
  m.req_seq = wire::get_varint(bytes, offset);
  if (m.req_seq == 0) throw WireError("zero client request sequence");
  m.client_lt = wire::get_double(bytes, offset);
  if (!std::isfinite(m.client_lt)) {
    throw WireError("non-finite client local time");
  }
  m.last_rtt = wire::get_double(bytes, offset);
  if (!std::isfinite(m.last_rtt) || m.last_rtt < 0.0) {
    throw WireError("invalid client round-trip sample");
  }
  return m;
}

ClientResp decode_client_resp(std::span<const std::uint8_t> bytes,
                              std::size_t& offset) {
  ClientResp m;
  m.client_id = wire::get_varint(bytes, offset);
  if (m.client_id == 0) throw WireError("zero client id");
  m.req_seq = wire::get_varint(bytes, offset);
  if (m.req_seq == 0) throw WireError("zero client request sequence");
  m.echo_lt = wire::get_double(bytes, offset);
  if (!std::isfinite(m.echo_lt)) throw WireError("non-finite echo time");
  m.from = get_proc(bytes, offset, "serve responder");
  m.server_lt = wire::get_double(bytes, offset);
  if (!std::isfinite(m.server_lt)) {
    throw WireError("non-finite server local time");
  }
  m.lo = wire::get_double(bytes, offset);
  m.hi = wire::get_double(bytes, offset);
  if (std::isnan(m.lo) || std::isnan(m.hi)) {
    throw WireError("NaN serve estimate bound");
  }
  if (m.lo > m.hi) throw WireError("inverted serve estimate");
  if (offset < bytes.size()) {
    // Optional extension block, canonical rules as in decode_data: a zero
    // flag byte encodes nothing (omission is the canonical form), unknown
    // bits are rejected, and an absent disciplined reading must be encoded
    // by omission.
    const std::uint8_t flags = bytes[offset++];
    if (flags == 0) throw WireError("empty client-resp extension flags");
    if ((flags & ~kClientRespExtKnownMask) != 0) {
      throw WireError("unknown client-resp extension flags");
    }
    if ((flags & kExtDisciplined) != 0) {
      m.has_disc = true;
      m.disc_time = wire::get_double(bytes, offset);
      if (!std::isfinite(m.disc_time)) {
        throw WireError("non-finite disciplined reading");
      }
      m.disc_err = wire::get_double(bytes, offset);
      if (std::isnan(m.disc_err) || m.disc_err < 0.0) {
        throw WireError("invalid disciplined error bound");
      }
    }
  }
  return m;
}

JoinReqMsg decode_join_req(std::span<const std::uint8_t> bytes,
                           std::size_t& offset) {
  JoinReqMsg m;
  m.from = get_proc(bytes, offset, "join requester");
  m.nonce = wire::get_varint(bytes, offset);
  if (m.nonce == 0) throw WireError("zero join nonce");
  return m;
}

JoinAckMsg decode_join_ack(std::span<const std::uint8_t> bytes,
                           std::size_t& offset) {
  JoinAckMsg m;
  m.from = get_proc(bytes, offset, "join acknowledger");
  m.nonce = wire::get_varint(bytes, offset);
  if (m.nonce == 0) throw WireError("zero join nonce");
  return m;
}

LeaveMsg decode_leave(std::span<const std::uint8_t> bytes,
                      std::size_t& offset) {
  LeaveMsg m;
  m.from = get_proc(bytes, offset, "leaving peer");
  return m;
}

}  // namespace

std::vector<std::uint8_t> encode_datagram(const Datagram& dgram) {
  std::vector<std::uint8_t> out;
  encode_datagram_into(out, dgram);
  return out;
}

void encode_datagram_into(std::vector<std::uint8_t>& out,
                          const Datagram& dgram) {
  out.clear();
  std::visit([&out](const auto& m) { encode_body(out, m); }, dgram);
}

Datagram decode_datagram(std::span<const std::uint8_t> bytes) {
  const Type type = get_header(bytes);
  std::size_t offset = kHeaderBytes;
  Datagram dgram;
  switch (type) {
    case Type::kData:
      (void)decode_data(std::get<DataMsg>(dgram), bytes, offset);
      break;
    case Type::kAck:
      dgram = decode_ack(bytes, offset);
      break;
    case Type::kSkip:
      dgram = decode_skip(bytes, offset);
      break;
    case Type::kProbeReq:
      dgram = decode_probe_req(bytes, offset);
      break;
    case Type::kProbeResp:
      dgram = decode_probe_resp(bytes, offset);
      break;
    case Type::kMetricsReq:
      dgram = decode_metrics_req(bytes, offset);
      break;
    case Type::kMetricsResp:
      dgram = decode_metrics_resp(bytes, offset);
      break;
    case Type::kClientReq:
      dgram = decode_client_req(bytes, offset);
      break;
    case Type::kClientResp:
      dgram = decode_client_resp(bytes, offset);
      break;
    case Type::kJoinReq:
      dgram = decode_join_req(bytes, offset);
      break;
    case Type::kJoinAck:
      dgram = decode_join_ack(bytes, offset);
      break;
    case Type::kLeave:
      dgram = decode_leave(bytes, offset);
      break;
  }
  if (offset != bytes.size()) throw WireError("trailing bytes after datagram");
  return dgram;
}

std::span<const std::uint8_t> decode_data_into(
    DataMsg& out, std::span<const std::uint8_t> bytes) {
  if (get_header(bytes) != Type::kData) return {};
  std::size_t offset = kHeaderBytes;
  const std::span<const std::uint8_t> observed =
      decode_data(out, bytes, offset);
  if (offset != bytes.size()) throw WireError("trailing bytes after datagram");
  return observed;
}

std::uint64_t peek_trace_id(std::span<const std::uint8_t> bytes) noexcept {
  try {
    const Datagram dgram = decode_datagram(bytes);
    if (const auto* data = std::get_if<DataMsg>(&dgram)) {
      return data->trace_id;
    }
  } catch (...) {
    // Garbage (e.g. post-corruption bytes) simply has no trace id.
  }
  return 0;
}

}  // namespace driftsync::runtime
