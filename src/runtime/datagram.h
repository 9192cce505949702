// Datagram framing for the runtime transports (DESIGN.md S7).
//
// Everything a Node puts on the wire is one of twelve self-describing
// datagram types behind a 3-byte header (magic "DS" + version).  The codec
// follows the core/wire.h contract: canonical encodings only, and every
// decode path treats its input as untrusted — malformed bytes throw
// driftsync::WireError (never a DS_CHECK std::logic_error), which the Node
// turns into a counted drop.  See DESIGN.md §6: a UDP socket is the second
// untrusted-input surface of the system after checkpoint files.
//
// The kData / kAck / kSkip trio implements the skip-commit fate protocol
// that realizes the paper's Section 3.3 detection mechanism on a transport
// that cannot know message fates:
//
//   * data datagrams carry a per-direction sequence number (from 1) and
//     piggyback the cumulative acknowledgment of the reverse direction;
//   * an ack reports (processed_hw, seen_hw): the highest datagram sequence
//     processed, and the highest seen OR renounced via a skip commit;
//   * when the sender's timeout expires it sends kSkip(n); the receiver
//     commits to never process datagram n (persistently, before replying),
//     after which the sender resolves the fate from the next ack:
//     delivered iff processed_hw >= n, lost iff seen_hw >= n > processed_hw.
//
// A loss is therefore declared only once the receiver has durably renounced
// the datagram — a false loss declaration (the Section 3.3 soundness
// requirement) is impossible; the price is liveness on a link whose
// reverse direction is permanently dead, where the skip retries forever.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/time_types.h"
#include "core/csa.h"

namespace driftsync::runtime {

/// One application/CSA message with the link-layer header the Node driver
/// needs to reconstruct the matching send event at the receiver.  A Node
/// decodes every data datagram into one DataMsg it keeps
/// (decode_data_into), so the payload's buffers are reused across
/// datagrams.
struct DataMsg {
  ProcId from = kInvalidProc;
  std::uint64_t dgram_seq = 0;     ///< Per-direction counter, starts at 1.
  std::uint64_t processed_hw = 0;  ///< Piggybacked ack, reverse direction.
  std::uint64_t seen_hw = 0;       ///< >= processed_hw (includes skips).
  std::uint32_t app_tag = 0;       ///< See SendContext::app_tag.
  std::uint32_t send_seq = 0;      ///< Sender's send-event sequence number.
  LocalTime send_lt = 0.0;         ///< Sender's local time of the send.
  CsaPayload payload;
  /// Causal trace id (common/trace.h), 0 = untraced.  Carried in the
  /// optional extension block after the payload: absent when 0, so
  /// pre-extension encoders interoperate and the canonical-encoding rule
  /// (exactly one byte string per message) is preserved in both directions.
  std::uint64_t trace_id = 0;

  friend bool operator==(const DataMsg&, const DataMsg&) = default;
};

/// Cumulative acknowledgment for the data direction `from` receives on.
struct AckMsg {
  ProcId from = kInvalidProc;
  std::uint64_t processed_hw = 0;
  std::uint64_t seen_hw = 0;  ///< >= processed_hw.

  friend bool operator==(const AckMsg&, const AckMsg&) = default;
};

/// Fate-abort request: "commit to never processing my datagrams <= skip_to
/// that you have not already processed, then ack".
struct SkipMsg {
  ProcId from = kInvalidProc;
  std::uint64_t skip_to = 0;  ///< >= 1.

  friend bool operator==(const SkipMsg&, const SkipMsg&) = default;
};

/// Estimate query (driftsync_probe).  Stateless at the responding node.
struct ProbeReq {
  std::uint64_t nonce = 0;

  friend bool operator==(const ProbeReq&, const ProbeReq&) = default;
};

/// Reply to ProbeReq: the node's current interval estimate and a stats
/// snapshot as one JSON line.  lo/hi may be infinite (unbounded estimate)
/// but never NaN.
struct ProbeResp {
  std::uint64_t nonce = 0;
  ProcId from = kInvalidProc;
  LocalTime local_time = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::string stats_json;

  friend bool operator==(const ProbeResp&, const ProbeResp&) = default;
};

/// Metrics/trace query (driftsync_probe --metrics / --trace).  Stateless at
/// the responding node, like ProbeReq.
struct MetricsReq {
  std::uint64_t nonce = 0;
  /// Cap on trace events in the reply; 0 = metrics only, no trace.  The
  /// responder additionally clamps to what fits a UDP datagram.
  std::uint32_t max_trace_events = 0;

  friend bool operator==(const MetricsReq&, const MetricsReq&) = default;
};

/// Reply to MetricsReq: Prometheus text exposition plus (optionally) a
/// Chrome-trace JSON snapshot of the node's most recent trace events.
struct MetricsResp {
  std::uint64_t nonce = 0;
  ProcId from = kInvalidProc;
  std::string metrics;     ///< Prometheus text exposition.
  std::string trace_json;  ///< Empty when no trace was requested/available.

  friend bool operator==(const MetricsResp&, const MetricsResp&) = default;
};

/// One Cristian-style exchange request from a serving-tier client
/// (DESIGN.md decision 17).  Clients never enter the AGDP peer mesh: a
/// request is stateless at the wire level and the responder keeps only a
/// fixed-footprint session (src/serve/session_table.h) keyed by client_id.
struct ClientReq {
  std::uint64_t client_id = 0;  ///< Client-chosen identity, nonzero.
  std::uint64_t req_seq = 0;    ///< Per-client counter, starts at 1.
  LocalTime client_lt = 0.0;    ///< Client local send time, echoed back.
  /// The client's previously measured round-trip time, so the server can
  /// smooth per-session RTT without keeping history.  0 = no sample yet.
  double last_rtt = 0.0;

  friend bool operator==(const ClientReq&, const ClientReq&) = default;
};

/// Reply to ClientReq: the echo timestamp plus the serving node's current
/// optimal interval estimate [lo, hi] valid at its local time server_lt.
/// The client widens hi by rtt/(1 - rho) to obtain a sound bracket of true
/// source time at the receive instant (client_session.h).  Bounds may be
/// infinite (server not yet converged) but never NaN.
///
/// When the server's disciplined output clock has initialized (DESIGN.md
/// decision 21) the reply additionally carries its monotone scalar reading
/// at server_lt plus the worst-case error bound, as an optional extension
/// block after the fixed fields — same canonical rules as the DataMsg
/// trace-id extension, so pre-extension decoders and encoders interoperate.
struct ClientResp {
  std::uint64_t client_id = 0;
  std::uint64_t req_seq = 0;       ///< Echo of ClientReq::req_seq.
  LocalTime echo_lt = 0.0;         ///< Echo of ClientReq::client_lt.
  ProcId from = kInvalidProc;      ///< Serving node.
  LocalTime server_lt = 0.0;       ///< Server local time of the reply.
  double lo = 0.0;
  double hi = 0.0;
  /// Optional disciplined reading; absent (has_disc = false) until the
  /// server's clock initializes.  disc_time is finite; disc_err >= 0.
  bool has_disc = false;
  double disc_time = 0.0;
  double disc_err = 0.0;

  friend bool operator==(const ClientResp&, const ClientResp&) = default;
};

/// Membership handshake, request leg (DESIGN.md decision 19).  "Admit me as
/// an active peer."  The receiver admits the sender (spec-neighbor gated),
/// learns its transport address from the datagram source, and replies with
/// a JoinAck echoing the nonce.  Idempotent: a JoinReq from an already
/// active member just re-acks, so lost acks are handled by retrying.
struct JoinReqMsg {
  ProcId from = kInvalidProc;
  std::uint64_t nonce = 0;  ///< Nonzero; echoed back in the JoinAck.

  friend bool operator==(const JoinReqMsg&, const JoinReqMsg&) = default;
};

/// Membership handshake, reply leg: confirms the sender admitted `from`.
struct JoinAckMsg {
  ProcId from = kInvalidProc;
  std::uint64_t nonce = 0;  ///< Echo of JoinReqMsg::nonce.

  friend bool operator==(const JoinAckMsg&, const JoinAckMsg&) = default;
};

/// Graceful departure: "retire me from your active membership".  Best
/// effort and idempotent — a leave for a non-member is a counted ignore.
/// The receiver renounces any pending skip-commit seat toward the departed
/// peer and journals its wire frontier so a later rejoin resumes sequence
/// numbers instead of replaying from scratch.
struct LeaveMsg {
  ProcId from = kInvalidProc;

  friend bool operator==(const LeaveMsg&, const LeaveMsg&) = default;
};

using Datagram =
    std::variant<DataMsg, AckMsg, SkipMsg, ProbeReq, ProbeResp, MetricsReq,
                 MetricsResp, ClientReq, ClientResp, JoinReqMsg, JoinAckMsg,
                 LeaveMsg>;

std::vector<std::uint8_t> encode_datagram(const Datagram& dgram);

/// Encodes into a caller-provided buffer (cleared first), preserving its
/// capacity.  The zero-alloc transmit path: Node::transmit pairs this with
/// Transport::take_buffer so steady-state sends reuse pooled buffers.
void encode_datagram_into(std::vector<std::uint8_t>& out,
                          const Datagram& dgram);

/// Parses one datagram; throws driftsync::WireError on anything malformed
/// (bad magic/version/type, truncation, trailing bytes, non-canonical
/// varints, seen_hw < processed_hw, zero sequence numbers, NaN times, ...).
Datagram decode_datagram(std::span<const std::uint8_t> bytes);

/// decode_datagram for a data datagram, into caller-owned storage: when
/// `bytes` is a kData datagram, rewrites every field of `out` (an absent
/// trace extension resets trace_id to 0; the payload's buffers keep their
/// capacity) and returns its observation bytes: app_tag, send_seq, send_lt
/// and the payload, the span from the byte after seen_hw to the payload's
/// end.  The piggybacked ack and the trace extension lie outside it.  For
/// a valid header of any other type it returns an empty span, reading no
/// further and leaving `out` alone.  Throws WireError on a bad header, and
/// on a data datagram exactly where decode_datagram would; `out` must not
/// be interpreted then.
std::span<const std::uint8_t> decode_data_into(
    DataMsg& out, std::span<const std::uint8_t> bytes);

/// Best-effort trace id of an encoded datagram: the DataMsg trace id when
/// `bytes` decodes to a traced DataMsg, otherwise 0.  Never throws — fault
/// paths (chaos journal, transport drop hooks) call this on bytes that may
/// be garbage.
std::uint64_t peek_trace_id(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace driftsync::runtime
