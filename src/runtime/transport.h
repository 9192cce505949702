// Datagram transport abstraction for the runtime (DESIGN.md S7).
//
// A Transport moves opaque byte buffers between processors, addressed by
// ProcId, with datagram semantics: unordered in principle, unreliable
// always (messages may be dropped silently, which is precisely the
// Section 3.3 setting the loss-declaration machinery exists for).  The
// Node driver owns all framing and fate tracking; transports never parse
// the bytes they carry.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"

namespace driftsync::runtime {

/// Receive callback, valid span for the duration of the call.  A transport
/// never invokes it concurrently with itself or with the timer below, but
/// its loop need not run on the owner's thread (UDP: the loop thread), so
/// handlers synchronize with the rest of their owner (the Node: one mutex).
using DatagramHandler = std::function<void(std::span<const std::uint8_t>)>;

/// Timer callback: does whatever work of its owner is due and returns how
/// many seconds (on the owner's clock) until it next wants to run.  Called
/// from the same loop as the DatagramHandler, never concurrently with it.
using TimerHandler = std::function<double()>;

/// Transport-level counters, all monotonic.  A transport without the
/// corresponding machinery reports zeros — the fields exist so the Node can
/// surface any transport's health through one stats/metrics path.
struct TransportStats {
  std::uint64_t send_drops = 0;     ///< Outbound dropped (peer/queue/error).
  std::uint64_t recv_drops = 0;     ///< Inbound dropped (e.g. truncated).
  std::uint64_t socket_errors = 0;  ///< POLLERR/POLLHUP/POLLNVAL consumed.
  std::uint64_t recv_batches = 0;   ///< Batched-receive calls that got data.
  std::uint64_t recv_datagrams = 0;
  std::uint64_t send_batches = 0;   ///< Batched-send calls that moved data.
  std::uint64_t send_datagrams = 0;
};

/// Reserved destination for send(): while a handler invocation is running,
/// it addresses the origin of the datagram being handled (UDP: the source
/// address; hub: the sending endpoint).  Probe replies use it — a probe
/// requester is not a configured peer.  Outside a handler call, sends to
/// kReplyPeer are dropped.
inline constexpr ProcId kReplyPeer = kInvalidProc - 1;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers the receive handler and starts delivery.  Called once,
  /// before the first send().
  virtual void start(DatagramHandler handler) = 0;

  /// Stops delivery and returns only after any in-flight handler or timer
  /// call has completed (so their captures may be destroyed afterwards).
  /// Idempotent.
  virtual void stop() = 0;

  /// Registers the owner's timer work, before start().  A transport that
  /// runs a loop calls it at start, after every delivery, and once the
  /// delay it last returned has passed (on the transport's own clock; an
  /// early call finds nothing due and returns the rest).  The default does
  /// nothing: a transport driven by hand never runs its owner's timers.
  virtual void set_timer(TimerHandler timer) { (void)timer; }

  /// Best-effort datagram to `to`.  Never blocks for long; may drop the
  /// datagram silently (unknown peer, full queue, down link).
  virtual void send(ProcId to, std::vector<std::uint8_t> bytes) = 0;

  /// A buffer suitable for encoding the next send to `to`, empty but
  /// possibly with capacity retained from a completed earlier send.
  /// Pooled transports (UdpTransport) recycle here so the encode-and-send
  /// path allocates nothing in steady state; the default is a fresh
  /// buffer, which send() accepts all the same.
  [[nodiscard]] virtual std::vector<std::uint8_t> take_buffer(ProcId to) {
    (void)to;
    return {};
  }

  /// Dynamic membership, admit side (DESIGN.md decision 19).  Callable only
  /// from inside a handler invocation: binds `peer` to the source address of
  /// the datagram currently being handled, so a joiner is reachable without
  /// restarting the transport.  Returns false when the binding could not be
  /// made (e.g. called outside a handler).  Transports that already route by
  /// ProcId alone (hub endpoints) need no binding and return true.
  [[nodiscard]] virtual bool admit_current_sender(ProcId peer) {
    (void)peer;
    return true;
  }

  /// Dynamic membership, retire side: releases everything queued for `peer`
  /// (backlog, pooled buffers, scheduler slots) and forgets its address.
  /// Datagrams still queued are dropped (counted as send_drops).  Idempotent;
  /// unknown peers are ignored.
  virtual void retire_peer(ProcId peer) { (void)peer; }

  /// Snapshot of the transport-level counters; the default is all-zero for
  /// transports that track nothing.
  [[nodiscard]] virtual TransportStats transport_stats() const { return {}; }

  /// Appends transport-specific Prometheus text exposition (histograms and
  /// the like) to `out`.  `labels` is a comma-separated label list such as
  /// `node="2"` (no surrounding braces); implementations may extend it with
  /// their own labels.  Default: nothing to expose.
  virtual void append_metrics(std::string& out,
                              const std::string& labels) const {
    (void)out;
    (void)labels;
  }
};

}  // namespace driftsync::runtime
