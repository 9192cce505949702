// Batched, nonblocking IPv4/UDP transport (DESIGN.md S7, §7).
//
// One socket and one event-loop thread.  The loop owns the peers' backlog
// rings, an eventfd wake, a reusable receive arena (recv_batch slots of
// max_datagram bytes each) and a free-list of send buffers, so the
// steady-state receive->decode->handle->reply path and the uncontended send
// path perform zero heap allocations (bench_transport verifies this with
// the counting operator-new hook).  recvmmsg/sendmmsg amortize syscalls
// over up to recv_batch/send_batch datagrams, with a graceful
// single-message fallback where the batched calls are unavailable.
//
// Inbound datagrams go to the handler on the loop thread (see
// runtime/transport.h), and the owner's timer runs there too, its next
// deadline folded into the poll timeout, so a Node over this transport
// runs on one thread.  Outbound datagrams that would block queue per peer
// (bounded ring) and flush round-robin across the peers when the socket
// becomes writable, so no peer's backlog can starve another's.  Oversized
// inbound datagrams (> max_datagram, detected via MSG_TRUNC) are dropped
// and counted, never delivered truncated.  Membership is dynamic
// (DESIGN.md decision 19): add_peer / admit_current_sender register a
// peer's address at any time, and retire_peer releases its backlog ring,
// pooled buffers, and round-robin slot without restarting the loop.  The
// datagram's own `from` field — not the UDP source address — identifies
// the sender, which makes the socket an untrusted-input surface in full
// (DESIGN.md §6): any host that can reach the port can inject bytes, and
// the Node above survives arbitrary garbage by construction (WireError =>
// counted drop).
//
// The raw syscall layer sits behind UdpIoOps so tests can script socket
// readiness/errors deterministically and benches can measure the engine
// with the kernel stubbed out; production uses the real-syscall singleton.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <poll.h>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/trace.h"
#include "runtime/transport.h"

namespace driftsync::runtime {

/// One inbound datagram slot: `data`/`cap` point into the loop's arena and
/// are set up by the transport; recv_batch() fills `len`, `truncated`, and
/// `src` for the first `n` slots it returns.
struct UdpRecvSlot {
  std::uint8_t* data = nullptr;
  std::size_t cap = 0;
  std::size_t len = 0;
  bool truncated = false;  ///< Payload exceeded cap (MSG_TRUNC).
  sockaddr_in src{};
};

/// One outbound datagram for send_batch(); `data` stays owned by the caller
/// for the duration of the call.
struct UdpSendItem {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  sockaddr_in addr{};
};

/// send_batch() outcome: `sent` leading items left the socket.  `blocked`
/// means the socket would block on item `sent` (retry it later);
/// `hard_error` means item `sent` failed permanently (drop it and move on).
struct UdpSendResult {
  std::size_t sent = 0;
  bool blocked = false;
  bool hard_error = false;
};

/// Syscall seam for the transport event loop.  The real implementation
/// issues poll/recvmmsg/sendmmsg (falling back to recvmsg/sendmsg loops
/// where the batched calls are unavailable); tests and benches substitute
/// scripted readiness and in-memory queues.
class UdpIoOps {
 public:
  virtual ~UdpIoOps() = default;

  /// poll(2) semantics: fills revents, returns ready count, 0 on timeout,
  /// -1 with errno on failure.
  virtual int poll_io(pollfd* fds, std::size_t nfds, int timeout_ms) = 0;

  /// Receives up to `n` datagrams into `slots` without blocking; returns
  /// how many were filled (0 = nothing available).
  virtual std::size_t recv_batch(int fd, UdpRecvSlot* slots,
                                 std::size_t n) = 0;

  /// Sends the leading run of `items` without blocking.
  virtual UdpSendResult send_batch(int fd, const UdpSendItem* items,
                                   std::size_t n) = 0;
};

/// The production syscall implementation (stateless singleton).
UdpIoOps& real_udp_io_ops();

class UdpTransport : public Transport {
 public:
  struct Options {
    std::size_t recv_batch = 16;  ///< Max datagrams per batched receive.
    std::size_t send_batch = 16;  ///< Max datagrams per peer per flush call.
    /// Largest datagram accepted inbound; anything larger is dropped and
    /// counted in recv_drops (never delivered truncated).  Send-side
    /// payloads are bounded by the CSA's O(K1*D) report batches, far below
    /// the default.
    std::size_t max_datagram = 65536;
    /// Recycled send buffers kept (capacity reuse is what makes the
    /// steady-state send path allocation-free).
    std::size_t pool_buffers = 64;
    /// Syscall seam override for tests/benches; not owned.  Null = real
    /// syscalls.
    UdpIoOps* ops = nullptr;
  };

  /// Binds `bind_host:bind_port` (IPv4 dotted quad; port 0 picks an
  /// ephemeral port, see local_port()).  Throws std::runtime_error on
  /// socket/bind failure — callers that can run without a network (tests)
  /// catch and skip.
  UdpTransport(const std::string& bind_host, std::uint16_t bind_port);
  UdpTransport(const std::string& bind_host, std::uint16_t bind_port,
               Options options);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Registers (or re-addresses) a peer.  Safe before or after start(): a
  /// running loop picks the new peer up on its next flush pass.  Throws
  /// std::runtime_error on an unparsable host.
  void add_peer(ProcId proc, const std::string& host, std::uint16_t port);

  /// Binds `peer` to the source address of the datagram currently being
  /// handled (loop thread only); false outside a handler call.
  [[nodiscard]] bool admit_current_sender(ProcId peer) override;

  /// Releases `peer`: queued ring entries are dropped (counted in
  /// send_drops) with their buffers recycled to the pool, the round-robin
  /// cursor is adjusted past the vacated slot, and the address is
  /// forgotten.  Idempotent; unknown peers are ignored.
  void retire_peer(ProcId peer) override;

  void start(DatagramHandler handler) override;

  /// The loop calls `timer` before every poll and makes the poll's timeout
  /// its delay, rounded up to whole milliseconds and capped at one second
  /// (so work another thread hands the owner, an admit_peer, starts within
  /// a second).  Call before start(); manual-pump mode never calls it.
  void set_timer(TimerHandler timer) override { timer_ = std::move(timer); }

  /// Manual-pump mode: registers the handler without spawning the loop
  /// thread; the caller drives the loop with run_once().  Deterministic
  /// single-threaded operation for tests and benches.
  void start_manual(DatagramHandler handler);

  /// Runs one poll/recv/flush cycle (timeout_ms as in poll(2); -1 blocks).
  /// Returns false when the loop can no longer serve (invalid fd or
  /// unrecoverable poll failure).
  bool run_once(int timeout_ms);

  void stop() override;
  void send(ProcId to, std::vector<std::uint8_t> bytes) override;

  /// A send buffer recycled from the pool (empty, capacity preserved from
  /// earlier traffic) — or a fresh empty vector when the pool is dry.
  /// Callers that fill one of these and pass it back to send() close the
  /// buffer cycle and make their steady-state send path allocation-free.
  [[nodiscard]] std::vector<std::uint8_t> take_buffer(ProcId to) override;

  /// The actually bound port (resolves a bind_port of 0).
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

  /// Outbound datagrams dropped (unknown peer, full queue, send error).
  [[nodiscard]] std::uint64_t send_drops() const {
    return send_drops_.load(std::memory_order_relaxed);
  }

  /// Inbound datagrams dropped (oversized/truncated).
  [[nodiscard]] std::uint64_t recv_drops() const {
    return recv_drops_.load(std::memory_order_relaxed);
  }

  /// POLLERR/POLLHUP/POLLNVAL conditions consumed off the socket.
  [[nodiscard]] std::uint64_t socket_errors() const {
    return socket_errors_.load(std::memory_order_relaxed);
  }

  /// Datagrams queued behind the blocked socket, summed over peers.  Every
  /// queued datagram leaves via the flush path (sent, or consumed by a hard
  /// send error), so this returns to 0 once the socket drains.
  [[nodiscard]] std::size_t backlog_depth() const;

  [[nodiscard]] TransportStats transport_stats() const override;

  /// Recv/send batch-size histograms as
  /// driftsync_transport_{recv,send}_batch{<labels>,...}.
  void append_metrics(std::string& out,
                      const std::string& labels) const override;

  /// Records a kDrop trace event for every drop, attributed to `self` (the
  /// transport does not otherwise know which node it serves).  Must be
  /// called before start(); null disables.  Not owned.
  void set_tracer(Tracer* tracer, ProcId self);

 private:
  struct PeerState {
    sockaddr_in addr{};
    /// Fixed-capacity FIFO ring of unsent datagrams (EWOULDBLOCK queue),
    /// sized to kMaxBacklog on first use; entries keep their heap capacity
    /// across reuse.
    std::vector<std::vector<std::uint8_t>> ring;
    std::size_t head = 0;
    std::size_t count = 0;
  };

  /// kReplyPeer routing: while a handler runs on the loop thread, this
  /// names the transport and the source address to reply to.
  struct ReplyContext {
    const UdpTransport* owner = nullptr;
    sockaddr_in addr{};
  };
  static thread_local ReplyContext reply_ctx_;

  /// Registers or re-addresses `proc` (mu_ held).
  void admit_locked(ProcId proc, const sockaddr_in& addr);
  /// Receives and dispatches until the socket runs dry (loop thread only;
  /// mu_ is NOT held across handler calls).
  void recv_dispatch();
  /// One round-robin pass over the backlogged peers (mu_ held).
  void flush_locked();
  /// Returns `bytes` to the buffer pool (mu_ held).
  void recycle_locked(std::vector<std::uint8_t>&& bytes);
  void enqueue_locked(PeerState& peer, ProcId to,
                      std::vector<std::uint8_t>&& bytes);
  void wake();
  void trace_drop(ProcId to, std::uint64_t trace_id);

  std::uint16_t local_port_ = 0;
  Options opts_;
  UdpIoOps* ops_ = nullptr;  ///< opts_.ops or the real-syscall singleton.
  int fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: wakes the loop for stop/new-backlog.
  mutable std::mutex mu_;  ///< Guards everything below plus fd_ sends.
  std::map<ProcId, PeerState> peers_;
  /// Round-robin flush state: peers in registration order, with the cursor
  /// persisting across flush calls so the next call resumes where
  /// backpressure stopped the last one.
  std::vector<ProcId> flush_order_;
  std::size_t flush_cursor_ = 0;
  std::size_t backlog_total_ = 0;  ///< Queued datagrams across peers.
  std::vector<std::vector<std::uint8_t>> pool_;  ///< Recycled send buffers.
  std::vector<std::uint8_t> arena_;  ///< recv_batch * max_datagram bytes.
  std::vector<UdpRecvSlot> slots_;   ///< Point into arena_; loop-thread only.
  std::vector<UdpSendItem> scratch_;  ///< Flush staging (send_batch items).
  Histogram recv_hist_;  ///< Datagrams per productive recv_batch call.
  Histogram send_hist_;  ///< Datagrams per productive send_batch call.
  std::uint64_t recv_batches_ = 0;
  std::uint64_t recv_datagrams_ = 0;
  std::uint64_t send_batches_ = 0;
  std::uint64_t send_datagrams_ = 0;
  std::thread thread_;
  DatagramHandler handler_;
  TimerHandler timer_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> send_drops_{0};
  std::atomic<std::uint64_t> recv_drops_{0};
  std::atomic<std::uint64_t> socket_errors_{0};
  Tracer* tracer_ = nullptr;
  ProcId trace_self_ = kInvalidProc;
};

}  // namespace driftsync::runtime
