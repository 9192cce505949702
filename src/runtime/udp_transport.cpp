#include "runtime/udp_transport.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.h"
#include "runtime/datagram.h"

namespace driftsync::runtime {

namespace {

/// Upper bound on one recvmmsg/sendmmsg call (stack-allocated descriptor
/// arrays in the real ops below).
constexpr std::size_t kMaxBatch = 64;

/// One peer's backlog ring never holds more than this many unsent
/// datagrams; beyond it new sends are dropped (the fate protocol absorbs
/// the loss).
constexpr std::size_t kMaxBacklog = 256;

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("udp: unparsable IPv4 address: " + host);
  }
  return addr;
}

[[nodiscard]] bool errno_means_blocked(int err) {
  return err == EWOULDBLOCK || err == EAGAIN || err == ENOBUFS;
}

/// Real syscalls.  recvmmsg/sendmmsg are Linux-specific; a runtime ENOSYS
/// (e.g. a seccomp filter) flips the process to the single-message
/// recvmsg/sendmsg path permanently.  Every transport of a process runs on
/// the one thread that pumps it, so the flag needs no synchronization.
class RealUdpIoOps final : public UdpIoOps {
 public:
  int poll_io(pollfd* fds, std::size_t nfds, int timeout_ms) override {
    return ::poll(fds, static_cast<nfds_t>(nfds), timeout_ms);
  }

  std::size_t recv_batch(int fd, UdpRecvSlot* slots, std::size_t n) override {
    n = std::min(n, kMaxBatch);
    if (n == 0) return 0;
    if (!have_mmsg_) {
      return recv_singles(fd, slots, n);
    }
    mmsghdr msgs[kMaxBatch];
    iovec iovs[kMaxBatch];
    std::memset(msgs, 0, n * sizeof(mmsghdr));
    for (std::size_t i = 0; i < n; ++i) {
      iovs[i] = {slots[i].data, slots[i].cap};
      msgs[i].msg_hdr.msg_name = &slots[i].src;
      msgs[i].msg_hdr.msg_namelen = sizeof(slots[i].src);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int got =
        ::recvmmsg(fd, msgs, static_cast<unsigned>(n), MSG_DONTWAIT, nullptr);
    if (got < 0) {
      if (errno == ENOSYS) {
        have_mmsg_ = false;
        return recv_singles(fd, slots, n);
      }
      return 0;  // EWOULDBLOCK or transient error: poll again.
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(got); ++i) {
      slots[i].len = msgs[i].msg_len;
      slots[i].truncated = (msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0;
    }
    return static_cast<std::size_t>(got);
  }

  UdpSendResult send_batch(int fd, const UdpSendItem* items,
                           std::size_t n) override {
    UdpSendResult res;
    n = std::min(n, kMaxBatch);
    if (n == 0) return res;
    if (n == 1 || !have_mmsg_) {
      return send_singles(fd, items, n);
    }
    mmsghdr msgs[kMaxBatch];
    iovec iovs[kMaxBatch];
    std::memset(msgs, 0, n * sizeof(mmsghdr));
    for (std::size_t i = 0; i < n; ++i) {
      // sendmmsg never writes through msg_name/msg_iov; the const_casts
      // bridge the syscall's non-const prototype.
      iovs[i] = {const_cast<std::uint8_t*>(items[i].data), items[i].len};
      msgs[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&items[i].addr);
      msgs[i].msg_hdr.msg_namelen = sizeof(items[i].addr);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int sent =
        ::sendmmsg(fd, msgs, static_cast<unsigned>(n), MSG_DONTWAIT);
    if (sent < 0) {
      if (errno == ENOSYS) {
        have_mmsg_ = false;
        return send_singles(fd, items, n);
      }
      if (errno_means_blocked(errno)) {
        res.blocked = true;
      } else {
        res.hard_error = true;
      }
      return res;
    }
    res.sent = static_cast<std::size_t>(sent);
    // A short count means the kernel stopped early (queue pressure, or an
    // error on the next message that will surface on the following call);
    // either way the remainder must be retried, not dropped.
    if (res.sent < n) res.blocked = true;
    return res;
  }

 private:
  std::size_t recv_singles(int fd, UdpRecvSlot* slots, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      UdpRecvSlot& slot = slots[got];
      iovec iov{slot.data, slot.cap};
      msghdr msg{};
      msg.msg_name = &slot.src;
      msg.msg_namelen = sizeof(slot.src);
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      const ssize_t r = ::recvmsg(fd, &msg, MSG_DONTWAIT);
      if (r < 0) break;
      slot.len = static_cast<std::size_t>(r);
      slot.truncated = (msg.msg_flags & MSG_TRUNC) != 0;
      ++got;
    }
    return got;
  }

  UdpSendResult send_singles(int fd, const UdpSendItem* items,
                             std::size_t n) {
    UdpSendResult res;
    while (res.sent < n) {
      const UdpSendItem& item = items[res.sent];
      const ssize_t r = ::sendto(
          fd, item.data, item.len, MSG_DONTWAIT,
          reinterpret_cast<const sockaddr*>(&item.addr), sizeof(item.addr));
      if (r < 0) {
        if (errno_means_blocked(errno)) {
          res.blocked = true;
        } else {
          res.hard_error = true;
        }
        break;
      }
      ++res.sent;
    }
    return res;
  }

  bool have_mmsg_ = true;
};

/// Batch-size histogram bounds: powers of two up to kMaxBatch.
std::vector<double> batch_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= static_cast<double>(kMaxBatch); b *= 2.0) {
    bounds.push_back(b);
  }
  return bounds;
}

}  // namespace

UdpIoOps& real_udp_io_ops() {
  static RealUdpIoOps ops;
  return ops;
}

UdpTransport::UdpTransport(const std::string& bind_host,
                           std::uint16_t bind_port)
    : UdpTransport(bind_host, bind_port, Options{}) {}

UdpTransport::UdpTransport(const std::string& bind_host,
                           std::uint16_t bind_port, Options options)
    : opts_(options),
      arena_(opts_.recv_batch * opts_.max_datagram),
      slots_(opts_.recv_batch),
      scratch_(opts_.send_batch),
      recv_hist_(batch_bounds()),
      send_hist_(batch_bounds()) {
  DS_CHECK_MSG(opts_.recv_batch >= 1 && opts_.recv_batch <= kMaxBatch,
               "recv_batch out of range");
  DS_CHECK_MSG(opts_.send_batch >= 1 && opts_.send_batch <= kMaxBatch,
               "send_batch out of range");
  DS_CHECK_MSG(opts_.max_datagram >= 64 && opts_.max_datagram <= 65536,
               "max_datagram out of range");
  ops_ = opts_.ops != nullptr ? opts_.ops : &real_udp_io_ops();
  pool_.reserve(opts_.pool_buffers);
  for (std::size_t i = 0; i < opts_.recv_batch; ++i) {
    slots_[i].data = arena_.data() + i * opts_.max_datagram;
    slots_[i].cap = opts_.max_datagram;
  }

  const auto fail = [this](const char* what, int err) {
    if (fd_ >= 0) ::close(fd_);
    throw std::runtime_error(std::string("udp: ") + what + ": " +
                             std::strerror(err));
  };
  const sockaddr_in addr = make_addr(bind_host, bind_port);
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail("socket", errno);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("bind", errno);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    local_port_ = ntohs(bound.sin_port);
  }
}

UdpTransport::~UdpTransport() { ::close(fd_); }

void UdpTransport::add_peer(ProcId proc, const std::string& host,
                            std::uint16_t port) {
  admit(proc, make_addr(host, port));
}

bool UdpTransport::admit_current_sender(ProcId peer) {
  if (!replying_) return false;
  admit(peer, reply_addr_);
  return true;
}

void UdpTransport::admit(ProcId proc, const sockaddr_in& addr) {
  const bool fresh = peers_.find(proc) == peers_.end();
  peers_[proc].addr = addr;
  if (fresh) flush_order_.push_back(proc);
}

void UdpTransport::retire_peer(ProcId peer) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& p = it->second;
  // Whatever was still queued for the departed peer is a drop — the fate
  // protocol already covers it — but the buffers themselves go back to the
  // pool so a churning mesh does not bleed send-buffer capacity.
  while (p.count > 0) {
    drop_send(peer, p.ring[p.head]);
    recycle(std::move(p.ring[p.head]));
    p.head = (p.head + 1) % p.ring.size();
    --p.count;
    DS_CHECK(backlog_total_ > 0);
    --backlog_total_;
  }
  // Vacate the round-robin slot.  flush() dereferences peers_.find(proc)
  // unchecked, so the flush_order_ entry goes with the peer — and the
  // cursor shifts with it so the rotation resumes at the same neighbor
  // instead of skipping one.
  const auto pos = std::find(flush_order_.begin(), flush_order_.end(), peer);
  if (pos != flush_order_.end()) {
    const std::size_t idx =
        static_cast<std::size_t>(pos - flush_order_.begin());
    flush_order_.erase(pos);
    if (idx < flush_cursor_) --flush_cursor_;
    if (flush_order_.empty()) {
      flush_cursor_ = 0;
    } else {
      flush_cursor_ %= flush_order_.size();
    }
  }
  peers_.erase(it);
}

void UdpTransport::start(DatagramHandler handler) {
  DS_CHECK_MSG(!started_, "transport started twice");
  handler_ = std::move(handler);
  started_ = true;
}

void UdpTransport::stop() { started_ = false; }

void UdpTransport::set_tracer(Tracer* tracer, ProcId self) {
  DS_CHECK_MSG(!started_, "set_tracer after start");
  tracer_ = tracer;
  trace_self_ = self;
}

void UdpTransport::trace_drop(ProcId to, std::uint64_t trace_id) {
  if (tracer_ == nullptr) return;
  tracer_->record(TraceEventKind::kDrop, trace_id, trace_self_, to);
}

void UdpTransport::drop_send(ProcId to, std::span<const std::uint8_t> bytes) {
  ++send_drops_;
  trace_drop(to, peek_trace_id(bytes));
}

void UdpTransport::recycle(std::vector<std::uint8_t>&& bytes) {
  if (pool_.size() >= opts_.pool_buffers || bytes.capacity() == 0) return;
  bytes.clear();
  pool_.push_back(std::move(bytes));
}

std::vector<std::uint8_t> UdpTransport::take_buffer(ProcId /*to*/) {
  if (pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void UdpTransport::enqueue(PeerState& peer, ProcId to,
                           std::vector<std::uint8_t>&& bytes) {
  if (peer.count >= kMaxBacklog) {
    drop_send(to, bytes);
    recycle(std::move(bytes));
    return;
  }
  if (peer.ring.empty()) peer.ring.resize(kMaxBacklog);
  peer.ring[(peer.head + peer.count) % peer.ring.size()] = std::move(bytes);
  ++peer.count;
  ++backlog_total_;  // The next run_once() arms POLLOUT.
}

void UdpTransport::send(ProcId to, std::vector<std::uint8_t> bytes) {
  if (to == kReplyPeer) {
    // Reply to the source of the datagram being handled.  Best-effort and
    // unqueued: if the socket would block, the requester retries.
    if (!replying_) {
      drop_send(to, bytes);
      return;
    }
    const UdpSendItem item{bytes.data(), bytes.size(), reply_addr_};
    const UdpSendResult res = ops_->send_batch(fd_, &item, 1);
    if (res.sent == 1) {
      send_hist_.add(1.0);
      ++send_batches_;
      ++send_datagrams_;
    } else {
      drop_send(to, bytes);
    }
    recycle(std::move(bytes));
    return;
  }
  const auto it = peers_.find(to);
  if (it == peers_.end()) {
    drop_send(to, bytes);
    return;
  }
  PeerState& peer = it->second;
  if (peer.count == 0) {
    // Uncontended fast path: one direct (batch-1) send.
    const UdpSendItem item{bytes.data(), bytes.size(), peer.addr};
    const UdpSendResult res = ops_->send_batch(fd_, &item, 1);
    if (res.sent == 1) {
      send_hist_.add(1.0);
      ++send_batches_;
      ++send_datagrams_;
      recycle(std::move(bytes));
      return;
    }
    if (res.hard_error) {
      // E.g. EMSGSIZE: drop, the fate protocol copes.
      drop_send(to, bytes);
      recycle(std::move(bytes));
      return;
    }
  }
  enqueue(peer, to, std::move(bytes));
}

void UdpTransport::flush() {
  const std::size_t npeers = flush_order_.size();
  if (npeers == 0 || backlog_total_ == 0) return;
  // One pass over the peers, at most send_batch datagrams each, resuming at
  // the cursor — so under sustained backpressure every peer gets a turn
  // before any peer gets a second one.
  std::size_t visited = 0;
  while (backlog_total_ > 0 && visited < npeers) {
    const ProcId proc = flush_order_[flush_cursor_];
    flush_cursor_ = (flush_cursor_ + 1) % npeers;
    ++visited;
    PeerState& peer = peers_.find(proc)->second;
    if (peer.count == 0) continue;
    const std::size_t want = std::min(peer.count, opts_.send_batch);
    for (std::size_t j = 0; j < want; ++j) {
      const std::vector<std::uint8_t>& b =
          peer.ring[(peer.head + j) % peer.ring.size()];
      scratch_[j] = {b.data(), b.size(), peer.addr};
    }
    const UdpSendResult res = ops_->send_batch(fd_, scratch_.data(), want);
    if (res.sent > 0) {
      send_hist_.add(static_cast<double>(res.sent));
      ++send_batches_;
      send_datagrams_ += res.sent;
      for (std::size_t j = 0; j < res.sent; ++j) {
        recycle(std::move(peer.ring[peer.head]));
        peer.head = (peer.head + 1) % peer.ring.size();
        --peer.count;
        --backlog_total_;
      }
    }
    if (res.hard_error && peer.count > 0) {
      // The datagram at the front failed permanently: drop it and keep
      // draining (the fate protocol absorbs the loss).
      drop_send(proc, peer.ring[peer.head]);
      recycle(std::move(peer.ring[peer.head]));
      peer.head = (peer.head + 1) % peer.ring.size();
      --peer.count;
      --backlog_total_;
      continue;
    }
    if (res.blocked) return;  // Socket full; POLLOUT stays armed.
  }
}

void UdpTransport::recv_dispatch() {
  while (true) {
    const std::size_t n = ops_->recv_batch(fd_, slots_.data(), slots_.size());
    if (n == 0) break;
    recv_hist_.add(static_cast<double>(n));
    ++recv_batches_;
    recv_datagrams_ += n;
    for (std::size_t i = 0; i < n; ++i) {
      const UdpRecvSlot& slot = slots_[i];
      const std::span<const std::uint8_t> bytes(slot.data, slot.len);
      if (slot.truncated || slot.len > slot.cap) {
        // Oversized datagram: the kernel truncated it to cap bytes.  A
        // truncated payload must never reach the handler — it would decode
        // as garbage at best and as a plausible prefix at worst.
        ++recv_drops_;
        trace_drop(kInvalidProc, peek_trace_id(bytes));
        continue;
      }
      replying_ = true;
      reply_addr_ = slot.src;
      handler_(bytes);
      replying_ = false;
    }
    if (n < slots_.size()) break;  // Short batch: queue (almost) drained.
  }
}

bool UdpTransport::run_once(int max_wait_ms) {
  if (!started_) return false;
  int timeout_ms = max_wait_ms;
  if (timer_) {
    const double delay = timer_();
    // Whole milliseconds, capped so the cast to int stays defined.
    const double ms =
        delay > 0.0 ? std::min(std::ceil(delay * 1e3), 1e9) : 0.0;
    if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = static_cast<int>(ms);
  }
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = static_cast<short>(POLLIN | (backlog_total_ > 0 ? POLLOUT : 0));
  const int rc = ops_->poll_io(&pfd, 1, timeout_ms);
  if (rc < 0) {
    // A signal ends the turn early; any other poll failure stops serving.
    return errno == EINTR;
  }
  if (rc == 0) return true;
  if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
    ++socket_errors_;
    if (pfd.revents & POLLNVAL) {
      return false;  // The fd is dead; nothing left to consume or serve.
    }
    // Consume the pending error (e.g. an ICMP port-unreachable surfaced as
    // POLLERR) so poll does not spin on it, then keep serving.
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
  }
  if (pfd.revents & POLLIN) recv_dispatch();
  if (pfd.revents & POLLOUT) flush();
  return true;
}

TransportStats UdpTransport::transport_stats() const {
  TransportStats out;
  out.send_drops = send_drops_;
  out.recv_drops = recv_drops_;
  out.socket_errors = socket_errors_;
  out.recv_batches = recv_batches_;
  out.recv_datagrams = recv_datagrams_;
  out.send_batches = send_batches_;
  out.send_datagrams = send_datagrams_;
  return out;
}

void UdpTransport::append_metrics(std::string& out,
                                  const std::string& labels) const {
  append_prometheus(out, "driftsync_transport_recv_batch", labels, recv_hist_);
  append_prometheus(out, "driftsync_transport_send_batch", labels, send_hist_);
}

}  // namespace driftsync::runtime
