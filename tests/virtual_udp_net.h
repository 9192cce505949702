// A seeded datagram net in virtual time behind UdpTransport's syscall seam
// (runtime::UdpIoOps).  A UdpTransport built on one of its endpoints runs
// its own code — batching, backlog rings, the round-robin flush, kReplyPeer
// routing, run_once's timer cap — with no socket traffic and no waiting, so
// a Node-over-UDP test replays from its seed.
//
// One virtual clock serves the whole net.  The net is a TimeSource, so it
// is also the base of the nodes' ScaledTimeSources and the truth clock of
// their containment checks.  The clock moves in two ways:
//   - every now() read advances it by kReadQuantum, so a handler takes
//     virtual time and a receive record's processing slack (DESIGN.md
//     decision 20) is positive, as on a real clock;
//   - a poll_io that finds nothing ready advances it to the earlier of the
//     poll's timeout and the next datagram due anywhere on the net, so one
//     endpoint's wait never stamps another's arrival late.
// Latency is drawn uniformly from [min, max] by the net's seeded Rng and
// delivery is FIFO per direction, the rules of runtime::Hub.  A datagram to
// an address no endpoint owns is lost, as one sent to a closed UDP port is.
// For the transport's error paths an endpoint can script its next poll
// results (revents, or a failure with an errno) and block its sends.
//
// Not thread-safe: the test's thread pumps everything.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>

#include "common/rng.h"
#include "runtime/time_source.h"
#include "runtime/udp_transport.h"

namespace driftsync::testing {

class VirtualUdpNet final : public runtime::TimeSource {
 public:
  /// Virtual seconds one clock read takes.
  static constexpr double kReadQuantum = 1e-6;
  /// Every endpoint's host (TEST-NET-1, RFC 5737: never a real address).
  static constexpr const char* kHost = "192.0.2.1";

  /// One scripted poll result: `revents`, or a failed poll with errno
  /// `error` when that is nonzero.
  struct PollStep {
    short revents = 0;
    int error = 0;
  };

  /// One socket on the net, at kHost:port().  Pass it as a UdpTransport's
  /// Options::ops, or use it bare as a client or an attacker.
  class Endpoint final : public runtime::UdpIoOps {
   public:
    Endpoint(VirtualUdpNet& net, std::uint16_t port) : net_(&net) {
      addr_.sin_family = AF_INET;
      addr_.sin_port = htons(port);
      inet_pton(AF_INET, kHost, &addr_.sin_addr);
    }

    /// Results for the next polls, handed out before the net is consulted.
    std::deque<PollStep> poll_script;
    /// While set, send_batch reports the socket blocked.
    bool block_sends = false;

    [[nodiscard]] const sockaddr_in& addr() const { return addr_; }
    [[nodiscard]] std::uint16_t port() const { return ntohs(addr_.sin_port); }

    /// Polls the one fd a UdpTransport polls.
    int poll_io(pollfd* fds, std::size_t /*nfds*/, int timeout_ms) override {
      pollfd& pfd = fds[0];
      if (!poll_script.empty()) {
        const PollStep step = poll_script.front();
        poll_script.pop_front();
        if (step.error != 0) {
          errno = step.error;
          return -1;
        }
        pfd.revents = static_cast<short>(
            step.revents & (pfd.events | POLLERR | POLLHUP | POLLNVAL));
        return pfd.revents != 0 ? 1 : 0;
      }
      pfd.revents = ready(pfd.events);
      if (pfd.revents == 0 && timeout_ms != 0) {
        net_->wait_until(timeout_ms < 0
                             ? std::numeric_limits<double>::infinity()
                             : net_->now_ + timeout_ms * 1e-3);
        pfd.revents = ready(pfd.events);
      }
      return pfd.revents != 0 ? 1 : 0;
    }

    /// Takes the datagrams due here, oldest first.
    std::size_t recv_batch(int /*fd*/, runtime::UdpRecvSlot* slots,
                           std::size_t n) override {
      std::size_t got = 0;
      auto& queue = net_->queue_;
      for (auto it = queue.begin(); got < n && it != queue.end() &&
                                    it->first.first <= net_->now_;) {
        if (it->second.to != key(addr_)) {
          ++it;
          continue;
        }
        const std::vector<std::uint8_t>& bytes = it->second.bytes;
        runtime::UdpRecvSlot& slot = slots[got++];
        slot.len = std::min(bytes.size(), slot.cap);
        slot.truncated = bytes.size() > slot.cap;
        std::copy_n(bytes.begin(), slot.len, slot.data);
        slot.src = it->second.from;
        it = queue.erase(it);
      }
      return got;
    }

    runtime::UdpSendResult send_batch(int /*fd*/,
                                      const runtime::UdpSendItem* items,
                                      std::size_t n) override {
      runtime::UdpSendResult res;
      if (block_sends) {
        res.blocked = true;
        return res;
      }
      for (; res.sent < n; ++res.sent) {
        const runtime::UdpSendItem& item = items[res.sent];
        send_to(item.addr, {item.data, item.len});
      }
      return res;
    }

    /// A bare socket's sendto.
    void send_to(const sockaddr_in& to, std::span<const std::uint8_t> bytes) {
      net_->post(addr_, to, bytes);
    }

    /// A bare socket's reads: every datagram due here, oldest first.
    std::vector<std::vector<std::uint8_t>> receive_all() {
      std::vector<std::vector<std::uint8_t>> out;
      std::vector<std::uint8_t> buf(65536);
      runtime::UdpRecvSlot slot{buf.data(), buf.size()};
      while (recv_batch(-1, &slot, 1) == 1) {
        out.emplace_back(buf.data(), buf.data() + slot.len);
      }
      return out;
    }

   private:
    [[nodiscard]] short ready(short events) const {
      short rev = 0;
      if ((events & POLLIN) && net_->due_for(key(addr_))) rev |= POLLIN;
      if ((events & POLLOUT) && !block_sends) rev |= POLLOUT;
      return rev;
    }

    VirtualUdpNet* net_;
    sockaddr_in addr_{};
  };

  VirtualUdpNet(std::uint64_t seed, double min_latency, double max_latency)
      : rng_(seed), min_latency_(min_latency), max_latency_(max_latency) {}

  VirtualUdpNet(const VirtualUdpNet&) = delete;
  VirtualUdpNet& operator=(const VirtualUdpNet&) = delete;

  /// Virtual seconds since the net was built; each read takes kReadQuantum.
  [[nodiscard]] LocalTime now() const override {
    const double t = now_;
    now_ += kReadQuantum;
    return t;
  }

  /// The clock's reading, without advancing it.
  [[nodiscard]] double time() const { return now_; }

  /// A new endpoint at kHost on the next free port.  The reference stays
  /// valid as long as the net.
  Endpoint& endpoint() {
    endpoints_.push_back(std::make_unique<Endpoint>(
        *this, static_cast<std::uint16_t>(10000 + endpoints_.size())));
    return *endpoints_.back();
  }

 private:
  struct InFlight {
    std::uint64_t to = 0;  ///< key() of the destination.
    sockaddr_in from{};
    std::vector<std::uint8_t> bytes;
  };
  /// Due time, then insertion order.
  using Slot = std::pair<double, std::uint64_t>;

  static std::uint64_t key(const sockaddr_in& a) {
    return (static_cast<std::uint64_t>(a.sin_addr.s_addr) << 16) | a.sin_port;
  }

  void post(const sockaddr_in& from, const sockaddr_in& to,
            std::span<const std::uint8_t> bytes) {
    const std::uint64_t dest = key(to);
    const bool owned = std::any_of(
        endpoints_.begin(), endpoints_.end(),
        [&](const auto& ep) { return key(ep->addr()) == dest; });
    if (!owned) return;
    double& last_due = last_due_[{key(from), dest}];
    const double due =
        std::max(now_ + rng_.uniform(min_latency_, max_latency_), last_due);
    last_due = due;
    queue_.emplace(Slot{due, next_order_++},
                   InFlight{dest, from, {bytes.begin(), bytes.end()}});
  }

  [[nodiscard]] bool due_for(std::uint64_t dest) const {
    for (auto it = queue_.begin();
         it != queue_.end() && it->first.first <= now_; ++it) {
      if (it->second.to == dest) return true;
    }
    return false;
  }

  /// Advances the clock to `limit` or to the next datagram due, whichever
  /// is earlier; an infinite limit with nothing in flight stays put.
  void wait_until(double limit) {
    const auto next = queue_.upper_bound(
        Slot{now_, std::numeric_limits<std::uint64_t>::max()});
    if (next != queue_.end()) limit = std::min(limit, next->first.first);
    if (std::isfinite(limit)) now_ = std::max(now_, limit);
  }

  mutable double now_ = 0.0;
  Rng rng_;
  double min_latency_;
  double max_latency_;
  std::map<Slot, InFlight> queue_;
  std::uint64_t next_order_ = 0;
  /// FIFO per direction: the latest due time per (from, to) key pair.
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> last_due_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace driftsync::testing
