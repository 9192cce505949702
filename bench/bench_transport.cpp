// Micro-benchmark: the UDP transport engine (DESIGN.md §7).
//
// BM_EnginePath stubs the kernel behind UdpIoOps and measures the engine
// itself: recycled pool buffers, transition-only eventfd wakes, fixed
// backlog rings and recv_batch/send_batch amortization.  The wake eventfd
// is the one syscall it pays for real.
//
// BM_UdpLoopbackPump keeps the benchmark honest about real sockets: full
// transport over loopback UDP, real poll/recvmmsg/sendmmsg, where the
// kernel dominates and batching mostly buys fewer receive-side turns.  It
// is also the allocs/op = 0 proof on the production syscall path.
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <poll.h>

#include "bench/harness.h"
#include "common/ids.h"
#include "runtime/udp_transport.h"

namespace driftsync {
namespace {

using runtime::UdpIoOps;
using runtime::UdpRecvSlot;
using runtime::UdpSendItem;
using runtime::UdpSendResult;
using runtime::UdpTransport;

constexpr std::size_t kPayload = 256;   ///< Bytes per datagram.
constexpr std::size_t kDatagrams = 256; ///< Datagrams per timed iteration.
constexpr std::size_t kPeers = 4;
constexpr std::size_t kMaxDgram = 2048;

/// In-memory "kernel": one loopback queue of fixed byte slots, so a stubbed
/// syscall costs one memcpy.  No allocation after construction — the
/// allocs/op column stays about the engine.
class StubKernel {
 public:
  StubKernel() : lens_(kDatagrams + 8), data_(lens_.size() * kMaxDgram) {}

  bool blocked = false;  ///< Sends would block (EWOULDBLOCK).

  bool push(const std::uint8_t* p, std::size_t n) {
    if (count_ == lens_.size()) return false;
    const std::size_t slot = (head_ + count_) % lens_.size();
    std::memcpy(&data_[slot * kMaxDgram], p, n);
    lens_[slot] = n;
    ++count_;
    return true;
  }

  std::size_t pop(std::uint8_t* out, std::size_t cap) {
    if (count_ == 0) return 0;
    const std::size_t n = std::min(lens_[head_], cap);
    std::memcpy(out, &data_[head_ * kMaxDgram], n);
    head_ = (head_ + 1) % lens_.size();
    --count_;
    return n;
  }

  [[nodiscard]] std::size_t pending() const { return count_; }

 private:
  std::vector<std::size_t> lens_;
  std::vector<std::uint8_t> data_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// The engine's syscall seam over the StubKernel.  The wake fd is left to
/// the real read() the engine issues (reported always-readable).
class StubOps final : public UdpIoOps {
 public:
  explicit StubOps(StubKernel* kernel) : kernel_(kernel) {}

  int poll_io(pollfd* fds, std::size_t nfds, int /*timeout_ms*/) override {
    int ready = 0;
    for (std::size_t i = 0; i < nfds; ++i) {
      short rev = 0;
      if (i == 0) {
        if ((fds[i].events & POLLIN) && kernel_->pending() > 0) rev |= POLLIN;
        if ((fds[i].events & POLLOUT) && !kernel_->blocked) rev |= POLLOUT;
      } else {
        rev = POLLIN;  // Wake fd: let the engine pay its real drain read.
      }
      fds[i].revents = rev;
      if (rev != 0) ++ready;
    }
    return ready;
  }

  std::size_t recv_batch(int /*fd*/, UdpRecvSlot* slots,
                         std::size_t n) override {
    std::size_t filled = 0;
    while (filled < n) {
      const std::size_t len = kernel_->pop(slots[filled].data,
                                           slots[filled].cap);
      if (len == 0) break;
      slots[filled].len = len;
      slots[filled].truncated = false;
      ++filled;
    }
    return filled;
  }

  UdpSendResult send_batch(int /*fd*/, const UdpSendItem* items,
                           std::size_t n) override {
    UdpSendResult r;
    if (kernel_->blocked) {
      r.blocked = true;
      return r;
    }
    while (r.sent < n && kernel_->push(items[r.sent].data, items[r.sent].len)) {
      ++r.sent;
    }
    if (r.sent < n) r.blocked = true;  // Kernel queue full.
    return r;
  }

 private:
  StubKernel* kernel_;
};

/// Burst-send kDatagrams against a blocked kernel, unblock, and pump until
/// every datagram has looped back through the handler — the full
/// send -> backlog -> flush -> recv -> dispatch cycle.  arg = recv_batch =
/// send_batch.
void BM_EnginePath(bench::State& state) {
  StubKernel kernel;
  StubOps ops(&kernel);
  UdpTransport::Options opts;
  opts.recv_batch = static_cast<std::size_t>(state.range(0));
  opts.send_batch = static_cast<std::size_t>(state.range(0));
  opts.max_datagram = kMaxDgram;
  opts.pool_buffers = kDatagrams;
  opts.ops = &ops;
  UdpTransport transport("127.0.0.1", 0, opts);
  for (ProcId p = 0; p < kPeers; ++p) {
    transport.add_peer(p, "127.0.0.1", 9);  // Discard port; kernel is stubbed.
  }
  const std::vector<std::uint8_t> payload(kPayload, 0x5a);
  std::size_t sink = 0;
  std::size_t delivered = 0;
  transport.start_manual([&](std::span<const std::uint8_t> bytes) {
    sink += bytes.size() + bytes[0];
    ++delivered;
  });
  // One untimed warm-up cycle: populates the buffer pool and sizes the
  // backlog rings, so the timed region measures the steady state (the
  // harness re-invokes this function per repetition with a fresh
  // transport, and those one-time allocations are setup, not traffic).
  auto cycle = [&] {
    kernel.blocked = true;
    for (std::size_t i = 0; i < kDatagrams; ++i) {
      const ProcId to = static_cast<ProcId>(i % kPeers);
      std::vector<std::uint8_t> bytes = transport.take_buffer(to);
      bytes.assign(payload.begin(), payload.end());
      transport.send(to, std::move(bytes));
    }
    kernel.blocked = false;
    delivered = 0;
    while (delivered < kDatagrams) transport.run_once(0);
  };
  cycle();
  for (auto _ : state) {
    cycle();
  }
  bench::do_not_optimize(sink);
  state.counters["dgrams_per_op"] = static_cast<double>(kDatagrams);
  state.counters["ns_per_dgram"] =
      state.elapsed_seconds() * 1e9 /
      static_cast<double>(state.iterations() * kDatagrams);
}
DS_BENCHMARK(transport, BM_EnginePath)->arg(8)->arg(32);

/// Production syscalls over loopback: one transport sends a burst to
/// another, which pumps it in with recvmmsg (arg = recv_batch).  Kernel
/// time dominates by design; the case exists for the honest real-socket
/// delta and as the allocs/op = 0 proof on the real path.
void BM_UdpLoopbackPump(bench::State& state) {
  constexpr std::size_t kBurst = 32;
  std::unique_ptr<UdpTransport> rx;
  std::unique_ptr<UdpTransport> tx;
  try {
    UdpTransport::Options rx_opts;
    rx_opts.recv_batch = static_cast<std::size_t>(state.range(0));
    rx_opts.max_datagram = kMaxDgram;
    rx = std::make_unique<UdpTransport>("127.0.0.1", 0, rx_opts);
    tx = std::make_unique<UdpTransport>("127.0.0.1", 0);
  } catch (const std::runtime_error&) {
    // No loopback sockets in this environment: report a skipped case
    // rather than failing the whole bench binary.
    for (auto _ : state) {
    }
    state.counters["skipped"] = 1.0;
    return;
  }
  tx->add_peer(1, "127.0.0.1", rx->local_port());
  const std::vector<std::uint8_t> payload(kPayload, 0x5a);
  std::size_t sink = 0;
  std::size_t delivered = 0;
  rx->start_manual([&](std::span<const std::uint8_t> bytes) {
    sink += bytes.size();
    ++delivered;
  });
  tx->start_manual([](std::span<const std::uint8_t>) {});
  auto cycle = [&] {
    delivered = 0;
    for (std::size_t i = 0; i < kBurst; ++i) {
      std::vector<std::uint8_t> bytes = tx->take_buffer(1);
      bytes.assign(payload.begin(), payload.end());
      tx->send(1, std::move(bytes));
    }
    while (delivered < kBurst) {
      if (!rx->run_once(100)) break;  // Dead fd: bail (loop would hang).
    }
  };
  cycle();  // Untimed: warms tx's buffer pool (setup, not traffic).
  for (auto _ : state) {
    cycle();
  }
  bench::do_not_optimize(sink);
  state.counters["dgrams_per_op"] = static_cast<double>(kBurst);
  state.counters["ns_per_dgram"] =
      state.elapsed_seconds() * 1e9 /
      static_cast<double>(state.iterations() * kBurst);
}
DS_BENCHMARK(transport, BM_UdpLoopbackPump)->arg(1)->arg(8)->arg(32);

}  // namespace
}  // namespace driftsync
