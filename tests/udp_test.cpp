// UdpTransport tests (DESIGN.md S7): a two-node loopback smoke run, the
// probe round trip over a raw socket, and the malformed-datagram storm that
// exercises the §6 trust boundary — a bound UDP port accepts bytes from
// anyone, so a node must survive arbitrary garbage without crashing or
// corrupting its estimate.
//
// A transport owns no thread: every test pumps its transports with
// run_once() from the test thread, as driftsyncd's main loop does, until a
// condition holds or a wall-clock deadline passes.
//
// Environments without loopback sockets (restricted sandboxes) make the
// UdpTransport constructor throw; every test here skips in that case
// rather than failing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/errors.h"
#include "common/interval.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/datagram.h"
#include "runtime/node.h"
#include "runtime/time_source.h"
#include "runtime/udp_transport.h"
#include "test_util.h"

namespace driftsync::runtime {
namespace {

using driftsync::testing::brackets_truth;
using driftsync::testing::loss_tolerant_csa;
using driftsync::testing::two_node_spec;

/// Over real sockets true source time is CLOCK_MONOTONIC: every source
/// runs on ScaledTimeSource(0, 1).
const SystemTimeSource kTruth;

constexpr const char* kHost = "127.0.0.1";

/// Binds an ephemeral loopback port, or null if sockets are unavailable.
std::unique_ptr<UdpTransport> try_bind() {
  try {
    return std::make_unique<UdpTransport>(kHost, 0);
  } catch (const std::runtime_error&) {
    return nullptr;
  }
}

#define REQUIRE_SOCKETS(transport)                                     \
  if ((transport) == nullptr) {                                        \
    GTEST_SKIP() << "loopback UDP sockets unavailable in this "        \
                    "environment";                                     \
  }

/// Pumps `transports` from this thread, a turn of at most 1 ms each in
/// rotation, until `done()` holds or `seconds` of wall-clock time pass.
/// Returns done().
bool pump_until(std::initializer_list<UdpTransport*> transports,
                double seconds, const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    for (UdpTransport* t : transports) t->run_once(1);
  }
  return true;
}

/// True when `fd` has a datagram waiting.
bool readable(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0;
}

/// Pumps `transports` for `seconds` of wall-clock time.
void pump_for(std::initializer_list<UdpTransport*> transports,
              double seconds) {
  pump_until(transports, seconds, [] { return false; });
}

/// Real sockets need a slower fate timeout than the hub-based tests.
NodeConfig node_config(ProcId self, const SystemSpec& spec) {
  return driftsync::testing::node_config(self, spec, /*poll_period=*/0.04,
                                         /*fate_timeout=*/0.3,
                                         /*skip_retry=*/0.1);
}

TEST(UdpTransport, RawDatagramRoundTrip) {
  auto a = try_bind();
  REQUIRE_SOCKETS(a);
  auto b = try_bind();
  REQUIRE_SOCKETS(b);
  a->add_peer(1, kHost, b->local_port());
  b->add_peer(0, kHost, a->local_port());

  std::vector<std::uint8_t> got;
  b->start([&](std::span<const std::uint8_t> bytes) {
    got.assign(bytes.begin(), bytes.end());
  });
  a->start([](std::span<const std::uint8_t>) {});

  const std::vector<std::uint8_t> sent{0x11, 0x22, 0x33};
  a->send(1, sent);
  EXPECT_TRUE(pump_until({a.get(), b.get()}, 2.0, [&] { return got == sent; }));
  EXPECT_EQ(a->send_drops(), 0u);
  a->stop();
  b->stop();
}

TEST(UdpTransport, SendToUnknownPeerCountsAsDrop) {
  auto a = try_bind();
  REQUIRE_SOCKETS(a);
  a->start([](std::span<const std::uint8_t>) {});
  a->send(7, {1, 2, 3});
  EXPECT_EQ(a->send_drops(), 1u);
  // The dropped datagram must not linger in any backlog queue.
  EXPECT_EQ(a->backlog_depth(), 0u);
  a->stop();
}

/// Backlog accounting under a flood: loopback sends rarely block, so the
/// backlog should drain to zero once the flood ends, with every datagram
/// accounted for as sent or dropped (never leaked in a queue).
TEST(UdpTransport, FloodBacklogReturnsToZero) {
  auto a = try_bind();
  REQUIRE_SOCKETS(a);
  auto b = try_bind();
  REQUIRE_SOCKETS(b);
  a->add_peer(1, kHost, b->local_port());
  b->start([](std::span<const std::uint8_t>) {});
  a->start([](std::span<const std::uint8_t>) {});

  const std::vector<std::uint8_t> payload(512, 0xab);
  for (int i = 0; i < 2000; ++i) a->send(1, payload);
  EXPECT_TRUE(pump_until({a.get(), b.get()}, 2.0,
                         [&] { return a->backlog_depth() == 0; }));
  a->stop();
  b->stop();
}

/// Two driftsyncd-style nodes on loopback ephemeral ports: the non-source
/// node must converge to a correct, narrow estimate of real time.
TEST(UdpNode, TwoNodeLoopbackSmoke) {
  auto t0 = try_bind();
  REQUIRE_SOCKETS(t0);
  auto t1 = try_bind();
  REQUIRE_SOCKETS(t1);
  t0->add_peer(1, kHost, t1->local_port());
  t1->add_peer(0, kHost, t0->local_port());
  UdpTransport* const net0 = t0.get();
  UdpTransport* const net1 = t1.get();

  const SystemSpec spec = two_node_spec();
  Node n0(node_config(0, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(0.0, 1.0), std::move(t0));
  Node n1(node_config(1, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(25.0, 1.0 + 2e-4),
          std::move(t1));
  n0.start();
  n1.start();
  pump_for({net0, net1}, 1.2);

  EXPECT_TRUE(brackets_truth(n0, kTruth));
  EXPECT_TRUE(brackets_truth(n1, kTruth));
  EXPECT_EQ(n0.estimate().width(), 0.0);
  // Loopback latency is microseconds; anything near the 50 ms spec bound
  // would mean the protocol never exchanged fresh information.
  EXPECT_LT(n1.estimate().width(), 0.05);
  const NodeStats s1 = n1.stats();
  EXPECT_GT(s1.dgrams_in, 0u);
  EXPECT_GT(s1.deliveries_confirmed, 0u);
  n1.stop();
  n0.stop();
}

/// The trust-boundary storm: blast a serving node with random garbage and
/// near-miss datagrams.  Every byte string must resolve to a counted drop
/// (WireError) or a counted ignore — never a crash — and the estimate must
/// stay correct.  Run under ASan/UBSan this is the §6 acceptance test.
TEST(UdpNode, MalformedDatagramStormLeavesNodeServing) {
  auto t0 = try_bind();
  REQUIRE_SOCKETS(t0);
  auto t1 = try_bind();
  REQUIRE_SOCKETS(t1);
  const std::uint16_t victim_port = t1->local_port();
  t0->add_peer(1, kHost, victim_port);
  t1->add_peer(0, kHost, t0->local_port());
  UdpTransport* const net0 = t0.get();
  UdpTransport* const net1 = t1.get();

  const SystemSpec spec = two_node_spec();
  Node n0(node_config(0, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(0.0, 1.0), std::move(t0));
  Node n1(node_config(1, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(-12.0, 1.0 - 2e-4),
          std::move(t1));
  n0.start();
  n1.start();
  pump_for({net0, net1}, 0.4);

  const int attacker = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(attacker, 0);
  sockaddr_in victim{};
  victim.sin_family = AF_INET;
  victim.sin_port = htons(victim_port);
  ASSERT_EQ(inet_pton(AF_INET, kHost, &victim.sin_addr), 1);

  Rng rng(77);
  std::uint64_t storm_sent = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> junk;
    if (rng.flip(0.3)) {
      // Near-miss: valid header bytes, garbage body — exercises the deep
      // decode paths (metrics types included), not just the magic check.
      junk = {'D', 'S', 1, static_cast<std::uint8_t>(rng.uniform_index(7))};
    }
    const std::size_t len = rng.uniform_index(96);
    for (std::size_t j = 0; j < len; ++j) {
      junk.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    if (::sendto(attacker, junk.data(), junk.size(), 0,
                 reinterpret_cast<const sockaddr*>(&victim),
                 sizeof(victim)) >= 0) {
      ++storm_sent;
    }
    if (i % 50 == 0) pump_for({net0, net1}, 0.001);
  }
  ::close(attacker);
  ASSERT_GT(storm_sent, 0u);

  // Let the storm drain and the protocol keep running through it.
  pump_for({net0, net1}, 0.8);
  const NodeStats s1 = n1.stats();
  EXPECT_GT(s1.decode_drops, 0u);  // The storm was actually seen.
  EXPECT_TRUE(brackets_truth(n0, kTruth));
  EXPECT_TRUE(brackets_truth(n1, kTruth));
  EXPECT_LT(n1.estimate().width(), 0.05);
  n1.stop();
  n0.stop();
}

/// driftsync_probe's round trip, done by hand: an unconfigured client
/// sends ProbeReq and the node replies to the datagram's source address
/// (the kReplyPeer path).
TEST(UdpNode, ProbeRoundTrip) {
  auto t1 = try_bind();
  REQUIRE_SOCKETS(t1);
  const std::uint16_t node_port = t1->local_port();
  UdpTransport* const net1 = t1.get();

  const SystemSpec spec = two_node_spec();
  Node n1(node_config(1, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(4.0, 1.0), std::move(t1));
  n1.start();

  const int client = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(node_port);
  ASSERT_EQ(inet_pton(AF_INET, kHost, &addr.sin_addr), 1);

  const std::uint64_t nonce = 0xfeedface12345678ULL;
  bool replied = false;
  for (int attempt = 0; attempt < 5 && !replied; ++attempt) {
    const auto req = encode_datagram(ProbeReq{nonce});
    ASSERT_GE(::sendto(client, req.data(), req.size(), 0,
                       reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)),
              0);
    if (!pump_until({net1}, 0.5, [&] { return readable(client); })) continue;
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    const Datagram dgram = decode_datagram(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    ASSERT_TRUE(std::holds_alternative<ProbeResp>(dgram));
    const auto& resp = std::get<ProbeResp>(dgram);
    EXPECT_EQ(resp.nonce, nonce);
    EXPECT_EQ(resp.from, 1u);
    EXPECT_LE(resp.lo, resp.hi);
    EXPECT_FALSE(resp.stats_json.empty());
    EXPECT_NE(resp.stats_json.find("\"decode_drops\""), std::string::npos);
    // Transport-level health flows through the same stats line.
    EXPECT_NE(resp.stats_json.find("\"transport_recv_drops\""),
              std::string::npos);
    EXPECT_NE(resp.stats_json.find("\"transport_send_drops\""),
              std::string::npos);
    replied = true;
  }
  ::close(client);
  EXPECT_TRUE(replied);
  n1.stop();
}

/// driftsync_probe --metrics/--trace, done by hand: a MetricsReq from an
/// unconfigured client gets Prometheus text and (when asked) a Chrome-trace
/// snapshot back over the kReplyPeer path.
TEST(UdpNode, MetricsRoundTrip) {
  auto t1 = try_bind();
  REQUIRE_SOCKETS(t1);
  const std::uint16_t node_port = t1->local_port();
  UdpTransport* const net1 = t1.get();

  Tracer tracer(256);
  t1->set_tracer(&tracer, 1);
  const SystemSpec spec = two_node_spec();
  NodeConfig cfg = node_config(1, spec);
  cfg.tracer = &tracer;
  Node n1(std::move(cfg), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(4.0, 1.0), std::move(t1));
  n1.start();

  const int client = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(node_port);
  ASSERT_EQ(inet_pton(AF_INET, kHost, &addr.sin_addr), 1);

  const std::uint64_t nonce = 0xabad1deacafeULL;
  bool replied = false;
  for (int attempt = 0; attempt < 5 && !replied; ++attempt) {
    const auto req = encode_datagram(MetricsReq{nonce, 64});
    ASSERT_GE(::sendto(client, req.data(), req.size(), 0,
                       reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)),
              0);
    if (!pump_until({net1}, 0.5, [&] { return readable(client); })) continue;
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    const Datagram dgram = decode_datagram(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    ASSERT_TRUE(std::holds_alternative<MetricsResp>(dgram));
    const auto& resp = std::get<MetricsResp>(dgram);
    EXPECT_EQ(resp.nonce, nonce);
    EXPECT_EQ(resp.from, 1u);
    // Prometheus text exposition: one metric per line, node label attached.
    EXPECT_NE(resp.metrics.find("driftsync_dgrams_in{node=\"1\"} "),
              std::string::npos);
    EXPECT_NE(resp.metrics.find("driftsync_width_seconds_bucket{node=\"1\","
                                "le=\"+Inf\"} "),
              std::string::npos);
    EXPECT_NE(resp.metrics.find("driftsync_trace_recorded{node=\"1\"} "),
              std::string::npos);
    // The trace snapshot is Chrome-trace shaped (we asked for 64 events).
    EXPECT_EQ(resp.trace_json.rfind("{\"traceEvents\":[", 0), 0u);
    replied = true;
  }
  ::close(client);
  EXPECT_TRUE(replied);
  n1.stop();
}

/// Binds with explicit Options, or null if sockets are unavailable.
std::unique_ptr<UdpTransport> try_bind_opts(UdpTransport::Options opts) {
  try {
    return std::make_unique<UdpTransport>(kHost, 0, opts);
  } catch (const std::runtime_error&) {
    return nullptr;
  }
}

/// Deterministic syscall seam: scripted poll revents, an in-memory inbox
/// for receives, and a send recorder.  The test thread drives the engine's
/// event loop with run_once() — no real readiness, no real sends, no
/// timing dependence.
class ScriptedOps final : public UdpIoOps {
 public:
  /// Revents handed out for the socket fd on successive poll calls; once
  /// exhausted, polls report POLLIN while the inbox is non-empty and
  /// POLLOUT whenever it was requested and sends are not blocked.
  std::deque<short> poll_script;
  bool block_sends = false;
  std::deque<std::vector<std::uint8_t>> inbox;
  /// First payload byte of every datagram accepted by send_batch, in
  /// acceptance order — the round-robin test's observable.
  std::vector<std::uint8_t> accepted;

  int poll_io(pollfd* fds, std::size_t nfds, int /*timeout_ms*/) override {
    for (std::size_t i = 1; i < nfds; ++i) fds[i].revents = 0;
    short rev = 0;
    if (!poll_script.empty()) {
      rev = poll_script.front();
      poll_script.pop_front();
    } else {
      if (!inbox.empty()) rev |= POLLIN;
      if (!block_sends && (fds[0].events & POLLOUT)) rev |= POLLOUT;
    }
    fds[0].revents =
        static_cast<short>(rev & (fds[0].events | POLLERR | POLLHUP |
                                  POLLNVAL));
    return fds[0].revents != 0 ? 1 : 0;
  }

  std::size_t recv_batch(int /*fd*/, UdpRecvSlot* slots,
                         std::size_t n) override {
    std::size_t got = 0;
    while (got < n && !inbox.empty()) {
      const std::vector<std::uint8_t>& d = inbox.front();
      UdpRecvSlot& slot = slots[got];
      slot.len = std::min(d.size(), slot.cap);
      slot.truncated = d.size() > slot.cap;
      std::memcpy(slot.data, d.data(), slot.len);
      slot.src = sockaddr_in{};
      inbox.pop_front();
      ++got;
    }
    return got;
  }

  UdpSendResult send_batch(int /*fd*/, const UdpSendItem* items,
                           std::size_t n) override {
    UdpSendResult res;
    if (block_sends) {
      res.blocked = true;
      return res;
    }
    for (std::size_t i = 0; i < n; ++i) {
      accepted.push_back(items[i].len > 0 ? items[i].data[0] : 0);
    }
    res.sent = n;
    return res;
  }
};

/// Regression (truncation): oversized datagrams must be dropped and counted
/// in recv_drops, never delivered truncated — a truncated payload decodes
/// as garbage at best, a plausible prefix at worst.  The pre-fix loop
/// passed the silently cut-down bytes straight to the handler.
TEST(UdpTransport, TruncatedDatagramsAreDroppedAndCounted) {
  UdpTransport::Options opts;
  opts.max_datagram = 512;
  opts.recv_batch = 8;
  auto t = try_bind_opts(opts);
  REQUIRE_SOCKETS(t);
  const std::uint16_t port = t->local_port();

  std::uint64_t small_delivered = 0;
  std::uint64_t oversized_delivered = 0;
  t->start([&](std::span<const std::uint8_t> bytes) {
    // 'S' marks the in-bounds payloads, 'B' the oversized ones.
    if (!bytes.empty() && bytes.front() == 'S' && bytes.size() == 100) {
      ++small_delivered;
    } else {
      ++oversized_delivered;
    }
  });

  const int attacker = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(attacker, 0);
  sockaddr_in victim{};
  victim.sin_family = AF_INET;
  victim.sin_port = htons(port);
  ASSERT_EQ(inet_pton(AF_INET, kHost, &victim.sin_addr), 1);
  const std::vector<std::uint8_t> big(1024, 'B');
  const std::vector<std::uint8_t> small(100, 'S');
  constexpr int kPairs = 30;
  for (int i = 0; i < kPairs; ++i) {
    ::sendto(attacker, big.data(), big.size(), 0,
             reinterpret_cast<const sockaddr*>(&victim), sizeof(victim));
    ::sendto(attacker, small.data(), small.size(), 0,
             reinterpret_cast<const sockaddr*>(&victim), sizeof(victim));
    if (i % 8 == 0) t->run_once(0);
  }
  ::close(attacker);

  pump_until({t.get()}, 2.0, [&] {
    return small_delivered + t->recv_drops() >= 2 * kPairs;
  });
  EXPECT_EQ(oversized_delivered, 0u);  // Never delivered, truncated or not.
  EXPECT_GT(small_delivered, 0u);      // In-bounds traffic kept flowing.
  EXPECT_GT(t->recv_drops(), 0u);      // And the drops were accounted for.
  EXPECT_EQ(t->transport_stats().recv_drops, t->recv_drops());
  t->stop();
}

/// Regression (starvation): under sustained backpressure the flush must
/// round-robin — at most send_batch datagrams per peer per turn, resuming
/// from the cursor — instead of draining one peer's entire backlog before
/// touching the next.  The pre-fix loop emitted AAAAAA BBBBBB CCCCCC; the
/// fixed one interleaves AAB BCC ...
TEST(UdpTransport, BacklogFlushIsRoundRobinAcrossPeers) {
  ScriptedOps ops;
  UdpTransport::Options opts;
  opts.send_batch = 2;
  opts.ops = &ops;
  auto t = try_bind_opts(opts);
  REQUIRE_SOCKETS(t);
  t->add_peer(0, kHost, 9001);
  t->add_peer(1, kHost, 9002);
  t->add_peer(2, kHost, 9003);
  t->start([](std::span<const std::uint8_t>) {});

  // Blocked socket: every send lands in its peer's backlog ring.
  ops.block_sends = true;
  constexpr int kPerPeer = 6;
  for (int i = 0; i < kPerPeer; ++i) {
    for (std::uint8_t peer = 0; peer < 3; ++peer) {
      t->send(peer, std::vector<std::uint8_t>{
                        static_cast<std::uint8_t>('A' + peer)});
    }
  }
  EXPECT_EQ(t->backlog_depth(), 3u * kPerPeer);

  // Unblock and pump until drained; every pump is one poll/flush cycle.
  ops.block_sends = false;
  for (int spins = 0; spins < 64 && t->backlog_depth() > 0; ++spins) {
    ASSERT_TRUE(t->run_once(0));
  }
  EXPECT_EQ(t->backlog_depth(), 0u);
  ASSERT_EQ(ops.accepted.size(), 3u * kPerPeer);
  // Exact expected order: rounds of (A A B B C C) — at most send_batch=2
  // per peer per turn, FIFO within a peer, no peer served twice before all
  // backlogged peers were served once.
  std::vector<std::uint8_t> expected;
  for (int round = 0; round < kPerPeer / 2; ++round) {
    for (char peer : {'A', 'B', 'C'}) {
      expected.push_back(static_cast<std::uint8_t>(peer));
      expected.push_back(static_cast<std::uint8_t>(peer));
    }
  }
  EXPECT_EQ(ops.accepted, expected);
  t->stop();
}

/// Regression (retirement): retiring a peer mid-backpressure must release
/// its backlog ring into counted drops, return its buffers to the pool, and
/// excise it from the round-robin rotation without skipping a survivor.
/// The pre-fix transport had no retirement at all, so the ring entries
/// leaked (backlog_depth never returned to the survivors' share) and the
/// flush loop crashed on the dangling flush_order entry.
TEST(UdpTransport, RetirePeerReleasesBacklogAndRotation) {
  ScriptedOps ops;
  UdpTransport::Options opts;
  opts.send_batch = 2;
  opts.ops = &ops;
  auto t = try_bind_opts(opts);
  REQUIRE_SOCKETS(t);
  t->add_peer(0, kHost, 9001);
  t->add_peer(1, kHost, 9002);
  t->add_peer(2, kHost, 9003);
  t->start([](std::span<const std::uint8_t>) {});

  // Blocked socket: every send lands in its peer's backlog ring.
  ops.block_sends = true;
  constexpr int kPerPeer = 4;
  for (int i = 0; i < kPerPeer; ++i) {
    for (std::uint8_t peer = 0; peer < 3; ++peer) {
      t->send(peer, std::vector<std::uint8_t>{
                        static_cast<std::uint8_t>('A' + peer)});
    }
  }
  ASSERT_EQ(t->backlog_depth(), 3u * kPerPeer);

  // Retire B while its ring is full: the backlog must shrink by exactly
  // B's share, every released datagram counted as a send drop.
  const std::uint64_t drops_before = t->send_drops();
  t->retire_peer(1);
  EXPECT_EQ(t->backlog_depth(), 2u * kPerPeer);
  EXPECT_EQ(t->send_drops(), drops_before + kPerPeer);
  t->retire_peer(1);  // Idempotent: a second leave is a no-op.
  EXPECT_EQ(t->backlog_depth(), 2u * kPerPeer);

  // Post-retirement sends are unknown-peer drops, not resurrections.
  t->send(1, {0x42});
  EXPECT_EQ(t->backlog_depth(), 2u * kPerPeer);
  EXPECT_EQ(t->send_drops(), drops_before + kPerPeer + 1);

  // Unblock and pump: the survivors must drain to zero in clean rotation
  // (A A C C ...) — the cursor neither skips C nor serves a ghost B.
  ops.block_sends = false;
  for (int spins = 0; spins < 64 && t->backlog_depth() > 0; ++spins) {
    ASSERT_TRUE(t->run_once(0));
  }
  EXPECT_EQ(t->backlog_depth(), 0u);
  std::vector<std::uint8_t> expected;
  for (int round = 0; round < kPerPeer / 2; ++round) {
    for (char peer : {'A', 'C'}) {
      expected.push_back(static_cast<std::uint8_t>(peer));
      expected.push_back(static_cast<std::uint8_t>(peer));
    }
  }
  EXPECT_EQ(ops.accepted, expected);

  // Rejoin: a re-admitted peer's traffic flows again.
  t->add_peer(1, kHost, 9002);
  t->send(1, {0x42});
  t->run_once(0);
  ASSERT_FALSE(ops.accepted.empty());
  EXPECT_EQ(ops.accepted.back(), 0x42);
  t->stop();
}

/// Regression (revents): a POLLERR condition (e.g. an ICMP port-unreachable
/// surfaced on the socket) must be consumed and counted, with the loop
/// continuing to serve afterwards.  The pre-fix loop only examined
/// POLLIN/POLLOUT, so a persistent error condition spun poll at 100% CPU.
TEST(UdpTransport, PollErrIsConsumedAndServingContinues) {
  ScriptedOps ops;
  UdpTransport::Options opts;
  opts.ops = &ops;
  auto t = try_bind_opts(opts);
  REQUIRE_SOCKETS(t);
  std::uint64_t delivered = 0;
  t->start(
      [&](std::span<const std::uint8_t>) { ++delivered; });

  ops.inbox.push_back({0x42});
  ops.poll_script.push_back(POLLERR);  // First cycle: only the error.
  EXPECT_TRUE(t->run_once(0));
  EXPECT_EQ(t->socket_errors(), 1u);
  EXPECT_EQ(delivered, 0u);

  EXPECT_TRUE(t->run_once(0));  // Next cycle: the datagram flows.
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(t->transport_stats().socket_errors, 1u);
  t->stop();
}

/// Regression (revents): POLLNVAL means the fd is gone — the loop must
/// stop cleanly (run_once returns false, and driftsyncd leaves its loop)
/// instead of spinning on a dead descriptor.
TEST(UdpTransport, PollNvalStopsTheShardCleanly) {
  ScriptedOps ops;
  UdpTransport::Options opts;
  opts.ops = &ops;
  auto t = try_bind_opts(opts);
  REQUIRE_SOCKETS(t);
  t->start([](std::span<const std::uint8_t>) {});
  ops.poll_script.push_back(POLLNVAL);
  EXPECT_FALSE(t->run_once(0));
  EXPECT_EQ(t->socket_errors(), 1u);
  t->stop();
}

/// The transport end to end: a 3-node path over loopback UDP must contain
/// true source time and converge, with datagrams counted both ways.
TEST(UdpNode, ThreeNodeLoopbackConverges) {
  auto t0 = try_bind();
  REQUIRE_SOCKETS(t0);
  auto t1 = try_bind();
  REQUIRE_SOCKETS(t1);
  auto t2 = try_bind();
  REQUIRE_SOCKETS(t2);
  t0->add_peer(1, kHost, t1->local_port());
  t1->add_peer(0, kHost, t0->local_port());
  t1->add_peer(2, kHost, t2->local_port());
  t2->add_peer(1, kHost, t1->local_port());
  UdpTransport* const net0 = t0.get();
  UdpTransport* const net1 = t1.get();
  UdpTransport* const net2 = t2.get();

  const SystemSpec spec =
      driftsync::testing::line_spec(3, 5e-4, 0.0, 0.05);
  Node n0(node_config(0, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(0.0, 1.0), std::move(t0));
  Node n1(node_config(1, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(33.0, 1.0 + 3e-4),
          std::move(t1));
  Node n2(node_config(2, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(-7.5, 1.0 - 2e-4),
          std::move(t2));
  n0.start();
  n1.start();
  n2.start();
  pump_for({net0, net1, net2}, 1.5);

  EXPECT_TRUE(brackets_truth(n0, kTruth));
  EXPECT_TRUE(brackets_truth(n1, kTruth));
  EXPECT_TRUE(brackets_truth(n2, kTruth));
  EXPECT_LT(n1.estimate().width(), 0.05);
  EXPECT_LT(n2.estimate().width(), 0.10);  // Two hops from the source.
  const NodeStats s1 = n1.stats();
  EXPECT_GT(s1.dgrams_in, 0u);
  EXPECT_GT(s1.transport.recv_datagrams, 0u);
  EXPECT_GT(s1.transport.send_datagrams, 0u);
  n2.stop();
  n1.stop();
  n0.stop();
}

}  // namespace
}  // namespace driftsync::runtime
