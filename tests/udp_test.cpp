// UdpTransport tests (DESIGN.md S7): the transport's backlog, flush, poll
// and timer paths, Nodes converging over it, the probe and metrics round
// trips, and the malformed-datagram storm that exercises the §6 trust
// boundary — a bound UDP port accepts bytes from anyone, so a node must
// survive arbitrary garbage without crashing or corrupting its estimate.
//
// Every test but the UdpLoopback suite runs the transport's own code on a
// seeded VirtualUdpNet (tests/virtual_udp_net.h) behind the UdpIoOps seam:
// it replays from its seed and takes milliseconds, and the net's virtual
// clock is its nodes' true source time.  The UdpLoopback suite keeps what only real
// sockets show: the recvmmsg/sendmmsg layer, a real EAGAIN backlog, a real
// MSG_TRUNC and one Node pair.  A transport owns no thread: every test
// pumps it with run_once() from the test thread, as driftsyncd's main loop
// does.
//
// A UdpTransport binds a real socket even on the virtual net.  In
// environments without loopback sockets (restricted sandboxes) its
// constructor throws, and every test here skips rather than fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
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
#include "virtual_udp_net.h"

namespace driftsync::runtime {
namespace {

using driftsync::testing::brackets_truth;
using driftsync::testing::loss_tolerant;
using driftsync::testing::loss_tolerant_csa;
using driftsync::testing::node_config;
using driftsync::testing::two_node_spec;
using driftsync::testing::VirtualUdpNet;

constexpr const char* kNetHost = VirtualUdpNet::kHost;

/// Binds a loopback port with `opts`, or null if sockets are unavailable.
std::unique_ptr<UdpTransport> try_bind(UdpTransport::Options opts = {}) {
  try {
    return std::make_unique<UdpTransport>("127.0.0.1", 0, opts);
  } catch (const std::runtime_error&) {
    return nullptr;
  }
}

/// A transport whose datagrams travel on `ep`'s virtual net.
std::unique_ptr<UdpTransport> on_net(VirtualUdpNet::Endpoint& ep,
                                     UdpTransport::Options opts = {}) {
  opts.ops = &ep;
  return try_bind(opts);
}

/// Skips the test when `bound` (a transport, or whatever was built from
/// them) is false or null.
#define REQUIRE_SOCKETS(bound)                                         \
  if (!(bound)) {                                                      \
    GTEST_SKIP() << "loopback UDP sockets unavailable in this "        \
                    "environment";                                     \
  }

/// Pumps `transports` in rotation, a turn of at most 1 ms each, until
/// `done()` holds or the net's clock has advanced `seconds`.  Returns
/// done().
bool run_until(VirtualUdpNet& net,
               std::initializer_list<UdpTransport*> transports,
               double seconds, const std::function<bool()>& done) {
  const double deadline = net.time() + seconds;
  while (!done()) {
    if (net.time() >= deadline) return false;
    for (UdpTransport* t : transports) t->run_once(1);
  }
  return true;
}

void run_for(VirtualUdpNet& net,
             std::initializer_list<UdpTransport*> transports,
             double seconds) {
  run_until(net, transports, seconds, [] { return false; });
}

/// Prints a node's stats line: two runs of this binary print the same
/// lines, and a red run prints what it judged.
void print_stats(const char* test, const Node& node) {
  std::printf("[%s] node %u %s\n", test, node.self(),
              node.stats_json().c_str());
}

// ---------------------------------------------------------------------------
// The transport on the virtual net.

TEST(UdpTransport, SendToUnknownPeerCountsAsDrop) {
  VirtualUdpNet net(1, 0.0, 0.0);
  auto a = on_net(net.endpoint());
  REQUIRE_SOCKETS(a);
  a->start([](std::span<const std::uint8_t>) {});
  a->send(7, {1, 2, 3});
  EXPECT_EQ(a->send_drops(), 1u);
  // The dropped datagram must not linger in any backlog queue.
  EXPECT_EQ(a->backlog_depth(), 0u);
  a->stop();
}

/// Regression (starvation): under sustained backpressure the flush must
/// round-robin — at most send_batch datagrams per peer per turn, resuming
/// from the cursor — instead of draining one peer's entire backlog before
/// touching the next.  The pre-fix loop emitted AAAAAA BBBBBB CCCCCC; the
/// fixed one interleaves AAB BCC ...
TEST(UdpTransport, BacklogFlushIsRoundRobinAcrossPeers) {
  VirtualUdpNet net(1, 0.0, 0.0);
  VirtualUdpNet::Endpoint& ep = net.endpoint();
  VirtualUdpNet::Endpoint& sink = net.endpoint();
  UdpTransport::Options opts;
  opts.send_batch = 2;
  auto t = on_net(ep, opts);
  REQUIRE_SOCKETS(t);
  // All three peers live at the sink's address, so the sink reads the
  // datagrams in the order the transport sent them.
  for (ProcId peer = 0; peer < 3; ++peer) {
    t->add_peer(peer, kNetHost, sink.port());
  }
  t->start([](std::span<const std::uint8_t>) {});

  // Blocked socket: every send lands in its peer's backlog ring.
  ep.block_sends = true;
  constexpr int kPerPeer = 6;
  for (int i = 0; i < kPerPeer; ++i) {
    for (std::uint8_t peer = 0; peer < 3; ++peer) {
      t->send(peer, std::vector<std::uint8_t>{
                        static_cast<std::uint8_t>('A' + peer)});
    }
  }
  EXPECT_EQ(t->backlog_depth(), 3u * kPerPeer);

  // Unblock and pump until drained; every pump is one poll/flush cycle.
  ep.block_sends = false;
  for (int spins = 0; spins < 64 && t->backlog_depth() > 0; ++spins) {
    ASSERT_TRUE(t->run_once(0));
  }
  EXPECT_EQ(t->backlog_depth(), 0u);
  std::vector<std::uint8_t> sent;
  for (const auto& d : sink.receive_all()) sent.push_back(d.at(0));
  ASSERT_EQ(sent.size(), 3u * kPerPeer);
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
  EXPECT_EQ(sent, expected);
  t->stop();
}

/// Regression (retirement): retiring a peer mid-backpressure must release
/// its backlog ring into counted drops, return its buffers to the pool, and
/// excise it from the round-robin rotation without skipping a survivor.
/// The pre-fix transport had no retirement at all, so the ring entries
/// leaked (backlog_depth never returned to the survivors' share) and the
/// flush loop crashed on the dangling flush_order entry.
TEST(UdpTransport, RetirePeerReleasesBacklogAndRotation) {
  VirtualUdpNet net(1, 0.0, 0.0);
  VirtualUdpNet::Endpoint& ep = net.endpoint();
  VirtualUdpNet::Endpoint& sink = net.endpoint();
  UdpTransport::Options opts;
  opts.send_batch = 2;
  auto t = on_net(ep, opts);
  REQUIRE_SOCKETS(t);
  for (ProcId peer = 0; peer < 3; ++peer) {
    t->add_peer(peer, kNetHost, sink.port());
  }
  t->start([](std::span<const std::uint8_t>) {});

  // Blocked socket: every send lands in its peer's backlog ring.
  ep.block_sends = true;
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
  ep.block_sends = false;
  for (int spins = 0; spins < 64 && t->backlog_depth() > 0; ++spins) {
    ASSERT_TRUE(t->run_once(0));
  }
  EXPECT_EQ(t->backlog_depth(), 0u);
  std::vector<std::uint8_t> sent;
  for (const auto& d : sink.receive_all()) sent.push_back(d.at(0));
  std::vector<std::uint8_t> expected;
  for (int round = 0; round < kPerPeer / 2; ++round) {
    for (char peer : {'A', 'C'}) {
      expected.push_back(static_cast<std::uint8_t>(peer));
      expected.push_back(static_cast<std::uint8_t>(peer));
    }
  }
  EXPECT_EQ(sent, expected);

  // Rejoin: a re-admitted peer's traffic flows again.
  t->add_peer(1, kNetHost, sink.port());
  t->send(1, {0x42});
  t->run_once(0);
  const auto rejoined = sink.receive_all();
  ASSERT_EQ(rejoined.size(), 1u);
  EXPECT_EQ(rejoined.front(), std::vector<std::uint8_t>{0x42});
  t->stop();
}

/// A transport on `net` that counts the datagrams it delivers, with one
/// datagram from another endpoint already due at it.
struct OneDatagramDue {
  explicit OneDatagramDue(VirtualUdpNet& net) : ep(net.endpoint()) {
    t = on_net(ep);
    if (t == nullptr) return;
    t->start([this](std::span<const std::uint8_t>) { ++delivered; });
    net.endpoint().send_to(ep.addr(), std::vector<std::uint8_t>{0x42});
  }
  VirtualUdpNet::Endpoint& ep;
  std::unique_ptr<UdpTransport> t;
  std::uint64_t delivered = 0;
};

/// Regression (revents): a POLLERR condition (e.g. an ICMP port-unreachable
/// surfaced on the socket) must be consumed and counted, with the loop
/// continuing to serve afterwards.  The pre-fix loop only examined
/// POLLIN/POLLOUT, so a persistent error condition spun poll at 100% CPU.
TEST(UdpTransport, PollErrIsConsumedAndServingContinues) {
  VirtualUdpNet net(1, 0.0, 0.0);
  OneDatagramDue rx(net);
  REQUIRE_SOCKETS(rx.t);
  rx.ep.poll_script.push_back({POLLERR});  // First cycle: only the error.
  EXPECT_TRUE(rx.t->run_once(0));
  EXPECT_EQ(rx.t->socket_errors(), 1u);
  EXPECT_EQ(rx.delivered, 0u);

  EXPECT_TRUE(rx.t->run_once(0));  // Next cycle: the datagram flows.
  EXPECT_EQ(rx.delivered, 1u);
  EXPECT_EQ(rx.t->transport_stats().socket_errors, 1u);
  rx.t->stop();
}

/// Regression (revents): POLLNVAL means the fd is gone — the loop must
/// stop cleanly (run_once returns false, and driftsyncd leaves its loop)
/// instead of spinning on a dead descriptor.
TEST(UdpTransport, PollNvalStopsServingCleanly) {
  VirtualUdpNet net(1, 0.0, 0.0);
  OneDatagramDue rx(net);
  REQUIRE_SOCKETS(rx.t);
  rx.ep.poll_script.push_back({POLLNVAL});
  EXPECT_FALSE(rx.t->run_once(0));
  EXPECT_EQ(rx.t->socket_errors(), 1u);
  EXPECT_EQ(rx.delivered, 0u);
  rx.t->stop();
}

/// A signal that interrupts the poll ends the turn, not the loop: the
/// next turn delivers what was waiting.
TEST(UdpTransport, InterruptedPollEndsTheTurnAndServingContinues) {
  VirtualUdpNet net(1, 0.0, 0.0);
  OneDatagramDue rx(net);
  REQUIRE_SOCKETS(rx.t);
  rx.ep.poll_script.push_back({.error = EINTR});
  EXPECT_TRUE(rx.t->run_once(0));
  EXPECT_EQ(rx.delivered, 0u);
  EXPECT_TRUE(rx.t->run_once(0));
  EXPECT_EQ(rx.delivered, 1u);
  EXPECT_EQ(rx.t->socket_errors(), 0u);
  rx.t->stop();
}

/// Any other poll failure stops serving.
TEST(UdpTransport, FailedPollStopsServing) {
  VirtualUdpNet net(1, 0.0, 0.0);
  OneDatagramDue rx(net);
  REQUIRE_SOCKETS(rx.t);
  rx.ep.poll_script.push_back({.error = ENOMEM});
  EXPECT_FALSE(rx.t->run_once(0));
  EXPECT_EQ(rx.delivered, 0u);
  rx.t->stop();
}

/// run_once polls for the timer's delay rounded up to whole milliseconds,
/// never longer than max_wait_ms, and without waiting once the timer is
/// due.
/// On an empty net a poll waits out its whole timeout, so the clock's
/// advance is the timeout the poll was given.
TEST(UdpTransport, TimerDelayBoundsThePollTimeout) {
  VirtualUdpNet net(1, 0.0, 0.0);
  auto t = on_net(net.endpoint());
  REQUIRE_SOCKETS(t);
  double delay = 0.0;
  t->set_timer([&delay] { return delay; });
  t->start([](std::span<const std::uint8_t>) {});
  const auto waited = [&](double timer_delay, int max_wait_ms) {
    delay = timer_delay;
    const double before = net.time();
    EXPECT_TRUE(t->run_once(max_wait_ms));
    return net.time() - before;
  };
  EXPECT_NEAR(waited(0.0025, 200), 0.003, 1e-12);
  EXPECT_NEAR(waited(1.0, 200), 0.2, 1e-12);
  EXPECT_NEAR(waited(1.0, -1), 1.0, 1e-12);  // No limit of its own.
  EXPECT_EQ(waited(0.0, 200), 0.0);
  EXPECT_EQ(waited(-0.5, 200), 0.0);
  t->stop();
}

// ---------------------------------------------------------------------------
// Nodes on the virtual net.

/// An OptimalCsa (loss-tolerant) that keeps the largest processing slack
/// (DESIGN.md decision 20) of the receive records its node hands it.
class SlackRecordingCsa final : public OptimalCsa {
 public:
  explicit SlackRecordingCsa(double& max_slack)
      : OptimalCsa(loss_tolerant()), max_slack_(&max_slack) {}

  bool on_receive_validated(const RecvContext& ctx,
                            const CsaPayload& payload) override {
    *max_slack_ = std::max(*max_slack_, ctx.recv_event.slack);
    return OptimalCsa::on_receive_validated(ctx, payload);
  }

 private:
  double* max_slack_;
};

/// The three-node path (source - relay - leaf) on a virtual net: drifting
/// clocks over the net's clock, 0.1–5 ms latencies under a 50 ms spec
/// bound, and one tracer on the net's clock.
class ThreeNodePath {
 public:
  explicit ThreeNodePath(std::uint64_t seed)
      : net_(seed, 1e-4, 5e-3), tracer_(4096, [this] { return net_.now(); }) {
    const SystemSpec spec = driftsync::testing::line_spec(3, 5e-4, 0.0, 0.05);
    const double offsets[3] = {0.0, 33.0, -7.5};
    const double rates[3] = {1.0, 1.0 + 3e-4, 1.0 - 2e-4};
    VirtualUdpNet::Endpoint* eps[3];
    for (VirtualUdpNet::Endpoint*& ep : eps) ep = &net_.endpoint();
    for (ProcId p = 0; p < 3; ++p) {
      auto t = on_net(*eps[p]);
      if (t == nullptr) return;
      if (p > 0) t->add_peer(p - 1, kNetHost, eps[p - 1]->port());
      if (p < 2) t->add_peer(p + 1, kNetHost, eps[p + 1]->port());
      t->set_tracer(&tracer_, p);
      transports_[p] = t.get();
      NodeConfig cfg = node_config(p, spec);
      cfg.tracer = &tracer_;
      nodes_.push_back(std::make_unique<Node>(
          std::move(cfg), std::make_unique<SlackRecordingCsa>(max_slack_),
          std::make_unique<ScaledTimeSource>(net_, offsets[p], rates[p]),
          std::move(t)));
    }
    for (auto& node : nodes_) node->start();
  }
  ~ThreeNodePath() {
    for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) (*it)->stop();
  }

  /// False when sockets are unavailable (nothing was built).
  [[nodiscard]] bool built() const { return nodes_.size() == 3; }

  void run_for(double seconds) {
    runtime::run_for(net_, {transports_[0], transports_[1], transports_[2]},
                     seconds);
  }

  [[nodiscard]] const Node& node(ProcId p) const { return *nodes_[p]; }
  [[nodiscard]] const VirtualUdpNet& net() const { return net_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] double max_slack() const { return max_slack_; }

 private:
  VirtualUdpNet net_;
  Tracer tracer_;
  double max_slack_ = 0.0;
  UdpTransport* transports_[3] = {};
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// The transport end to end: a 3-node path must contain true source time
/// and converge, with datagrams counted both ways and every handler's time
/// charged to processing slack.
TEST(UdpNode, ThreeNodeLoopbackConverges) {
  ThreeNodePath path(11);
  REQUIRE_SOCKETS(path.built());
  path.run_for(1.5);

  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_TRUE(brackets_truth(path.node(p), path.net())) << "node " << p;
  }
  EXPECT_LT(path.node(1).estimate().width(), 0.05);
  EXPECT_LT(path.node(2).estimate().width(), 0.10);  // Two hops away.
  const NodeStats s1 = path.node(1).stats();
  EXPECT_GT(s1.dgrams_in, 0u);
  EXPECT_GT(s1.transport.recv_datagrams, 0u);
  EXPECT_GT(s1.transport.send_datagrams, 0u);
  // Each read of the net's clock takes virtual time, so a receive event is
  // minted clock reads after its arrival stamp and the gap is charged to
  // processing slack (decision 20).  At least one read's worth: the 1 ns
  // nudge that keeps a node's event times apart is not handler time.
  EXPECT_GE(path.max_slack(), VirtualUdpNet::kReadQuantum);
  for (ProcId p = 0; p < 3; ++p) {
    print_stats("ThreeNodeLoopbackConverges", path.node(p));
  }
}

struct PathOutcome {
  std::vector<std::string> stats;  ///< stats_json() per node.
  std::string trace;               ///< The tracer's Chrome-trace export.
};

PathOutcome run_path(std::uint64_t seed) {
  ThreeNodePath path(seed);
  PathOutcome out;
  if (!path.built()) return out;
  path.run_for(1.5);
  for (ProcId p = 0; p < 3; ++p) out.stats.push_back(path.node(p).stats_json());
  out.trace = trace_to_chrome_json(path.tracer().snapshot());
  return out;
}

/// Theorem 2.1 makes a node's output a function of its view, and on the
/// virtual net the views are a function of the seed: one seed replays the
/// run byte for byte, and another seed makes a different run.
TEST(UdpNode, ThreeNodeRunReplaysFromItsSeed) {
  const PathOutcome a = run_path(11);
  REQUIRE_SOCKETS(!a.stats.empty());
  const PathOutcome b = run_path(11);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.trace, b.trace);
  const PathOutcome c = run_path(12);
  EXPECT_TRUE(c.stats != a.stats || c.trace != a.trace);
}

/// The trust-boundary storm: blast a serving node with random garbage and
/// near-miss datagrams.  Every byte string must resolve to a counted drop
/// (WireError) or a counted ignore — never a crash — and the estimate must
/// stay correct.  Run under ASan/UBSan this is the §6 acceptance test.
TEST(UdpNode, MalformedDatagramStormLeavesNodeServing) {
  VirtualUdpNet net(7, 1e-4, 5e-3);
  VirtualUdpNet::Endpoint& ep0 = net.endpoint();
  VirtualUdpNet::Endpoint& victim = net.endpoint();
  VirtualUdpNet::Endpoint& attacker = net.endpoint();
  auto t0 = on_net(ep0);
  REQUIRE_SOCKETS(t0);
  auto t1 = on_net(victim);
  REQUIRE_SOCKETS(t1);
  t0->add_peer(1, kNetHost, victim.port());
  t1->add_peer(0, kNetHost, ep0.port());
  UdpTransport* const net0 = t0.get();
  UdpTransport* const net1 = t1.get();

  const SystemSpec spec = two_node_spec();
  Node n0(node_config(0, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(net, 0.0, 1.0), std::move(t0));
  Node n1(node_config(1, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(net, -12.0, 1.0 - 2e-4),
          std::move(t1));
  n0.start();
  n1.start();
  run_for(net, {net0, net1}, 0.4);

  Rng rng(77);
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
    attacker.send_to(victim.addr(), junk);
    if (i % 50 == 0) run_for(net, {net0, net1}, 0.001);
  }

  // Let the storm drain and the protocol keep running through it.
  run_for(net, {net0, net1}, 0.8);
  const NodeStats s1 = n1.stats();
  EXPECT_GT(s1.decode_drops, 0u);  // The storm was actually seen.
  EXPECT_TRUE(brackets_truth(n0, net));
  EXPECT_TRUE(brackets_truth(n1, net));
  EXPECT_LT(n1.estimate().width(), 0.05);
  print_stats("MalformedDatagramStormLeavesNodeServing", n0);
  print_stats("MalformedDatagramStormLeavesNodeServing", n1);
  n1.stop();
  n0.stop();
}

/// Sends `request` from a bare client endpoint to `node_ep` and pumps the
/// node's transport until one datagram comes back (or 0.5 s pass).
std::vector<std::vector<std::uint8_t>> round_trip(
    VirtualUdpNet& net, UdpTransport* node_net,
    const VirtualUdpNet::Endpoint& node_ep,
    const std::vector<std::uint8_t>& request) {
  VirtualUdpNet::Endpoint& client = net.endpoint();
  client.send_to(node_ep.addr(), request);
  std::vector<std::vector<std::uint8_t>> replies;
  run_until(net, {node_net}, 0.5, [&] {
    replies = client.receive_all();
    return !replies.empty();
  });
  return replies;
}

/// driftsync_probe's round trip, done by hand: an unconfigured client
/// sends ProbeReq and the node replies to the datagram's source address
/// (the kReplyPeer path).
TEST(UdpNode, ProbeRoundTrip) {
  VirtualUdpNet net(5, 1e-4, 5e-3);
  VirtualUdpNet::Endpoint& node_ep = net.endpoint();
  auto t1 = on_net(node_ep);
  REQUIRE_SOCKETS(t1);
  UdpTransport* const net1 = t1.get();

  const SystemSpec spec = two_node_spec();
  Node n1(node_config(1, spec), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(net, 4.0, 1.0), std::move(t1));
  n1.start();

  const std::uint64_t nonce = 0xfeedface12345678ULL;
  const auto replies =
      round_trip(net, net1, node_ep, encode_datagram(ProbeReq{nonce}));
  ASSERT_EQ(replies.size(), 1u);
  const Datagram dgram = decode_datagram(replies.front());
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
  print_stats("ProbeRoundTrip", n1);
  n1.stop();
}

/// driftsync_probe --metrics/--trace, done by hand: a MetricsReq from an
/// unconfigured client gets Prometheus text and (when asked) a Chrome-trace
/// snapshot back over the kReplyPeer path.
TEST(UdpNode, MetricsRoundTrip) {
  VirtualUdpNet net(6, 1e-4, 5e-3);
  VirtualUdpNet::Endpoint& node_ep = net.endpoint();
  auto t1 = on_net(node_ep);
  REQUIRE_SOCKETS(t1);
  UdpTransport* const net1 = t1.get();

  Tracer tracer(256, [&net] { return net.now(); });
  t1->set_tracer(&tracer, 1);
  const SystemSpec spec = two_node_spec();
  NodeConfig cfg = node_config(1, spec);
  cfg.tracer = &tracer;
  Node n1(std::move(cfg), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(net, 4.0, 1.0), std::move(t1));
  n1.start();

  const std::uint64_t nonce = 0xabad1deacafeULL;
  const auto replies =
      round_trip(net, net1, node_ep, encode_datagram(MetricsReq{nonce, 64}));
  ASSERT_EQ(replies.size(), 1u);
  const Datagram dgram = decode_datagram(replies.front());
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
  print_stats("MetricsRoundTrip", n1);
  n1.stop();
}

// ---------------------------------------------------------------------------
// UdpLoopback: real sockets on 127.0.0.1.  Each test pumps until its
// condition holds or its deadline passes, and every assertion streams the
// values it judged, so a failure names its cause.

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

constexpr const char* kLoopback = "127.0.0.1";

TEST(UdpLoopback, RawDatagramRoundTrip) {
  auto a = try_bind();
  REQUIRE_SOCKETS(a);
  auto b = try_bind();
  REQUIRE_SOCKETS(b);
  a->add_peer(1, kLoopback, b->local_port());
  b->add_peer(0, kLoopback, a->local_port());

  std::vector<std::uint8_t> got;
  b->start([&](std::span<const std::uint8_t> bytes) {
    got.assign(bytes.begin(), bytes.end());
  });
  a->start([](std::span<const std::uint8_t>) {});

  const std::vector<std::uint8_t> sent{0x11, 0x22, 0x33};
  a->send(1, sent);
  EXPECT_TRUE(pump_until({a.get(), b.get()}, 2.0, [&] { return got == sent; }))
      << "received " << got.size() << " bytes, send_drops " << a->send_drops();
  EXPECT_EQ(a->send_drops(), 0u);
  a->stop();
  b->stop();
}

/// Backlog accounting under a flood: loopback sends rarely block, so the
/// backlog should drain to zero once the flood ends, with every datagram
/// accounted for as sent or dropped (never leaked in a queue).
TEST(UdpLoopback, FloodBacklogReturnsToZero) {
  auto a = try_bind();
  REQUIRE_SOCKETS(a);
  auto b = try_bind();
  REQUIRE_SOCKETS(b);
  a->add_peer(1, kLoopback, b->local_port());
  b->start([](std::span<const std::uint8_t>) {});
  a->start([](std::span<const std::uint8_t>) {});

  const std::vector<std::uint8_t> payload(512, 0xab);
  for (int i = 0; i < 2000; ++i) a->send(1, payload);
  EXPECT_TRUE(pump_until({a.get(), b.get()}, 2.0,
                         [&] { return a->backlog_depth() == 0; }))
      << "backlog " << a->backlog_depth() << ", send_drops "
      << a->send_drops() << ", sent "
      << a->transport_stats().send_datagrams;
  a->stop();
  b->stop();
}

/// Regression (truncation): oversized datagrams must be dropped and counted
/// in recv_drops, never delivered truncated — a truncated payload decodes
/// as garbage at best, a plausible prefix at worst.  The pre-fix loop
/// passed the silently cut-down bytes straight to the handler.
TEST(UdpLoopback, TruncatedDatagramsAreDroppedAndCounted) {
  UdpTransport::Options opts;
  opts.max_datagram = 512;
  opts.recv_batch = 8;
  auto t = try_bind(opts);
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
  ASSERT_EQ(inet_pton(AF_INET, kLoopback, &victim.sin_addr), 1);
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
  const auto seen = [&] {
    return ::testing::Message()
           << "small delivered " << small_delivered << ", oversized delivered "
           << oversized_delivered << ", recv_drops " << t->recv_drops()
           << " of " << kPairs << " pairs";
  };
  EXPECT_EQ(oversized_delivered, 0u) << seen();  // Never, truncated or not.
  EXPECT_GT(small_delivered, 0u) << seen();  // In-bounds traffic kept flowing.
  EXPECT_GT(t->recv_drops(), 0u) << seen();  // And the drops were counted.
  EXPECT_EQ(t->transport_stats().recv_drops, t->recv_drops());
  t->stop();
}

/// Two driftsyncd-style nodes on loopback ephemeral ports: the non-source
/// node must converge to a correct, narrow estimate of real time.
TEST(UdpLoopback, TwoNodeLoopbackSmoke) {
  auto t0 = try_bind();
  REQUIRE_SOCKETS(t0);
  auto t1 = try_bind();
  REQUIRE_SOCKETS(t1);
  t0->add_peer(1, kLoopback, t1->local_port());
  t1->add_peer(0, kLoopback, t0->local_port());
  UdpTransport* const net0 = t0.get();
  UdpTransport* const net1 = t1.get();

  // Over real sockets true source time is CLOCK_MONOTONIC, node 0's clock.
  const ScaledTimeSource truth(0.0, 1.0);
  // Real sockets need a slower fate timeout than the virtual net.
  const SystemSpec spec = two_node_spec();
  Node n0(node_config(0, spec, 0.04, 0.3, 0.1), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(0.0, 1.0), std::move(t0));
  Node n1(node_config(1, spec, 0.04, 0.3, 0.1), loss_tolerant_csa(),
          std::make_unique<ScaledTimeSource>(25.0, 1.0 + 2e-4),
          std::move(t1));
  n0.start();
  n1.start();
  // Loopback latency is microseconds; a width near the 50 ms spec bound
  // would mean the protocol never exchanged fresh information.
  pump_until({net0, net1}, 1.2, [&] {
    const NodeStats s = n1.stats();
    return s.dgrams_in > 0 && s.deliveries_confirmed > 0 &&
           n1.estimate().width() < 0.05;
  });
  const NodeStats s1 = n1.stats();
  const double width = n1.estimate().width();
  const auto seen = [&] {
    return ::testing::Message()
           << "node 1: width " << width << ", dgrams_in " << s1.dgrams_in
           << ", deliveries_confirmed " << s1.deliveries_confirmed;
  };
  EXPECT_TRUE(brackets_truth(n0, truth));
  EXPECT_TRUE(brackets_truth(n1, truth)) << seen();
  EXPECT_EQ(n0.estimate().width(), 0.0);
  EXPECT_LT(width, 0.05) << seen();
  EXPECT_GT(s1.dgrams_in, 0u) << seen();
  EXPECT_GT(s1.deliveries_confirmed, 0u) << seen();
  n1.stop();
  n0.stop();
}

}  // namespace
}  // namespace driftsync::runtime
