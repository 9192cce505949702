// Serving-tier tests (DESIGN.md decision 17): SessionTable slab/LRU/cap
// semantics, the Server request path, ClientEstimator interval math and its
// feasibility screen, and an end-to-end exchange against a serving node in
// the 3-node path mesh — the client's interval must bracket true
// source time without the client ever joining the peer mesh.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/errors.h"
#include "common/interval.h"
#include "runtime/datagram.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "runtime/time_source.h"
#include "serve/client_session.h"
#include "serve/server.h"
#include "serve/session_table.h"
#include "test_util.h"

namespace driftsync {
namespace {

using driftsync::testing::loss_tolerant;
using driftsync::testing::node_config;
using driftsync::testing::three_node_path;
using serve::ClientEstimator;
using serve::ClientSession;
using serve::Server;
using serve::SessionTable;

SessionTable::Options table_opts(std::size_t cap, double idle = 100.0,
                                 double grace = 1.0) {
  SessionTable::Options opts;
  opts.max_clients = cap;
  opts.idle_timeout = idle;
  opts.evict_grace = grace;
  return opts;
}

TEST(SessionTableTest, TouchCreatesThenHits) {
  SessionTable table(table_opts(4));
  ClientSession* s = table.touch(7, 1.0);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->client_id, 7u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.counters().inserts, 1u);

  ClientSession* again = table.touch(7, 2.0);
  EXPECT_EQ(again, s);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.counters().hits, 1u);
  EXPECT_DOUBLE_EQ(again->last_active, 2.0);
}

TEST(SessionTableTest, EvictsLruTailAtCapOncePastGrace) {
  SessionTable table(table_opts(2, 100.0, 1.0));
  ASSERT_NE(table.touch(1, 0.0), nullptr);
  ASSERT_NE(table.touch(2, 0.5), nullptr);
  // Tail is client 1, idle 1.5 s >= the 1 s grace: the newcomer evicts it.
  ClientSession* s = table.touch(3, 1.5);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->client_id, 3u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.counters().evicted, 1u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_NE(table.find(2), nullptr);
}

TEST(SessionTableTest, RejectsNewcomerInsideGraceWindow) {
  SessionTable table(table_opts(2, 100.0, 1.0));
  ASSERT_NE(table.touch(1, 0.0), nullptr);
  ASSERT_NE(table.touch(2, 0.1), nullptr);
  // Tail idle 0.4 s < 1 s grace: an active fleet cannot be churned out.
  EXPECT_EQ(table.touch(3, 0.5), nullptr);
  EXPECT_EQ(table.counters().rejected, 1u);
  EXPECT_EQ(table.size(), 2u);
  // Residents keep being served at the cap.
  EXPECT_NE(table.touch(1, 0.6), nullptr);
  EXPECT_EQ(table.counters().hits, 1u);
}

TEST(SessionTableTest, TouchRefreshesLruOrder) {
  SessionTable table(table_opts(2, 100.0, 0.0));
  ASSERT_NE(table.touch(1, 0.0), nullptr);
  ASSERT_NE(table.touch(2, 0.1), nullptr);
  ASSERT_NE(table.touch(1, 0.2), nullptr);  // 2 becomes the tail.
  ASSERT_NE(table.touch(3, 0.3), nullptr);
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_NE(table.find(1), nullptr);
  EXPECT_NE(table.find(3), nullptr);
}

TEST(SessionTableTest, ReapsIdleSessionsOnly) {
  SessionTable table(table_opts(4, 10.0));
  ASSERT_NE(table.touch(1, 0.0), nullptr);
  ASSERT_NE(table.touch(2, 5.0), nullptr);
  ASSERT_NE(table.touch(3, 11.0), nullptr);
  // At t=16: client 1 idle 16s and client 2 idle 11s exceed the timeout;
  // client 3 (idle 5s) survives.
  EXPECT_EQ(table.reap_idle(16.0), 2u);
  EXPECT_EQ(table.counters().reaped, 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_NE(table.find(3), nullptr);
}

TEST(SessionTableTest, MemoryStaysFlatAcrossChurn) {
  SessionTable table(table_opts(8, 100.0, 0.0));
  const std::size_t bytes_at_birth = table.memory_bytes();
  EXPECT_GT(bytes_at_birth, 0u);
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    ASSERT_NE(table.touch(id, static_cast<double>(id)), nullptr);
  }
  EXPECT_EQ(table.memory_bytes(), bytes_at_birth);
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.counters().evicted, 992u);
}

TEST(SessionTableTest, SlotsRecycleAfterReap) {
  SessionTable table(table_opts(2, 1.0, 0.0));
  ASSERT_NE(table.touch(1, 0.0), nullptr);
  ASSERT_NE(table.touch(2, 0.0), nullptr);
  EXPECT_EQ(table.reap_idle(5.0), 2u);
  EXPECT_EQ(table.size(), 0u);
  ASSERT_NE(table.touch(3, 5.0), nullptr);
  ASSERT_NE(table.touch(4, 5.0), nullptr);
  EXPECT_EQ(table.size(), 2u);
}

TEST(ClientSessionTest, RttWindowTracksMinimum) {
  ClientSession s;
  EXPECT_DOUBLE_EQ(s.min_rtt(), 0.0);
  s.note_rtt(0.030);
  s.note_rtt(0.012);
  s.note_rtt(0.045);
  EXPECT_DOUBLE_EQ(s.min_rtt(), 0.012);
  EXPECT_GT(s.srtt, 0.0);
  // The window forgets: 8 larger samples push the 12 ms minimum out.
  for (int i = 0; i < 8; ++i) s.note_rtt(0.050);
  EXPECT_DOUBLE_EQ(s.min_rtt(), 0.050);
}

TEST(ServerTest, FillsResponseFromEstimate) {
  Server::Options opts;
  opts.sessions = table_opts(4);
  Server server(opts);
  runtime::ClientReq req;
  req.client_id = 9;
  req.req_seq = 1;
  req.client_lt = 123.5;
  req.last_rtt = 0.004;
  runtime::ClientResp resp;
  const Interval est{100.0, 100.25};
  ASSERT_TRUE(server.handle(req, 2, est, 777.0, 1.0, &resp));
  EXPECT_EQ(resp.client_id, 9u);
  EXPECT_EQ(resp.req_seq, 1u);
  EXPECT_DOUBLE_EQ(resp.echo_lt, 123.5);
  EXPECT_EQ(resp.from, 2u);
  EXPECT_DOUBLE_EQ(resp.server_lt, 777.0);
  EXPECT_DOUBLE_EQ(resp.lo, 100.0);
  EXPECT_DOUBLE_EQ(resp.hi, 100.25);
  EXPECT_EQ(server.requests(), 1u);
  const ClientSession* s = server.sessions().find(9);
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->min_rtt(), 0.004);
}

TEST(ServerTest, RejectsAtCapWithoutResponse) {
  Server::Options opts;
  opts.sessions = table_opts(1, 100.0, 10.0);
  Server server(opts);
  runtime::ClientReq req;
  req.client_id = 1;
  req.req_seq = 1;
  runtime::ClientResp resp;
  ASSERT_TRUE(server.handle(req, 0, Interval{0, 1}, 0.0, 0.0, &resp));
  req.client_id = 2;
  EXPECT_FALSE(server.handle(req, 0, Interval{0, 1}, 0.1, 0.1, &resp));
  EXPECT_EQ(server.sessions().counters().rejected, 1u);
  EXPECT_EQ(server.requests(), 1u);
}

TEST(ServeTest, ClientTraceIdsAreNonzeroDistinctAndTagged) {
  const std::uint64_t a = serve::client_trace_id(1, 1);
  const std::uint64_t b = serve::client_trace_id(1, 2);
  const std::uint64_t c = serve::client_trace_id(2, 1);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  // Top bit keeps client-exchange ids disjoint from mesh-minted ids.
  EXPECT_NE(a & (std::uint64_t{1} << 63), 0u);
}

ClientEstimator::Options estimator_opts(std::uint64_t id = 42,
                                        double rho = 1e-4) {
  ClientEstimator::Options opts;
  opts.client_id = id;
  opts.rho = rho;
  return opts;
}

runtime::ClientResp respond_to(const runtime::ClientReq& req, double lo,
                               double hi) {
  runtime::ClientResp resp;
  resp.client_id = req.client_id;
  resp.req_seq = req.req_seq;
  resp.echo_lt = req.client_lt;
  resp.from = 0;
  resp.server_lt = 0.0;
  resp.lo = lo;
  resp.hi = hi;
  return resp;
}

TEST(ClientEstimatorTest, AcceptsResponseAndWidensHiByRtt) {
  ClientEstimator est(estimator_opts());
  const runtime::ClientReq req = est.make_request(100.0);
  EXPECT_EQ(req.req_seq, 1u);
  const runtime::ClientResp resp = respond_to(req, 50.0, 50.01);
  ASSERT_TRUE(est.on_response(resp, 100.05));
  EXPECT_EQ(est.accepted(), 1u);
  // rtt is the local-clock difference 100.05 - 100.0 (FP-inexact, so
  // compare to the subtraction, not the literal 0.05).
  const double rtt = 100.05 - 100.0;
  EXPECT_DOUBLE_EQ(est.last_rtt(), rtt);
  const Interval e = est.estimate(100.05);
  EXPECT_DOUBLE_EQ(e.lo, 50.0);
  // hi widened by rtt through the drift envelope: rtt / (1 - rho).
  EXPECT_NEAR(e.hi, 50.01 + rtt / (1.0 - 1e-4), 1e-12);
}

TEST(ClientEstimatorTest, UnansweredUntilFirstAccept) {
  ClientEstimator est(estimator_opts());
  EXPECT_FALSE(est.estimate(0.0).bounded());
}

TEST(ClientEstimatorTest, RenouncesWrongSeqEchoOrIdentity) {
  ClientEstimator est(estimator_opts());
  const runtime::ClientReq req = est.make_request(10.0);

  runtime::ClientResp resp = respond_to(req, 1.0, 2.0);
  resp.req_seq = 99;
  EXPECT_FALSE(est.on_response(resp, 10.01));

  resp = respond_to(req, 1.0, 2.0);
  resp.echo_lt = 10.5;  // Forged echo timestamp.
  EXPECT_FALSE(est.on_response(resp, 10.01));

  resp = respond_to(req, 1.0, 2.0);
  resp.client_id = 7;  // Someone else's response.
  EXPECT_FALSE(est.on_response(resp, 10.01));

  EXPECT_EQ(est.renounced(), 3u);
  EXPECT_EQ(est.accepted(), 0u);
  // The genuine response still lands afterwards.
  EXPECT_TRUE(est.on_response(respond_to(req, 1.0, 2.0), 10.01));
}

TEST(ClientEstimatorTest, RenouncesDuplicateOfAcceptedResponse) {
  ClientEstimator est(estimator_opts());
  const runtime::ClientReq req = est.make_request(10.0);
  const runtime::ClientResp resp = respond_to(req, 1.0, 2.0);
  ASSERT_TRUE(est.on_response(resp, 10.01));
  // A network duplicate must not be folded in twice.
  EXPECT_FALSE(est.on_response(resp, 10.02));
  EXPECT_EQ(est.accepted(), 1u);
  EXPECT_EQ(est.renounced(), 1u);
}

TEST(ClientEstimatorTest, RenouncesNonPositiveAndOverBudgetRtt) {
  ClientEstimator::Options opts = estimator_opts();
  opts.max_rtt = 0.1;
  ClientEstimator est(opts);
  runtime::ClientReq req = est.make_request(10.0);
  // Zero RTT: receive instant equals send instant, physically impossible.
  EXPECT_FALSE(est.on_response(respond_to(req, 1.0, 2.0), 10.0));
  req = est.make_request(20.0);
  // 0.2 s round trip exceeds the 0.1 s budget.
  EXPECT_FALSE(est.on_response(respond_to(req, 1.0, 2.0), 20.2));
  EXPECT_EQ(est.renounced(), 2u);
  EXPECT_EQ(est.accepted(), 0u);
}

TEST(ClientEstimatorTest, RenouncesInfeasibleResponseKeepingPrior) {
  ClientEstimator est(estimator_opts());
  runtime::ClientReq req = est.make_request(10.0);
  ASSERT_TRUE(est.on_response(respond_to(req, 100.0, 100.01), 10.005));
  const Interval prior = est.estimate(10.005);
  // A response claiming true time is ~900 s away contradicts the
  // drift-extrapolated prior: empty intersection, renounced, prior kept.
  req = est.make_request(10.1);
  EXPECT_FALSE(est.on_response(respond_to(req, 1000.0, 1000.01), 10.105));
  EXPECT_EQ(est.renounced(), 1u);
  const Interval after = est.estimate(10.005);
  EXPECT_DOUBLE_EQ(after.lo, prior.lo);
  EXPECT_DOUBLE_EQ(after.hi, prior.hi);
}

TEST(ClientEstimatorTest, IntersectionOnlyNarrowsKnowledge) {
  ClientEstimator est(estimator_opts());
  runtime::ClientReq req = est.make_request(10.0);
  ASSERT_TRUE(est.on_response(respond_to(req, 100.0, 100.5), 10.01));
  const Interval coarse = est.estimate(10.02);
  req = est.make_request(10.02);
  ASSERT_TRUE(est.on_response(respond_to(req, 100.1, 100.2), 10.03));
  const Interval fine = est.estimate(10.03);
  EXPECT_LT(fine.width(), coarse.width());
  // Knowledge monotonicity: the refined estimate sits inside the coarse
  // prior extrapolated to the same local instant (dlt = 0.01).
  const double rho = est.options().rho;
  EXPECT_GE(fine.lo, coarse.lo + 0.01 / (1.0 + rho) - 1e-12);
  EXPECT_LE(fine.hi, coarse.hi + 0.01 / (1.0 - rho) + 1e-12);
}

TEST(ClientEstimatorTest, ExtrapolationWidensThroughDriftEnvelope) {
  const double rho = 1e-3;
  ClientEstimator est(estimator_opts(42, rho));
  const runtime::ClientReq req = est.make_request(10.0);
  ASSERT_TRUE(est.on_response(respond_to(req, 100.0, 100.01), 10.01));
  const Interval now = est.estimate(10.01);
  const Interval later = est.estimate(20.01);  // 10 local seconds later.
  EXPECT_NEAR(later.lo, now.lo + 10.0 / (1.0 + rho), 1e-9);
  EXPECT_NEAR(later.hi, now.hi + 10.0 / (1.0 - rho), 1e-9);
  EXPECT_GT(later.width(), now.width());
}

// End-to-end: a client exchanging datagrams with a serving source node in
// the 3-node path mesh obtains a bounded interval bracketing true source
// time.  The client's clock is the hub's virtual time — identical to the
// ground truth the fixture's source node runs on — so the bracket is
// checkable directly.
TEST(ServeIntegrationTest, ClientBracketsTruthThroughServingNode) {
  runtime::Mesh mesh = three_node_path();
  mesh.hub().set_link(1, 2, 0.001, 0.008);
  constexpr ProcId kClientProc = 77;
  mesh.hub().set_link(0, kClientProc, 0.0005, 0.004);

  runtime::NodeConfig cfg0 = node_config(0, mesh.spec());
  cfg0.serve_max_clients = 8;
  mesh.add(std::move(cfg0), loss_tolerant(), 0.0, 1.0);
  mesh.add(node_config(1, mesh.spec()), loss_tolerant(), 3.25, 1.0 + 2e-4);
  mesh.add(node_config(2, mesh.spec()), loss_tolerant(), -7.5, 1.0 - 1e-4);
  mesh.start();

  ClientEstimator est(estimator_opts(4242, 5e-4));
  const runtime::Hub& clock = mesh.hub();
  std::unique_ptr<runtime::Transport> endpoint =
      mesh.hub().endpoint(kClientProc);
  endpoint->start([&est, &clock](std::span<const std::uint8_t> bytes) {
    runtime::Datagram dgram;
    try {
      dgram = runtime::decode_datagram(bytes);
    } catch (const WireError&) {
      return;
    }
    if (const auto* resp = std::get_if<runtime::ClientResp>(&dgram)) {
      est.on_response(*resp, clock.now());
    }
  });

  for (int round = 0; round < 100; ++round) {
    if (est.accepted() >= 3 && est.estimate(clock.now()).bounded()) break;
    endpoint->send(0, runtime::encode_datagram(runtime::Datagram{
                          est.make_request(clock.now())}));
    mesh.hub().run_for(0.04);
  }

  ASSERT_GE(est.accepted(), 3u);
  const Interval e = est.estimate(clock.now());
  ASSERT_TRUE(e.bounded());
  const double truth = clock.now();
  EXPECT_LE(e.lo, truth);
  EXPECT_GE(e.hi, truth);

  const runtime::NodeStats stats = mesh.node(0).stats();
  EXPECT_GT(stats.serve_requests, 0u);
  EXPECT_EQ(stats.serve_active, 1u);
  EXPECT_EQ(stats.serve_rejected, 0u);

  endpoint->stop();
}

// The serving node's stats and Prometheus expositions carry the session
// counters (the CI smoke greps driftsync_serve_active off a live daemon).
TEST(ServeIntegrationTest, ServeCountersSurfaceInStatsAndMetrics) {
  runtime::Mesh mesh = three_node_path();
  constexpr ProcId kClientProc = 88;
  mesh.hub().set_link(0, kClientProc, 0.0005, 0.004);

  runtime::NodeConfig cfg0 = node_config(0, mesh.spec());
  cfg0.serve_max_clients = 4;
  runtime::Node& node0 = mesh.add(std::move(cfg0), loss_tolerant(), 0.0, 1.0);
  mesh.start();

  ClientEstimator est(estimator_opts(99));
  const runtime::Hub& clock = mesh.hub();
  std::unique_ptr<runtime::Transport> endpoint =
      mesh.hub().endpoint(kClientProc);
  endpoint->start([](std::span<const std::uint8_t>) {});
  for (int round = 0; round < 50; ++round) {
    endpoint->send(0, runtime::encode_datagram(runtime::Datagram{
                          est.make_request(clock.now())}));
    mesh.hub().run_for(0.01);
    if (node0.stats().serve_requests > 0) break;
  }
  EXPECT_GT(node0.stats().serve_requests, 0u);

  const std::string json = node0.stats_json();
  EXPECT_NE(json.find("\"serve_requests\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve_active\":1"), std::string::npos) << json;

  const std::string metrics = node0.metrics_text();
  EXPECT_NE(metrics.find("driftsync_serve_requests"), std::string::npos);
  EXPECT_NE(metrics.find("driftsync_serve_active"), std::string::npos);
  EXPECT_NE(metrics.find("driftsync_serve_width_seconds"), std::string::npos);

  endpoint->stop();
}

// A node with serving disabled counts client requests as ignored and emits
// zeroed serve counters (the stats keys are unconditional).
TEST(ServeIntegrationTest, DisabledNodeIgnoresClientRequests) {
  runtime::Mesh mesh = three_node_path();
  constexpr ProcId kClientProc = 66;
  mesh.hub().set_link(0, kClientProc, 0.0005, 0.004);

  // No serve config.
  runtime::Node& node0 =
      mesh.add(node_config(0, mesh.spec()), loss_tolerant(), 0.0, 1.0);
  mesh.start();

  ClientEstimator est(estimator_opts(5));
  std::unique_ptr<runtime::Transport> endpoint =
      mesh.hub().endpoint(kClientProc);
  endpoint->start([](std::span<const std::uint8_t>) {});
  endpoint->send(0, runtime::encode_datagram(
                        runtime::Datagram{est.make_request(1.0)}));
  mesh.hub().run_for(0.1);

  const runtime::NodeStats stats = node0.stats();
  EXPECT_EQ(stats.serve_requests, 0u);
  EXPECT_EQ(stats.serve_active, 0u);
  const std::string json = node0.stats_json();
  EXPECT_NE(json.find("\"serve_requests\":0"), std::string::npos) << json;

  endpoint->stop();
}

}  // namespace
}  // namespace driftsync
