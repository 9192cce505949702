// Tracer tests (DESIGN.md §8): ring-buffer semantics (wraparound, ordering,
// torn-read discipline under concurrent writers), deterministic trace-id
// minting, the byte-stable Chrome/Perfetto export, and end-to-end causal
// propagation across a 3-node runtime::Mesh — the same id must appear
// on the sender's and the receiver's event streams.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "test_util.h"

namespace driftsync {
namespace {

using driftsync::testing::loss_tolerant;
using driftsync::testing::node_config;
using driftsync::testing::three_node_path;

/// Deterministic test clock: 1, 2, 3, ... seconds.
std::function<double()> counter_clock() {
  auto next = std::make_shared<double>(0.0);
  return [next] { return *next += 1.0; };
}

TEST(Tracer, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Tracer(1).capacity(), 8u);
  EXPECT_EQ(Tracer(8).capacity(), 8u);
  EXPECT_EQ(Tracer(9).capacity(), 16u);
  EXPECT_EQ(Tracer(4096).capacity(), 4096u);
}

TEST(Tracer, RecordsInOrderAndWrapsAround) {
  Tracer tracer(8, counter_clock());
  ASSERT_EQ(tracer.capacity(), 8u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    tracer.record(TraceEventKind::kSend, i, 0, 1, static_cast<double>(i));
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);

  // The ring keeps the newest capacity() events, oldest first.
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, 13 + i) << "index " << i;
    EXPECT_EQ(events[i].t, static_cast<double>(13 + i));
  }
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(8);
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.enabled());
  tracer.record(TraceEventKind::kSend, 1, 0, 1);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.set_enabled(true);
  tracer.record(TraceEventKind::kSend, 2, 0, 1);
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(Tracer, LastForFiltersByNodeAndKeepsOrder) {
  Tracer tracer(16, counter_clock());
  for (std::uint64_t i = 1; i <= 9; ++i) {
    tracer.record(TraceEventKind::kDeliver, i, static_cast<ProcId>(i % 3),
                  kInvalidProc);
  }
  const std::vector<TraceEvent> at1 = tracer.last_for(1, 2);
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_EQ(at1[0].trace_id, 4u);  // ids 1, 4, 7 hit node 1; last two kept.
  EXPECT_EQ(at1[1].trace_id, 7u);
  EXPECT_TRUE(tracer.last_for(5, 4).empty());
}

TEST(Tracer, ConcurrentWritersNeverTearOrLoseCounts) {
  Tracer tracer(1024);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&tracer, &go, w] {
      while (!go.load()) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tracer.record(TraceEventKind::kSend, (static_cast<std::uint64_t>(w)
                                              << 32) |
                                                 (i + 1),
                      static_cast<ProcId>(w), 0);
      }
    });
  }
  go.store(true);
  // Readers run concurrently: snapshots may skip torn slots but must only
  // ever contain events some writer actually recorded.
  for (int r = 0; r < 50; ++r) {
    for (const TraceEvent& ev : tracer.snapshot()) {
      EXPECT_LT(ev.node, static_cast<ProcId>(kThreads));
      EXPECT_NE(ev.trace_id, 0u);
      EXPECT_LE(ev.trace_id & 0xffffffffULL, kPerThread);
    }
    std::this_thread::yield();
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kPerThread);
  // A writer lapped mid-write can land its stale stamp after the newer
  // generation's, and the reader then (correctly) skips that slot.  Each
  // thread has at most one write in flight, so at most kThreads - 1 of the
  // final-window slots can be lost that way.
  const std::size_t n = tracer.snapshot().size();
  EXPECT_LE(n, tracer.capacity());
  EXPECT_GE(n, tracer.capacity() - (kThreads - 1));
}

TEST(MintTraceId, DeterministicNonzeroAndDistinct) {
  EXPECT_EQ(mint_trace_id(0, 1, 7), mint_trace_id(0, 1, 7));
  std::set<std::uint64_t> ids;
  for (ProcId from = 0; from < 4; ++from) {
    for (ProcId to = 0; to < 4; ++to) {
      for (std::uint64_t seq = 0; seq < 4; ++seq) {
        const std::uint64_t id = mint_trace_id(from, to, seq);
        EXPECT_NE(id, 0u);
        ids.insert(id);
      }
    }
  }
  EXPECT_EQ(ids.size(), 4u * 4u * 4u);
}

TEST(ChromeExport, GoldenJsonIsByteStable) {
  std::vector<TraceEvent> events(2);
  events[0].t = 1.0;
  events[0].trace_id = mint_trace_id(0, 1, 7);
  events[0].node = 0;
  events[0].peer = 1;
  events[0].kind = TraceEventKind::kSend;
  events[1].t = 2.0;
  events[1].trace_id = mint_trace_id(0, 1, 7);
  events[1].node = 1;
  events[1].peer = 0;
  events[1].kind = TraceEventKind::kDeliver;
  events[1].value = 0.5;

  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"send\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1000000,"
      "\"pid\":0,\"tid\":1,"
      "\"args\":{\"trace\":\"0x1000200000007\",\"value\":0}},"
      "{\"name\":\"deliver\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2000000,"
      "\"pid\":1,\"tid\":0,"
      "\"args\":{\"trace\":\"0x1000200000007\",\"value\":0.5}}"
      "]}";
  EXPECT_EQ(trace_to_chrome_json(events), expected);
  // Byte-stable: rendering the same events twice is identical (the
  // determinism suite diffs whole documents).
  EXPECT_EQ(trace_to_chrome_json(events), trace_to_chrome_json(events));
  EXPECT_EQ(trace_to_chrome_json({}), "{\"traceEvents\":[]}");
}

TEST(ChromeExport, KindNamesAreStable) {
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kSend), "send");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kDeliver), "deliver");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kDrop), "drop");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kRenounce), "renounce");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kQuarantineEnter),
               "quarantine_enter");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kQuarantineExit),
               "quarantine_exit");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kSkipCommit),
               "skip_commit");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kCheckpoint),
               "checkpoint");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kExternalize),
               "externalize");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kClientReq),
               "client_req");
  EXPECT_STREQ(trace_event_kind_name(TraceEventKind::kClientResp),
               "client_resp");
}

// ---------------------------------------------------------------------------
// End-to-end propagation: a minted id must cross the wire.

TEST(TraceIntegration, IdPropagatesAcrossThreeNodeNetwork) {
  runtime::Mesh mesh = three_node_path();
  // Stamped in the hub's virtual time; the mesh stops before the tracer
  // goes away, and nothing records after that.
  Tracer tracer(8192, [&mesh] { return mesh.hub().now(); });
  mesh.hub().set_tracer(&tracer);
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  mesh.hub().set_link(1, 2, 0.0005, 0.003);

  const double offsets[3] = {0.0, 17.0, -8.5};
  const double rates[3] = {1.0, 1.0 + 4e-4, 1.0 - 3e-4};
  for (ProcId p = 0; p < 3; ++p) {
    runtime::NodeConfig cfg = node_config(p, mesh.spec());
    cfg.tracer = &tracer;
    mesh.add(std::move(cfg), loss_tolerant(), offsets[p], rates[p]);
  }
  mesh.start();
  mesh.hub().run_for(0.8);
  // Externalize an estimate on each node so the lifecycle event is traced.
  for (ProcId p = 0; p < 3; ++p) (void)mesh.node(p).estimate();
  mesh.stop();

  // Every delivered id was previously sent by a *different* node, and at
  // least one send/deliver pair exists for every link direction's sender.
  const std::vector<TraceEvent> events = tracer.snapshot();
  std::set<std::uint64_t> sent_ids;
  std::set<ProcId> paired_senders;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEventKind::kSend && ev.trace_id != 0) {
      sent_ids.insert(ev.trace_id);
    }
  }
  std::uint64_t deliveries = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind != TraceEventKind::kDeliver || ev.trace_id == 0) continue;
    ++deliveries;
    EXPECT_TRUE(sent_ids.count(ev.trace_id) > 0 || tracer.dropped() > 0)
        << "delivered id 0x" << std::hex << ev.trace_id
        << " never left any sender";
    // peer field names the sender; the deliver happened elsewhere.
    EXPECT_NE(ev.node, ev.peer);
    paired_senders.insert(ev.peer);
  }
  EXPECT_GT(deliveries, 0u);
  // Every node's sends were delivered somewhere.
  EXPECT_EQ(paired_senders.size(), 3u);
  // Externalize/checkpoint-style lifecycle events flow to the same buffer.
  bool saw_externalize = false;
  for (const TraceEvent& ev : events) {
    saw_externalize |= ev.kind == TraceEventKind::kExternalize;
  }
  EXPECT_TRUE(saw_externalize);
}

}  // namespace
}  // namespace driftsync
