// Trace-replay determinism suite (DESIGN.md §8): the chaos layer promises
// that its fault schedule is a pure function of the seed and the send
// sequence, and a Mesh runs in its hub's virtual time.  This suite locks
// both down end to end: a scripted, synchronous scenario is pushed through
// a seeded ChaosTransport twice, and the two runs must produce
// byte-identical Chrome trace documents, fault journals (timestamps
// included) and delivery streams; and a whole chaos-laden Mesh run, done
// twice, must write byte-identical journals, traces and node stats.  A
// third test closes the accounting loop: the journal alone must predict
// the delivery count and reconcile with the ChaosEventLog counters, which
// is what lets a failing chaos run be replayed and diagnosed from its seed
// and journal.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/trace.h"
#include "runtime/chaos.h"
#include "runtime/datagram.h"
#include "runtime/hub.h"
#include "runtime/mesh.h"
#include "runtime/transport.h"
#include "test_util.h"
#include "workloads/topology.h"

namespace driftsync::runtime {
namespace {

/// Innermost transport: records every datagram the chaos layer lets
/// through, in delivery order.  No threads, no sockets — the scenario is
/// fully synchronous, so the only nondeterminism under test is the chaos
/// layer's own.
class CaptureTransport : public Transport {
 public:
  void start(DatagramHandler /*handler*/) override {}
  void stop() override {}
  void send(ProcId to, std::vector<std::uint8_t> bytes) override {
    delivered_.emplace_back(to, std::move(bytes));
  }

  [[nodiscard]] const std::vector<std::pair<ProcId, std::vector<std::uint8_t>>>&
  delivered() const {
    return delivered_;
  }

 private:
  std::vector<std::pair<ProcId, std::vector<std::uint8_t>>> delivered_;
};

/// Deterministic trace clock: 1, 2, 3, ... seconds.
std::function<double()> counter_clock() {
  auto next = std::make_shared<double>(0.0);
  return [next] { return *next += 1.0; };
}

struct RunResult {
  std::string trace_json;            ///< Chrome trace of the kDrop stream.
  std::vector<std::string> journal;  ///< Raw fault-journal lines.
  std::vector<std::pair<ProcId, std::vector<std::uint8_t>>> delivered;
  std::uint64_t injected = 0;
  std::uint64_t journal_total = 0;
  std::map<std::string, std::uint64_t> counts;
};

constexpr std::uint64_t kSends = 300;
const char* const kFaultKinds[] = {"partition-drop", "burst-drop", "drop",
                                   "corrupt",        "duplicate",  "hold",
                                   "reorder",        "hold-drop"};

/// One scripted scenario: kSends data datagrams from node 0, alternating
/// between peers 1 and 2, with a partition window against peer 2 in the
/// middle.  Every stochastic choice flows through the seeded Rng inside
/// ChaosTransport; everything else here is fixed.
RunResult run_scenario(std::uint64_t seed) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  EXPECT_NE(mem, nullptr);

  RunResult result;
  {
    Hub clock;  // Virtual time: the journal's stamps; 1 ms per send.
    ChaosEventLog log(clock, mem);
    auto inner = std::make_unique<CaptureTransport>();
    CaptureTransport* capture = inner.get();
    ChaosFaults faults;
    faults.drop = 0.08;
    faults.burst = 0.01;
    faults.burst_len = 4;
    faults.corrupt = 0.05;
    faults.duplicate = 0.08;
    faults.reorder = 0.15;
    // Holds never age out mid-run; the holds still alive at stop() decay
    // into hold-drops, which depends only on which sends were held.
    faults.max_hold = 1e9;
    ChaosTransport chaos(std::move(inner), /*self=*/0, faults, seed, clock,
                         &log);
    Tracer tracer(512, counter_clock());
    chaos.set_tracer(&tracer);

    std::map<ProcId, std::uint64_t> next_seq;
    for (std::uint64_t i = 0; i < kSends; ++i) {
      const ProcId to = 1 + static_cast<ProcId>(i % 2);
      if (i == 120) chaos.set_partitioned(2, true);
      if (i == 160) chaos.set_partitioned(2, false);
      DataMsg msg;
      msg.from = 0;
      msg.dgram_seq = ++next_seq[to];
      msg.app_tag = 1;
      msg.send_seq = static_cast<std::uint32_t>(i + 1);
      msg.send_lt = 0.001 * static_cast<double>(i);
      msg.trace_id = mint_trace_id(0, to, msg.dgram_seq);
      chaos.send(to, encode_datagram(msg));
      clock.run_for(0.001);
    }
    chaos.stop();  // Flushes surviving holds as hold-drops.

    result.trace_json = trace_to_chrome_json(tracer.snapshot());
    result.delivered = capture->delivered();
    result.injected = chaos.injected();
    result.journal_total = log.total();
    for (const char* kind : kFaultKinds) result.counts[kind] = log.count(kind);
  }
  std::fclose(mem);
  std::string journal(buf, len);
  std::free(buf);
  for (std::size_t pos = 0; pos < journal.size();) {
    const std::size_t nl = journal.find('\n', pos);
    result.journal.push_back(journal.substr(pos, nl - pos));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return result;
}

TEST(TraceReplay, SameSeedSameStreams) {
  const RunResult a = run_scenario(0xc10c5);
  const RunResult b = run_scenario(0xc10c5);

  // The kDrop trace stream is byte-identical: same events, same order,
  // same counter-clock timestamps, same rendering.
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_NE(a.trace_json, "{\"traceEvents\":[]}");

  // The fault journal is identical, "t" stamps included.
  EXPECT_EQ(a.journal, b.journal);

  // The delivery stream (destinations and payload bytes, in order) is
  // identical too — corruption flips the same bits in the same datagrams.
  ASSERT_EQ(a.delivered.size(), b.delivered.size());
  for (std::size_t i = 0; i < a.delivered.size(); ++i) {
    EXPECT_EQ(a.delivered[i].first, b.delivered[i].first) << "delivery " << i;
    EXPECT_EQ(a.delivered[i].second, b.delivered[i].second)
        << "delivery " << i;
  }
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.counts, b.counts);
}

/// What one Mesh-level run leaves behind: its fault journal, its Chrome
/// trace and every node's final stats line.
struct MeshRun {
  std::string journal;
  std::string trace_json;
  std::string stats;
};

/// The chaos tool's triangle (source 0, links specced [0, 50 ms]) under
/// drops, corruption, duplicates and reorders on every seat for 1.5
/// virtual seconds, traced on the hub's clock.
MeshRun run_mesh(std::uint64_t seed) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  EXPECT_NE(mem, nullptr);
  MeshRun run;
  {
    Mesh mesh(workloads::make_ring(
                  3, {.rho = 5e-4,
                      .latency = sim::LatencyModel::uniform(0.0, 0.05)})
                  .spec,
              seed, {.out = nullptr}, mem);
    // The mesh stops before the tracer goes away; nothing records after.
    Tracer tracer(1 << 14, [&mesh] { return mesh.hub().now(); });
    mesh.hub().set_tracer(&tracer);
    ChaosFaults faults;
    faults.drop = 0.1;
    faults.corrupt = 0.05;
    faults.duplicate = 0.1;
    faults.reorder = 0.1;
    const double offsets[3] = {0.0, 41.5, -13.25};
    const double rates[3] = {1.0, 1.0 + 3e-4, 1.0 - 2e-4};
    for (ProcId p = 0; p < 3; ++p) {
      NodeConfig cfg = testing::node_config(p, mesh.spec(), 0.04, 0.25, 0.08);
      cfg.tracer = &tracer;
      mesh.add(std::move(cfg), testing::loss_tolerant(), offsets[p], rates[p],
               faults, seed + p);
    }
    mesh.start();
    mesh.observe_for(1.5);
    mesh.stop();
    run.trace_json = trace_to_chrome_json(tracer.snapshot());
    for (ProcId p = 0; p < 3; ++p) run.stats += mesh.node(p).stats_json();
  }
  std::fclose(mem);
  run.journal.assign(buf, len);
  std::free(buf);
  return run;
}

TEST(TraceReplay, MeshRunReplaysByteForByte) {
  const MeshRun a = run_mesh(7);
  const MeshRun b = run_mesh(7);
  EXPECT_NE(a.journal.find("\"chaos\":\"hold"), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"name\":\"deliver\""), std::string::npos);
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_NE(run_mesh(8).journal, a.journal);
}

TEST(TraceReplay, DifferentSeedsDiverge) {
  const RunResult a = run_scenario(1);
  const RunResult b = run_scenario(2);
  // Two seeds agreeing on every fault draw over 300 sends would mean the
  // schedule is not actually seed-driven.
  EXPECT_NE(a.trace_json, b.trace_json);
}

TEST(TraceReplay, JournalPredictsDeliveriesAndMatchesCounters) {
  // Search nearby seeds for a run where every fault kind fires at least
  // once (hold-drop needs a hold still pending at stop(), which not every
  // seed produces).  The search is deterministic, and decoupling it from
  // one magic seed keeps the test valid if the Rng stream ever changes.
  RunResult run;
  bool complete = false;
  for (std::uint64_t seed = 0xfa117; !complete && seed < 0xfa117 + 64;
       ++seed) {
    run = run_scenario(seed);
    complete = true;
    for (const char* kind : kFaultKinds) {
      complete = complete && run.counts.at(kind) > 0;
    }
  }
  ASSERT_TRUE(complete) << "no seed in range exercised every fault kind";

  // Conservation: every send is delivered exactly once unless a drop-kind
  // fault consumed it, and duplicates add one extra delivery each.
  const std::uint64_t lost =
      run.counts.at("partition-drop") + run.counts.at("burst-drop") +
      run.counts.at("drop") + run.counts.at("hold-drop");
  EXPECT_EQ(run.delivered.size(),
            kSends + run.counts.at("duplicate") - lost);

  // Replay the journal: parse every line back and recount.  The journal
  // alone must reproduce the ChaosEventLog counters — that is what makes a
  // failing chaos run diagnosable offline.
  std::map<std::string, std::uint64_t> replayed;
  std::set<std::string> drop_traces;
  std::uint64_t lines = 0;
  for (const std::string& line : run.journal) {
    ++lines;
    const json::Value v = json::parse(line);
    const std::string& kind = v.at("chaos").as_string();
    ++replayed[kind];
    EXPECT_EQ(v.at("node").as_number(), 0.0);
    const std::string& trace = v.at("trace").as_string();
    EXPECT_EQ(trace.rfind("0x", 0), 0u) << line;
    if (kind == "partition-drop" || kind == "burst-drop" || kind == "drop" ||
        kind == "hold-drop") {
      // Every datagram-losing fault carried a real causal id: the scenario
      // traces every send, and corruption happens after the drop draws.
      EXPECT_NE(trace, "0x0") << line;
      drop_traces.insert(trace);
    }
  }
  for (const char* kind : kFaultKinds) {
    EXPECT_EQ(replayed[kind], run.counts.at(kind)) << kind;
  }
  // partition/heal markers account for the remaining journal lines.
  EXPECT_EQ(replayed["partition"], 1u);
  EXPECT_EQ(replayed["heal"], 1u);
  EXPECT_EQ(lines, run.journal_total);
  // injected() counts faults, not the partition/heal schedule markers.
  EXPECT_EQ(run.injected, run.journal_total - 2);

  // Cross-reference the Tracer: its kDrop stream names exactly the ids the
  // journal's drop-kind lines name.
  const json::Value doc = json::parse(run.trace_json);
  std::set<std::string> traced;
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    EXPECT_EQ(ev.at("name").as_string(), "drop");
    traced.insert(ev.at("args").at("trace").as_string());
  }
  EXPECT_EQ(traced, drop_traces);
}

}  // namespace
}  // namespace driftsync::runtime
