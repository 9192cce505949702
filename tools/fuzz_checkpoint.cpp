// Structure-aware mutation fuzzer for checkpoint save/load
// (OptimalCsa::checkpoint/restore, covering HistoryProtocol and SyncEngine
// images).
//
// Contract under test, per scenario:
//   1. The pristine image restores into an instance that is
//      replay-equivalent: identical estimates, identical live points, and
//      re-checkpointing reproduces the image byte for byte.
//   2. A mutated image must either be rejected with the typed recoverable
//      CheckpointError — leaving the target instance exactly in its
//      pre-call (freshly init()-ed) state — or restore a self-consistent
//      state: queryable, and whose own re-checkpoint loads back to the
//      identical image (save/load closure).  It must never crash, leak a
//      DS_CHECK std::logic_error, or allocate beyond what the image holds.
//   3. Every accepted image (pristine or mutant) then ingests a few seeded
//      own events — sends to random neighbors, which run history GC, and
//      internal events — re-checkpointing after each, so the encoded
//      history the instance keeps stays warm across GC removals.  A twin
//      restored cold from the same image ingests the same events and
//      checkpoints once at the end: the two images must be identical.
//   4. Receive stage: the scenario is run again with every processor an
//      OptimalCsa{loss_tolerant} that, before each message delivered to
//      it, is handed seeded lies derived from that message through
//      on_receive_validated: records moved back or forward in time (clock
//      backwards, negative cycles), the send re-minted under an id the
//      receiver already holds (a sender that lost its disk), and a receive
//      matched to an older event.  Each lie is in range and survives a
//      wire round trip.  No exception may escape, and a refused lie must
//      leave checkpoint() byte-identical to the image before it; a lie
//      that is consistent after all is undone by restoring that image,
//      and the honest message must then apply.
//   5. Log stage (DESIGN.md decision 12), --log-scenarios seeded runs of a
//      3-node runtime mesh whose node 1 persists to a snapshot and a log
//      segment.  Restarting node 1 from the snapshot and the segment cut
//      after each record gives the reference images.  Each mutant segment
//      (truncated, torn, bit-flipped, a record duplicated, two records
//      swapped, the header naming another snapshot, or generic mutations)
//      must restart into a reference image no later than the last record
//      before the first altered byte — a prefix, never a record after a
//      bad checksum — or be rejected with CheckpointError.  A forged
//      record (a body altered, or given one call more, and the CRC chain
//      recomputed) must be rejected with CheckpointError or restore a
//      state whose own snapshot restarts to itself; a DS_CHECK reached
//      from the log is a violation.  The segment beside an older snapshot
//      must not be replayed.
//
//   $ ./fuzz_checkpoint [--iterations=N] [--seconds=S] [--seed0=K]
//                       [--log-scenarios=M]
//
// Any violation aborts with the reproducer seed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/errors.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/optimal_csa.h"
#include "core/wire.h"
#include "checkpoint_files.h"
#include "fuzz_mutate.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "sim/simulator.h"
#include "workloads/apps.h"
#include "workloads/topology.h"

using namespace driftsync;

namespace {

constexpr std::size_t kMutationsPerScenario = 64;
constexpr std::size_t kWarmSteps = 6;
constexpr std::size_t kLiesPerMessage = 2;

/// Own events ingested by contract 3, over all states (for the summary).
std::uint64_t warm_events = 0;
/// Contract 4's lies, refused and consistent after all (for the summary).
std::uint64_t lies_refused = 0;
std::uint64_t lies_undone = 0;
/// Contract 5's mutant segments, those rejected, and the records their
/// restarts replayed (for the summary).
std::uint64_t log_mutants = 0;
std::uint64_t log_rejected = 0;
std::uint64_t log_replayed = 0;
/// Contract 5's forged records, and those the restart rejected.
std::uint64_t log_forged = 0;
std::uint64_t log_forged_rejected = 0;

[[noreturn]] void die(std::uint64_t seed, const char* what) {
  std::fprintf(stderr, "fuzz_checkpoint FAILURE at seed=%llu: %s\n",
               static_cast<unsigned long long>(seed), what);
  std::abort();
}

/// Contract 4's receiver: lies first, then the honest message.  `seed`
/// is the scenario's (the reproducer); `index` tells receivers apart.
class LiedTo final : public OptimalCsa {
 public:
  LiedTo(std::uint64_t seed, std::uint64_t index)
      : OptimalCsa(Options{.loss_tolerant = true}),
        seed_(seed),
        rng_(seed * 31 + index) {}

  void init(const SystemSpec& spec, ProcId self) override {
    OptimalCsa::init(spec, self);
    spec_ = &spec;
    self_ = self;
  }

  void on_receive(const RecvContext& ctx,
                  const CsaPayload& payload) override {
    for (std::size_t k = 0; k < kLiesPerMessage; ++k) {
      RecvContext lie_ctx = ctx;
      CsaPayload lie = payload;
      if (!tell_lie(lie_ctx, lie)) continue;
      const std::vector<std::uint8_t> before = checkpoint();
      bool applied = false;
      try {
        applied = on_receive_validated(lie_ctx, lie);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "escaped: %s\n", e.what());
        die(seed_, "an exception escaped on_receive_validated");
      }
      if (!applied) {
        if (checkpoint() != before) die(seed_, "a refusal left a trace");
        ++lies_refused;
        continue;
      }
      ++lies_undone;
      init(*spec_, self_);
      restore(before);
    }
    if (!on_receive_validated(ctx, payload)) {
      die(seed_, "the honest message was refused");
    }
  }

 private:
  /// Rewrites the message into one of the lies; false when this message
  /// offers nothing to rewrite or the lie would not decode.
  bool tell_lie(RecvContext& ctx, CsaPayload& payload) {
    EventBatch& reports = payload.reports;
    if (reports.empty()) return false;
    EventRecord& any = reports[rng_.uniform_index(reports.size())];
    switch (rng_.uniform_index(4)) {
      case 0:
        any.lt -= rng_.uniform(1e-3, 10.0);
        break;
      case 1:
        any.lt += rng_.uniform(0.05, 10.0);
        break;
      case 2: {
        const EventId send = ctx.recv_event.match;
        if (send.seq == 0) return false;
        const auto old =
            static_cast<std::uint32_t>(rng_.uniform_index(send.seq));
        for (EventRecord& r : reports) {
          if (r.id == send) r.id.seq = old;
        }
        ctx.recv_event.match.seq = old;
        ctx.send_event.id.seq = old;
        break;
      }
      default:
        if (any.kind != EventKind::kReceive || any.match.seq == 0) {
          return false;
        }
        any.match.seq =
            static_cast<std::uint32_t>(rng_.uniform_index(any.match.seq));
    }
    try {
      reports = wire::decode_batch(wire::encode_batch(reports));
    } catch (const WireError&) {
      return false;
    }
    return true;
  }

  std::uint64_t seed_;
  Rng rng_;
  const SystemSpec* spec_ = nullptr;
  ProcId self_ = kInvalidProc;
};

/// Runs a short random scenario in which every processor runs make() and
/// returns one processor's checkpoint image (with the spec kept alive by
/// the caller-owned Network).
std::vector<std::uint8_t> random_state(
    std::uint64_t seed, workloads::Network& net, ProcId& self,
    const std::function<std::unique_ptr<OptimalCsa>()>& make,
    LocalTime& query_time) {
  Rng rng(seed);
  workloads::TopoParams params;
  params.rho = rng.uniform(0.0, 0.01);
  const double lo = rng.uniform(0.0, 0.02);
  params.latency =
      sim::LatencyModel::uniform(lo, lo + rng.uniform(0.001, 0.1));
  const std::size_t n = 3 + rng.uniform_index(4);
  switch (rng.uniform_index(3)) {
    case 0: net = workloads::make_path(n, params); break;
    case 1: net = workloads::make_star(n, params); break;
    default: net = workloads::make_random(n, n / 2, seed ^ 0x5eed, params);
  }
  sim::SimConfig cfg;
  cfg.seed = seed * 977 + 3;
  sim::Simulator simulator(net.spec, net.links, cfg);
  for (ProcId p = 0; p < net.spec.num_procs(); ++p) {
    std::vector<std::unique_ptr<Csa>> csas;
    csas.push_back(make());
    const double rho = net.spec.clock(p).rho;
    sim::ClockModel clock = sim::ClockModel::constant(0.0, 1.0);
    if (p != net.spec.source()) {
      clock = sim::ClockModel::constant(rng.uniform(-500.0, 500.0),
                                        1.0 + rng.uniform(-rho, rho));
    }
    std::unique_ptr<sim::App> app;
    if (rng.flip(0.5)) {
      app = std::make_unique<workloads::GossipApp>(workloads::GossipApp::Config{
          rng.uniform(0.05, 0.5), rng.uniform(0.0, 1.0)});
    } else {
      workloads::ProbeApp::Config pc;
      pc.upstreams = net.upstreams[p];
      pc.peers = net.peers[p];
      pc.period = rng.uniform(0.1, 1.0);
      app = std::make_unique<workloads::ProbeApp>(pc);
    }
    simulator.attach_node(p, std::move(clock), std::move(app),
                          std::move(csas));
  }
  simulator.run_until(rng.uniform(0.5, 2.0));
  self = static_cast<ProcId>(rng.uniform_index(net.spec.num_procs()));
  auto& csa = dynamic_cast<OptimalCsa&>(simulator.csa(self, 0));
  // Well past any local time the short run can reach (offsets are within
  // +/-500 and the run lasts at most 2s of real time).
  query_time = 1e6 + rng.uniform(0.0, 1.0);
  return csa.checkpoint();
}

/// Applies one own event to `csa`; false when a DS_CHECK rejected it (a
/// mutant may hold a history and an engine that disagree on this
/// processor's frontier — restore() checks each part, not the pair).
bool apply_own_event(OptimalCsa& csa, const EventRecord& event) {
  try {
    if (event.kind == EventKind::kSend) {
      (void)csa.on_send(SendContext{event.id.proc, event.peer, event, 0});
    } else {
      csa.on_internal(event);
    }
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

/// Contract 3: `warm` (whose current image is `image`) and a cold twin
/// restored from `image` ingest the same seeded own events; the warm
/// instance re-checkpoints after each, the twin only at the end.
void check_warm_equals_cold(std::uint64_t seed, const SystemSpec& spec,
                            ProcId self, const OptimalCsa::Options& opts,
                            OptimalCsa& warm,
                            const std::vector<std::uint8_t>& image, Rng& rng) {
  OptimalCsa cold(opts);
  cold.init(spec, self);
  cold.restore(image);
  const std::vector<ProcId>& neighbors = spec.neighbors(self);
  for (std::size_t step = 0; step < kWarmSteps; ++step) {
    // The next own event must extend both the history's and the engine's
    // frontier; a mutant where they disagree ingests nothing further.
    const std::int64_t known = warm.history().known_seq(self);
    const EventId last = warm.engine().last_event_of(self);
    const std::int64_t engine_known =
        last.valid() ? static_cast<std::int64_t>(last.seq) : -1;
    if (known != engine_known ||
        known >= std::numeric_limits<std::uint32_t>::max()) {
      break;
    }
    const EventRecord* last_rec = warm.engine().live_record(last);
    EventRecord event;
    event.id = EventId{self, static_cast<std::uint32_t>(known + 1)};
    event.lt = (last_rec != nullptr ? last_rec->lt : 0.0) +
               rng.uniform(0.001, 0.1);
    if (!neighbors.empty() && rng.flip(0.75)) {
      event.kind = EventKind::kSend;
      event.peer = neighbors[rng.uniform_index(neighbors.size())];
    }
    const bool warm_ok = apply_own_event(warm, event);
    if (apply_own_event(cold, event) != warm_ok) {
      die(seed, "warm and cold instances diverged on the same event");
    }
    if (!warm_ok) break;
    ++warm_events;
    (void)warm.checkpoint();
  }
  if (warm.checkpoint() != cold.checkpoint()) {
    die(seed, "warm re-checkpoint differs from the cold instance's");
  }
}

std::size_t fuzz_once(std::uint64_t seed) {
  workloads::Network net;
  ProcId self = 0;
  OptimalCsa::Options opts;
  LocalTime query_time = 0.0;
  const std::vector<std::uint8_t> bytes = random_state(
      seed, net, self, [&] { return std::make_unique<OptimalCsa>(opts); },
      query_time);

  // 1. Pristine image: replay-equivalent restore.
  OptimalCsa reference(opts);
  reference.init(net.spec, self);
  reference.restore(bytes);
  if (reference.checkpoint() != bytes) {
    die(seed, "pristine restore does not re-checkpoint identically");
  }
  (void)reference.estimate(query_time);
  Rng warm_rng(seed ^ 0x3a7dULL);
  check_warm_equals_cold(seed, net.spec, self, opts, reference, bytes,
                         warm_rng);

  // 2. Mutated images: typed rejection (instance untouched) or a
  //    self-consistent accepted state.
  Rng rng(seed ^ 0xf0ccedULL);
  std::size_t iterations = 0;
  for (std::size_t m = 0; m < kMutationsPerScenario; ++m, ++iterations) {
    const std::vector<std::uint8_t> mut = fuzzing::mutate(bytes, rng);
    OptimalCsa target(opts);
    target.init(net.spec, self);
    try {
      target.restore(mut);
      // Accepted: the state must be queryable and closed under save/load.
      (void)target.estimate(std::numeric_limits<double>::max());
      const std::vector<std::uint8_t> resaved = target.checkpoint();
      OptimalCsa again(opts);
      again.init(net.spec, self);
      again.restore(resaved);
      if (again.checkpoint() != resaved) {
        die(seed, "accepted mutant state is not closed under save/load");
      }
      check_warm_equals_cold(seed, net.spec, self, opts, target, resaved,
                             warm_rng);
    } catch (const CheckpointError&) {
      // Typed rejection: the failed restore must have left the instance in
      // its pre-call state — fresh, and still able to load the pristine
      // image.
      if (target.engine().live_count() != 0 ||
          target.history().history_size() != 0) {
        die(seed, "failed restore left residual state behind");
      }
      target.restore(bytes);
      if (target.checkpoint() != bytes) {
        die(seed, "instance unusable after a rejected restore");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrong exception type: %s\n", e.what());
      die(seed, "restore threw something other than CheckpointError");
    }
  }

  // 4. The same scenario, every receiver lied to first.
  workloads::Network lied_net;
  ProcId lied_self = 0;
  std::uint64_t receiver = 0;
  (void)random_state(
      seed, lied_net, lied_self,
      [&] { return std::make_unique<LiedTo>(seed, receiver++); },
      query_time);
  return iterations;
}

// ---------------------------------------------------------------------------
// Contract 5: the durable Node's log segment.

/// A transport for a restarted node that never runs: nothing arrives.
class Unplugged final : public runtime::Transport {
 public:
  void start(runtime::DatagramHandler) override {}
  void stop() override {}
  void send(ProcId, std::vector<std::uint8_t>) override {}
};

/// A clock far ahead of every event a short mesh run mints.
class FarAhead final : public runtime::TimeSource {
 public:
  [[nodiscard]] LocalTime now() const override { return 1e9; }
};

/// Node 1 of `spec` restarted from `snapshot` beside `segment`, both
/// written at `path`: its snapshot image, and the records it replayed.
/// Throws CheckpointError when the node refuses them.
std::vector<std::uint8_t> restart_node(const SystemSpec& spec,
                                       const std::string& path,
                                       std::span<const std::uint8_t> snapshot,
                                       std::span<const std::uint8_t> segment,
                                       std::uint64_t& replayed) {
  testing::write_bytes(path, snapshot);
  testing::write_bytes(path + ".log", segment);
  runtime::NodeConfig cfg;
  cfg.self = 1;
  cfg.spec = spec;
  cfg.checkpoint_path = path;
  runtime::Node node(std::move(cfg),
                     std::make_unique<OptimalCsa>(
                         OptimalCsa::Options{.loss_tolerant = true}),
                     std::make_unique<FarAhead>(),
                     std::make_unique<Unplugged>());
  node.start();
  replayed = node.stats().log_replayed;
  return node.snapshot_image();
}

/// One mutant of `seg`, whose records end at `ends`.
std::vector<std::uint8_t> mutate_segment(
    const std::vector<std::uint8_t>& seg, const std::vector<std::size_t>& ends,
    Rng& rng) {
  std::vector<std::uint8_t> out = seg;
  const auto record = [&](std::size_t i) {
    const std::size_t begin = i == 0 ? testing::kSegmentHeaderBytes
                                     : ends[i - 1];
    return std::vector<std::uint8_t>(
        seg.begin() + static_cast<std::ptrdiff_t>(begin),
        seg.begin() + static_cast<std::ptrdiff_t>(ends[i]));
  };
  const auto at = [&](std::size_t i) {
    return out.begin() + static_cast<std::ptrdiff_t>(i);
  };
  switch (rng.uniform_index(7)) {
    case 0:  // Truncated: a crash before the tail reached the disk.
      out.resize(rng.uniform_index(seg.size() + 1));
      break;
    case 1: {  // Torn: the tail replaced by whatever the sectors held.
      out.resize(rng.uniform_index(seg.size() + 1));
      const std::size_t n = 1 + rng.uniform_index(64);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
      }
      break;
    }
    case 2: {  // Bit-flipped.
      if (out.empty()) break;
      const std::size_t flips = 1 + rng.uniform_index(8);
      for (std::size_t i = 0; i < flips; ++i) {
        out[rng.uniform_index(out.size())] ^=
            static_cast<std::uint8_t>(1U << rng.uniform_index(8));
      }
      break;
    }
    case 3: {  // A record written twice.
      if (ends.empty()) break;
      const std::size_t i = rng.uniform_index(ends.size());
      const std::vector<std::uint8_t> rec = record(i);
      out.insert(at(ends[i]), rec.begin(), rec.end());
      break;
    }
    case 4: {  // Two neighbouring records swapped.
      if (ends.size() < 2) break;
      const std::size_t i = rng.uniform_index(ends.size() - 1);
      std::vector<std::uint8_t> both = record(i + 1);
      const std::vector<std::uint8_t> first = record(i);
      both.insert(both.end(), first.begin(), first.end());
      std::copy(both.begin(), both.end(),
                at(i == 0 ? testing::kSegmentHeaderBytes : ends[i - 1]));
      break;
    }
    case 5:  // The header names another snapshot.
      if (out.size() >= testing::kSegmentHeaderBytes) {
        out[4 + rng.uniform_index(testing::kSegmentHeaderBytes - 4)] ^=
            static_cast<std::uint8_t>(1 + rng.uniform_index(255));
      }
      break;
    default:
      out = fuzzing::mutate(seg, rng);
  }
  return out;
}

/// Contract 5 for one seeded mesh run.
void fuzz_log_once(std::uint64_t seed) {
  Rng rng(seed ^ 0x10ca11ULL);
  const SystemSpec spec =
      workloads::make_ring(
          3, {.rho = 5e-4, .latency = sim::LatencyModel::uniform(0.0, 0.05)})
          .spec;
  runtime::InvariantOracle::Options quiet;
  quiet.out = nullptr;
  runtime::Mesh mesh(spec, seed, quiet);
  for (ProcId p = 0; p < 3; ++p) {
    runtime::NodeConfig cfg;
    cfg.self = p;
    cfg.poll_period = 0.04;
    cfg.fate_timeout = 0.25;
    cfg.skip_retry = 0.08;
    if (p == 1) cfg.checkpoint_path = mesh.checkpoint_path(1);
    mesh.add(std::move(cfg), OptimalCsa::Options{.loss_tolerant = true},
             p == 0 ? 0.0 : rng.uniform(-5.0, 5.0),
             p == 0 ? 1.0 : 1.0 + rng.uniform(-4e-4, 4e-4));
  }
  mesh.start();
  const std::string& path = mesh.checkpoint_path(1);
  mesh.hub().run_for(rng.uniform(0.3, 1.0));
  const std::vector<std::uint8_t> older = testing::read_bytes(path);
  mesh.hub().run_for(rng.uniform(0.3, 1.0));
  mesh.kill(1);
  const std::vector<std::uint8_t> snapshot = testing::read_bytes(path);
  const std::vector<std::uint8_t> segment = testing::read_bytes(path + ".log");
  if (snapshot.empty()) die(seed, "the durable node wrote no snapshot");

  // Restarts go through a file the mesh owns and removes: seat 0's.
  const std::string& scratch = mesh.checkpoint_path(0);
  const std::vector<std::size_t> ends = testing::record_ends(segment);
  std::vector<std::vector<std::uint8_t>> refs;
  std::uint64_t replayed = 0;
  for (std::size_t k = 0; k <= ends.size(); ++k) {
    const std::size_t cut =
        k == 0 ? std::min(testing::kSegmentHeaderBytes, segment.size())
               : ends[k - 1];
    refs.push_back(restart_node(spec, scratch, snapshot,
                                std::span(segment).first(cut), replayed));
    if (replayed != k) die(seed, "a clean segment prefix replayed wrongly");
  }

  for (std::size_t m = 0; m < 16; ++m) {
    const std::vector<std::uint8_t> mut = mutate_segment(segment, ends, rng);
    std::size_t first_diff = 0;
    while (first_diff < mut.size() && first_diff < segment.size() &&
           mut[first_diff] == segment[first_diff]) {
      ++first_diff;
    }
    if (mut.size() == segment.size() && first_diff == segment.size()) continue;
    std::size_t intact = 0;  // Records wholly before the first change.
    while (intact < ends.size() && ends[intact] <= first_diff) ++intact;
    ++log_mutants;
    try {
      const std::vector<std::uint8_t> image =
          restart_node(spec, scratch, snapshot, mut, replayed);
      std::size_t j = 0;
      while (j < refs.size() && refs[j] != image) ++j;
      if (j == refs.size()) die(seed, "a restart restored no prefix of the log");
      if (j > intact) die(seed, "a record after a bad checksum was applied");
      if (replayed != j) die(seed, "the replay count disagrees with the image");
      log_replayed += replayed;
    } catch (const CheckpointError&) {
      ++log_rejected;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrong exception type: %s\n", e.what());
      die(seed, "a restart threw something other than CheckpointError");
    }
  }

  // Forged records: a body altered and the CRC chain recomputed after it,
  // which takes someone who writes the directory, not a crash.  Every
  // checksum holds, so only the replay's own checks stand between the
  // record and the CSA: the restart must reject it with CheckpointError,
  // or restore a state whose snapshot restarts to itself.
  for (std::size_t m = 0; m < 16 && !ends.empty(); ++m) {
    const std::size_t i = rng.uniform_index(ends.size());
    const std::size_t begin =
        (i == 0 ? testing::kSegmentHeaderBytes : ends[i - 1]) +
        testing::kRecordFrameBytes;
    std::vector<std::uint8_t> body(
        segment.begin() + static_cast<std::ptrdiff_t>(begin),
        segment.begin() + static_cast<std::ptrdiff_t>(ends[i]));
    if (rng.uniform_index(2) == 0) {
      body = fuzzing::mutate(body, rng);
    } else {
      // One call more: a tag and a small peer id, a whole call when the
      // tag is a delivery, a join or a leave.
      body.push_back(static_cast<std::uint8_t>(1 + rng.uniform_index(6)));
      body.push_back(static_cast<std::uint8_t>(rng.uniform_index(3)));
    }
    ++log_forged;
    try {
      const std::vector<std::uint8_t> image = restart_node(
          spec, scratch, snapshot,
          testing::with_record_body(segment, ends, i, body), replayed);
      if (restart_node(spec, scratch, image, {}, replayed) != image) {
        die(seed, "a forged record restored a state its restart changes");
      }
    } catch (const CheckpointError&) {
      ++log_forged_rejected;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrong exception type: %s\n", e.what());
      die(seed, "a forged record threw something other than CheckpointError");
    }
  }

  // The segment extends the last snapshot only: beside an older one it is
  // never replayed.
  if (!older.empty() && older != snapshot) {
    const std::vector<std::uint8_t> alone =
        restart_node(spec, scratch, older, {}, replayed);
    if (restart_node(spec, scratch, older, segment, replayed) != alone ||
        replayed != 0) {
      die(seed, "a segment was replayed beside a snapshot it does not name");
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const auto iterations =
      static_cast<std::uint64_t>(flags.get_int("iterations", 5000));
  const double seconds = flags.get_double("seconds", 0.0);
  const std::uint64_t seed0 = flags.get_seed("seed0", 1);
  const auto log_scenarios =
      static_cast<std::uint64_t>(flags.get_int("log-scenarios", 10));
  flags.reject_unknown(
      "usage: fuzz_checkpoint [--iterations=N] [--seconds=S] [--seed0=N]\n"
      "                       [--log-scenarios=M]");

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  std::uint64_t scenario = 0;
  while (true) {
    if (seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= seconds) break;
    } else if (done >= iterations) {
      break;
    }
    done += fuzz_once(seed0 + scenario++);
  }
  for (std::uint64_t i = 0; i < log_scenarios; ++i) fuzz_log_once(seed0 + i);
  std::printf(
      "fuzz_checkpoint: %llu mutations over %llu states, %llu warm-cache "
      "events, %llu lies refused, %llu consistent and undone; %llu log "
      "mutants over %llu runs, %llu rejected, %llu records replayed; %llu "
      "forged records, %llu rejected; 0 contract violations\n",
      static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(scenario),
      static_cast<unsigned long long>(warm_events),
      static_cast<unsigned long long>(lies_refused),
      static_cast<unsigned long long>(lies_undone),
      static_cast<unsigned long long>(log_mutants),
      static_cast<unsigned long long>(log_scenarios),
      static_cast<unsigned long long>(log_rejected),
      static_cast<unsigned long long>(log_replayed),
      static_cast<unsigned long long>(log_forged),
      static_cast<unsigned long long>(log_forged_rejected));
  return 0;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
