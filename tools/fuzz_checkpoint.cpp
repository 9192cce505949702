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
//
//   $ ./fuzz_checkpoint [--iterations=N] [--seconds=S] [--seed0=K]
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
#include "fuzz_mutate.h"
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

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const auto iterations =
      static_cast<std::uint64_t>(flags.get_int("iterations", 5000));
  const double seconds = flags.get_double("seconds", 0.0);
  const std::uint64_t seed0 = flags.get_seed("seed0", 1);
  flags.reject_unknown(
      "usage: fuzz_checkpoint [--iterations=N] [--seconds=S] [--seed0=N]");

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
  std::printf(
      "fuzz_checkpoint: %llu mutations over %llu states, %llu warm-cache "
      "events, %llu lies refused, %llu consistent and undone, 0 contract "
      "violations\n",
      static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(scenario),
      static_cast<unsigned long long>(warm_events),
      static_cast<unsigned long long>(lies_refused),
      static_cast<unsigned long long>(lies_undone));
  return 0;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
