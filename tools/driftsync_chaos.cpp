// driftsync_chaos — seeded fault-injection scenarios with a ground-truth
// oracle (DESIGN.md S7).
//
// Runs a 3-node triangle (source 0; all links specced [0, 50ms]) as a
// runtime::Mesh — every endpoint behind a ChaosTransport, every clock
// behind a FaultyTimeSource — drives a named fault schedule against it, and
// checks the paper's invariants with an InvariantOracle the whole time.
// The mesh runs on one thread in the hub's virtual time (--duration is
// virtual seconds) and every stochastic choice flows through --seed, so a
// failing run replays byte-for-byte from its verdict line alone, journal
// timestamps included.  The fault journal streams to stderr as JSON
// (--quiet silences it; oracle violations still print); --trace-out=PATH
// writes the causal trace of every node, the hub and the oracle as Chrome
// trace JSON.
//
// Scenarios:
//   partition-heal   cut the 0-1 link both ways mid-run, heal it, require
//                    containment throughout and re-convergence after.
//   clock-step       step node 2's clock +0.5 s (a spec violation): nodes
//                    0 and 1 must quarantine exactly node 2 and keep
//                    containing true source time; node 2's own output is
//                    forfeit (and skipped by the oracle).
//   crash-restart    kill node 1 mid-run and restart it from its write-
//                    ahead checkpoint: the oracle keeps the pre-crash
//                    baseline, so a restart that forgot anything fails the
//                    width-dynamics envelope (checkpoint-prefix check).
//   client-storm     node 0 serves a client fleet 1.5x its session cap,
//                    every client on its own lossy/reordering/duplicating
//                    ChaosTransport: the eviction storm at the cap must
//                    not break a single client's bracket of true source
//                    time, and the cap itself must hold.
//   random           probabilistic drop/burst/corrupt/duplicate/reorder on
//                    every endpoint (intensity --faults), plus one random
//                    partition-and-heal; invariants must survive all of it.
//   byzantine-skew   node 2 turns Byzantine after convergence: its outbound
//                    timestamps ramp away from its true clock at 2 s/s
//                    (internally coherent lies, not a broken clock — its
//                    own view stays honest and oracle-checked).  Nodes 0
//                    and 1 must renounce every lie and quarantine exactly
//                    node 2; containment must hold on all three.
//   byzantine-replay node 2 re-sends earlier observations under their
//                    original dgram_seq with mutated timestamps (the
//                    mutating replayer).  Honest duplicates are benign;
//                    these must be counted replay_rejected and drive
//                    suspicion, and must never re-enter the view.
//   byzantine-equivocate  node 2 tells different neighbors different
//                    stories about the same events (a constant +/-0.4 ms
//                    equivocation each edge finds perfectly feasible).
//                    Honest relaying exposes the conflict; the payload
//                    screen must pin it on node 2 (equivocations_detected,
//                    quarantine) and never suspect the honest carrier.
//   churn            dynamic membership (decision 19): node 2 leaves and
//                    rejoins the mesh on a seeded schedule.  Rejoins must
//                    resume the journaled wire frontier (a restarted
//                    sequence would read as replays), the gradient
//                    envelope holds on every pair throughout, and no
//                    honest peer is ever quarantined.
//   join-flap        rapid leave/rejoin flapping that races admissions
//                    against in-flight data, acks and skip commits; the
//                    bar is soundness — no crash, no oracle violation, no
//                    honest quarantine, convergence after the last rejoin.
//
// Exit 0 iff zero oracle violations and every scenario expectation held;
// the last stdout line is a JSON verdict either way.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/flags.h"
#include "common/interval.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/byzantine.h"
#include "runtime/chaos.h"
#include "runtime/datagram.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "runtime/time_source.h"
#include "serve/client_session.h"
#include "workloads/topology.h"

using namespace driftsync;
using namespace driftsync::runtime;

namespace {

constexpr const char* kUsage =
    "usage: driftsync_chaos [--scenario=partition-heal|clock-step|"
    "crash-restart|client-storm|random|\n"
    "           byzantine-skew|byzantine-replay|byzantine-equivocate|"
    "churn|join-flap]\n"
    "         [--seed=1] [--duration=3.0] [--faults=0.2] [--quiet]\n"
    "         [--trace-out=PATH]";

constexpr double kRho = 5e-4;
constexpr std::size_t kProcs = 3;
constexpr double kOffsets[kProcs] = {0.0, 41.5, -13.25};
constexpr double kRates[kProcs] = {1.0, 1.0 + 3e-4, 1.0 - 2e-4};

/// Seats the triangle on `mesh` (not started): every seat injects `faults`
/// from fault stream seed + 1000 * (p + 1), records into the hub's tracer
/// when it has one, and `tweak` (if any) adjusts a seat's config before it
/// is built.  The 1-2 link is slower than the two links to the source.
void seat_triangle(Mesh& mesh, std::uint64_t seed, const ChaosFaults& faults,
                   const std::function<void(NodeConfig&)>& tweak = {}) {
  mesh.hub().set_link(1, 2, 0.001, 0.008);
  for (ProcId p = 0; p < kProcs; ++p) {
    NodeConfig cfg;
    cfg.self = p;
    cfg.tracer = mesh.hub().tracer();
    cfg.poll_period = 0.04;
    cfg.fate_timeout = 0.25;
    cfg.skip_retry = 0.08;
    // A lying peer's messages are accepted one at a time, so the decayed
    // suspicion score must outrun the decay between detections; 0.9 keeps
    // an every-other-message liar divergent under the default threshold.
    cfg.suspicion_decay = 0.9;
    if (tweak) tweak(cfg);
    OptimalCsa::Options opts;
    opts.loss_tolerant = true;
    opts.cross_validation = true;
    mesh.add(cfg, opts, kOffsets[p], kRates[p], faults, seed + 1000 * (p + 1));
  }
}

/// Prints a scenario-expectation failure as a JSON line; returns 1.
std::uint64_t expect_failed(const char* what, const std::string& detail) {
  std::fprintf(stderr,
               "{\"oracle\":\"violation\",\"invariant\":\"scenario\","
               "\"expectation\":\"%s\",\"detail\":\"%s\"}\n",
               what, detail.c_str());
  return 1;
}

/// Expect `node`'s quarantine roster to be exactly {bad}.
std::uint64_t expect_quarantined(const Mesh& m, ProcId node, ProcId bad) {
  const NodeStats s = m.node(node).stats();
  if (s.quarantined.size() == 1 && s.quarantined[0] == bad &&
      s.peer_quarantines >= 1) {
    return 0;
  }
  std::string roster;
  for (const ProcId p : s.quarantined) {
    roster += (roster.empty() ? "" : ",") + std::to_string(p);
  }
  return expect_failed("quarantine-exactly",
                       "node " + std::to_string(node) + " quarantined [" +
                           roster + "], want [" + std::to_string(bad) + "]");
}

std::uint64_t expect_converged(const Mesh& m, ProcId node, double bound) {
  const double width = m.node(node).estimate().width();
  if (width < bound) return 0;
  return expect_failed("converged", "node " + std::to_string(node) +
                                        " width " + std::to_string(width) +
                                        " >= " + std::to_string(bound));
}

std::uint64_t run_partition_heal(Mesh& m, std::uint64_t seed, double duration) {
  seat_triangle(m, seed, {});
  m.start();
  m.observe_for(duration * 0.25);
  // Cut 0-1 both ways.  1 still reaches the source through 2, so its
  // estimate keeps converging; fates across the cut abort into losses.
  m.chaos(0).set_partitioned(1, true);
  m.chaos(1).set_partitioned(0, true);
  m.oracle().mark_lossish("node0");
  m.oracle().mark_lossish("node1");
  m.observe_for(duration * 0.25);
  m.chaos(0).set_partitioned(1, false);
  m.chaos(1).set_partitioned(0, false);
  m.observe_for(duration * 0.5);
  m.oracle().observe();
  m.oracle().check_loss_soundness();  // Node 2's links never faulted.
  std::uint64_t failed = 0;
  failed += expect_converged(m, 1, 0.5);
  failed += expect_converged(m, 2, 0.5);
  return failed;
}

std::uint64_t run_clock_step(Mesh& m, std::uint64_t seed, double duration) {
  seat_triangle(m, seed, {});
  m.start();
  m.observe_for(duration * 0.4);
  // A +0.5 s jump is far outside the rho = 5e-4 drift spec: node 2's
  // subsequent send timestamps are infeasible under every conforming
  // execution, so 0 and 1 must renounce them and quarantine node 2 —
  // and must NOT quarantine each other.
  m.clock(2).inject_step(0.5);
  m.oracle().mark_clock_violated("node2");
  // Renounced datagrams resolve as losses on every edge of the triangle.
  for (ProcId p = 0; p < kProcs; ++p) m.oracle().mark_lossish(Mesh::name(p));
  m.observe_for(duration * 0.6);
  m.oracle().observe();
  std::uint64_t failed = 0;
  failed += expect_quarantined(m, 0, 2);
  failed += expect_quarantined(m, 1, 2);
  failed += expect_converged(m, 1, 0.5);
  return failed;
}

std::uint64_t run_crash_restart(Mesh& m, std::uint64_t seed,
                                double duration) {
  seat_triangle(m, seed, {}, [&m](NodeConfig& cfg) {
    if (cfg.self == 1) cfg.checkpoint_path = m.checkpoint_path(1);
  });
  m.start();
  m.observe_for(duration * 0.4);
  // Kill node 1 (its endpoint unregisters; neighbors' fates fire into the
  // void) and restart it from the write-ahead checkpoint.  The oracle keeps
  // node 1's pre-crash baseline: if the restart forgot any knowledge, the
  // restarted estimate escapes the drift envelope and the run fails.
  m.kill(1);
  m.oracle().mark_lossish("node0");
  m.oracle().mark_lossish("node2");
  m.hub().run_for(0.3);
  m.restart(1);
  m.observe_for(duration * 0.6);
  m.oracle().observe();
  m.oracle().check_loss_soundness();
  std::uint64_t failed = 0;
  failed += expect_converged(m, 1, 0.5);
  failed += expect_converged(m, 2, 0.5);
  return failed;
}

std::uint64_t run_client_storm(Mesh& m, std::uint64_t seed, double duration) {
  // 1.5 clients per session slot, a grace window shorter than the fleet's
  // revisit period, and an idle timeout that never fires mid-storm: every
  // newcomer past the cap either evicts an aged LRU tail or is rejected,
  // so the storm continuously churns the table while clients keep
  // estimating through drops, duplicates and reorders.
  constexpr std::size_t kCap = 16;
  constexpr std::size_t kFleet = 24;
  seat_triangle(m, seed, {}, [](NodeConfig& cfg) {
    if (cfg.self != 0) return;
    cfg.serve_max_clients = kCap;
    cfg.serve_idle_timeout = 0.4;
    cfg.serve_evict_grace = 0.05;
  });
  m.start();
  m.observe_for(duration * 0.3);  // Let the mesh converge first.

  ChaosFaults faults;
  faults.drop = 0.15;
  faults.duplicate = 0.15;
  faults.reorder = 0.20;

  // One storm client = a hub endpoint outside the mesh (ProcIds from 100)
  // behind its own ChaosTransport, with its own in-spec drifting clock.
  struct StormClient {
    ScaledTimeSource clock;
    serve::ClientEstimator est;
    std::unique_ptr<ChaosTransport> transport;
    StormClient(const TimeSource& base, double offset, double rate,
                const serve::ClientEstimator::Options& opts)
        : clock(base, offset, rate), est(opts) {}
  };
  std::vector<std::unique_ptr<StormClient>> fleet;
  Rng rng(seed ^ 0x5708E);
  for (std::size_t c = 0; c < kFleet; ++c) {
    const ProcId proc = static_cast<ProcId>(100 + c);
    serve::ClientEstimator::Options opts;
    opts.client_id = 1000 + c;
    opts.rho = kRho;
    const double offset = rng.uniform(-50.0, 50.0);
    const double rate = 1.0 + rng.uniform(-3e-4, 3e-4);
    auto client = std::make_unique<StormClient>(m.hub(), offset, rate, opts);
    m.hub().set_link(0, proc, 0.0005, 0.004);
    client->transport = std::make_unique<ChaosTransport>(
        m.hub().endpoint(proc), proc, faults, seed + 5000 * (c + 1), m.hub(),
        &m.log());
    StormClient* self = client.get();
    client->transport->start(
        [self](std::span<const std::uint8_t> bytes) {
          runtime::Datagram dgram;
          try {
            dgram = runtime::decode_datagram(bytes);
          } catch (const WireError&) {
            return;  // Corrupted in transit; the estimator never sees it.
          }
          const auto* resp = std::get_if<runtime::ClientResp>(&dgram);
          if (resp == nullptr) return;
          self->est.on_response(*resp, self->clock.now());
        });
    fleet.push_back(std::move(client));
  }

  // Drive the storm: a couple of requests per 10 ms tick walks the whole
  // fleet every ~120 ms, so by the time a client returns, the LRU tail has
  // aged past the grace window — steady evictions, with rejections filling
  // in whenever a burst lands inside it.  Every ~100 ms, check each
  // bounded client estimate against ground truth (the source clock is
  // offset 0, rate 1 over the hub — i.e. hub time).
  std::uint64_t bracket_violations = 0;
  std::size_t next_up = 0;
  std::uint64_t ticks = 0;
  for (double t = 0.0; t < duration * 0.7; t += 0.01, ++ticks) {
    m.hub().run_for(0.01);
    for (int k = 0; k < 2; ++k) {
      StormClient& client = *fleet[next_up];
      next_up = (next_up + 1) % kFleet;
      client.transport->send(
          0, runtime::encode_datagram(runtime::Datagram{
                 client.est.make_request(client.clock.now())}));
    }
    if (ticks % 10 == 0) {
      m.oracle().observe();
      for (const auto& client : fleet) {
        const Interval est = client->est.estimate(client->clock.now());
        if (!est.bounded()) continue;
        const double now = m.hub().now();
        if (now < est.lo - 0.02 || now > est.hi + 0.02) {
          ++bracket_violations;
        }
      }
    }
  }
  // Stop delivery before the fleet (and the handlers' captures) go away.
  for (const auto& client : fleet) client->transport->stop();
  m.oracle().observe();

  std::uint64_t failed = 0;
  const NodeStats s = m.node(0).stats();
  if (s.serve_requests == 0) {
    failed += expect_failed("serve-requests",
                            "server answered zero client requests");
  }
  if (s.serve_active > kCap) {
    failed += expect_failed("serve-cap",
                            "active sessions " +
                                std::to_string(s.serve_active) +
                                " exceed cap " + std::to_string(kCap));
  }
  if (s.serve_evicted + s.serve_rejected == 0) {
    failed += expect_failed("eviction-storm",
                            "fleet of " + std::to_string(kFleet) +
                                " over cap " + std::to_string(kCap) +
                                " caused no eviction or rejection");
  }
  std::size_t bounded = 0;
  for (const auto& client : fleet) {
    if (client->est.estimate(client->clock.now()).bounded()) ++bounded;
  }
  if (bounded < kFleet / 2) {
    failed += expect_failed("clients-bounded",
                            "only " + std::to_string(bounded) + "/" +
                                std::to_string(kFleet) +
                                " clients reached a bounded estimate");
  }
  if (bracket_violations > 0) {
    failed += expect_failed("client-bracket",
                            std::to_string(bracket_violations) +
                                " client estimates missed ground truth");
  }
  failed += expect_converged(m, 1, 0.5);
  return failed;
}

std::uint64_t run_random(Mesh& m, std::uint64_t seed, double duration,
                         double intensity) {
  ChaosFaults faults;
  faults.drop = 0.30 * intensity;
  faults.burst = 0.04 * intensity;
  faults.burst_len = 5;
  faults.corrupt = 0.20 * intensity;
  faults.duplicate = 0.30 * intensity;
  faults.reorder = 0.25 * intensity;
  seat_triangle(m, seed, faults);
  m.start();
  for (ProcId p = 0; p < kProcs; ++p) m.oracle().mark_lossish(Mesh::name(p));
  // One scripted partition of a random edge, on top of the probabilistic
  // mix.  Rng(seed) keeps the choice replayable.
  Rng rng(seed);
  const ProcId ends[3][2] = {{0, 1}, {0, 2}, {1, 2}};
  const auto& edge = ends[rng.uniform_index(3)];
  m.observe_for(duration * 0.4);
  m.chaos(edge[0]).set_partitioned(edge[1], true);
  m.chaos(edge[1]).set_partitioned(edge[0], true);
  m.observe_for(duration * 0.15);
  m.chaos(edge[0]).set_partitioned(edge[1], false);
  m.chaos(edge[1]).set_partitioned(edge[0], false);
  m.observe_for(duration * 0.45);
  m.oracle().observe();
  return 0;
}

/// Expect a NodeStats counter to be nonzero.
std::uint64_t expect_counter(ProcId node, const char* what,
                             std::uint64_t value) {
  if (value > 0) return 0;
  return expect_failed(what,
                       "node " + std::to_string(node) + " " + what + " == 0");
}

std::uint64_t run_byzantine_skew(Mesh& m, std::uint64_t seed, double duration) {
  // Node 2 stays an honest estimator with a conforming clock, but once
  // struck its outbound timestamps ramp at 2 s/s.  The strike lands after
  // convergence, so the opening lie (the ramp accrues from construction)
  // is already seconds past any feasible envelope: nodes 0 and 1 renounce
  // every datagram, never ingest a single lie, and quarantine exactly
  // node 2.  Node 2's own view ingests only honest data, so containment
  // is checked on all three nodes — unlike clock-step, the attacker's
  // estimate is NOT forfeit.
  ByzantineStrategy attack;
  attack.skew_rate = 2.0;
  attack.skew_max = 100.0;
  m.set_byzantine(2, attack, seed ^ 0xB52B52ULL);
  seat_triangle(m, seed, {});
  // Dormant until convergence; the ramp's t = 0 is still construction time.
  m.byzantine(2).set_active(false);
  m.start();
  m.observe_for(duration * 0.4);
  m.byzantine(2).set_active(true);
  // Every renounced datagram resolves as a loss at the liar; the honest
  // nodes' own sends keep landing, so their loss counters must stay 0.
  m.oracle().mark_lossish("node2");
  m.observe_for(duration * 0.6);
  m.oracle().observe();
  m.oracle().check_loss_soundness();
  std::uint64_t failed = 0;
  failed += expect_quarantined(m, 0, 2);
  failed += expect_quarantined(m, 1, 2);
  failed += expect_counter(0, "infeasible_rejected",
                           m.node(0).stats().infeasible_rejected);
  failed += expect_converged(m, 1, 0.5);
  failed += expect_converged(m, 2, 0.5);
  return failed;
}

std::uint64_t run_byzantine_replay(Mesh& m, std::uint64_t seed,
                                   double duration) {
  // Node 2 re-sends half its observations under their original dgram_seq
  // with mutated timestamps.  The digest check must separate these from
  // honest duplicates (replay_rejected, suspicion) and the mutated copy
  // must never re-enter the view — containment holds throughout.
  ByzantineStrategy attack;
  attack.replay = 0.5;
  m.set_byzantine(2, attack, seed ^ 0xB52B52ULL);
  seat_triangle(m, seed, {});
  m.start();
  m.oracle().mark_lossish("node2");  // Quarantine probes renounce its data.
  m.observe_for(duration);
  m.oracle().observe();
  m.oracle().check_loss_soundness();
  std::uint64_t failed = 0;
  for (ProcId p = 0; p < 2; ++p) {
    const NodeStats s = m.node(p).stats();
    failed += expect_counter(p, "replay_rejected", s.replay_rejected);
    failed += expect_counter(p, "peer_quarantines", s.peer_quarantines);
  }
  failed += expect_converged(m, 1, 0.5);
  return failed;
}

std::uint64_t run_byzantine_equivocate(Mesh& m, std::uint64_t seed,
                                       double duration) {
  // Node 2 tells node 0 everything +0.4 ms and node 1 everything -0.4 ms
  // (skew saturates at skew_max within a millisecond, so the lie is a
  // constant equivocation).  Each edge alone is a perfectly legal clock —
  // even the tight suspect band never objects, since the two stories
  // differ by less than the suspicion slack — but honest full-information
  // relaying delivers both versions of one event id to both victims, and
  // the payload screen pins the contradiction on node 2, not the honest
  // carrier.  A relay whose batch mixes the two versions of events minted
  // microseconds apart is still renounced (ingesting would contradict the
  // engine) — those renounces resolve as losses on the honest edge, which
  // is the price of never fabricating — but only node 2's score may rise
  // from them, which the attribution expectations below pin down.
  ByzantineStrategy attack;
  attack.skew_rate = 1.0;
  attack.skew_max = 4e-4;
  attack.equivocate = true;
  m.set_byzantine(2, attack, seed ^ 0xB52B52ULL);
  seat_triangle(m, seed, {});
  m.start();
  for (ProcId p = 0; p < kProcs; ++p) m.oracle().mark_lossish(Mesh::name(p));
  m.observe_for(duration);
  m.oracle().observe();
  // The outcome is asymmetric by nature: whichever victim quarantines
  // node 2 first stops ingesting its story, and from then on the OTHER
  // victim hears only one version plus echoes of that same version — it
  // has no contradiction left to detect and honestly cannot know.  So the
  // detection expectations are about the pair, while the attribution
  // expectations (never blame the honest neighbor) hold per node.
  std::uint64_t failed = 0;
  std::uint64_t equivocations = 0;
  std::uint64_t quarantines = 0;
  for (ProcId p = 0; p < 2; ++p) {
    const NodeStats s = m.node(p).stats();
    equivocations += s.equivocations_detected;
    quarantines += s.peer_quarantines;
    // The current roster may only contain node 2, and a readmission cost
    // above the default threshold is a permanent scar of a quarantine
    // cycle, so checking it catches transient mid-run misattribution too.
    for (const ProcId q : s.quarantined) {
      if (q != 2) {
        failed += expect_failed("suspect-attribution",
                                "node " + std::to_string(p) +
                                    " quarantined honest node " +
                                    std::to_string(q));
      }
    }
    for (const auto& [q, cost] : s.readmission_cost) {
      if (q != 2 && cost > NodeConfig{}.quarantine_threshold) {
        failed += expect_failed("suspect-attribution",
                                "node " + std::to_string(p) +
                                    " once quarantined honest node " +
                                    std::to_string(q));
      }
    }
  }
  failed += expect_counter(0, "equivocations_detected", equivocations);
  failed += expect_counter(0, "peer_quarantines", quarantines);
  failed += expect_converged(m, 1, 0.5);
  return failed;
}

/// Seats and starts the triangle with dynamic membership on, every pair
/// under the gradient envelope, and losses legal everywhere (a leave aborts
/// the in-flight fates on both ends).
void start_churning(Mesh& m, std::uint64_t seed) {
  seat_triangle(m, seed, {}, [](NodeConfig& cfg) { cfg.dynamic_join = true; });
  m.start();
  for (const LinkSpec& link : m.spec().links()) {
    m.oracle().track_gradient_pair(Mesh::name(link.a), Mesh::name(link.b));
  }
  for (ProcId p = 0; p < kProcs; ++p) m.oracle().mark_lossish(Mesh::name(p));
}

/// The churn verdict: both incumbents saw node 2 leave and rejoin, the mesh
/// reconverged, and nobody quarantined anyone — membership churn between
/// honest nodes must never read as an attack.
std::uint64_t expect_churn_survived(const Mesh& m) {
  std::uint64_t failed = 0;
  for (ProcId p = 0; p < 2; ++p) {
    const NodeStats s = m.node(p).stats();
    failed += expect_counter(p, "peer_joins", s.peer_joins);
    failed += expect_counter(p, "peer_leaves", s.peer_leaves);
  }
  failed += expect_converged(m, 1, 0.5);
  failed += expect_converged(m, 2, 0.5);
  for (ProcId p = 0; p < kProcs; ++p) {
    const std::uint64_t q = m.node(p).stats().peer_quarantines;
    if (q > 0) {
      failed += expect_failed("no-quarantine",
                              "node " + std::to_string(p) + " quarantined " +
                                  std::to_string(q) +
                                  " honest peer(s) under churn");
    }
  }
  return failed;
}

std::uint64_t run_churn(Mesh& m, std::uint64_t seed, double duration) {
  // Dynamic membership under measured churn (DESIGN.md decision 19):
  // node 2 leaves the mesh and rejoins on a seeded schedule while 0 and 1
  // keep serving.  Every leave aborts in-flight fates (losses are legal on
  // every edge touching the churner) and every rejoin must resume the
  // journaled wire frontier — restarted sequence numbers would read as
  // replays and quarantine an honest peer, which is exactly what the
  // no-quarantine expectation pins down.  The gradient envelope (oracle
  // invariant 5) is checked on every pair the whole time: neighbor-clock
  // bounds are knowledge-based and must stay valid across the churn.
  start_churning(m, seed);
  m.observe_for(duration * 0.3);  // Converge on the full roster first.

  Rng rng(seed ^ 0xC11A05ULL);
  std::uint64_t cycles = 0;
  double spent = 0.0;
  while (spent < duration * 0.45) {
    // Leave: the churner walks out — retires both neighbors locally and
    // tells them so; they retire it in turn.
    m.node(2).remove_peer(0);
    m.node(2).remove_peer(1);
    ++cycles;
    const double away = rng.uniform(0.15, 0.35);
    m.observe_for(away);
    // Rejoin through both neighbors; the mesh re-admits and re-polls.
    m.node(2).admit_peer(0);
    m.node(2).admit_peer(1);
    const double dwell = rng.uniform(0.25, 0.5);
    m.observe_for(dwell);
    spent += away + dwell;
  }
  m.observe_for(duration * 0.25);  // Settle with everyone back in.
  m.oracle().observe();

  std::uint64_t failed = 0;
  if (cycles == 0) failed += expect_failed("churn-cycles", "schedule empty");
  return failed + expect_churn_survived(m);
}

std::uint64_t run_join_flap(Mesh& m, std::uint64_t seed, double duration) {
  // Membership flapping: leave and rejoin with barely any dwell, racing
  // admissions against in-flight data, acks and skip commits.  The dwell
  // windows (20-80 ms out, 20-100 ms in) sit above the hub's 4 ms max
  // latency — a kLeave never reorders past the following kJoinReq — but
  // well inside the fate timeout, so most cycles tear seats out from under
  // unresolved fates.  Soundness bar: no crash, no oracle violation, no
  // honest quarantine, and the mesh still converges once the flapping
  // stops.
  start_churning(m, seed);
  m.observe_for(duration * 0.25);

  Rng rng(seed ^ 0xF1A9ULL);
  std::uint64_t flaps = 0;
  for (double spent = 0.0; spent < duration * 0.5;) {
    m.node(2).remove_peer(0);
    m.node(2).remove_peer(1);
    const double out = rng.uniform(0.02, 0.08);
    m.hub().run_for(out);
    m.node(2).admit_peer(0);
    m.node(2).admit_peer(1);
    ++flaps;
    const double in = rng.uniform(0.02, 0.1);
    m.hub().run_for(in);
    m.oracle().observe();
    spent += out + in;
  }
  m.observe_for(duration * 0.25);  // Converge after the last rejoin.
  m.oracle().observe();

  std::uint64_t failed = 0;
  if (flaps < 3) {
    failed += expect_failed("flap-cycles",
                            "only " + std::to_string(flaps) + " flap cycles");
  }
  return failed + expect_churn_survived(m);
}

}  // namespace

int main(int argc, char** argv) try {
  // Flags wants key=value; accept a bare `--quiet` for ergonomics (same
  // accommodation driftsyncd makes for `--selftest`).
  bool quiet = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--quiet") {
      quiet = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const Flags flags(static_cast<int>(args.size()), args.data());
  const std::string scenario = flags.get_string("scenario", "random");
  const std::uint64_t seed = flags.get_seed("seed", 1);
  const double duration = flags.get_double("duration", 3.0);
  const double intensity = flags.get_double("faults", 0.2);
  const std::string trace_out = flags.get_string("trace-out", "");
  quiet = flags.get_bool("quiet", quiet);
  flags.reject_unknown(kUsage);
  if (duration <= 0.0) throw FlagError("--duration must be > 0");
  if (intensity < 0.0 || intensity > 1.0) {
    throw FlagError("--faults must be in [0, 1]");
  }

  // Errors from here on unwind through ~Mesh, which removes the scratch
  // checkpoint crash-restart writes.
  // The triangle under test: source 0, every link specced [0, 50 ms].
  const workloads::TopoParams params{
      .rho = kRho, .latency = sim::LatencyModel::uniform(0.0, 0.05)};
  Mesh mesh(workloads::make_ring(kProcs, params).spec, seed ^ 0xC0FFEEULL, {},
            quiet ? nullptr : stderr);
  // Traced only when asked: an untraced run sends the untraced datagram
  // format.  The mesh is stopped before the tracer goes away; nothing
  // records after.
  std::optional<Tracer> tracer;
  if (!trace_out.empty()) {
    tracer.emplace(1 << 16, [&mesh] { return mesh.hub().now(); });
    mesh.hub().set_tracer(&*tracer);
    mesh.oracle().attach_tracer(&*tracer);
  }
  std::uint64_t expectation_failures = 0;
  if (scenario == "partition-heal") {
    expectation_failures = run_partition_heal(mesh, seed, duration);
  } else if (scenario == "clock-step") {
    expectation_failures = run_clock_step(mesh, seed, duration);
  } else if (scenario == "crash-restart") {
    expectation_failures = run_crash_restart(mesh, seed, duration);
  } else if (scenario == "client-storm") {
    expectation_failures = run_client_storm(mesh, seed, duration);
  } else if (scenario == "random") {
    expectation_failures = run_random(mesh, seed, duration, intensity);
  } else if (scenario == "byzantine-skew") {
    expectation_failures = run_byzantine_skew(mesh, seed, duration);
  } else if (scenario == "byzantine-replay") {
    expectation_failures = run_byzantine_replay(mesh, seed, duration);
  } else if (scenario == "byzantine-equivocate") {
    expectation_failures = run_byzantine_equivocate(mesh, seed, duration);
  } else if (scenario == "churn") {
    expectation_failures = run_churn(mesh, seed, duration);
  } else if (scenario == "join-flap") {
    expectation_failures = run_join_flap(mesh, seed, duration);
  } else {
    throw FlagError("unknown --scenario: " + scenario);
  }
  mesh.stop();
  if (tracer && !write_chrome_trace(*tracer, trace_out)) {
    throw std::runtime_error("cannot write " + trace_out);
  }

  const std::uint64_t violations =
      mesh.oracle().violations() + expectation_failures;
  if (violations > 0) mesh.oracle().dump_context(&mesh.log());
  std::printf(
      "{\"tool\":\"driftsync_chaos\",\"scenario\":\"%s\",\"seed\":%llu,"
      "\"duration\":%g,\"faults_injected\":%llu,\"oracle_checks\":%llu,"
      "\"violations\":%llu,\"clock_worst_error\":%g,\"verdict\":\"%s\"}\n",
      scenario.c_str(), static_cast<unsigned long long>(seed), duration,
      static_cast<unsigned long long>(mesh.log().total()),
      static_cast<unsigned long long>(mesh.oracle().checks()),
      static_cast<unsigned long long>(violations),
      mesh.oracle().disciplined_worst_error(),
      violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n%s\n", e.what(), kUsage);
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "driftsync_chaos: %s\n", e.what());
  return 1;
}
