// Byzantine-peer defense suite (DESIGN.md decision 18).
//
// Core layer: OptimalCsa::screen_message grades lies (kOk / kSuspect /
// kInfeasible), attributes equivocation to the record's OWNER rather than
// an honest relay, and on_receive_validated rolls ingestion back wholesale
// when a payload that slipped past every screen still contradicts the view
// (the engine's exact constraint checks are the final authority — an
// adversarial payload must never crash or poison an honest node).
//
// Runtime layer: the Node's decaying suspicion score catches the flapping
// attacker that defeated the old consecutive-streak trigger, replay
// hardening distinguishes an honest byte-identical duplicate from a
// mutated retelling of the same dgram_seq, and readmission escalates — a
// still-lying peer pays double the feasible probes each round and is
// re-quarantined after fewer lies thanks to residual suspicion.  Attacks
// are driven by ByzantinePeer (runtime/byzantine.h), the seeded in-process
// attack actor.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "common/interval.h"
#include "core/csa.h"
#include "core/event.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/byzantine.h"
#include "runtime/chaos.h"
#include "runtime/datagram.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "runtime/thread_transport.h"
#include "runtime/time_source.h"
#include "test_util.h"

namespace driftsync::runtime {
namespace {

using driftsync::testing::brackets_truth;
using driftsync::testing::node_config;
using driftsync::testing::two_node_spec;

// ---------------------------------------------------------------------------
// Core: screen_message / on_receive_validated

/// Victim-side fixture: one cross-validating OptimalCsa at processor 1
/// receiving hand-crafted messages "from" processor 0 over a tight 2 ms
/// link.  The honest processor-0 timeline is synthesized directly (no
/// second CSA), so a test can put a mutated copy of any record on the wire
/// while the canonical timeline stays consistent for later deliveries —
/// exactly what ByzantinePeer does in flight.
class CrossValidation : public ::testing::Test {
 protected:
  CrossValidation()
      : spec_(std::vector<ClockSpec>{{0.0}, {1e-4}},
              std::vector<LinkSpec>{{0, 1, 0.0, 0.002}}, 0) {
    OptimalCsa::Options opts;
    opts.cross_validation = true;
    victim_ = std::make_unique<OptimalCsa>(opts);
    victim_->init(spec_, 1);
  }

  /// Mints the next honest send event of processor 0 at local time `lt`.
  EventRecord mint_send(double lt) {
    EventRecord r;
    r.id = EventId{0, next_zero_seq_++};
    r.lt = lt;
    r.kind = EventKind::kSend;
    r.peer = 1;
    timeline_.push_back(r);
    return r;
  }

  /// Full-information payload: every processor-0 record so far, with the
  /// newest one's local time optionally replaced by a lie.
  CsaPayload payload_with_claim(double claimed_lt) const {
    CsaPayload p;
    p.reports = timeline_;
    p.reports.back().lt = claimed_lt;
    return p;
  }

  /// Delivers the newest send to the victim, claiming `claimed_lt` in both
  /// the header and the payload copy (a coherent lie).  Returns
  /// on_receive_validated's verdict; on rollback the victim's own event
  /// sequence is reused, mirroring the Node's un-minting.
  bool deliver(double claimed_lt, double recv_lt) {
    const CsaPayload p = payload_with_claim(claimed_lt);
    EventRecord recv;
    recv.id = EventId{1, next_recv_seq_};
    recv.lt = recv_lt;
    recv.kind = EventKind::kReceive;
    recv.peer = 0;
    recv.match = timeline_.back().id;
    EventRecord send = timeline_.back();
    send.lt = claimed_lt;
    const RecvContext ctx{1, 0, recv, send, 0};
    const bool ok = victim_->on_receive_validated(ctx, p);
    if (ok) ++next_recv_seq_;
    return ok;
  }

  /// Three honest rounds one second apart, 1 ms in transit; afterwards the
  /// victim's fused bound on processor 0's clock is ~2 ms wide.
  void warm_up() {
    for (int i = 1; i <= 3; ++i) {
      mint_send(static_cast<double>(i));
      ASSERT_TRUE(deliver(static_cast<double>(i),
                          static_cast<double>(i) + 0.001));
    }
  }

  SystemSpec spec_;
  std::unique_ptr<OptimalCsa> victim_;
  std::vector<EventRecord> timeline_;  ///< Honest processor-0 history.
  std::uint32_t next_zero_seq_ = 0;
  std::uint32_t next_recv_seq_ = 0;
};

TEST_F(CrossValidation, ScreenGradesLiesByDivergence) {
  warm_up();
  const double now = 3.002;
  const Interval peer = victim_->peer_clock_estimate(0, now);
  ASSERT_TRUE(std::isfinite(peer.hi));

  mint_send(3.5);  // True local time; only the claims below vary.

  // Honest claim inside every bound: kOk.
  const ObservationScreen ok = victim_->screen_message(
      0, now - 0.001, now, payload_with_claim(now - 0.001));
  EXPECT_EQ(ok.verdict, ObservationVerdict::kOk);
  EXPECT_EQ(ok.implicated, kInvalidProc);

  // Past the tight cross-path band but inside the generous single-edge
  // envelope: a plausible lie, graded kSuspect (renounce, never crash).
  const double suspect_lt = peer.hi + 1.1e-3;
  const ObservationScreen suspect = victim_->screen_message(
      0, suspect_lt, now, payload_with_claim(suspect_lt));
  EXPECT_EQ(suspect.verdict, ObservationVerdict::kSuspect);

  // Grossly outside the drift spec: kInfeasible (the insane-clock case the
  // historical boolean screen already caught).
  const double gross_lt = peer.hi + 0.5;
  const ObservationScreen gross = victim_->screen_message(
      0, gross_lt, now, payload_with_claim(gross_lt));
  EXPECT_EQ(gross.verdict, ObservationVerdict::kInfeasible);
}

TEST_F(CrossValidation, EquivocationOnOwnEventsIsSuspect) {
  warm_up();
  // The sender retells its newest already-known event with a shifted local
  // time: two conflicting stories about one event id, from its own owner.
  mint_send(3.5);
  CsaPayload p = payload_with_claim(3.5);
  p.reports[p.reports.size() - 2].lt += 0.01;  // Mutate known seq 2.
  const ObservationScreen s = victim_->screen_message(0, 3.5, 3.502, p);
  EXPECT_EQ(s.verdict, ObservationVerdict::kSuspect);
  EXPECT_EQ(s.implicated, 0u);
}

TEST_F(CrossValidation, ForgedOwnEventIsInfeasible) {
  warm_up();
  // A report attributed to the VICTIM that the victim never minted: no
  // conforming execution produces it.
  mint_send(3.5);
  CsaPayload p = payload_with_claim(3.5);
  EventRecord forged;
  forged.id = EventId{1, 1000};
  forged.lt = 3.4;
  forged.kind = EventKind::kInternal;
  p.reports.push_back(forged);
  const ObservationScreen s = victim_->screen_message(0, 3.5, 3.502, p);
  EXPECT_EQ(s.verdict, ObservationVerdict::kInfeasible);
}

TEST(CrossValidationRelay, RelayedEquivocationImplicatesOwnerNotCarrier) {
  // Line 0 - 1 - 2: processor 1 honestly relays processor 0's records to
  // the victim at 2.  When a relayed copy of a known processor-0 record
  // conflicts with the view, the evidence implicates 0 — the carrier's
  // message stays kOk (an honest relay must not be quarantined for
  // forwarding a liar's reports).
  SystemSpec spec(std::vector<ClockSpec>{{0.0}, {1e-4}, {1e-4}},
                  std::vector<LinkSpec>{{0, 1, 0.0, 0.002},
                                        {1, 2, 0.0, 0.002}}, 0);
  OptimalCsa::Options opts;
  opts.cross_validation = true;
  OptimalCsa victim(opts);
  victim.init(spec, 2);

  EventRecord r0;  // 0's send to 1.
  r0.id = EventId{0, 0};
  r0.lt = 1.0;
  r0.kind = EventKind::kSend;
  r0.peer = 1;
  EventRecord r1a;  // 1's matching receive.
  r1a.id = EventId{1, 0};
  r1a.lt = 1.001;
  r1a.kind = EventKind::kReceive;
  r1a.peer = 0;
  r1a.match = r0.id;
  EventRecord r1b;  // 1's send to the victim.
  r1b.id = EventId{1, 1};
  r1b.lt = 1.5;
  r1b.kind = EventKind::kSend;
  r1b.peer = 2;

  CsaPayload first;
  first.reports = {r0, r1a, r1b};
  EventRecord recv;
  recv.id = EventId{2, 0};
  recv.lt = 1.501;
  recv.kind = EventKind::kReceive;
  recv.peer = 1;
  recv.match = r1b.id;
  ASSERT_TRUE(victim.on_receive_validated(
      RecvContext{2, 1, recv, r1b, 0}, first));

  EventRecord r1c = r1b;  // 1's next send, honest.
  r1c.id = EventId{1, 2};
  r1c.lt = 2.0;
  CsaPayload second;
  second.reports = {r0, r1a, r1b, r1c};
  second.reports[0].lt += 0.01;  // Conflicting retelling of 0's event.
  const ObservationScreen s =
      victim.screen_message(1, 2.0, 2.001, second);
  EXPECT_EQ(s.verdict, ObservationVerdict::kOk);
  EXPECT_EQ(s.implicated, 0u);
}

TEST_F(CrossValidation, RollbackLeavesViewIntactAndRecovers) {
  warm_up();
  const Interval before = victim_->estimate(3.1);

  // A lie delivered straight past the screens (defense in depth: whatever
  // slips through, the engine's exact checks catch mid-merge).  +0.5 s on
  // a 2 ms link contradicts the fused offset — ingestion must fail
  // atomically instead of crashing or half-applying the batch.
  mint_send(3.5);
  EXPECT_FALSE(deliver(4.0, 3.502));
  EXPECT_EQ(victim_->stats().cross_check_failures, 1u);
  const Interval after = victim_->estimate(3.1);
  EXPECT_DOUBLE_EQ(after.lo, before.lo);
  EXPECT_DOUBLE_EQ(after.hi, before.hi);

  // The renounced event is later retold honestly; the rolled-back view
  // ingests it cleanly (no poisoned residue, no sequence gaps).
  EXPECT_TRUE(deliver(3.5, 3.5015));
  EXPECT_TRUE(std::isfinite(victim_->estimate(3.502).width()));
  EXPECT_EQ(victim_->stats().cross_check_failures, 1u);
}

/// Reports naming processor 50 on a 3-processor spec, in each field that
/// indexes per-processor state: the owner, the peer, the matched send.
std::vector<EventRecord> out_of_range_reports() {
  EventRecord owner;
  owner.id = EventId{50, 0};
  owner.lt = 0.5;
  EventRecord peer;
  peer.id = EventId{2, 0};
  peer.lt = 0.5;
  peer.kind = EventKind::kSend;
  peer.peer = 50;
  EventRecord match;
  match.id = EventId{2, 0};
  match.lt = 0.5;
  match.kind = EventKind::kReceive;
  match.peer = 1;
  match.match = EventId{50, 0};
  return {owner, peer, match};
}

TEST(OutOfRangeReport, ScreenedAndRefusedWithoutCrossValidation) {
  // The daemon's own options: loss-tolerant, no cross-validation.  The
  // screen's payload checks used to start only after its cross-validation
  // early return, and the merge then indexed per-processor arrays with the
  // relayed id.
  const SystemSpec spec = driftsync::testing::line_spec(3, 5e-4, 0.0, 0.05);
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  OptimalCsa victim(opts);
  victim.init(spec, 1);
  driftsync::testing::EventFactory fac(3);
  const EventRecord send = fac.send(0, 1.0, 1);
  const EventRecord recv = fac.receive(1, 1.01, send);
  const RecvContext ctx{1, 0, recv, send, 0};
  const std::vector<std::uint8_t> before = victim.checkpoint();
  for (const EventRecord& bad : out_of_range_reports()) {
    const CsaPayload payload{{bad, send}, {}};
    EXPECT_EQ(victim.screen_message(0, 1.0, 1.01, payload).verdict,
              ObservationVerdict::kInfeasible);
    // An unscreened caller is safe too: the history refuses the batch
    // before anything is written.
    EXPECT_FALSE(victim.on_receive_validated(ctx, payload));
    EXPECT_EQ(victim.checkpoint(), before);
    // A caller that vouched for the message learns of a bug.
    EXPECT_THROW(victim.on_receive(ctx, payload), std::logic_error);
    EXPECT_EQ(victim.checkpoint(), before);
  }
  EXPECT_TRUE(victim.on_receive_validated(ctx, CsaPayload{{send}, {}}));
}

// ---------------------------------------------------------------------------
// Runtime: ByzantinePeer vs the Node's suspicion machine

OptimalCsa::Options defended() {
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  opts.cross_validation = true;
  return opts;
}

/// Polls `pred` every 5 ms for up to `timeout_ms`.
bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(ByzantineRuntime, MutatedReplayRejectedHonestDuplicateIgnored) {
  // Node 1's seat: ByzantinePeer (mutating replayer) over a ChaosTransport
  // that duplicates byte-identically.  The victim must tell them apart:
  // honest duplicates count duplicate_dgrams and stay benign; a replay of
  // the same dgram_seq with different bytes counts replay_rejected and
  // raises suspicion.
  Mesh mesh(two_node_spec(), 29);
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  ChaosFaults faults;
  faults.duplicate = 0.4;
  ByzantineStrategy strat;
  strat.replay = 0.5;
  mesh.set_byzantine(1, strat, /*seed=*/44);
  const Node& victim =
      mesh.add(node_config(0, mesh.spec()), defended(), 0.0, 1.0);
  const Node& attacker = mesh.add(node_config(1, mesh.spec()), defended(),
                                  0.0, 1.0, faults, /*fault_seed=*/43);
  mesh.start();
  EXPECT_TRUE(wait_until(
      [&] {
        const NodeStats s = victim.stats();
        return s.replay_rejected >= 1 && s.duplicate_dgrams >= 1;
      },
      4000));
  const NodeStats s = victim.stats();
  EXPECT_GE(s.replay_rejected, 1u);
  EXPECT_GE(s.duplicate_dgrams, 1u);
  // The attacker's replayed timestamps never entered the view; the honest
  // direction keeps both nodes containing true source time.
  EXPECT_TRUE(brackets_truth(victim));
  EXPECT_TRUE(brackets_truth(attacker));
}

TEST(ByzantineRuntime, FlappingAttackerIsQuarantined) {
  // Every 2nd message carries a gross +0.5 s lie, every other message is
  // honest.  The old consecutive-infeasible streak reset on each honest
  // message and never fired; the decaying score converges to its fixed
  // point (s + 1) * decay above the threshold and quarantines the peer.
  Mesh mesh(two_node_spec(), 31);
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  ByzantineStrategy strat;
  strat.flip_every = 2;
  strat.flip_offset = 0.5;
  mesh.set_byzantine(1, strat, /*seed=*/45);
  const Node& victim =
      mesh.add(node_config(0, mesh.spec()), defended(), 0.0, 1.0);
  mesh.add(node_config(1, mesh.spec()), defended(), 0.0, 1.0);
  mesh.start();
  EXPECT_TRUE(wait_until(
      [&] { return victim.stats().peer_quarantines >= 1; }, 4000));
  const NodeStats s = victim.stats();
  EXPECT_GE(s.infeasible_rejected, 2u);
  ASSERT_EQ(s.quarantined.size(), 1u);
  EXPECT_EQ(s.quarantined[0], 1u);
  EXPECT_TRUE(brackets_truth(victim));
}

TEST(ByzantineRuntime, ReadmissionEscalatesAgainstRepeatOffender) {
  // Phase 1: constant gross lies -> quarantined after `threshold` lies.
  // Phase 2: the attacker goes honest; after `threshold` feasible probes
  // it is readmitted — and the NEXT readmission now costs double.
  // Phase 3: it resumes lying; residual suspicion re-quarantines it after
  // FEWER lies than the first time.
  Mesh mesh(two_node_spec(), 37);
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  NodeConfig victim_cfg = node_config(0, mesh.spec());
  victim_cfg.quarantine_threshold = 4;
  const Node& victim = mesh.add(victim_cfg, defended(), 0.0, 1.0);

  // A steep skew ramp: a CONSTANT offset would be a perfectly legal clock
  // (the spec constrains rate, not phase) and a slow ramp ratchets inside
  // the per-message transit headroom — only a ramp outrunning
  // (transit width + slack) per message is renounced every time, which is
  // what phases 1 and 3 need.
  ByzantineStrategy strat;
  strat.skew_rate = 0.5;
  strat.skew_max = 100.0;
  mesh.set_byzantine(1, strat, /*seed=*/47);
  // Slow attacker cadence: the test reacts between messages, so at most
  // one honest message decays the residual suspicion before phase 3.
  mesh.add(node_config(1, mesh.spec(), /*poll_period=*/0.15), defended(),
           0.0, 1.0);
  ByzantinePeer& attacker_hand = mesh.byzantine(1);
  mesh.start();

  // Phase 1: quarantine at the configured threshold.
  ASSERT_TRUE(wait_until(
      [&] { return victim.stats().peer_quarantines >= 1; }, 8000));
  {
    const NodeStats s = victim.stats();
    ASSERT_EQ(s.quarantined.size(), 1u);
    EXPECT_EQ(s.readmission_cost.at(1), 4u);  // First readmission price.
  }

  // Phase 2: honesty buys readmission, at escalating cost.
  attacker_hand.set_active(false);
  ASSERT_TRUE(wait_until(
      [&] { return victim.stats().peer_readmissions >= 1; }, 8000));
  const NodeStats readmitted = victim.stats();
  EXPECT_TRUE(readmitted.quarantined.empty());
  EXPECT_EQ(readmitted.readmission_cost.at(1), 8u);  // Doubled.
  EXPECT_GT(readmitted.suspicion.at(1), 0.0);  // Residual suspicion.

  // Phase 3: resumed lying is caught faster than the first offense.
  attacker_hand.set_active(true);
  ASSERT_TRUE(wait_until(
      [&] { return victim.stats().peer_quarantines >= 2; }, 8000));
  const NodeStats again = victim.stats();
  const std::uint64_t lies_this_round =
      again.infeasible_rejected - readmitted.infeasible_rejected;
  EXPECT_LE(lies_this_round, 3u);  // < threshold (4) thanks to residual.
  EXPECT_TRUE(brackets_truth(victim));
}

TEST(ByzantineRuntime, LeaveAndRejoinDoesNotInheritOldSuspicion) {
  // The fixed-peer-set bug class (DESIGN.md decision 19): peer health
  // lived in maps keyed by ProcId with no notion of "this seat was
  // vacated" — a quarantined peer that left and rejoined inherited the
  // old decayed suspicion and the doubled readmission price, so a fresh
  // incarnation at a recycled ProcId started life half-convicted.
  // Retirement must drop the health state with the seat: a rejoin gets a
  // clean score, the threshold-priced readmission, and flowing traffic.
  Mesh mesh(two_node_spec(), 41);
  mesh.hub().set_link(0, 1, 0.0005, 0.003);
  NodeConfig victim_cfg = node_config(0, mesh.spec());
  victim_cfg.quarantine_threshold = 4;
  Node& victim = mesh.add(victim_cfg, defended(), 0.0, 1.0);

  // Constant steep skew: every message renounced, so the quarantine holds
  // (no feasible probes, no racing readmission) until the test acts.
  ByzantineStrategy strat;
  strat.skew_rate = 0.5;
  strat.skew_max = 100.0;
  mesh.set_byzantine(1, strat, /*seed=*/49);
  mesh.add(node_config(1, mesh.spec()), defended(), 0.0, 1.0);
  mesh.start();
  ASSERT_TRUE(wait_until(
      [&] { return victim.stats().peer_quarantines >= 1; }, 8000));
  {
    const NodeStats s = victim.stats();
    ASSERT_EQ(s.quarantined.size(), 1u);
    EXPECT_GT(s.suspicion.at(1), 0.0);
    EXPECT_EQ(s.readmission_cost.at(1), 4u);
  }

  // The convict leaves (and turns honest for its next incarnation).
  mesh.byzantine(1).set_active(false);
  victim.remove_peer(1);
  {
    const NodeStats s = victim.stats();
    EXPECT_EQ(s.peer_leaves, 1u);
    EXPECT_TRUE(s.quarantined.empty());
    EXPECT_EQ(s.suspicion.count(1), 0u);  // No seat, no health state.
    EXPECT_EQ(s.peers_journaled, 1u);     // Wire frontier retained.
  }

  // Rejoin: a fresh seat, not a readmission — zero suspicion, the
  // original threshold price, no lingering quarantine flag.
  victim.admit_peer(1);
  {
    const NodeStats s = victim.stats();
    EXPECT_EQ(s.peer_joins, 1u);
    EXPECT_TRUE(s.quarantined.empty());
    EXPECT_EQ(s.suspicion.at(1), 0.0);
    EXPECT_EQ(s.readmission_cost.at(1), 4u);  // Not doubled.
    EXPECT_EQ(s.peer_readmissions, 0u);
    EXPECT_EQ(s.peers_journaled, 0u);
  }

  // The now-honest peer is actually heard again through the new seat.
  EXPECT_TRUE(wait_until(
      [&] {
        const NodeStats s = victim.stats();
        const auto it = s.last_heard.find(1);
        return it != s.last_heard.end() && it->second >= 0.0;
      },
      4000));
  EXPECT_TRUE(brackets_truth(victim));
}

TEST(ByzantineRuntime, OutOfRangeReportIsRenouncedAndNodeKeepsServing) {
  // One well-formed datagram relaying a report about processor 50 of 3,
  // sent to a Node with the daemon's options (loss-tolerant, no
  // cross-validation, the quarantine screen on): renounced as infeasible,
  // and the next honest datagram is processed.
  const SystemSpec spec = driftsync::testing::line_spec(3, 5e-4, 0.0, 0.05);
  ThreadHub hub(53);
  hub.set_link(0, 1, 0.0, 0.001);
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  Node victim(node_config(1, spec, /*poll_period=*/1000.0),
              std::make_unique<OptimalCsa>(opts),
              std::make_unique<ScaledTimeSource>(0.0, 1.0), hub.endpoint(1));
  std::mutex mu;
  AckMsg last_ack;
  auto peer = hub.endpoint(0);
  peer->start([&](std::span<const std::uint8_t> bytes) {
    const Datagram dgram = decode_datagram(bytes);
    if (const auto* ack = std::get_if<AckMsg>(&dgram)) {
      const std::lock_guard<std::mutex> lock(mu);
      last_ack = *ack;
    }
  });
  victim.start();
  const ScaledTimeSource clock(0.0, 1.0);
  const auto send_data = [&](std::uint64_t dgram_seq,
                             std::vector<EventRecord> reports) {
    DataMsg msg;
    msg.from = 0;
    msg.dgram_seq = dgram_seq;
    msg.send_seq = 0;
    msg.send_lt = clock.now();
    EventRecord send;
    send.id = EventId{0, 0};
    send.lt = msg.send_lt;
    send.kind = EventKind::kSend;
    send.peer = 1;
    reports.push_back(send);
    msg.payload.reports = std::move(reports);
    peer->send(1, encode_datagram(Datagram{std::move(msg)}));
  };
  const auto acked = [&](std::uint64_t seen, std::uint64_t processed) {
    return wait_until(
        [&] {
          const std::lock_guard<std::mutex> lock(mu);
          return last_ack.seen_hw >= seen &&
                 last_ack.processed_hw >= processed;
        },
        4000);
  };

  send_data(1, {out_of_range_reports()[0]});
  ASSERT_TRUE(acked(1, 0));
  {
    const NodeStats s = victim.stats();
    EXPECT_EQ(s.infeasible_rejected, 1u);
    EXPECT_EQ(s.cross_check_failures, 0u);
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(last_ack.processed_hw, 0u);  // Renounced, not processed.
  }
  send_data(2, {});
  EXPECT_TRUE(acked(2, 2));
  EXPECT_EQ(victim.stats().infeasible_rejected, 1u);
  victim.stop();
  peer->stop();
}

}  // namespace
}  // namespace driftsync::runtime
