// Byzantine attack actors for the runtime (DESIGN.md decision 18).
//
// ChaosTransport models a *broken* network: drops, duplicates, reordering,
// detectable corruption.  ByzantinePeer models a *lying* peer: it wraps the
// transport seat of an otherwise-honest Node and mutates the node's own
// outbound observations so that everything it externalizes is internally
// well-formed — monotone timestamps, valid sequence numbers, decodable
// datagrams — yet false.  That is exactly the adversary the single-edge
// feasibility screen cannot catch and the cross-path screen
// (core/optimal_csa.h Options::cross_validation), the validated receive
// that refuses whatever contradicts the view (on_receive_validated) and
// the suspicion machine (runtime/node.h) exist for.
//
// Strategies compose (any subset may be active at once):
//
//  * Bounded skew ramp: outbound timestamps (the header send_lt and every
//    self-owned payload record) drift away from the true clock at
//    skew_rate seconds per second of the peer's clock, capped at skew_max.
//    A slow enough ramp is indistinguishable from legal drift on any single
//    edge; it is caught only when redundant paths expose the divergence.
//  * Equivocation: the skew's sign flips with the destination's parity —
//    different neighbors are told different lies about the same events.
//    Honest full-information forwarding then delivers both versions of one
//    event id to somebody, which is the contradiction the payload screen
//    attributes to this peer.
//  * Replay: previously sent observations are re-sent under their original
//    dgram_seq with a freshly mutated payload (the "mutating replayer" —
//    an honest transport may duplicate, but only byte-identically).
//  * Forgery: a relayed record owned by some OTHER processor gets its
//    local time shifted — framing an honest third party.
//  * Delay: outbound datagrams are held asymmetrically for up to
//    delay_hold seconds before release.  Within the spec's transit bounds
//    this is a legal (undetectable) accuracy attack; past them it becomes
//    a spec violation the screen may reject.
//  * Flapping: every flip_every-th data message carries a gross constant
//    offset while the rest stay honest — the attack that defeated the old
//    consecutive-streak quarantine trigger.
//
// Every stochastic choice flows through one seeded Rng and every mutation
// is journaled to a ChaosEventLog ("byz-*" fault names), so an attack run
// is replayed from its --seed exactly like a chaos run.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "runtime/time_source.h"
#include "runtime/transport.h"

namespace driftsync::runtime {

class ChaosEventLog;

/// Composable attack strategies; all default to "honest".
struct ByzantineStrategy {
  /// Skew ramp: seconds of lie added per second of the peer's clock,
  /// capped at skew_max.
  double skew_rate = 0.0;
  double skew_max = 0.0;
  /// Equivocate: flip the skew's sign per destination parity (even peers
  /// get +skew, odd peers -skew) so neighbors receive conflicting
  /// retellings of the same events.
  bool equivocate = false;
  /// Probability (per data send) of also re-sending an earlier observation
  /// to the same destination under its original dgram_seq with a mutated
  /// payload.
  double replay = 0.0;
  /// Probability (per data send) of shifting one relayed foreign record's
  /// local time by forge_magnitude — framing an honest third party.
  double forge = 0.0;
  double forge_magnitude = 0.1;
  /// Probability (per data send) of holding the datagram; held datagrams
  /// are released (in order) by later send() calls once older than
  /// delay_hold seconds.  Keep delay_hold below the spec's max transit
  /// minus the underlying transport's latency for a within-bounds attack.
  double delay = 0.0;
  double delay_hold = 0.0;
  /// Flapping: when > 0, every flip_every-th data message (counting all
  /// destinations) gets flip_offset added to its timestamps while every
  /// other message stays honest.
  std::uint32_t flip_every = 0;
  double flip_offset = 0.0;
};

class ByzantinePeer : public Transport {
 public:
  /// Wraps `inner` (the transport seat of the node turning Byzantine) for
  /// processor `self`; the skew ramp and held datagrams age on `clock`.
  /// `log` may be nullptr.  Both must outlive this transport.
  ByzantinePeer(std::unique_ptr<Transport> inner, ProcId self,
                ByzantineStrategy strategy, std::uint64_t seed,
                const TimeSource& clock, ChaosEventLog* log = nullptr);
  ~ByzantinePeer() override;

  void start(DatagramHandler handler) override;
  void stop() override;
  void send(ProcId to, std::vector<std::uint8_t> bytes) override;

  void set_timer(TimerHandler timer) override {
    inner_->set_timer(std::move(timer));
  }
  [[nodiscard]] std::vector<std::uint8_t> take_buffer(ProcId to) override {
    return inner_->take_buffer(to);
  }
  /// Membership passes through; a retire also drops datagrams the delay
  /// attack still holds for that peer and the replayer's cached last send.
  [[nodiscard]] bool admit_current_sender(ProcId peer) override {
    return inner_->admit_current_sender(peer);
  }
  void retire_peer(ProcId peer) override {
    std::erase_if(held_, [peer](const Held& h) { return h.to == peer; });
    last_sent_.erase(peer);
    inner_->retire_peer(peer);
  }

  [[nodiscard]] TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }
  void append_metrics(std::string& out,
                      const std::string& labels) const override {
    inner_->append_metrics(out, labels);
  }

  /// Turns the attack on or off at runtime (readmission tests: lie, go
  /// quiet long enough to be readmitted, resume lying).  Held datagrams
  /// are still released while inactive.
  void set_active(bool active) { active_ = active; }

  /// Mutated data datagrams so far (any strategy).
  [[nodiscard]] std::uint64_t mutations() const { return mutations_; }

 private:
  struct Held {
    ProcId to = kInvalidProc;
    double held_at = 0.0;  ///< clock_ reading.
    std::vector<std::uint8_t> bytes;
  };

  /// Applies the active strategies to `bytes`; returns whether they hold
  /// a data datagram (the only kind worth lying in).
  bool mutate(ProcId to, std::vector<std::uint8_t>& bytes);

  std::unique_ptr<Transport> inner_;
  const ProcId self_;
  const ByzantineStrategy strategy_;
  const TimeSource& clock_;
  ChaosEventLog* log_;
  Rng rng_;
  bool active_ = true;
  double start_;  ///< clock_ at construction (skew ramp t=0).
  std::uint64_t data_sends_ = 0;
  std::uint64_t mutations_ = 0;
  /// Last mutated observation per destination, for the mutating replayer.
  std::map<ProcId, std::vector<std::uint8_t>> last_sent_;
  std::deque<Held> held_;
};

}  // namespace driftsync::runtime
