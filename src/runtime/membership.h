// MembershipTable: the Node's per-peer state as a proper table
// (DESIGN.md decision 19).
//
// PR 9 replaces the fixed-at-startup `std::map<ProcId, PeerState>` with a
// slab + sorted-index table that distinguishes two lifetimes per peer:
//
//  * ACTIVE — the peer is in the node's current membership: polled, acked,
//    screened, checkpointed, counted in metrics.
//
//  * JOURNALED — the peer left (or arrived only via a checkpoint written
//    under a different roster).  Its entry stays resident but inactive,
//    preserving exactly the *wire frontier*: datagram sequence counters,
//    processed/seen high-waters, the replay digest, and any unresolved
//    skip-commit seat.  A later re-admission resumes from that frontier, so
//    sequence numbers never restart (which would make every datagram look
//    like a replay) and an in-flight fate is re-resolved soundly through
//    the skip-commit path instead of being guessed at.
//
// Health state (suspicion, quarantine, readmission cost, backoff, poll
// schedule) is deliberately RESET on every admission: it is soft state
// whose evidence died with the old incarnation.  A quarantined peer that
// leaves and rejoins starts clean — the alternative (inheriting a decayed
// score from a recycled slot) punishes an honest restarted peer for its
// predecessor's sins, and is exactly the bug class the quarantine ×
// membership tests pin down.
//
// Slab storage + a ProcId-sorted index keep the hot operations cheap and
// allocation-free in steady state (bench_membership.cpp): admit of a
// journaled peer and retire of an active one touch no allocator at all;
// admit of a brand-new peer allocates only when the slab must grow.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/ids.h"

namespace driftsync::runtime {

/// Fate of the one in-flight data datagram to a peer (stop-and-wait
/// skip-commit protocol, runtime/datagram.h).
enum class PeerFate : std::uint8_t {
  kNone = 0,         ///< Nothing outstanding.
  kAwaitingAck = 1,  ///< Data sent, ack pending, timeout armed.
  kAborting = 2,     ///< Timeout fired: skip sent, commit pending.
};

struct PeerState {
  ProcId peer = kInvalidProc;
  bool active = false;

  // --- Wire frontier: journaled across leave/rejoin, checkpointed. ---
  std::uint64_t out_seq_next = 1;
  std::uint64_t last_processed = 0;  ///< Inbound: highest processed.
  std::uint64_t last_seen = 0;       ///< Inbound: highest seen/renounced.
  PeerFate fate = PeerFate::kNone;
  std::uint64_t pending_seq = 0;       ///< Outstanding dgram_seq.
  std::uint32_t pending_send_seq = 0;  ///< Its send event's seq.
  /// Replay hardening: digest of the newest data datagram seen from this
  /// peer.  A redelivery of the same dgram_seq with a DIFFERENT digest is
  /// a mutated replay — counted and treated as a lie, never reprocessed.
  std::uint64_t digest_seq = 0;
  std::uint64_t digest = 0;

  // --- Schedule + health: soft state, reset on every admission (and
  // deliberately NOT checkpointed — a restarted node re-learns liveness
  // and re-derives quarantine from fresh observations, so a stale verdict
  // can never outlive its evidence). ---
  // Local times; -inf is "due at once" for the first two, "never" for the
  // last.
  double fate_deadline = -std::numeric_limits<double>::infinity();
  double next_poll = -std::numeric_limits<double>::infinity();
  double last_heard = -std::numeric_limits<double>::infinity();
  std::uint32_t backoff_exp = 0;  ///< Consecutive-timeout doublings.
  bool quarantined = false;
  /// Decaying suspicion score (see NodeConfig::suspicion_decay): +1 per
  /// renounced observation, ×decay per accepted one.
  double suspicion = 0.0;
  std::uint32_t feasible_streak = 0;  ///< Consecutive feasible while
                                      ///< quarantined (readmission).
  /// Feasible probes required for the next readmission; 0 = first
  /// quarantine, use quarantine_threshold.  Doubles per readmission.
  std::uint32_t readmission_cost = 0;

  /// Forgets everything except the identity and the wire frontier.
  void reset_health() {
    fate_deadline = -std::numeric_limits<double>::infinity();
    next_poll = -std::numeric_limits<double>::infinity();
    last_heard = -std::numeric_limits<double>::infinity();
    backoff_exp = 0;
    quarantined = false;
    suspicion = 0.0;
    feasible_streak = 0;
    readmission_cost = 0;
  }
};

class MembershipTable {
 public:
  /// Active-member lookup; nullptr when the peer is absent or journaled.
  [[nodiscard]] PeerState* find(ProcId peer) {
    PeerState* s = find_any(peer);
    return (s != nullptr && s->active) ? s : nullptr;
  }
  [[nodiscard]] const PeerState* find(ProcId peer) const {
    const PeerState* s = find_any(peer);
    return (s != nullptr && s->active) ? s : nullptr;
  }

  /// Any entry — active or journaled; nullptr when the peer has no entry.
  [[nodiscard]] PeerState* find_any(ProcId peer);
  [[nodiscard]] const PeerState* find_any(ProcId peer) const;

  /// Admits `peer` as an active member.  A journaled entry is reactivated
  /// with its wire frontier intact and its health reset; an unknown peer
  /// gets a fresh entry.  Admitting an already-active member is a no-op
  /// (idempotent joins).  `newly_active`, when given, reports whether the
  /// call changed the peer from non-member to member.
  PeerState& admit(ProcId peer, bool* newly_active = nullptr);

  /// Retires an active member to the journal (wire frontier preserved).
  /// Returns false when the peer was not an active member.
  bool retire(ProcId peer);

  /// Drops a peer's entry entirely — journal included — recycling its slab
  /// slot.  Returns false when the peer had no entry.
  bool forget(ProcId peer);

  [[nodiscard]] std::size_t active_count() const { return active_; }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t journal_count() const {
    return index_.size() - active_;
  }

  void reserve(std::size_t n) {
    slots_.reserve(n);
    index_.reserve(n);
    free_.reserve(n);
  }

  /// Iterates entries in ascending ProcId order (canonical checkpoint
  /// order).  for_each_active visits only active members.  The callback
  /// must not admit/retire/forget during iteration.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (const std::uint32_t slot : index_) fn(slots_[slot]);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint32_t slot : index_) fn(slots_[slot]);
  }
  template <typename Fn>
  void for_each_active(Fn&& fn) {
    for (const std::uint32_t slot : index_) {
      if (slots_[slot].active) fn(slots_[slot]);
    }
  }
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (const std::uint32_t slot : index_) {
      if (slots_[slot].active) fn(slots_[slot]);
    }
  }

 private:
  /// Position in index_ of the first entry with peer id >= `peer`.
  [[nodiscard]] std::size_t lower_bound(ProcId peer) const;

  std::vector<PeerState> slots_;      ///< Slab; holes listed in free_.
  std::vector<std::uint32_t> index_;  ///< Slot ids, sorted by peer id.
  std::vector<std::uint32_t> free_;
  std::size_t active_ = 0;
};

}  // namespace driftsync::runtime
