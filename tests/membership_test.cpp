// MembershipTable unit tests (DESIGN.md decision 19): the two lifetimes
// (active vs journaled), what survives a leave/rejoin cycle (the wire
// frontier) and what must not (health state), iteration order, and the
// slab's slot recycling.
#include <gtest/gtest.h>

#include <vector>

#include "common/ids.h"
#include "runtime/membership.h"

namespace driftsync::runtime {
namespace {

std::vector<ProcId> active_ids(const MembershipTable& t) {
  std::vector<ProcId> ids;
  t.for_each_active([&](const PeerState& s) { ids.push_back(s.peer); });
  return ids;
}

std::vector<ProcId> all_ids(const MembershipTable& t) {
  std::vector<ProcId> ids;
  t.for_each([&](const PeerState& s) { ids.push_back(s.peer); });
  return ids;
}

TEST(MembershipTable, StartsEmpty) {
  MembershipTable t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.active_count(), 0u);
  EXPECT_EQ(t.journal_count(), 0u);
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_EQ(t.find_any(3), nullptr);
  EXPECT_FALSE(t.retire(3));
}

TEST(MembershipTable, AdmitFindRetireLifecycle) {
  MembershipTable t;
  bool fresh = false;
  PeerState& s = t.admit(5, &fresh);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(s.peer, 5u);
  EXPECT_TRUE(s.active);
  EXPECT_EQ(t.active_count(), 1u);
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(t.find(5), t.find_any(5));

  // Idempotent join: no state change, `newly_active` says so.
  t.admit(5, &fresh);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(t.size(), 1u);

  // Retire: the entry moves to the journal, visible to find_any only.
  EXPECT_TRUE(t.retire(5));
  EXPECT_EQ(t.find(5), nullptr);
  ASSERT_NE(t.find_any(5), nullptr);
  EXPECT_FALSE(t.find_any(5)->active);
  EXPECT_EQ(t.active_count(), 0u);
  EXPECT_EQ(t.journal_count(), 1u);
  EXPECT_FALSE(t.retire(5));  // Already journaled.
}

TEST(MembershipTable, RejoinKeepsWireFrontierResetsHealth) {
  MembershipTable t;
  PeerState& s = t.admit(2);
  // Wire frontier: must survive the leave/rejoin cycle.
  s.out_seq_next = 17;
  s.last_processed = 9;
  s.last_seen = 12;
  s.fate = PeerFate::kAwaitingAck;
  s.pending_seq = 16;
  s.pending_send_seq = 40;
  s.digest_seq = 12;
  s.digest = 0xabcdef;
  // Health: must NOT survive it.
  s.quarantined = true;
  s.suspicion = 3.5;
  s.feasible_streak = 2;
  s.readmission_cost = 8;
  s.backoff_exp = 4;
  s.last_heard = 123.0;

  ASSERT_TRUE(t.retire(2));
  bool fresh = false;
  PeerState& r = t.admit(2, &fresh);
  EXPECT_TRUE(fresh);
  EXPECT_TRUE(r.active);
  // Sequence continuity — the point of journaling.
  EXPECT_EQ(r.out_seq_next, 17u);
  EXPECT_EQ(r.last_processed, 9u);
  EXPECT_EQ(r.last_seen, 12u);
  EXPECT_EQ(r.fate, PeerFate::kAwaitingAck);
  EXPECT_EQ(r.pending_seq, 16u);
  EXPECT_EQ(r.pending_send_seq, 40u);
  EXPECT_EQ(r.digest_seq, 12u);
  EXPECT_EQ(r.digest, 0xabcdefu);
  // Clean slate — the quarantine × membership bug class.
  EXPECT_FALSE(r.quarantined);
  EXPECT_EQ(r.suspicion, 0.0);
  EXPECT_EQ(r.feasible_streak, 0u);
  EXPECT_EQ(r.readmission_cost, 0u);
  EXPECT_EQ(r.backoff_exp, 0u);
  EXPECT_LT(r.last_heard, 0.0);
}

TEST(MembershipTable, IterationIsSortedByProcId) {
  MembershipTable t;
  for (const ProcId p : {7u, 1u, 9u, 3u, 5u}) t.admit(p);
  EXPECT_EQ(all_ids(t), (std::vector<ProcId>{1, 3, 5, 7, 9}));
  ASSERT_TRUE(t.retire(3));
  ASSERT_TRUE(t.retire(9));
  EXPECT_EQ(active_ids(t), (std::vector<ProcId>{1, 5, 7}));
  // The canonical (checkpoint) order still includes the journal.
  EXPECT_EQ(all_ids(t), (std::vector<ProcId>{1, 3, 5, 7, 9}));
  EXPECT_EQ(t.active_count(), 3u);
  EXPECT_EQ(t.journal_count(), 2u);
}

TEST(MembershipTable, ChurnStressKeepsCountsAndOrderConsistent) {
  MembershipTable t;
  t.reserve(64);
  // Deterministic churn: admit/retire in a braided pattern, checking
  // the invariants (sorted order, active + journal == size) throughout.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::vector<bool> admitted(64, false);
  for (int round = 0; round < 2000; ++round) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const ProcId p = static_cast<ProcId>(x % 64);
    if (x % 2 == 0) {
      t.admit(p);
      admitted[p] = true;
    } else {
      t.retire(p);
      admitted[p] = false;
    }
    ASSERT_EQ(t.active_count() + t.journal_count(), t.size());
  }
  std::size_t expect_active = 0;
  for (const bool a : admitted) expect_active += a ? 1 : 0;
  EXPECT_EQ(t.active_count(), expect_active);
  const std::vector<ProcId> ids = all_ids(t);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
}

}  // namespace
}  // namespace driftsync::runtime
