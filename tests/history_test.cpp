// Tests for the Figure-2 history protocol: report completeness (Lemma 3.1),
// report-once per link/direction (Lemma 3.2), garbage collection
// (Lemma 3.3), and the Section 3.3 loss accounting.
//
// These tests drive the protocol by hand, playing all processors at once and
// shuttling batches between HistoryProtocol instances like the network
// would.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/history.h"
#include "test_util.h"

namespace driftsync {
namespace {

using testing::EventFactory;
using testing::line_spec;

class HistoryTest : public ::testing::Test {
 protected:
  void build(std::size_t n, HistoryProtocol::Options opts = {}) {
    spec_ = std::make_unique<SystemSpec>(line_spec(n, 1e-4, 0.0, 1.0));
    fac_ = std::make_unique<EventFactory>(n);
    for (ProcId p = 0; p < n; ++p) {
      protocols_.push_back(
          std::make_unique<HistoryProtocol>(*spec_, p, opts));
    }
  }

  /// Simulates a message p -> q at sender local time lt_s, receiver local
  /// time lt_r; returns the records new to q.
  EventBatch transfer(ProcId p, ProcId q, LocalTime lt_s, LocalTime lt_r) {
    const EventRecord s = fac_->send(p, lt_s, q);
    const EventBatch batch = protocols_[p]->fill_message(q, s);
    EXPECT_EQ(protocols_[q]->receive_message(p, batch), MergeVerdict::kMerged);
    const std::span<const EventRecord> fresh = protocols_[q]->fresh();
    protocols_[q]->record_own_event(fac_->receive(q, lt_r, s));
    return {fresh.begin(), fresh.end()};
  }

  std::unique_ptr<SystemSpec> spec_;
  std::unique_ptr<EventFactory> fac_;
  std::vector<std::unique_ptr<HistoryProtocol>> protocols_;
};

TEST_F(HistoryTest, FillMessageIncludesOwnSendEvent) {
  build(2);
  const EventRecord s = fac_->send(0, 1.0, 1);
  const EventBatch batch = protocols_[0]->fill_message(1, s);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, s.id);
}

TEST_F(HistoryTest, ReceiveLearnsEverything) {
  build(2);
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  const EventBatch fresh = transfer(0, 1, 1.0, 1.2);
  EXPECT_EQ(fresh.size(), 2u);  // internal + send
  EXPECT_EQ(protocols_[1]->known_seq(0), 1);
}

TEST_F(HistoryTest, NoReReportOnSameLink) {
  build(2);
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  transfer(0, 1, 1.0, 1.2);
  // Second message from 0 to 1 must not repeat already-reported events.
  const EventRecord s2 = fac_->send(0, 2.0, 1);
  const EventBatch batch2 = protocols_[0]->fill_message(1, s2);
  ASSERT_EQ(batch2.size(), 1u);
  EXPECT_EQ(batch2[0].id, s2.id);
}

TEST_F(HistoryTest, NoEchoBack) {
  build(2);
  transfer(0, 1, 1.0, 1.2);
  // 1's reply must not echo 0's events back to 0 (C_10[0] was advanced by
  // the receive).
  const EventRecord s2 = fac_->send(1, 2.0, 0);
  const EventBatch batch = protocols_[1]->fill_message(0, s2);
  // batch: 1's own receive event + the new send; nothing of proc 0.
  for (const EventRecord& r : batch) EXPECT_EQ(r.id.proc, 1u);
  EXPECT_EQ(batch.size(), 2u);
}

TEST_F(HistoryTest, RelayAlongPath) {
  build(3);
  protocols_[0]->record_own_event(fac_->internal(0, 0.1));
  transfer(0, 1, 1.0, 1.1);
  const EventBatch fresh = transfer(1, 2, 2.0, 2.1);
  // Processor 2 learns 0's internal, 0's send, 1's receive, 1's send.
  EXPECT_EQ(fresh.size(), 4u);
  EXPECT_EQ(protocols_[2]->known_seq(0), 1);
  EXPECT_EQ(protocols_[2]->known_seq(1), 1);
}

TEST_F(HistoryTest, BatchIsCausallyOrdered) {
  build(3);
  protocols_[0]->record_own_event(fac_->internal(0, 0.1));
  transfer(0, 1, 1.0, 1.1);
  const EventRecord s = fac_->send(1, 2.0, 2);
  const EventBatch batch = protocols_[1]->fill_message(2, s);
  // Predecessor-closure within the batch: per-processor seqs appear in
  // increasing order, and every receive's match appears before it.
  std::vector<std::int64_t> seen(3, -1);
  for (const EventRecord& r : batch) {
    EXPECT_EQ(static_cast<std::int64_t>(r.id.seq), seen[r.id.proc] + 1);
    seen[r.id.proc] = r.id.seq;
    if (r.kind == EventKind::kReceive) {
      EXPECT_LE(static_cast<std::int64_t>(r.match.seq), seen[r.match.proc]);
    }
  }
}

TEST_F(HistoryTest, GarbageCollectionSingleNeighborEmptiesBuffer) {
  build(2);
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  EXPECT_EQ(protocols_[0]->history_size(), 1u);
  const EventRecord s = fac_->send(0, 1.0, 1);
  protocols_[0]->fill_message(1, s);
  // Proc 0's only neighbor now knows everything: H must be empty.
  EXPECT_EQ(protocols_[0]->history_size(), 0u);
}

TEST_F(HistoryTest, GarbageCollectionWaitsForAllNeighbors) {
  build(3);  // proc 1 has neighbors 0 and 2
  transfer(0, 1, 1.0, 1.1);  // 1 now holds events owed to 2
  EXPECT_GT(protocols_[1]->history_size(), 0u);
  transfer(1, 2, 2.0, 2.1);  // reported to 2; also 0 still owed 1's events
  // After telling 0 everything, only the fresh send remains: it is owed to
  // neighbor 2, which has not heard from proc 1 since.
  const EventRecord s = fac_->send(1, 3.0, 0);
  protocols_[1]->fill_message(0, s);
  EXPECT_EQ(protocols_[1]->history_size(), 1u);
  // Telling 2 drops the old events; only the newest send (owed to 0 now)
  // remains: with two neighbors the buffer never grows beyond what the
  // *other* side has not yet heard — the Lemma 3.3 mechanism.
  const EventRecord s2 = fac_->send(1, 4.0, 2);
  protocols_[1]->fill_message(2, s2);
  EXPECT_EQ(protocols_[1]->history_size(), 1u);
}

TEST_F(HistoryTest, CEntriesTrackKnowledge) {
  build(2);
  EXPECT_EQ(protocols_[0]->c_entry(1, 0), -1);
  transfer(0, 1, 1.0, 1.2);
  EXPECT_EQ(protocols_[0]->c_entry(1, 0), 0);  // 1 knows 0's send (seq 0)
  EXPECT_EQ(protocols_[1]->c_entry(0, 0), 0);  // and 1 knows that 0 knows it
}

TEST_F(HistoryTest, DuplicateAcrossLinksCounted) {
  // Triangle: 0-1, 1-2, 0-2 — event of 0 reaches 2 via both routes.
  spec_ = std::make_unique<SystemSpec>(testing::clique_spec(3));
  fac_ = std::make_unique<EventFactory>(3);
  for (ProcId p = 0; p < 3; ++p) {
    protocols_.push_back(std::make_unique<HistoryProtocol>(*spec_, p));
  }
  protocols_[0]->record_own_event(fac_->internal(0, 0.1));
  transfer(0, 1, 1.0, 1.1);  // 1 knows 0's events
  transfer(0, 2, 2.0, 2.1);  // 2 knows directly
  const EventBatch fresh = transfer(1, 2, 3.0, 3.1);  // relays 0's events
  for (const EventRecord& r : fresh) EXPECT_NE(r.id.proc, 0u);
  EXPECT_GT(protocols_[2]->duplicate_reports_received(), 0u);
  EXPECT_EQ(protocols_[2]->audit_repeat_reports(), 0u);
}

TEST_F(HistoryTest, AuditNoRepeatsOnLongExchange) {
  HistoryProtocol::Options opts;
  opts.audit = true;
  build(3, opts);
  LocalTime t = 1.0;
  for (int round = 0; round < 20; ++round) {
    transfer(0, 1, t, t + 0.1);
    t += 0.2;
    transfer(1, 2, t, t + 0.1);
    t += 0.2;
    transfer(2, 1, t, t + 0.1);
    t += 0.2;
    transfer(1, 0, t, t + 0.1);
    t += 0.2;
  }
  for (const auto& p : protocols_) {
    EXPECT_EQ(p->audit_repeat_reports(), 0u);  // Lemma 3.2
  }
}

TEST_F(HistoryTest, OwnEventsOutOfOrderThrow) {
  build(2);
  EventRecord e = fac_->internal(0, 1.0);
  e.id.seq = 3;
  EXPECT_THROW(protocols_[0]->record_own_event(e), std::logic_error);
}

TEST_F(HistoryTest, ForeignOwnEventThrows) {
  build(2);
  EXPECT_THROW(protocols_[0]->record_own_event(fac_->internal(1, 1.0)),
               std::logic_error);
}

TEST_F(HistoryTest, NonNeighborThrows) {
  build(3);  // 0 and 2 are not adjacent on the path
  const EventRecord s = fac_->send(0, 1.0, 2);
  EXPECT_THROW(protocols_[0]->fill_message(2, s), std::logic_error);
  EXPECT_THROW((void)protocols_[0]->c_entry(2, 0), std::logic_error);
}

std::vector<std::uint8_t> image_of(const HistoryProtocol& protocol) {
  std::vector<std::uint8_t> out;
  protocol.save(out);
  return out;
}

TEST_F(HistoryTest, GapWithoutLossToleranceThrows) {
  build(2);
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  transfer(0, 1, 1.0, 1.2);
  // Hand-craft a batch that skips a sequence number after a record that
  // would merge: the refusal must undo that record too.
  EventRecord ok = fac_->internal(0, 1.5);
  EventRecord gap = fac_->internal(0, 2.0);
  gap.id.seq += 1;
  const std::vector<std::uint8_t> before = image_of(*protocols_[1]);
  EXPECT_EQ(protocols_[1]->receive_message(0, {ok, gap}),
            MergeVerdict::kOutOfOrder);
  EXPECT_EQ(image_of(*protocols_[1]), before);
  EXPECT_EQ(protocols_[1]->c_entry(0, 0), 1);
}

TEST_F(HistoryTest, OutOfRangeProcessorIsRefused) {
  build(3);
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  transfer(0, 1, 1.0, 1.2);
  // A record that would merge, then one naming processor 50 of 3: as its
  // owner, its peer, or the sender its receive matches.
  const EventRecord first = fac_->internal(0, 1.4);
  EventRecord far = fac_->internal(0, 1.5);
  far.id.proc = 50;
  EventRecord far_peer = fac_->send(0, 1.5, 1);
  far_peer.peer = 50;
  EventRecord far_match = fac_->internal(0, 1.5);
  far_match.kind = EventKind::kReceive;
  far_match.peer = 2;
  far_match.match = EventId{50, 0};
  const std::vector<std::uint8_t> before = image_of(*protocols_[1]);
  for (const EventRecord& r : {far, far_peer, far_match}) {
    EXPECT_EQ(protocols_[1]->receive_message(0, {first, r}),
              MergeVerdict::kOutOfRange);
    EXPECT_EQ(image_of(*protocols_[1]), before);
  }
}

TEST_F(HistoryTest, RollbackRestoresTheStateBeforeBegin) {
  build(3);
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  transfer(0, 1, 1.0, 1.2);
  transfer(1, 2, 1.3, 1.4);
  const std::vector<std::uint8_t> before = image_of(*protocols_[1]);
  const std::size_t size = protocols_[1]->history_size();
  const EventRecord s = fac_->send(0, 2.0, 1);
  const EventBatch batch = protocols_[0]->fill_message(1, s);
  ASSERT_EQ(protocols_[1]->begin_receive(0, batch), MergeVerdict::kMerged);
  EXPECT_EQ(protocols_[1]->fresh().size(), 1u);
  EXPECT_GT(protocols_[1]->history_size(), size);
  protocols_[1]->rollback_receive();
  EXPECT_EQ(image_of(*protocols_[1]), before);
  // The same batch then commits as if the rollback never happened.
  ASSERT_EQ(protocols_[1]->begin_receive(0, batch), MergeVerdict::kMerged);
  protocols_[1]->commit_receive(fac_->receive(1, 2.1, s));
  EXPECT_EQ(protocols_[1]->known_seq(0), static_cast<std::int64_t>(s.id.seq));
}

// Lemma 3.1 as a property: after any sequence of messages, each processor's
// knowledge frontier equals its causal past — modeled independently as
// know[u] := max(know[u], know[v]) on every delivered message v -> u.
class HistoryLemma31Test : public ::testing::TestWithParam<int> {};

TEST_P(HistoryLemma31Test, KnowledgeEqualsCausalPast) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 11);
  const std::size_t n = 3 + rng.uniform_index(4);
  const SystemSpec spec = driftsync::testing::clique_spec(n);
  EventFactory fac(n);
  std::vector<std::unique_ptr<HistoryProtocol>> protocols;
  for (ProcId p = 0; p < n; ++p) {
    protocols.push_back(std::make_unique<HistoryProtocol>(spec, p));
  }
  // The independent model: know[v][w] = highest seq of w's events in v's
  // causal past; own[] = per-processor event counter.
  std::vector<std::vector<std::int64_t>> know(
      n, std::vector<std::int64_t>(n, -1));
  std::vector<double> lt(n, 0.0);

  for (int step = 0; step < 120; ++step) {
    const ProcId v = static_cast<ProcId>(rng.uniform_index(n));
    ProcId u = static_cast<ProcId>(rng.uniform_index(n));
    if (u == v) u = static_cast<ProcId>((u + 1) % n);
    lt[v] += rng.uniform(0.01, 0.3);
    lt[u] = std::max(lt[u], lt[v]) + rng.uniform(0.01, 0.2);

    // v sends to u; delivery is immediate (order-preserving lock-step).
    const EventRecord s = fac.send(v, lt[v], u);
    know[v][v] = s.id.seq;  // v's own send enters its past
    const EventBatch batch = protocols[v]->fill_message(u, s);
    ASSERT_EQ(protocols[u]->receive_message(v, batch), MergeVerdict::kMerged);
    const EventRecord r = fac.receive(u, lt[u], s);
    protocols[u]->record_own_event(r);
    // Model: u's past absorbs v's past, plus u's own receive.
    for (ProcId w = 0; w < n; ++w) {
      know[u][w] = std::max(know[u][w], know[v][w]);
    }
    know[u][u] = r.id.seq;

    // Lemma 3.1: the protocol's frontier equals the model's causal past.
    for (ProcId p = 0; p < n; ++p) {
      for (ProcId w = 0; w < n; ++w) {
        ASSERT_EQ(protocols[p]->known_seq(w), know[p][w])
            << "step " << step << " proc " << p << " about " << w;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomExchanges, HistoryLemma31Test,
                         ::testing::Range(0, 8));

// ------------------------------------------------------------- loss mode

class HistoryLossTest : public HistoryTest {
 protected:
  void SetUp() override {
    HistoryProtocol::Options opts;
    opts.loss_tolerant = true;
    build(2, opts);
  }
};

TEST_F(HistoryLossTest, LostMessageIsResentAfterRollback) {
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  // First message is lost: fill (advances C optimistically), never deliver.
  const EventRecord s1 = fac_->send(0, 1.0, 1);
  const EventBatch lost = protocols_[0]->fill_message(1, s1);
  EXPECT_EQ(lost.size(), 2u);
  // GC must NOT have discarded the unconfirmed events.
  EXPECT_EQ(protocols_[0]->history_size(), 2u);
  protocols_[0]->handle_loss(1);
  // Next message re-reports everything plus the new send.
  const EventRecord s2 = fac_->send(0, 2.0, 1);
  const EventBatch batch2 = protocols_[0]->fill_message(1, s2);
  EXPECT_EQ(batch2.size(), 3u);
  EXPECT_EQ(protocols_[1]->receive_message(0, batch2), MergeVerdict::kMerged);
  EXPECT_EQ(protocols_[1]->fresh().size(), 3u);
  EXPECT_EQ(protocols_[1]->gap_dropped(), 0u);
}

TEST_F(HistoryLossTest, ConfirmationReleasesBuffer) {
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  const EventRecord s1 = fac_->send(0, 1.0, 1);
  protocols_[0]->fill_message(1, s1);
  EXPECT_EQ(protocols_[0]->history_size(), 2u);  // held: unconfirmed
  protocols_[0]->confirm_delivery(1);
  EXPECT_EQ(protocols_[0]->history_size(), 0u);  // released
}

TEST_F(HistoryLossTest, GapDroppedRecordsRecoveredLater) {
  // Message 1 (lost) carries events; message 2 sent before detection has a
  // gap at the receiver; rollback then resends everything.
  protocols_[0]->record_own_event(fac_->internal(0, 0.5));
  const EventRecord s1 = fac_->send(0, 1.0, 1);
  protocols_[0]->fill_message(1, s1);  // lost in transit
  const EventRecord s2 = fac_->send(0, 1.5, 1);
  const EventBatch batch2 = protocols_[0]->fill_message(1, s2);
  ASSERT_EQ(batch2.size(), 1u);  // only the new send (optimistic C)
  EXPECT_EQ(protocols_[1]->receive_message(0, batch2), MergeVerdict::kMerged);
  EXPECT_TRUE(protocols_[1]->fresh().empty());  // unusable: gap
  EXPECT_EQ(protocols_[1]->gap_dropped(), 1u);
  // Detection reports: message 1 lost, message 2 delivered.
  protocols_[0]->handle_loss(1);
  protocols_[0]->confirm_delivery(1);
  const EventRecord s3 = fac_->send(0, 2.0, 1);
  const EventBatch batch3 = protocols_[0]->fill_message(1, s3);
  EXPECT_EQ(protocols_[1]->receive_message(0, batch3), MergeVerdict::kMerged);
  EXPECT_EQ(protocols_[1]->known_seq(0), 3);  // internal + 3 sends, all known
  EXPECT_EQ(protocols_[1]->fresh().size(), 4u);
}

TEST_F(HistoryLossTest, MisuseThrows) {
  EXPECT_THROW(protocols_[0]->confirm_delivery(1), std::logic_error);
  EXPECT_THROW(protocols_[0]->handle_loss(1), std::logic_error);
}

}  // namespace
}  // namespace driftsync
