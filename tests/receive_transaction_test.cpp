// The validated receive is one transaction (DESIGN.md §6).  A forged
// record at ANY position of a batch must be refused without a trace:
//   * on_receive_validated returns false and cross_check_failures grows by
//     exactly one;
//   * checkpoint() is byte-identical to the image taken just before the
//     message, so every record merged or ingested ahead of the forgery was
//     undone;
//   * the next honest message leaves the victim byte-identical to a twin
//     that never saw the forgeries.
// Batches come from seeded gossip on the path 0 - 1 - 2 with the victim at
// its end: processor 2 hears only from 1, so by Lemma 3.2 every record of
// every batch it receives is new to it, and the first record of each
// processor's run has a predecessor the victim already holds.  The
// transaction does not depend on cross_validation, which only widens the
// screen: every case runs with the option on and with the daemon's off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/optimal_csa.h"
#include "test_util.h"

namespace driftsync {
namespace {

using Bytes = std::vector<std::uint8_t>;
using testing::EventFactory;

OptimalCsa::Options defended(bool cross_validation) {
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  opts.cross_validation = cross_validation;
  return opts;
}

/// How a forgery rewrites the record at the chosen position.
enum class Forgery {
  kClockBackwards,    ///< The engine refuses it mid-batch.
  kForeignProcessor,  ///< The history refuses it mid-merge.
};

void forge(EventRecord& r, Forgery how) {
  switch (how) {
    case Forgery::kClockBackwards:
      r.lt -= 1000.0;
      break;
    case Forgery::kForeignProcessor:
      r.id.proc = 50;
      break;
  }
}

class ForgedBatches : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void run(bool cross_validation);
};

TEST_P(ForgedBatches, ForgedRecordAtEveryPositionIsRolledBack) { run(true); }

TEST_P(ForgedBatches,
       ForgedRecordAtEveryPositionIsRolledBackWithoutCrossValidation) {
  run(false);
}

void ForgedBatches::run(bool cross_validation) {
  constexpr ProcId kVictim = 2;
  const SystemSpec spec = testing::line_spec(3, 1e-4, 0.001, 0.02);
  Rng rng(GetParam());
  EventFactory fac(3);
  OptimalCsa p0;
  OptimalCsa p1;
  OptimalCsa victim(defended(cross_validation));
  OptimalCsa twin(defended(cross_validation));
  p0.init(spec, 0);
  p1.init(spec, 1);
  victim.init(spec, kVictim);
  twin.init(spec, kVictim);
  // All clocks run at rate 1 from their offsets; real time is `now`.
  const double offset[3] = {0.0, rng.uniform(-5.0, 5.0),
                            rng.uniform(-5.0, 5.0)};
  double now = 1.0;
  const auto lt = [&](ProcId p) { return now + offset[p]; };
  const auto transit = [&] { now += rng.uniform(0.002, 0.019); };

  std::size_t forged = 0;
  std::size_t longest = 0;  // Batch length: forgeries behind merged records.
  for (int step = 0; step < 120; ++step) {
    now += rng.uniform(0.01, 0.1);
    const auto pick = rng.uniform_index(4);
    if (pick == 0 || pick == 1) {
      // 0 <-> 1.
      const ProcId from = pick == 0 ? 0 : 1;
      const ProcId to = 1 - from;
      OptimalCsa& s = from == 0 ? p0 : p1;
      OptimalCsa& r = from == 0 ? p1 : p0;
      const EventRecord send = fac.send(from, lt(from), to);
      const CsaPayload payload = s.on_send(SendContext{from, to, send, 0});
      transit();
      const EventRecord recv = fac.receive(to, lt(to), send);
      r.on_receive(RecvContext{to, from, recv, send, 0}, payload);
      continue;
    }
    if (pick == 2) {
      // The victim reports to 1; its twin sends the same message.
      const EventRecord send = fac.send(kVictim, lt(kVictim), 1);
      const CsaPayload payload =
          victim.on_send(SendContext{kVictim, 1, send, 0});
      ASSERT_EQ(twin.on_send(SendContext{kVictim, 1, send, 0}).reports,
                payload.reports);
      transit();
      const EventRecord recv = fac.receive(1, lt(1), send);
      p1.on_receive(RecvContext{1, kVictim, recv, send, 0}, payload);
      victim.on_delivery_confirmed(1);
      twin.on_delivery_confirmed(1);
      continue;
    }
    // 1 -> victim: first every forgery of this batch, then the honest one.
    const EventRecord send = fac.send(1, lt(1), kVictim);
    const CsaPayload honest = p1.on_send(SendContext{1, kVictim, send, 0});
    transit();
    const EventRecord recv = fac.receive(kVictim, lt(kVictim), send);
    const RecvContext ctx{kVictim, 1, recv, send, 0};
    for (const EventRecord& r : honest.reports) {
      ASSERT_GT(static_cast<std::int64_t>(r.id.seq),
                victim.history().known_seq(r.id.proc))
          << "every record must be new to the victim";
    }
    if (step >= 10) {
      longest = std::max(longest, honest.reports.size());
      for (std::size_t i = 0; i < honest.reports.size(); ++i) {
        for (const Forgery how :
             {Forgery::kClockBackwards, Forgery::kForeignProcessor}) {
          CsaPayload lie = honest;
          forge(lie.reports[i], how);
          const Bytes before = victim.checkpoint();
          const std::uint64_t failures = victim.stats().cross_check_failures;
          ASSERT_FALSE(victim.on_receive_validated(ctx, lie))
              << "position " << i << " of " << honest.reports.size();
          EXPECT_EQ(victim.stats().cross_check_failures, failures + 1);
          ASSERT_EQ(victim.checkpoint(), before)
              << "position " << i << " of " << honest.reports.size();
          ++forged;
        }
      }
    }
    ASSERT_TRUE(victim.on_receive_validated(ctx, honest));
    ASSERT_TRUE(twin.on_receive_validated(ctx, honest));
    ASSERT_EQ(victim.checkpoint(), twin.checkpoint()) << "step " << step;
    const Interval a = victim.estimate(lt(kVictim));
    const Interval b = twin.estimate(lt(kVictim));
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
  }
  EXPECT_EQ(twin.stats().cross_check_failures, 0u);
  EXPECT_EQ(victim.stats().cross_check_failures, forged);
  EXPECT_GT(forged, 100u);
  EXPECT_GE(longest, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForgedBatches,
                         ::testing::Range<std::uint64_t>(1, 5));

}  // namespace
}  // namespace driftsync
