// Tests for the compact wire encoding of report batches (the Section 3.1
// bit-complexity remark made concrete).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "core/wire.h"
#include "runtime/datagram.h"
#include "test_util.h"

namespace driftsync::wire {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, 0xffffffffull,
        0xffffffffffffffffull}) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    std::size_t offset = 0;
    EXPECT_EQ(get_varint(buf, offset), v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(VarintTest, TruncatedThrows) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 300);
  buf.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW(get_varint(buf, offset), WireError);
}

// The one-byte fast path: every byte below 0x80 is a whole varint.
TEST(VarintTest, EveryOneByteValueDecodes) {
  for (unsigned b = 0; b < 0x80; ++b) {
    const std::uint8_t buf[] = {static_cast<std::uint8_t>(b)};
    std::size_t offset = 0;
    EXPECT_EQ(get_varint(buf, offset), b);
    EXPECT_EQ(offset, 1u);
  }
}

// The fast path must not swallow what the slow path refuses.
TEST(VarintTest, OverLongAndOverflowingEncodingsThrow) {
  for (const std::vector<std::uint8_t>& bad :
       {std::vector<std::uint8_t>{0x80, 0x00},
        std::vector<std::uint8_t>{0xff, 0x80, 0x00},
        std::vector<std::uint8_t>{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                  0xff, 0xff, 0x02},
        std::vector<std::uint8_t>{0x80}}) {
    std::size_t offset = 0;
    EXPECT_THROW(get_varint(bad, offset), WireError);
  }
  // An offset at the end of the buffer is a truncation, not a read past it.
  const std::uint8_t one[] = {0x05};
  std::size_t offset = 1;
  EXPECT_THROW(get_varint(one, offset), WireError);
}

// get_double's 8-byte load reads what a little-endian byte loop reads, on
// the bit patterns where a byte-order or sign slip would show.
TEST(WireTest, DoubleLoadMatchesByteLoop) {
  const auto byte_loop = [](const std::uint8_t* p) {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return bits;
  };
  const double specials[] = {0.0,
                             -0.0,
                             1.0,
                             -1.5,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest()};
  std::vector<std::uint64_t> patterns = {0x0123456789abcdefull,
                                         0x8000000000000001ull,
                                         0x7ff0000000000001ull,
                                         0xfff8000000000000ull,
                                         0xffffffffffffffffull, 0x80ull};
  for (const double d : specials) {
    patterns.push_back(std::bit_cast<std::uint64_t>(d));
  }
  for (const std::uint64_t bits : patterns) {
    std::vector<std::uint8_t> buf = {0xaa};  // An unaligned start.
    put_double(buf, std::bit_cast<double>(bits));
    ASSERT_EQ(byte_loop(buf.data() + 1), bits);
    std::size_t offset = 1;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(get_double(buf, offset)), bits);
    EXPECT_EQ(offset, 9u);
    offset = 2;  // Seven bytes left: truncated.
    EXPECT_THROW(get_double(buf, offset), WireError);
  }
}

TEST(WireTest, EmptyBatch) {
  const auto bytes = encode_batch({});
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_TRUE(decode_batch(bytes).empty());
}

TEST(WireTest, RoundTripAllKinds) {
  testing::EventFactory fac(4);
  EventBatch batch;
  batch.push_back(fac.internal(2, 1.5));
  const EventRecord s = fac.send(0, 2.25, 3);
  batch.push_back(s);
  batch.push_back(fac.receive(3, 3.75, s));
  const EventRecord s2 = fac.send(0, 4.0, 1);
  batch.push_back(s2);
  batch.push_back(fac.loss_decl(0, 5.0, s2));
  const auto bytes = encode_batch(batch);
  EXPECT_EQ(decode_batch(bytes), batch);
  EXPECT_EQ(bytes.size(), encoded_size(batch));
}

TEST(WireTest, ContiguousRunsCompressWell) {
  // The history protocol ships contiguous per-processor runs: seq deltas and
  // proc repeats should collapse to the flag byte.
  testing::EventFactory fac(2);
  EventBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(fac.internal(1, 10.0 + i));
  }
  const auto bytes = encode_batch(batch);
  // flags(1) + lt(8) per record after the first, plus tiny header.
  EXPECT_LE(bytes.size(), 100u * 9u + 8u);
  EXPECT_LT(bytes.size(), batch.size() * kEventRecordWireBytes / 2);
  EXPECT_EQ(decode_batch(bytes), batch);
}

TEST(WireTest, TruncationThrows) {
  testing::EventFactory fac(2);
  const auto bytes = encode_batch({fac.internal(0, 1.0)});
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decode_batch(prefix), WireError) << "cut=" << cut;
  }
}

TEST(WireTest, TrailingBytesThrow) {
  testing::EventFactory fac(2);
  auto bytes = encode_batch({fac.internal(0, 1.0)});
  bytes.push_back(0);
  EXPECT_THROW(decode_batch(bytes), WireError);
}

TEST(WireTest, SpecialDoubleValues) {
  testing::EventFactory fac(2);
  EventBatch batch;
  EventRecord r = fac.internal(0, 0.0);
  r.lt = -0.0;
  batch.push_back(r);
  const auto decoded = decode_batch(encode_batch(batch));
  EXPECT_EQ(std::signbit(decoded[0].lt), true);
}

TEST(WireTest, ReceiveSlackRoundTrips) {
  testing::EventFactory fac(2);
  const EventRecord s = fac.send(0, 1.0, 1);
  EventBatch batch{s, fac.receive(1, 2.0, s, 0.0625)};
  const auto bytes = encode_batch(batch);
  EXPECT_EQ(bytes.size(), encoded_size(batch));
  EXPECT_EQ(decode_batch(bytes), batch);
  // Zero slack costs zero bytes: the flag (and its double) are absent.
  EventBatch no_slack{s, fac.receive(1, 2.0, s)};
  no_slack[1].id = batch[1].id;  // same ids, only the slack differs
  EXPECT_EQ(encoded_size(no_slack) + 8, encoded_size(batch));
}

TEST(WireTest, SlackFlagOnNonReceiveThrows) {
  testing::EventFactory fac(2);
  auto bytes = encode_batch({fac.internal(0, 1.0)});
  bytes[1] |= 0x10;  // force the slack flag onto an internal record
  for (int i = 0; i < 8; ++i) bytes.push_back(0);
  EXPECT_THROW(decode_batch(bytes), WireError);
}

TEST(WireTest, NonCanonicalSlackThrows) {
  testing::EventFactory fac(2);
  const EventRecord s = fac.send(0, 1.0, 1);
  EventBatch batch{s, fac.receive(1, 2.0, s, 0.5)};
  const auto bytes = encode_batch(batch);
  // The slack double is the final 8 bytes of the last record.  Zero must
  // be spelled as "no flag", negatives and NaN never leave an encoder.
  for (const double bad : {0.0, -0.25,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto mutated = bytes;
    mutated.resize(mutated.size() - 8);
    put_double(mutated, bad);
    EXPECT_THROW(decode_batch(mutated), WireError);
  }
}

// One DataMsg decoded into over and over, as a Node does: each decode
// rewrites every field, so nothing of the previous datagram shows through
// (a shorter batch, a missing trace extension, no scalars).
TEST(WireTest, DecodeIntoReusedTargetLeaksNothing) {
  using runtime::DataMsg;
  testing::EventFactory fac(3);
  DataMsg large;
  large.from = 2;
  large.dgram_seq = 40;
  large.processed_hw = 7;
  large.seen_hw = 9;
  large.app_tag = 5;
  large.send_seq = 33;
  large.send_lt = 12.5;
  large.trace_id = 0xfeedull;
  for (int i = 0; i < 40; ++i) {
    const EventRecord s = fac.send(0, 1.0 + i, 1);
    large.payload.reports.push_back(s);
    large.payload.reports.push_back(fac.receive(1, 1.5 + i, s, 0.25));
  }
  large.payload.scalars = {1.0, -2.0, 3.5};
  DataMsg small;
  small.from = 1;
  small.dgram_seq = 3;
  small.send_lt = 0.25;
  small.payload.reports = {fac.internal(2, 4.0)};

  DataMsg target;
  const auto decode_into = [&target](const DataMsg& m) {
    const std::vector<std::uint8_t> bytes =
        runtime::encode_datagram(runtime::Datagram{m});
    const std::span<const std::uint8_t> observed =
        runtime::decode_data_into(target, bytes);
    EXPECT_FALSE(observed.empty());
    EXPECT_EQ(target, m);
    EXPECT_EQ(target, std::get<DataMsg>(runtime::decode_datagram(bytes)));
  };
  decode_into(large);
  const std::size_t capacity = target.payload.reports.capacity();
  decode_into(small);
  EXPECT_EQ(target.payload.reports.size(), 1u);
  EXPECT_EQ(target.trace_id, 0u);
  EXPECT_TRUE(target.payload.scalars.empty());
  EXPECT_EQ(target.payload.reports.capacity(), capacity);  // Kept for reuse.
  decode_into(large);
  decode_into(small);

  // Another type leaves the target alone; a rejected datagram is refused
  // and the next valid one still decodes exactly.
  const DataMsg before = target;
  const std::vector<std::uint8_t> ack =
      runtime::encode_datagram(runtime::Datagram{runtime::AckMsg{1, 2, 3}});
  EXPECT_TRUE(runtime::decode_data_into(target, ack).empty());
  EXPECT_EQ(target, before);
  std::vector<std::uint8_t> cut =
      runtime::encode_datagram(runtime::Datagram{large});
  cut.pop_back();
  EXPECT_THROW((void)runtime::decode_data_into(target, cut), WireError);
  decode_into(small);
}

// The observation span runs from app_tag to the payload's end: the
// piggybacked ack and the trace extension lie outside it.
TEST(WireTest, ObservationSpanExcludesAckAndTrace) {
  runtime::DataMsg m;
  m.from = 1;
  m.dgram_seq = 2;
  m.processed_hw = 300;  // Two varint bytes.
  m.seen_hw = 301;
  m.send_lt = 1.0;
  m.trace_id = 77;
  const std::vector<std::uint8_t> bytes =
      runtime::encode_datagram(runtime::Datagram{m});
  runtime::DataMsg target;
  const std::span<const std::uint8_t> observed =
      runtime::decode_data_into(target, bytes);
  // Header 4, from 1, dgram_seq 1, two 2-byte high-waters.
  EXPECT_EQ(observed.data(), bytes.data() + 10);
  // The trace extension: flag byte + one varint byte.
  EXPECT_EQ(observed.data() + observed.size(),
            bytes.data() + bytes.size() - 2);
  m.processed_hw = 5;
  m.seen_hw = 6;
  m.trace_id = 0;
  const std::vector<std::uint8_t> bare =
      runtime::encode_datagram(runtime::Datagram{m});
  runtime::DataMsg other;
  const std::span<const std::uint8_t> same =
      runtime::decode_data_into(other, bare);
  EXPECT_TRUE(std::equal(observed.begin(), observed.end(), same.begin(),
                         same.end()));
}

class WirePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WirePropertyTest, RandomBatchesRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) *
              std::uint64_t{2654435761} + 7);
  const std::size_t procs = 2 + rng.uniform_index(6);
  testing::EventFactory fac(procs);
  std::vector<EventRecord> sends;
  EventBatch batch;
  double t = 0.0;
  const std::size_t n = rng.uniform_index(200);
  for (std::size_t i = 0; i < n; ++i) {
    const ProcId p = static_cast<ProcId>(rng.uniform_index(procs));
    t += rng.uniform(0.0, 1.0);
    const double action = rng.next_double();
    if (action < 0.4) {
      ProcId q = static_cast<ProcId>(rng.uniform_index(procs));
      if (q == p) q = static_cast<ProcId>((q + 1) % procs);
      sends.push_back(fac.send(p, t, q));
      batch.push_back(sends.back());
    } else if (action < 0.6 && !sends.empty()) {
      const EventRecord s = sends[rng.uniform_index(sends.size())];
      // Half the receives carry a processing-slack annotation.
      const double slack =
          rng.next_double() < 0.5 ? rng.uniform(1e-6, 0.25) : 0.0;
      batch.push_back(fac.receive(s.peer, t, s, slack));
    } else {
      batch.push_back(fac.internal(p, t));
    }
  }
  const auto bytes = encode_batch(batch);
  EXPECT_EQ(bytes.size(), encoded_size(batch));
  EXPECT_EQ(decode_batch(bytes), batch);
}

INSTANTIATE_TEST_SUITE_P(RandomBatches, WirePropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace driftsync::wire
