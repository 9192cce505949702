// A Hub run delivers a datagram by moving it out of the queue: once sent,
// a datagram costs no further heap allocation on its way to the handler.
// This binary links the counting operator-new hook (driftsync_allochook),
// so alloc_stats::allocations() sees every heap allocation in the process.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/alloc_stats.h"
#include "runtime/hub.h"

namespace driftsync::runtime {
namespace {

TEST(HubAllocTest, DeliveryCostsNoAllocationPerDatagram) {
  ASSERT_TRUE(alloc_stats::hooked());
  constexpr std::size_t kDatagrams = 100;
  Hub hub(3);
  hub.set_link(0, 1, 0.001, 0.004);
  const auto sender = hub.endpoint(0);
  const auto receiver = hub.endpoint(1);
  sender->start([](std::span<const std::uint8_t>) {});
  std::size_t delivered = 0;
  std::size_t bytes = 0;
  receiver->start([&](std::span<const std::uint8_t> d) {
    ++delivered;
    bytes += d.size();
  });
  for (std::size_t i = 0; i < kDatagrams; ++i) {
    sender->send(1,
                 std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(i)));
  }

  const std::uint64_t before = alloc_stats::allocations();
  hub.run_for(1.0);
  const std::uint64_t spent = alloc_stats::allocations() - before;
  EXPECT_EQ(delivered, kDatagrams);
  EXPECT_EQ(bytes, 64 * kDatagrams);
  // run_until lists the endpoints once; nothing is allocated per datagram.
  EXPECT_LE(spent, 2u);
  sender->stop();
  receiver->stop();
}

}  // namespace
}  // namespace driftsync::runtime
