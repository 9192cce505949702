// A durable Node ingests a data datagram without a heap allocation unless
// the datagram's persist rewrites the snapshot (DESIGN.md decision 12):
// an appended log record reuses the node's buffers, and the ack is
// encoded into a buffer the transport recycles.  This binary links the
// counting operator-new hook (driftsync_allochook), so the Node's
// msg_path_allocs counter sees every heap allocation its handler makes.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "core/optimal_csa.h"
#include "runtime/datagram.h"
#include "runtime/node.h"
#include "test_util.h"

namespace driftsync::runtime {
namespace {

/// One clock both nodes read; every read advances it by 1 µs, so no two
/// events share a reading and handlers take time.
class SharedClock final : public TimeSource {
 public:
  explicit SharedClock(double* now) : now_(now) {}
  [[nodiscard]] LocalTime now() const override {
    *now_ += 1e-6;
    return *now_;
  }

 private:
  double* now_;
};

/// Two transports wired back to back through one FIFO.  Delivered buffers
/// return to a pool that take_buffer() hands out again, as UdpTransport's
/// do, so a warm exchange allocates nothing in the transport.
class BackToBack {
 public:
  class End final : public Transport {
   public:
    End(BackToBack* wire, ProcId self) : wire_(wire), self_(self) {}
    void start(DatagramHandler handler) override {
      wire_->handlers_[self_] = std::move(handler);
    }
    void stop() override {}
    void set_timer(TimerHandler timer) override {
      wire_->timers_[self_] = std::move(timer);
    }
    void send(ProcId to, std::vector<std::uint8_t> bytes) override {
      wire_->queue_.push_back(Item{to, std::move(bytes)});
    }
    std::vector<std::uint8_t> take_buffer(ProcId /*to*/) override {
      if (wire_->pool_.empty()) return {};
      std::vector<std::uint8_t> b = std::move(wire_->pool_.back());
      wire_->pool_.pop_back();
      return b;
    }

   private:
    BackToBack* wire_;
    ProcId self_;
  };

  BackToBack() {
    queue_.reserve(64);
    pool_.reserve(64);
  }

  std::unique_ptr<Transport> end(ProcId self) {
    return std::make_unique<End>(this, self);
  }

  /// Runs both timers, then delivers until the queue is empty; `before`
  /// and `after` bracket every delivery, with its destination and bytes.
  template <typename Before, typename After>
  void pump(Before&& before, After&& after) {
    for (TimerHandler& t : timers_) {
      if (t) (void)t();
    }
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      Item item = std::move(queue_[i]);
      before(item.to, item.bytes);
      handlers_[item.to](item.bytes);
      after(item.to, item.bytes);
      item.bytes.clear();
      pool_.push_back(std::move(item.bytes));
    }
    queue_.clear();
  }

 private:
  struct Item {
    ProcId to = kInvalidProc;
    std::vector<std::uint8_t> bytes;
  };
  DatagramHandler handlers_[2];
  TimerHandler timers_[2];
  std::vector<Item> queue_;
  std::vector<std::vector<std::uint8_t>> pool_;
};

// Node 1 checkpoints; node 0 does not.  They poll each other every 30 ms
// or so (so each shows the other its history and both collect it; a poll
// waits out the fate timeout, so both are short), and after a
// warm-up every data datagram node 1 handles without rewriting its
// snapshot must cost its handler no allocation at all.
TEST(NodeAllocTest, LoggedDatagramCostsNoAllocation) {
  ASSERT_TRUE(alloc_stats::hooked());
  const driftsync::testing::CheckpointFiles files("node_alloc_test.ckpt");
  const std::string& path = files.path;
  const SystemSpec spec = driftsync::testing::two_node_spec();
  double now = 100.0;
  BackToBack wire;
  std::unique_ptr<Node> nodes[2];
  for (ProcId p = 0; p < 2; ++p) {
    NodeConfig cfg = driftsync::testing::node_config(p, spec, 0.02, 0.03, 0.03);
    if (p == 1) cfg.checkpoint_path = path;
    nodes[p] = std::make_unique<Node>(
        std::move(cfg), driftsync::testing::loss_tolerant_csa(),
        std::make_unique<SharedClock>(&now), wire.end(p));
    nodes[p]->start();
  }

  constexpr int kWarm = 2000;
  constexpr int kMeasured = 3000;
  NodeStats before;
  std::uint64_t measured = 0;
  std::uint64_t allocating = 0;
  std::uint64_t compacting = 0;
  for (int step = 0; step < kWarm + kMeasured; ++step) {
    now += 0.005;
    wire.pump(
        [&](ProcId to, const std::vector<std::uint8_t>&) {
          if (to == 1) before = nodes[1]->stats();
        },
        [&](ProcId to, const std::vector<std::uint8_t>& bytes) {
          if (to != 1 || step < kWarm ||
              !std::holds_alternative<DataMsg>(decode_datagram(bytes))) {
            return;
          }
          const NodeStats after = nodes[1]->stats();
          if (after.log_compactions != before.log_compactions) {
            ++compacting;
            return;
          }
          ++measured;
          const std::uint64_t spent =
              after.msg_path_allocs - before.msg_path_allocs;
          if (spent != 0) {
            ++allocating;
            ADD_FAILURE() << "data datagram " << after.dgrams_in
                          << " allocated " << spent << " times";
          }
        });
  }
  const NodeStats s = nodes[1]->stats();
  EXPECT_GT(measured, 200u);
  EXPECT_GT(compacting, 0u);
  EXPECT_EQ(allocating, 0u);
  EXPECT_EQ(s.checkpoint_failures, 0u);
  EXPECT_LT(nodes[1]->estimate().width(), 0.05);
}

}  // namespace
}  // namespace driftsync::runtime
