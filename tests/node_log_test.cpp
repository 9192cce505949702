// The durable Node's snapshot and write-ahead log (DESIGN.md decision 12):
// a restart from a snapshot plus its log segment restores exactly what the
// live node held, a crash anywhere in the segment restores the last
// complete record, a segment that names another snapshot is never
// replayed, and a persist that fails lets no ack out.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/errors.h"
#include "core/optimal_csa.h"
#include "runtime/datagram.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "test_util.h"
#include "workloads/topology.h"

namespace driftsync::runtime {
namespace {

using driftsync::testing::CheckpointFiles;
using driftsync::testing::kRecordFrameBytes;
using driftsync::testing::kSegmentHeaderBytes;
using driftsync::testing::loss_tolerant;
using driftsync::testing::loss_tolerant_csa;
using driftsync::testing::node_config;
using driftsync::testing::read_bytes;
using driftsync::testing::record_ends;
using driftsync::testing::two_node_spec;
using driftsync::testing::with_record_body;
using driftsync::testing::write_bytes;

/// A local clock the test sets by hand.
class HandClock final : public TimeSource {
 public:
  explicit HandClock(std::shared_ptr<double> now) : now_(std::move(now)) {}
  [[nodiscard]] LocalTime now() const override { return *now_; }

 private:
  std::shared_ptr<double> now_;
};

/// Hands the test the Node's datagram handler; what the Node sends lands
/// in `sent`, one buffer per datagram.
class HandTransport final : public Transport {
 public:
  HandTransport(DatagramHandler* handler,
                std::vector<std::vector<std::uint8_t>>* sent)
      : handler_(handler), sent_(sent) {}
  void start(DatagramHandler handler) override {
    *handler_ = std::move(handler);
  }
  void stop() override {}
  void send(ProcId /*to*/, std::vector<std::uint8_t> bytes) override {
    sent_->push_back(std::move(bytes));
  }

 private:
  DatagramHandler* handler_;
  std::vector<std::vector<std::uint8_t>>* sent_;
};

/// Node 1 of two_node_spec(), durable at `path`, on a hand-set clock; its
/// polls are parked, so it sends nothing but acks.
struct HandNode {
  std::shared_ptr<double> clock = std::make_shared<double>(0.0);
  DatagramHandler handler;
  std::vector<std::vector<std::uint8_t>> sent;
  std::unique_ptr<Node> node;

  explicit HandNode(const std::string& path, double now = 0.0) {
    *clock = now;
    NodeConfig cfg = node_config(1, two_node_spec(), 1e9, 1e9, 1e9);
    cfg.checkpoint_path = path;
    node = std::make_unique<Node>(std::move(cfg), loss_tolerant_csa(),
                                  std::make_unique<HandClock>(clock),
                                  std::make_unique<HandTransport>(&handler,
                                                                  &sent));
  }
};

/// Node 0 of two_node_spec(), the source, as the messages it sends node 1.
/// Message k leaves at real time 10 + 0.05 k and node 1 reads it 10 ms
/// later on a clock 40 s ahead.
class Source {
 public:
  Source() { csa_.init(spec_, 0); }

  /// The next message's bytes; sets `node_clock` to its arrival reading.
  std::vector<std::uint8_t> next(double& node_clock) {
    const double send_rt = 10.0 + 0.05 * static_cast<double>(k_);
    EventRecord send;
    send.id = EventId{0, k_};
    send.lt = send_rt;
    send.kind = EventKind::kSend;
    send.peer = 1;
    DataMsg msg;
    msg.from = 0;
    msg.dgram_seq = 1 + k_;
    msg.send_seq = k_;
    msg.send_lt = send_rt;
    msg.payload = csa_.on_send(SendContext{0, 1, send, 0});
    node_clock = send_rt + 0.01 + 40.0;
    ++k_;
    return encode_datagram(Datagram{msg});
  }

 private:
  SystemSpec spec_ = two_node_spec();  // The CSA keeps a reference.
  OptimalCsa csa_;
  std::uint32_t k_ = 0;
};

/// The image node 1 restores from `snapshot` and `segment` (none when
/// empty) written at `path`, and the records it replayed.
std::vector<std::uint8_t> restored_image(const std::string& path,
                                         std::span<const std::uint8_t> snapshot,
                                         std::span<const std::uint8_t> segment,
                                         std::uint64_t* replayed = nullptr) {
  write_bytes(path, snapshot);
  std::remove((path + ".log").c_str());
  if (!segment.empty()) write_bytes(path + ".log", segment);
  HandNode restarted(path, 1e6);
  restarted.node->start();
  if (replayed != nullptr) *replayed = restarted.node->stats().log_replayed;
  return restarted.node->snapshot_image();
}

// A crash can cut the segment anywhere: mid-header, mid-frame, mid-body.
// Cut (and, separately, torn — the lost tail overwritten with garbage)
// at every byte, the restart restores the image the live node held after
// the last complete record, and replays exactly the records since the
// snapshot.  An ack leaves only after its record is synced, so every id
// the node announced is in that image: a restart re-mints only ids nobody
// saw, and given the same clock reading it re-mints them identically.
TEST(NodeLog, CrashAtEveryByteRestoresTheLastCompleteRecord) {
  const CheckpointFiles live("node_log_test_crash.ckpt");
  const CheckpointFiles copy("node_log_test_crash_copy.ckpt");
  HandNode n(live.path);
  n.node->start();
  Source source;
  std::vector<std::vector<std::uint8_t>> messages;
  // images[k]: the live image after the k-th record of the open segment.
  std::vector<std::vector<std::uint8_t>> images;
  std::uint64_t compactions = 0;
  while (images.size() < 6 || compactions < 2) {
    ASSERT_LT(messages.size(), 500u) << "the segment never grew";
    messages.push_back(source.next(*n.clock));
    n.handler(messages.back());
    const NodeStats s = n.node->stats();
    if (s.log_compactions != compactions) {
      compactions = s.log_compactions;
      images.clear();
    }
    images.push_back(n.node->snapshot_image());
  }
  EXPECT_EQ(n.node->stats().checkpoint_failures, 0u);
  n.node.reset();

  const std::vector<std::uint8_t> snapshot = read_bytes(live.path);
  const std::vector<std::uint8_t> segment = read_bytes(live.path + ".log");
  EXPECT_EQ(snapshot, images.front());
  const std::vector<std::size_t> ends = record_ends(segment);
  ASSERT_EQ(ends.size() + 1, images.size());
  ASSERT_EQ(ends.back(), segment.size());

  for (std::size_t cut = 0; cut <= segment.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;
    std::vector<std::uint8_t> torn = segment;
    torn.resize(cut);
    std::uint64_t replayed = 0;
    EXPECT_EQ(restored_image(copy.path, snapshot, torn, &replayed),
              images[complete]);
    EXPECT_EQ(replayed, complete);
    for (std::size_t i = cut; i < segment.size(); ++i) {
      torn.push_back(static_cast<std::uint8_t>(~segment[i]));
    }
    EXPECT_EQ(restored_image(copy.path, snapshot, torn, &replayed),
              images[complete]);
    EXPECT_EQ(replayed, complete);
  }

  // From each record boundary, the next message is re-received as the
  // live node received it.
  const std::size_t first = messages.size() - images.size() + 1;
  for (std::size_t k = 0; k + 1 < images.size(); ++k) {
    SCOPED_TRACE("restart after record " + std::to_string(k));
    write_bytes(copy.path, snapshot);
    write_bytes(copy.path + ".log",
                std::span(segment).first(k == 0 ? kSegmentHeaderBytes
                                                : ends[k - 1]));
    HandNode restarted(copy.path, 1e6);
    restarted.node->start();
    ASSERT_EQ(restarted.node->snapshot_image(), images[k]);
    double clock = 0.0;
    Source replica;
    for (std::size_t m = 0; m <= first + k; ++m) (void)replica.next(clock);
    *restarted.clock = clock;
    restarted.handler(messages[first + k]);
    EXPECT_EQ(restarted.node->snapshot_image(), images[k + 1]);
  }
}

// A checksum says the bytes are the ones written, not that a node wrote
// them.  One call more at the end of a record, with the CRC chain
// recomputed, must be refused as a bad checkpoint: a delivery confirm
// with no datagram outstanding used to reach HistoryProtocol's DS_CHECK
// and escape as std::logic_error.  Every call tag (1-6, and 7, which is
// none), on the peer, on the node itself and out of range.
TEST(NodeLog, ForgedRecordIsRefusedAsABadCheckpoint) {
  const CheckpointFiles live("node_log_test_forged.ckpt");
  const CheckpointFiles copy("node_log_test_forged_copy.ckpt");
  HandNode n(live.path);
  n.node->start();
  Source source;
  while (n.node->stats().log_records < 3) n.handler(source.next(*n.clock));
  n.node.reset();
  const std::vector<std::uint8_t> snapshot = read_bytes(live.path);
  const std::vector<std::uint8_t> segment = read_bytes(live.path + ".log");
  const std::vector<std::size_t> ends = record_ends(segment);
  ASSERT_FALSE(ends.empty());
  const std::size_t last = ends.size() - 1;
  const std::size_t body_at =
      (last == 0 ? kSegmentHeaderBytes : ends[last - 1]) + kRecordFrameBytes;
  std::uint64_t replayed = 0;
  const std::vector<std::uint8_t> intact =
      restored_image(copy.path, snapshot, segment, &replayed);
  EXPECT_EQ(replayed, ends.size());
  for (std::uint8_t tag = 1; tag <= 7; ++tag) {
    for (std::uint8_t peer = 0; peer <= 2; ++peer) {
      SCOPED_TRACE("tag " + std::to_string(tag) + ", peer " +
                   std::to_string(peer));
      std::vector<std::uint8_t> body(
          segment.begin() + static_cast<std::ptrdiff_t>(body_at),
          segment.end());
      body.push_back(tag);
      body.push_back(peer);
      EXPECT_THROW((void)restored_image(
                       copy.path, snapshot,
                       with_record_body(segment, ends, last, body)),
                   CheckpointError);
    }
  }
  // The re-framing itself forges nothing: the same body re-framed
  // restores the same image.
  const std::vector<std::uint8_t> same(
      segment.begin() + static_cast<std::ptrdiff_t>(body_at), segment.end());
  EXPECT_EQ(restored_image(copy.path, snapshot,
                           with_record_body(segment, ends, last, same)),
            intact);
}

// A segment counts only beside the snapshot it names.  An older snapshot
// next to a newer segment restores the snapshot alone, and a node with no
// snapshot starts fresh and truncates whatever segment it finds.  The
// snapshot format is the one a node without a log wrote: an image with
// no segment beside it loads as it is.
TEST(NodeLog, StaleSegmentIsNeverReplayed) {
  const CheckpointFiles live("node_log_test_stale.ckpt");
  const CheckpointFiles copy("node_log_test_stale_copy.ckpt");
  HandNode n(live.path);
  n.node->start();
  Source source;
  std::vector<std::uint8_t> first_snapshot;
  std::vector<std::uint8_t> first_segment;
  while (n.node->stats().log_compactions < 2 ||
         n.node->stats().log_bytes <= 16) {
    ASSERT_LT(n.node->stats().dgrams_in, 500u);
    n.handler(source.next(*n.clock));
    if (n.node->stats().log_compactions == 1) {
      first_snapshot = read_bytes(live.path);
      first_segment = read_bytes(live.path + ".log");
    }
  }
  const std::vector<std::uint8_t> segment = read_bytes(live.path + ".log");
  ASSERT_FALSE(first_snapshot.empty());
  ASSERT_NE(first_snapshot, read_bytes(live.path));

  std::uint64_t replayed = 1;
  const std::vector<std::uint8_t> alone =
      restored_image(copy.path, first_snapshot, {}, &replayed);
  EXPECT_EQ(alone, first_snapshot);
  EXPECT_EQ(replayed, 0u);
  EXPECT_EQ(restored_image(copy.path, first_snapshot, segment, &replayed),
            alone);
  EXPECT_EQ(replayed, 0u);
  // The first segment, by contrast, extends the first snapshot.
  EXPECT_NE(restored_image(copy.path, first_snapshot, first_segment,
                           &replayed),
            alone);
  EXPECT_GT(replayed, 0u);

  std::remove(copy.path.c_str());
  write_bytes(copy.path + ".log", segment);
  HandNode fresh(copy.path, 1e6);
  fresh.node->start();
  EXPECT_EQ(fresh.node->stats().log_replayed, 0u);
  EXPECT_EQ(fresh.node->stats().events, 0u);
  EXPECT_TRUE(read_bytes(copy.path + ".log").empty());
}

// A snapshot a node wrote before it kept a log (three messages from the
// Source below, persisted by the previous release), with no segment
// beside it, still loads: the snapshot format did not change.  The node
// restores it byte for byte and goes on from it as the node that wrote it
// would have.
TEST(NodeLog, SnapshotWithoutALogStillLoads) {
  const CheckpointFiles live("node_log_test_old_snapshot.ckpt");
  const char* hex =
      "44534e4402010203ae47e17a140e494001000101030300800191ae3501020303"
      "01000300002703010100e17a14ae470149400000000d48e17a14ae0749400000"
      "010dae47e17a140e49400000020300000097ac39010203031b02000002333333"
      "333333244001010102ae47e17a140e494000000201000000000000000000e17a"
      "14ae470144407b14ae47e1fa43c00000000000000000020027";
  std::vector<std::uint8_t> old_snapshot;
  for (const char* c = hex; c[0] != '\0'; c += 2) {
    old_snapshot.push_back(
        static_cast<std::uint8_t>(std::stoi(std::string(c, 2), nullptr, 16)));
  }
  write_bytes(live.path, old_snapshot);
  HandNode n(live.path, 50.11);  // The third message's arrival reading.
  n.node->start();
  EXPECT_EQ(n.node->snapshot_image(), old_snapshot);
  EXPECT_EQ(n.node->stats().log_replayed, 0u);

  // The same three messages delivered to a fresh node give the same image.
  const CheckpointFiles again("node_log_test_old_snapshot_again.ckpt");
  HandNode twin(again.path);
  twin.node->start();
  Source source;
  for (int i = 0; i < 3; ++i) twin.handler(source.next(*twin.clock));
  EXPECT_EQ(twin.node->snapshot_image(), old_snapshot);

  // The fourth is received on top of the old snapshot exactly as on top
  // of the live state.
  const std::vector<std::uint8_t> fourth = source.next(*twin.clock);
  *n.clock = *twin.clock;
  n.handler(fourth);
  twin.handler(fourth);
  ASSERT_EQ(n.sent.size(), 1u);
  EXPECT_EQ(n.node->snapshot_image(), twin.node->snapshot_image());
}

// In a seeded mesh run, a restart from the files after any step restores
// what the live node holds: the same image as a restart from a snapshot
// of the live node taken at that moment.  (The live node's own image can
// differ in one way only: a restart resumes every unresolved fate as
// aborting.)
TEST(NodeLog, MeshRestartFromSnapshotPlusSegmentMatchesTheLiveNode) {
  const CheckpointFiles copy("node_log_test_mesh_copy.ckpt");
  const CheckpointFiles reference("node_log_test_mesh_reference.ckpt");
  const SystemSpec spec =
      workloads::make_ring(3, {.rho = 5e-4,
                               .latency = sim::LatencyModel::uniform(0.0, 0.05)})
          .spec;
  Mesh mesh(spec, 7);
  const double offsets[3] = {0.0, 3.0, -2.0};
  const double rates[3] = {1.0, 1.0 + 2e-4, 1.0 - 2e-4};
  for (ProcId p = 0; p < 3; ++p) {
    NodeConfig cfg = node_config(p, spec, 0.04, 0.25, 0.08);
    if (p == 1) cfg.checkpoint_path = mesh.checkpoint_path(1);
    mesh.add(std::move(cfg), loss_tolerant(), offsets[p], rates[p]);
  }
  mesh.start();
  const std::string& path = mesh.checkpoint_path(1);
  const auto restart = [&](const std::string& at,
                           std::span<const std::uint8_t> snapshot,
                           std::span<const std::uint8_t> segment,
                           std::uint64_t* replayed) {
    write_bytes(at, snapshot);
    std::remove((at + ".log").c_str());
    if (!segment.empty()) write_bytes(at + ".log", segment);
    NodeConfig cfg = node_config(1, spec);
    cfg.checkpoint_path = at;
    std::vector<std::vector<std::uint8_t>> sent;
    DatagramHandler handler;
    Node node(std::move(cfg), std::make_unique<OptimalCsa>(loss_tolerant()),
              std::make_unique<HandClock>(std::make_shared<double>(1e6)),
              std::make_unique<HandTransport>(&handler, &sent));
    node.start();
    if (replayed != nullptr) *replayed = node.stats().log_replayed;
    return node.snapshot_image();
  };
  std::uint64_t persists = 0;
  std::uint64_t restarts = 0;
  std::uint64_t replayed_total = 0;
  for (int step = 0; step < 2000; ++step) {
    mesh.hub().run_for(0.002);
    const NodeStats s = mesh.node(1).stats();
    if (s.checkpoints_written == persists) continue;
    persists = s.checkpoints_written;
    SCOPED_TRACE("step " + std::to_string(step));
    std::uint64_t replayed = 0;
    const std::vector<std::uint8_t> from_log = restart(
        copy.path, read_bytes(path), read_bytes(path + ".log"), &replayed);
    const std::vector<std::uint8_t> from_live =
        restart(reference.path, mesh.node(1).snapshot_image(), {}, nullptr);
    ASSERT_EQ(from_log, from_live);
    ++restarts;
    replayed_total += replayed;
  }
  const NodeStats s = mesh.node(1).stats();
  EXPECT_GT(restarts, 50u);
  EXPECT_GE(s.log_compactions, 2u);
  EXPECT_GT(s.log_records, 2 * s.log_compactions);
  EXPECT_GT(replayed_total, restarts);
  EXPECT_EQ(s.checkpoint_failures, 0u);
}

/// Sets the soft RLIMIT_FSIZE of this process for the scope, with SIGXFSZ
/// ignored, so a write past `limit` bytes fails with EFBIG instead of
/// killing the process.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t limit) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lower = saved_;
    lower.rlim_cur = limit;
    setrlimit(RLIMIT_FSIZE, &lower);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = nullptr;
};

// DESIGN.md decision 12, "persist → ack": while the disk refuses writes,
// no ack leaves — not for a new datagram, not for its redelivery, not for
// a skip commit — so no restart can re-mint an id a peer was told about.
// Once writes work again, the redelivery's ack goes out, and a restart
// holds the receive it announced.
TEST(NodeLog, FailedPersistHoldsEveryAck) {
  const CheckpointFiles live("node_log_test_enospc.ckpt");
  const CheckpointFiles copy("node_log_test_enospc_copy.ckpt");
  HandNode n(live.path);
  n.node->start();
  Source source;
  for (int i = 0; i < 3; ++i) n.handler(source.next(*n.clock));
  ASSERT_EQ(n.sent.size(), 3u);
  n.sent.clear();

  const std::vector<std::uint8_t> held = source.next(*n.clock);
  {
    const FileSizeLimit no_room(0);
    n.handler(held);
    EXPECT_TRUE(n.sent.empty()) << "acked a receive that is not durable";
    n.handler(held);  // The sender retries: still not durable.
    EXPECT_TRUE(n.sent.empty()) << "re-acked a receive that is not durable";
    n.handler(encode_datagram(Datagram{SkipMsg{0, 9}}));
    EXPECT_TRUE(n.sent.empty()) << "acked a skip commit that is not durable";
    EXPECT_GE(n.node->stats().checkpoint_failures, 3u);
  }
  n.handler(held);  // The next retry finds the disk working.
  ASSERT_EQ(n.sent.size(), 1u);
  const Datagram reply = decode_datagram(n.sent.back());
  ASSERT_TRUE(std::holds_alternative<AckMsg>(reply));
  EXPECT_EQ(std::get<AckMsg>(reply).processed_hw, 4u);
  EXPECT_EQ(std::get<AckMsg>(reply).seen_hw, 9u);
  EXPECT_EQ(n.node->stats().duplicate_dgrams, 2u);

  const std::vector<std::uint8_t> image = n.node->snapshot_image();
  n.node.reset();
  EXPECT_EQ(restored_image(copy.path, read_bytes(live.path),
                           read_bytes(live.path + ".log")),
            image);
}

}  // namespace
}  // namespace driftsync::runtime
