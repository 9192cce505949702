// Tests for runtime::Mesh, the one N-node runtime harness (DESIGN.md S7):
// a seated triangle converges under the oracle, a seat killed and rebuilt
// through the mesh resumes from its checkpoint with the oracle's baseline
// intact (a restart that lost its checkpoint is caught, its peers refuse
// what it re-mints and keep serving, and the scratch checkpoint never
// outlives the mesh), and a seat's ChaosTransport handle really cuts its
// links.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/errors.h"
#include "runtime/mesh.h"
#include "test_util.h"
#include "workloads/topology.h"

namespace driftsync::runtime {
namespace {

using driftsync::testing::brackets_truth;
using driftsync::testing::loss_tolerant;
using driftsync::testing::node_config;

constexpr double kOffsets[3] = {0.0, 41.5, -13.25};
constexpr double kRates[3] = {1.0, 1.0 + 3e-4, 1.0 - 2e-4};

SystemSpec triangle() {
  return workloads::make_ring(
             3, {.rho = 5e-4, .latency = sim::LatencyModel::uniform(0.0, 0.05)})
      .spec;
}

InvariantOracle::Options silent_oracle() {
  InvariantOracle::Options opts;
  opts.out = nullptr;
  return opts;
}

/// Seats the triangle (seat 1 checkpointing to the mesh's scratch file)
/// and starts it.
void seat_and_start(Mesh& mesh) {
  for (ProcId p = 0; p < 3; ++p) {
    NodeConfig cfg = node_config(p, mesh.spec(), 0.04, 0.25, 0.08);
    if (p == 1) cfg.checkpoint_path = mesh.checkpoint_path(1);
    mesh.add(std::move(cfg), loss_tolerant(), kOffsets[p], kRates[p]);
  }
  mesh.start();
}

TEST(MeshTest, TriangleConvergesWithZeroOracleViolations) {
  Mesh mesh(triangle(), 7);
  seat_and_start(mesh);
  mesh.observe_for(1.2);
  mesh.oracle().observe();

  EXPECT_GT(mesh.oracle().checks(), 0u);
  EXPECT_EQ(mesh.oracle().violations(), 0u);
  for (ProcId p = 0; p < 3; ++p) {
    SCOPED_TRACE(Mesh::name(p));
    EXPECT_TRUE(brackets_truth(mesh.node(p), mesh.hub()));
    EXPECT_LT(mesh.node(p).estimate().width(), 0.5);
  }
}

TEST(MeshTest, RestartKeepsTheOracleBaselineAndRemovesTheCheckpoint) {
  std::string ckpt;
  {
    Mesh mesh(triangle(), 7);
    seat_and_start(mesh);
    mesh.observe_for(0.8);
    const std::uint64_t checks = mesh.oracle().checks();

    mesh.kill(1);
    mesh.hub().run_for(0.2);
    mesh.restart(1);
    mesh.observe_for(0.8);
    mesh.oracle().observe();

    // The restarted seat was checked straight through the restart
    // boundary against its pre-crash baseline, and nothing was forgotten.
    EXPECT_GT(mesh.oracle().checks(), checks);
    EXPECT_EQ(mesh.oracle().violations(), 0u);
    EXPECT_GT(mesh.node(1).stats().checkpoints_written, 0u);
    EXPECT_LT(mesh.node(1).estimate().width(), 0.5);
    ckpt = mesh.checkpoint_path(1);
    EXPECT_TRUE(std::filesystem::exists(ckpt));
  }
  // The mesh owns its scratch checkpoint: gone with the mesh.
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

TEST(MeshTest, RestartThatLostItsCheckpointFailsTheOracle) {
  Mesh mesh(triangle(), 7, silent_oracle());
  seat_and_start(mesh);
  mesh.observe_for(0.8);
  ASSERT_EQ(mesh.oracle().violations(), 0u);

  // The crash takes the disk with it: the seat comes back knowing nothing,
  // so its estimate escapes the envelope of what it knew before.  Its
  // links are blackholed first, so the verdict rests on the seat alone: a
  // node that forgot its history re-mints event ids its peers already
  // hold, and they refuse its datagrams (see the death test below).
  mesh.kill(1);
  mesh.hub().set_link(0, 1, 0.0005, 0.004, /*loss=*/1.0);
  mesh.hub().set_link(1, 2, 0.001, 0.008, /*loss=*/1.0);
  std::remove(mesh.checkpoint_path(1).c_str());
  mesh.restart(1);
  mesh.oracle().observe();
  EXPECT_GT(mesh.oracle().violations(), 0u);
}

/// Seat 1 loses its checkpoint and comes back with its links up, so it
/// re-mints event ids seats 0 and 2 already hold.  Returns what went
/// wrong, or an empty string.
std::string amnesiac_restart_with_links_up() {
  Mesh mesh(triangle(), 7, silent_oracle());
  seat_and_start(mesh);
  InvariantOracle neighbours(mesh.hub(), silent_oracle());
  for (const ProcId p : {0U, 2U}) {
    neighbours.track(Mesh::name(p), &mesh.node(p), mesh.spec().clock(p).rho);
  }
  const auto refused = [&] {
    return mesh.node(0).stats().cross_check_failures +
           mesh.node(2).stats().cross_check_failures;
  };
  for (int i = 0; i < 8; ++i) {
    mesh.hub().run_for(0.1);
    neighbours.observe();
  }
  const std::uint64_t refused_before = refused();
  mesh.kill(1);
  std::remove(mesh.checkpoint_path(1).c_str());
  mesh.restart(1);
  // Its first datagrams reuse sequence numbers the peers have seen and are
  // dropped as duplicates, so the first refusal comes a few (virtual)
  // seconds after the restart.  The wait ends on that refusal; its
  // one-minute cap only stops a hang.  Then the peers must go on serving
  // for a while.
  for (int i = 0; i < 600 && refused() == refused_before; ++i) {
    mesh.hub().run_for(0.1);
    neighbours.observe();
  }
  for (int i = 0; i < 5; ++i) {
    mesh.hub().run_for(0.1);
    neighbours.observe();
  }
  std::string failed;
  if (neighbours.violations() != 0) failed += "oracle violations on 0/2; ";
  if (refused() <= refused_before) failed += "nothing was refused; ";
  for (const ProcId p : {0U, 2U}) {
    if (!brackets_truth(mesh.node(p), mesh.hub()) ||
        !(mesh.node(p).estimate().width() < 0.5)) {
      failed += Mesh::name(p) + " lost the truth; ";
    }
  }
  return failed;
}

// A refusal that escaped as an exception would unwind out of a handler
// (in a daemon, out of the transport's loop thread, ending the process),
// so the scenario runs in a child process and must exit cleanly.
TEST(MeshDeathTest, AmnesiacRestartWithLinksUpIsRefusedNotFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const std::string failed = amnesiac_restart_with_links_up();
        std::fputs(failed.c_str(), stderr);
        std::exit(failed.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(MeshTest, ScratchCheckpointIsRemovedWhenARestartThrows) {
  std::string ckpt;
  try {
    Mesh mesh(triangle(), 7, silent_oracle());
    seat_and_start(mesh);
    mesh.hub().run_for(0.3);
    ckpt = mesh.checkpoint_path(1);
    mesh.kill(1);
    std::FILE* f = std::fopen(ckpt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
    mesh.restart(1);
    FAIL() << "restart accepted a corrupt checkpoint";
  } catch (const CheckpointError&) {
  }
  // The error unwound through ~Mesh, which owns the scratch file.
  ASSERT_FALSE(ckpt.empty());
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

TEST(MeshTest, PartitionThroughTheChaosHandleDropsTraffic) {
  Mesh mesh(triangle(), 7);
  seat_and_start(mesh);
  mesh.hub().run_for(0.3);
  mesh.chaos(0).set_partitioned(1, true);
  mesh.chaos(1).set_partitioned(0, true);
  mesh.hub().run_for(0.5);

  EXPECT_GT(mesh.log().count("partition-drop"), 0u);
  EXPECT_GT(mesh.chaos(0).injected() + mesh.chaos(1).injected(), 0u);
  // Node 0 stops hearing node 1 while node 2, polled every 40 ms, keeps
  // talking.
  const NodeStats s0 = mesh.node(0).stats();
  ASSERT_EQ(s0.last_heard.count(1), 1u);
  ASSERT_EQ(s0.last_heard.count(2), 1u);
  EXPECT_GT(s0.last_heard.at(1), 0.3);
  EXPECT_LT(s0.last_heard.at(2), 0.3);
}

}  // namespace
}  // namespace driftsync::runtime
