// Inputs shared by the workloads: the mesh hardware (graph and drifting
// clocks), and the datagram stream one listening node receives from it.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "workloads/topology.h"

namespace perfbench {

/// The benchmark's mesh hardware: a random connected graph (a random
/// spanning tree plus `extra_edges` random links) and one clock per
/// processor — the source reads real time, every other clock a random
/// offset within (1, 200) s and a constant rate within its drift bound — all
/// drawn from a FIXED seed.  The hardware is part of a workload's
/// definition; --seed draws what runs on it: link delays and the gossip
/// schedule.  Redrawing the hardware per seed moved the per-message work
/// (it follows the live-point count, which follows the graph) and the
/// widths (they follow how the clock rates sit in the drift envelope) by
/// 20-30% from seed to seed, more than any bound could absorb.
struct Mesh {
  driftsync::workloads::Network net;
  std::vector<driftsync::sim::ClockModel> clocks;
};
Mesh make_mesh(std::size_t procs, std::size_t extra_edges);

/// One encoded data datagram as the listening node receives it.
struct Arrival {
  double rt = 0.0;  ///< Ground-truth (source) time of delivery.
  double lt = 0.0;  ///< The listener's local clock at delivery.
  driftsync::ProcId from = driftsync::kInvalidProc;
  std::uint64_t dgram_seq = 0;  ///< Per-sender datagram sequence (from 1).
  std::vector<std::uint8_t> bytes;
};

struct MeshStream {
  driftsync::workloads::Network net;  ///< The mesh the stream ran on.
  driftsync::ProcId target = driftsync::kInvalidProc;
  driftsync::sim::ClockModel target_clock;
  std::vector<Arrival> arrivals;  ///< In delivery order.
  std::uint64_t digest = 0;       ///< FNV-1a over every arrival.
};

struct MeshParams {
  std::size_t procs = 8;
  std::size_t extra_edges = 4;
  double gossip_interval = 0.1;  ///< Mean local seconds between sends.
  double reply_prob = 0.5;
  double duration = 60.0;        ///< Simulated seconds.
};

/// Simulates the mesh, with link delays and gossip drawn from `seed`, in
/// which the target (the non-source processor of highest degree) only
/// listens: its peers gossip to it and
/// each other, carrying Figure-2 history payloads, and it never sends.  So
/// no payload ever names an event of the target, and a real Node that
/// mints its own receive events can ingest the stream faithfully.  Each
/// delivery to the target becomes one encoded DataMsg.
MeshStream make_mesh_stream(std::uint64_t seed, const MeshParams& params);

}  // namespace perfbench
