// One N-node runtime mesh over the in-process hub (DESIGN.md S7), the
// harness every chaos scenario, EXP-16/17 sweep, --selftest leg and runtime
// test runs on.  Seat p is a Node over an OptimalCsa on
// ScaledTimeSource(hub, offset, rate) behind a FaultyTimeSource (whose
// clock faults go to the mesh's journal), talking
// through a ChaosTransport over its hub endpoint, and through a
// ByzantinePeer on top if declared Byzantine; undecorated, a seat behaves
// as a bare endpoint.  Every spec edge starts as a 0.5-4 ms hub link and
// every seat is tracked by the oracle as name(p).  restart(p) rebuilds a
// seat from the same recipe while the oracle keeps its pre-crash baseline,
// so a restart that forgot anything fails the width-dynamics envelope.
// Protocol values and seeds all come from the caller.
//
// The hub is the mesh's one clock: seats, journal, oracle (true source time
// is hub time) and any tracer the caller builds over hub() read it, and it
// moves only in observe_for() or hub().run_for().  A mesh run therefore
// takes one thread and replays exactly from its seeds.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/interval.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/byzantine.h"
#include "runtime/chaos.h"
#include "runtime/hub.h"
#include "runtime/node.h"
#include "runtime/oracle.h"

namespace driftsync::runtime {

/// `node`'s estimate read between two readings t0 <= t1 of true source
/// time `truth` (a Mesh's hub, or CLOCK_MONOTONIC over real sockets, where
/// every source runs on ScaledTimeSource(0, 1)).  True iff the estimate
/// overlaps [t0, t1], so sampling latency never reads as a miss.
struct TruthBracket {
  double t0 = 0.0;
  Interval est;
  double t1 = 0.0;
  explicit operator bool() const { return est.lo <= t1 && est.hi >= t0; }
};
[[nodiscard]] TruthBracket contains_truth(const Node& node,
                                          const TimeSource& truth);

class Mesh {
 public:
  /// Seats 0..spec.num_procs()-1; the hub draws from `hub_seed`, and the
  /// fault journal writes to `journal` (nullptr: count only).
  Mesh(SystemSpec spec, std::uint64_t hub_seed,
       InvariantOracle::Options oracle = {}, std::FILE* journal = nullptr);
  /// Stops and destroys every seat, then removes the scratch checkpoints.
  ~Mesh();
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  /// The oracle's name for seat p.
  [[nodiscard]] static std::string name(ProcId p) {
    return "node" + std::to_string(p);
  }

  // Seat recipe: call before add(p); restart(p) reuses it.
  void set_byzantine(ProcId p, const ByzantineStrategy& strategy,
                     std::uint64_t seed);

  /// Builds seat cfg.self (cfg.spec comes from the mesh), its ChaosTransport
  /// injecting `faults` from fault stream `fault_seed`; it starts at once if
  /// the mesh has.
  Node& add(NodeConfig cfg, const OptimalCsa::Options& opts, double offset,
            double rate, const ChaosFaults& faults = {},
            std::uint64_t fault_seed = 0);
  void start();
  void stop();
  /// Stops seat p: its endpoint unregisters, so its neighbors' fates fire
  /// into the void.  The stopped Node stays readable until restart(p).
  void kill(ProcId p);
  /// Replaces seat p's Node with one rebuilt from its recipe (restoring its
  /// checkpoint, if its config names one), rebinds it in the oracle and
  /// starts it.
  Node& restart(ProcId p);

  /// Seat p's scratch checkpoint file (one per seat), removed with the mesh.
  const std::string& checkpoint_path(ProcId p);

  /// Advances virtual time by `seconds` in 100 ms slices, sampling the
  /// oracle after each slice.
  void observe_for(double seconds);

  [[nodiscard]] Node& node(ProcId p) const { return *live(p).node; }
  [[nodiscard]] ChaosTransport& chaos(ProcId p) const {
    return *live(p).chaos;
  }
  [[nodiscard]] FaultyTimeSource& clock(ProcId p) const {
    return *live(p).clock;
  }
  [[nodiscard]] ByzantinePeer& byzantine(ProcId p) const;
  [[nodiscard]] const SystemSpec& spec() const { return spec_; }
  [[nodiscard]] Hub& hub() { return hub_; }
  [[nodiscard]] InvariantOracle& oracle() { return oracle_; }
  [[nodiscard]] ChaosEventLog& log() { return log_; }

 private:
  struct Seat {
    NodeConfig cfg;
    OptimalCsa::Options opts;
    double offset = 0.0;
    double rate = 1.0;
    ChaosFaults faults;
    std::uint64_t fault_seed = 0;
    std::optional<ByzantineStrategy> strategy;  ///< Set: the seat lies.
    std::uint64_t liar_seed = 0;
    std::string scratch_checkpoint;
    std::unique_ptr<Node> node;  ///< Owns the three decorators below.
    ChaosTransport* chaos = nullptr;
    FaultyTimeSource* clock = nullptr;
    ByzantinePeer* liar = nullptr;
  };

  const Seat& live(ProcId p) const;
  Seat& recipe(ProcId p);
  void build(Seat& s, ProcId p);

  SystemSpec spec_;
  Hub hub_;  // First: the journal and the oracle read its clock.
  ChaosEventLog log_;
  InvariantOracle oracle_;
  bool started_ = false;
  std::vector<Seat> seats_;  // Last: nodes die before the hub and log.
};

}  // namespace driftsync::runtime
