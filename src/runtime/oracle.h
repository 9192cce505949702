// Ground-truth invariant oracle for chaos runs (DESIGN.md S7).
//
// A chaos run cannot assert exact traces — thread scheduling differs between
// replays even with an identical fault schedule — so it asserts the
// *invariants* the paper guarantees whenever the spec holds, against the
// ground truth only the harness has (every node's clock is a ScaledTimeSource
// or FaultyTimeSource over CLOCK_MONOTONIC, so true source time is knowable):
//
//  1. Containment (Theorem 3.1): a node whose own clock never violated its
//     drift spec must output an estimate containing true source time.  The
//     check is bracketed — truth is read before and after the sample, and a
//     violation is flagged only when the estimate misses the whole bracket —
//     so it never false-positives on sampling latency.
//
//  2. Width dynamics (knowledge monotonicity): between two samples of the
//     same node at local times lt1 < lt2, the estimate is the old one
//     extrapolated over the drift envelope, intersected with whatever new
//     information arrived.  Information only shrinks intervals, so
//     est2 must be a subset of [lo1 + dlt/(1+rho), hi1 + dlt/(1-rho)].
//     A wider-than-envelope estimate means knowledge was LOST; an empty one
//     means contradictory constraints were ingested.
//
//  3. Checkpoint-prefix consistency: the Node persists write-ahead (every
//     own event is durable before anything derived from it is visible), so
//     a restarted node resumes with exactly the knowledge it had.  The
//     oracle keeps the pre-restart interval baseline across note_restart()
//     and applies check 2 straight through the restart boundary: a restart
//     that forgot anything shows up as a width-dynamics violation.
//
//  4. Loss soundness: the skip-commit protocol declares a loss only after
//     the receiver durably renounced the datagram.  On links where the
//     chaos schedule injected nothing that can cost a datagram or delay an
//     ack past its fate timeout, a node must declare zero losses.  The
//     harness marks nodes whose links saw such faults via mark_lossish().
//
//  5. Gradient envelope (Kuhn–Lenzen–Locher–Oshman sense): for every
//     registered neighbor pair (A, B) whose clocks honored their specs,
//     A's bounds on B's current clock (Node::peer_clock_bounds) must
//     contain B's actual reading — bracketed like check 1, and skipped
//     while A's view cannot bound B at all (an unbounded interval claims
//     nothing).  The check is knowledge-based, not membership-gated: the
//     bounds stay valid across B's leave and rejoin, which is exactly what
//     the churn scenarios pin down.
//
//  6. Disciplined clock (DESIGN.md decision 21): between two samples of a
//     spec-honoring node, the disciplined output must be monotone, must
//     advance at a rate within the configured slew bound of local time, and
//     must track the optimal interval whenever feasible — its distance to
//     the interval (the deficit) may grow only by what the interval itself
//     moved away faster than a slew-limited clock can chase.  The oracle
//     also folds the reading into a ground-truth error bracket
//     (disciplined_worst_error()), which the chaos verdict reports.  The
//     clock is not persisted, so a restart starts a new chain: the
//     restarted clock re-snaps, and its first sample is checked against
//     nothing before the restart.
//
// Violations are dumped as JSON lines (the fault journal and per-node stats
// alongside them, so a failure is diagnosable from its log alone) and
// counted; the runner turns a nonzero count into a hard failure.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/trace.h"
#include "runtime/node.h"

namespace driftsync::runtime {

class ChaosEventLog;

class InvariantOracle {
 public:
  /// Every comparison allows 0.02 s of slack; ground truth is the
  /// monotonic clock, matching the harness convention of running the source
  /// on ScaledTimeSource(0, 1).
  struct Options {
    /// Violation / verdict sink; nullptr silences output (counts only).
    std::FILE* out = stderr;
  };

  InvariantOracle() : InvariantOracle(Options{}) {}
  explicit InvariantOracle(Options opts);

  /// Registers `node` under `name`.  `rho` is the drift bound of the node's
  /// clock spec (width dynamics extrapolate with it).  The pointer must stay
  /// valid until untracked or rebound via note_restart().
  void track(const std::string& name, const Node* node, double rho);

  /// Marks the node's own clock as having violated its spec (a step fault,
  /// or a rate outside [1-rho, 1+rho]).  Sticky: containment and width
  /// dynamics are skipped for it from here on — the paper promises nothing
  /// once the spec breaks.
  void mark_clock_violated(const std::string& name);

  /// Marks the node as having a link that saw lossish faults (drops,
  /// bursts, corruption, partition, a peer crash or restart): loss
  /// declarations by it are legitimate.  Sticky.
  void mark_lossish(const std::string& name);

  /// Rebinds `name` to the post-restart Node instance.  The pre-restart
  /// baseline interval is KEPT, which is what turns the next observe()
  /// into the checkpoint-prefix check (invariant 3); its disciplined
  /// reading is dropped, so invariant 6 starts over with the new process's
  /// clock.  Restarting implies in-flight datagrams may abort, so the node
  /// is also marked lossish.
  void note_restart(const std::string& name, const Node* node);

  /// Registers a neighbor pair for the gradient envelope check (invariant
  /// 5); both names must already be tracked.  The check runs in BOTH
  /// directions on every observe() and survives note_restart() rebinds.
  void track_gradient_pair(const std::string& a, const std::string& b);

  /// Samples every tracked node and runs containment + width dynamics,
  /// then the gradient envelope over every registered pair.
  /// Call periodically and once after the scenario settles.
  void observe();

  /// Runs the loss-soundness check (invariant 4) over final node stats.
  /// Call once, after the scenario's last observe().
  void check_loss_soundness();

  /// Attaches a causal tracer: every violation dump then includes the last
  /// `last_k` trace events recorded at the offending node (one JSON line,
  /// Chrome-trace shaped), so "which message sequence led here" is
  /// answerable from the log alone.  Null detaches.  Not owned.
  void attach_tracer(const Tracer* tracer, std::size_t last_k = 16);

  /// Dumps per-node stats and the fault journal's totals to `out` — the
  /// context a violation needs to be diagnosed offline.  `log` may be null.
  void dump_context(const ChaosEventLog* log) const;

  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

  /// Worst ground-truth error of any disciplined reading seen by observe()
  /// (distance from the reading to the truth bracket around its sample);
  /// 0 until a tracked node's clock initializes.  The chaos verdict line
  /// reports it next to the violation count.
  [[nodiscard]] double disciplined_worst_error() const {
    return disciplined_worst_;
  }

  /// The invariant-6 pair check, exposed as a pure static so tests can
  /// drive the production logic against synthetic samples (including the
  /// deliberately broken NaiveSteppingClock double).  Returns nullptr when
  /// the sample pair is consistent, else the violated sub-invariant name
  /// ("disciplined-monotone", "disciplined-rate",
  /// "disciplined-containment"); `detail` (may be null) receives context.
  /// Pairs where either sample's clock is uninitialized, or whose local
  /// times regress, claim nothing and pass.
  [[nodiscard]] static const char* disciplined_check(const NodeSample& prev,
                                                     const NodeSample& cur,
                                                     double rho,
                                                     double tolerance,
                                                     std::string* detail);

 private:
  struct Tracked {
    const Node* node = nullptr;
    double rho = 0.0;
    bool clock_violated = false;
    bool lossish = false;
    bool has_baseline = false;
    NodeSample baseline;
  };

  void violation(const std::string& name, const char* invariant,
                 const std::string& detail);
  /// One direction of invariant 5: `a`'s bounds on `b`'s clock.
  void check_gradient(const std::string& a_name, const Tracked& a,
                      const Tracked& b);

  Options opts_;
  std::map<std::string, Tracked> nodes_;
  std::vector<std::pair<std::string, std::string>> gradient_pairs_;
  const Tracer* tracer_ = nullptr;
  std::size_t trace_last_k_ = 16;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  double disciplined_worst_ = 0.0;
};

}  // namespace driftsync::runtime
