// Real-time specifications of a system (Section 2 of the paper).
//
// A system is described by: a set of processors, each with a clock-drift
// bound rho (the source has rho = 0 and runs at the rate of real time); and
// a set of bidirectional links, each with lower/upper message transit-time
// bounds.  Per the model, these specifications are known to every processor
// and are the *only* constraint on possible executions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/time_types.h"

namespace driftsync {

/// Clock drift bound for one processor: the clock's rate of progress r
/// (local seconds per real second) satisfies r in [1 - rho, 1 + rho].
/// Consequently an elapsed local time dL corresponds to elapsed real time in
/// [dL / (1 + rho), dL / (1 - rho)].
struct ClockSpec {
  double rho = 0.0;

  [[nodiscard]] double min_rate() const { return 1.0 - rho; }
  [[nodiscard]] double max_rate() const { return 1.0 + rho; }

  /// Bounds on real elapsed time for an elapsed local time dl >= 0.
  [[nodiscard]] double rt_lower(Duration dl) const { return dl / (1.0 + rho); }
  [[nodiscard]] double rt_upper(Duration dl) const {
    DS_CHECK_MSG(rho < 1.0, "drift bound must be < 1");
    return dl / (1.0 - rho);
  }
};

/// Transit-time bounds for messages on a (bidirectional) link, possibly
/// different per direction (real paths are rarely symmetric).  In a
/// physical system transit is in [0, +inf) and tighter bounds may be known;
/// max == kNoBound expresses "no upper bound" (the paper's ⊤).
///
/// *Virtual reference links* (the paper's §4 modeling of NTP stratum-0
/// servers: "an abstract source node ... connected to level 0 servers with
/// links representing the accuracy of those servers") use a NEGATIVE lower
/// bound: a reading accurate to ±a is a message whose claimed transit lies
/// in [-a, +a].  The bounds mapping is agnostic to the sign; only the
/// simulator's physical delivery must stay non-negative (and within the
/// claimed bounds, which [0, small] is).
struct LinkSpec {
  LinkSpec() = default;
  /// Symmetric bounds (the common case).
  LinkSpec(ProcId a_in, ProcId b_in, Duration min_delay, Duration max_delay)
      : LinkSpec(a_in, b_in, min_delay, max_delay, min_delay, max_delay) {}
  /// Per-direction bounds: [min_ab, max_ab] for a->b, [min_ba, max_ba] for
  /// b->a.
  LinkSpec(ProcId a_in, ProcId b_in, Duration min_ab_in, Duration max_ab_in,
           Duration min_ba_in, Duration max_ba_in)
      : a(a_in),
        b(b_in),
        min_ab(min_ab_in),
        max_ab(max_ab_in),
        min_ba(min_ba_in),
        max_ba(max_ba_in) {}

  ProcId a = kInvalidProc;
  ProcId b = kInvalidProc;
  Duration min_ab = 0.0;
  Duration max_ab = kNoBound;
  Duration min_ba = 0.0;
  Duration max_ba = kNoBound;

  [[nodiscard]] bool connects(ProcId u, ProcId v) const {
    return (a == u && b == v) || (a == v && b == u);
  }

  /// Bounds for a message sent BY processor u over this link.
  [[nodiscard]] Duration min_from(ProcId u) const {
    DS_CHECK(u == a || u == b);
    return u == a ? min_ab : min_ba;
  }
  [[nodiscard]] Duration max_from(ProcId u) const {
    DS_CHECK(u == a || u == b);
    return u == a ? max_ab : max_ba;
  }
};

/// The full real-time specification of a system, from which the bounds
/// mapping of any view is derived (Section 2).
class SystemSpec {
 public:
  SystemSpec() = default;
  SystemSpec(std::vector<ClockSpec> clocks, std::vector<LinkSpec> links,
             ProcId source);

  [[nodiscard]] std::size_t num_procs() const { return clocks_.size(); }
  [[nodiscard]] ProcId source() const { return source_; }
  [[nodiscard]] const ClockSpec& clock(ProcId p) const {
    DS_CHECK(p < clocks_.size());
    return clocks_[p];
  }
  [[nodiscard]] const std::vector<LinkSpec>& links() const { return links_; }

  /// The link between u and v, or nullptr if they are not neighbors: a
  /// scan of u's neighbors.
  [[nodiscard]] const LinkSpec* link_between(ProcId u, ProcId v) const;

  [[nodiscard]] const std::vector<ProcId>& neighbors(ProcId p) const {
    DS_CHECK(p < adjacency_.size());
    return adjacency_[p];
  }

  [[nodiscard]] bool are_neighbors(ProcId u, ProcId v) const {
    return link_between(u, v) != nullptr;
  }

  /// Hop-count diameter of the underlying undirected graph; procs
  /// unreachable from proc 0 make the system disconnected (checked at
  /// construction).
  [[nodiscard]] std::size_t diameter() const { return diameter_; }

  [[nodiscard]] std::size_t max_degree() const { return max_degree_; }

 private:
  std::vector<ClockSpec> clocks_;
  std::vector<LinkSpec> links_;
  /// Per processor: its neighbors in ascending order, and beside each the
  /// index of the link to it in links_.
  std::vector<std::vector<ProcId>> adjacency_;
  std::vector<std::vector<std::size_t>> link_index_;
  ProcId source_ = 0;
  std::size_t diameter_ = 0;
  std::size_t max_degree_ = 0;
};

}  // namespace driftsync
