#include "runtime/oracle.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "runtime/chaos.h"

namespace driftsync::runtime {

namespace {

/// Slack (seconds) applied to every comparison.  Must cover the
/// feasibility slack of the quarantine screen (an infeasible-by-less
/// observation may legally be ingested) plus scheduling noise.
constexpr double kTolerance = 0.02;

}  // namespace

InvariantOracle::InvariantOracle(const TimeSource& truth, Options opts)
    : truth_(truth), opts_(opts) {}

void InvariantOracle::track(const std::string& name, const Node* node,
                            double rho) {
  DS_CHECK(node != nullptr);
  DS_CHECK(rho >= 0.0 && rho < 1.0);
  Tracked& t = nodes_[name];
  DS_CHECK_MSG(t.node == nullptr, "name tracked twice");
  t.node = node;
  t.rho = rho;
}

void InvariantOracle::mark_clock_violated(const std::string& name) {
  nodes_.at(name).clock_violated = true;
}

void InvariantOracle::mark_lossish(const std::string& name) {
  nodes_.at(name).lossish = true;
}

void InvariantOracle::note_restart(const std::string& name, const Node* node) {
  DS_CHECK(node != nullptr);
  Tracked& t = nodes_.at(name);
  t.node = node;
  // The interval baseline survives on purpose: the next observe() checks
  // the restarted estimate against the pre-restart one (invariant 3).  The
  // disciplined clock does not: the Node persists only its CSA, so the new
  // process's clock re-snaps to its first bounded estimate (DESIGN.md
  // decision 21), and invariant 6 starts a new chain there.  A restart
  // aborts in-flight fates on both ends, so losses become legal.
  t.baseline.disc = {};
  t.lossish = true;
}

void InvariantOracle::attach_tracer(const Tracer* tracer, std::size_t last_k) {
  tracer_ = tracer;
  trace_last_k_ = last_k;
}

void InvariantOracle::violation(const std::string& name, const char* invariant,
                                const std::string& detail) {
  ++violations_;
  if (opts_.out == nullptr) return;
  std::fprintf(opts_.out,
               "{\"oracle\":\"violation\",\"invariant\":\"%s\","
               "\"node\":\"%s\",\"detail\":\"%s\"}\n",
               invariant, name.c_str(), detail.c_str());
  const auto suspects_it = nodes_.find(name);
  if (suspects_it != nodes_.end() && suspects_it->second.node != nullptr) {
    // Name the suspect set: which peers this node holds quarantined or
    // under (decayed) suspicion at the moment containment broke — the
    // first question of any Byzantine postmortem.
    const NodeStats stats = suspects_it->second.node->stats();
    std::string suspects;
    for (const ProcId peer : stats.quarantined) {
      if (!suspects.empty()) suspects += ',';
      suspects += "{\"peer\":" + std::to_string(peer) +
                  ",\"quarantined\":true}";
    }
    for (const auto& [peer, score] : stats.suspicion) {
      if (score <= 0.0) continue;
      if (std::find(stats.quarantined.begin(), stats.quarantined.end(),
                    peer) != stats.quarantined.end()) {
        continue;  // Already listed above.
      }
      if (!suspects.empty()) suspects += ',';
      suspects += "{\"peer\":" + std::to_string(peer) +
                  ",\"suspicion\":" + std::to_string(score) + "}";
    }
    std::fprintf(opts_.out,
                 "{\"oracle\":\"suspects\",\"node\":\"%s\",\"set\":[%s]}\n",
                 name.c_str(), suspects.c_str());
  }
  if (tracer_ == nullptr) return;
  // The last few causal events at the offending node answer "what message
  // sequence led here" without re-running the scenario.
  const auto it = nodes_.find(name);
  if (it == nodes_.end() || it->second.node == nullptr) return;
  const std::vector<TraceEvent> events =
      tracer_->last_for(it->second.node->self(), trace_last_k_);
  std::fprintf(opts_.out, "{\"oracle\":\"trace\",\"node\":\"%s\",\"events\":[",
               name.c_str());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(opts_.out,
                 "%s{\"kind\":\"%s\",\"id\":\"0x%llx\",\"peer\":%u,"
                 "\"t\":%.6f,\"value\":%g}",
                 i == 0 ? "" : ",", trace_event_kind_name(e.kind),
                 static_cast<unsigned long long>(e.trace_id), e.peer, e.t,
                 e.value);
  }
  std::fprintf(opts_.out, "]}\n");
}

void InvariantOracle::track_gradient_pair(const std::string& a,
                                          const std::string& b) {
  DS_CHECK_MSG(nodes_.count(a) != 0 && nodes_.count(b) != 0,
               "gradient pair names an untracked node");
  DS_CHECK(a != b);
  gradient_pairs_.emplace_back(a, b);
}

void InvariantOracle::check_gradient(const std::string& a_name,
                                     const Tracked& a, const Tracked& b) {
  // The bounds are only promised while both specs held: a's own clock
  // reading anchors the query, b's actual reading is the target.
  if (a.clock_violated || b.clock_violated) return;
  const LocalTime lt0 = b.node->local_time();
  const Interval bounds = a.node->peer_clock_bounds(b.node->self());
  const LocalTime lt1 = b.node->local_time();
  if (bounds.empty()) {
    ++checks_;
    violation(a_name, "gradient",
              "empty neighbor-clock bounds for peer " +
                  std::to_string(b.node->self()));
    return;
  }
  if (!std::isfinite(bounds.width())) return;  // Unbounded claims nothing.
  ++checks_;
  const double tol = kTolerance;
  if (bounds.lo > lt1 + tol || bounds.hi < lt0 - tol) {
    violation(a_name, "gradient",
              "bounds " + bounds.str() + " on peer " +
                  std::to_string(b.node->self()) +
                  "'s clock miss its actual reading in [" +
                  std::to_string(lt0) + ", " + std::to_string(lt1) + "]");
  }
}

const char* InvariantOracle::disciplined_check(const NodeSample& prev,
                                               const NodeSample& cur,
                                               double rho, double tolerance,
                                               std::string* detail) {
  if (!prev.disc.initialized || !cur.disc.initialized) return nullptr;
  if (cur.lt < prev.lt) return nullptr;
  const double dlt = cur.lt - prev.lt;
  const double dout = cur.disc.out - prev.disc.out;
  const double slew = std::max(prev.disc.max_slew, cur.disc.max_slew);
  if (dout < -tolerance) {
    if (detail != nullptr) {
      *detail = "output stepped backward by " + std::to_string(-dout) +
                " over dlt=" + std::to_string(dlt);
    }
    return "disciplined-monotone";
  }
  if (dout < dlt * (1.0 - slew) - tolerance ||
      dout > dlt * (1.0 + slew) + tolerance) {
    if (detail != nullptr) {
      *detail = "output advanced " + std::to_string(dout) + " over dlt=" +
                std::to_string(dlt) + ", outside the slew envelope +-" +
                std::to_string(slew);
    }
    return "disciplined-rate";
  }
  // Containment-when-feasible.  A slew-limited clock may legally sit
  // outside a collapsed interval (DESIGN.md decision 21); the observable
  // is its deficit — the distance to the interval — which may grow only by
  // however much the interval itself escaped: the shrink past the drift
  // envelope on the side the clock trails, plus the slew+drift gap a
  // maximally unlucky chase accumulates over dlt.
  if (prev.est.bounded() && cur.est.bounded() && !prev.est.empty() &&
      !cur.est.empty()) {
    const double env_lo = prev.est.lo + dlt / (1.0 + rho);
    const double env_hi = prev.est.hi + dlt / (1.0 - rho);
    double shrink = 0.0;
    if (cur.disc.out < cur.est.lo) {
      shrink = std::max(0.0, cur.est.lo - env_lo);
    } else if (cur.disc.out > cur.est.hi) {
      shrink = std::max(0.0, env_hi - cur.est.hi);
    }
    const double allow =
        prev.disc.deficit + shrink + dlt * (slew + rho) + tolerance;
    if (cur.disc.deficit > allow) {
      if (detail != nullptr) {
        *detail = "deficit " + std::to_string(cur.disc.deficit) +
                  " vs est " + cur.est.str() + " exceeds allowance " +
                  std::to_string(allow) + " (prev deficit " +
                  std::to_string(prev.disc.deficit) + ", shrink " +
                  std::to_string(shrink) + ", dlt " + std::to_string(dlt) +
                  ")";
      }
      return "disciplined-containment";
    }
  }
  return nullptr;
}

void InvariantOracle::observe() {
  for (auto& [name, t] : nodes_) {
    if (t.clock_violated) continue;  // The paper promises nothing here.
    const double t0 = truth_.now();
    const NodeSample s = t.node->sample();
    const double t1 = truth_.now();
    const double tol = kTolerance;

    ++checks_;
    if (s.est.empty()) {
      violation(name, "containment",
                "empty estimate " + s.est.str() +
                    " (contradictory constraints ingested)");
    } else if (s.est.lo > t1 + tol || s.est.hi < t0 - tol) {
      violation(name, "containment",
                "estimate " + s.est.str() + " misses true source time in [" +
                    std::to_string(t0) + ", " + std::to_string(t1) + "]");
    }

    if (t.has_baseline && !s.est.empty() && s.lt >= t.baseline.lt) {
      ++checks_;
      // Extrapolate the baseline over the drift envelope; anything the node
      // learned since can only have shrunk the interval further.
      const double dlt = s.lt - t.baseline.lt;
      const double env_lo = t.baseline.est.lo + dlt / (1.0 + t.rho);
      const double env_hi = t.baseline.est.hi + dlt / (1.0 - t.rho);
      if (s.est.lo < env_lo - tol || s.est.hi > env_hi + tol) {
        violation(name, "width-dynamics",
                  "estimate " + s.est.str() + " escapes envelope [" +
                      std::to_string(env_lo) + ", " + std::to_string(env_hi) +
                      "] extrapolated over dlt=" + std::to_string(dlt));
      }
    }
    if (s.disc.initialized) {
      // Fold the reading into the ground-truth bracket taken around the
      // sample; the worst case over the run is the verdict's error figure.
      const double err =
          std::max({0.0, t0 - s.disc.out, s.disc.out - t1});
      disciplined_worst_ = std::max(disciplined_worst_, err);
    }

    if (t.has_baseline && t.baseline.disc.initialized && s.disc.initialized &&
        s.lt >= t.baseline.lt) {
      ++checks_;
      std::string detail;
      if (const char* inv =
              disciplined_check(t.baseline, s, t.rho, tol, &detail)) {
        violation(name, inv, detail);
      }
    }

    t.baseline = s;
    t.has_baseline = true;
  }
  for (const auto& [a, b] : gradient_pairs_) {
    check_gradient(a, nodes_.at(a), nodes_.at(b));
    check_gradient(b, nodes_.at(b), nodes_.at(a));
  }
}

void InvariantOracle::check_loss_soundness() {
  for (const auto& [name, t] : nodes_) {
    if (t.lossish) continue;
    ++checks_;
    const NodeStats stats = t.node->stats();
    if (stats.loss_declarations > 0) {
      violation(name, "loss-soundness",
                std::to_string(stats.loss_declarations) +
                    " loss declarations on fault-free links");
    }
  }
}

void InvariantOracle::dump_context(const ChaosEventLog* log) const {
  if (opts_.out == nullptr) return;
  for (const auto& [name, t] : nodes_) {
    std::fprintf(opts_.out, "{\"oracle\":\"node\",\"name\":\"%s\",\"stats\":%s}\n",
                 name.c_str(), t.node->stats_json().c_str());
  }
  if (log != nullptr) {
    std::fprintf(opts_.out,
                 "{\"oracle\":\"faults\",\"total\":%llu}\n",
                 static_cast<unsigned long long>(log->total()));
  }
}

}  // namespace driftsync::runtime
