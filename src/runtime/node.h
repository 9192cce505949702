// Node: hosts one CSA on a real transport (DESIGN.md S7).
//
// The driver mirrors what the simulator does for a simulated processor —
// mint send/receive/loss-declaration events, route payloads through the
// CSA, run the Section 3.3 detection mechanism — but against a Transport
// and a TimeSource instead of an event queue, and with the two things a
// real deployment adds:
//
//  * Fate resolution without an oracle.  The simulator knows each
//    message's fate; a transport does not.  The Node runs the skip-commit
//    protocol (see runtime/datagram.h): stop-and-wait per peer, cumulative
//    acks, and a timeout that aborts an unresolved datagram by making the
//    receiver durably renounce it.  Loss declarations are therefore sound
//    (never issued for a message the receiver processed), which is what
//    keeps the CSA's history accounting and every peer's view consistent.
//
//  * Write-ahead checkpointing.  A restarted process must never re-issue
//    an event id with different content — peers that already ingested the
//    original would be corrupted.  The Node therefore persists its state
//    (own counters + fate machine + the CSA's checkpoint image) after every
//    own event and BEFORE externalizing anything derived from it: persist,
//    then transmit; persist, then ack.  A crash at any point restarts into
//    a prefix of the externalized history; outstanding fates resume in the
//    aborting state, and the local clock (CLOCK_MONOTONIC) supplies the
//    continuity the estimates extrapolate over.  A checkpoint that would
//    require the local clock to have gone backwards is rejected.
//
//  * Peer health.  The paper assumes the spec always holds; a deployment
//    cannot.  The Node tracks per-peer liveness (last-heard watermarks),
//    backs its poll/skip cadences off exponentially (with jitter) while a
//    peer keeps timing out, and screens every inbound data message through
//    csa->screen_message (header timestamp and payload, judged at arrival):
//    a message no spec-conforming execution could have produced is
//    RENOUNCED (durably, via the skip-commit path, so the sender soundly
//    resolves it as a loss) instead of processed, and a peer producing a
//    streak of them is quarantined — excluded from the view, probed at low
//    rate, readmitted after a feasible streak.
//    One insane clock therefore costs its own link's accuracy, not the
//    containment of every estimate downstream.  See NodeConfig.
//
// Threading and time: the Node owns no thread and reads no clock but its
// TimeSource (Section 2), so deadlines, cadences and stamps are local time.
// Its timer work is one call the transport's loop makes beside the handler
// (Transport::set_timer).  One mutex guards the CSA and all protocol state,
// since the public readers may run on other threads than that loop.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "clock/disciplined_clock.h"
#include "common/histogram.h"
#include "common/ids.h"
#include "common/interval.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/csa.h"
#include "core/spec.h"
#include "runtime/datagram.h"
#include "runtime/membership.h"
#include "runtime/time_source.h"
#include "runtime/transport.h"
#include "serve/server.h"

namespace driftsync::runtime {

struct NodeConfig {
  ProcId self = kInvalidProc;
  SystemSpec spec;
  /// Neighbors this node polls (defaults to spec.neighbors(self)).
  std::vector<ProcId> peers;
  double poll_period = 0.5;   ///< Seconds between data sends, per peer.
  double fate_timeout = 2.0;  ///< Section 3.3 detection timeout.
  double skip_retry = 1.0;    ///< Resend cadence for unacked skip commits.
  /// Peer health.  The poll and skip-retry cadences back off exponentially
  /// (with jitter) while a peer keeps timing out, up to 2^6; a clean ack
  /// resets them.  Every inbound data message is screened through
  /// csa->screen_message; a renounced verdict (infeasible, suspect, replay,
  /// or a cross-check rollback) adds 1 to the peer's suspicion score while
  /// an accepted message multiplies it by suspicion_decay.  A peer whose
  /// score reaches quarantine_threshold is quarantined: its observations
  /// are renounced instead of processed and it is polled 16 times slower
  /// until quarantine_threshold consecutive feasible messages readmit it — a cost that doubles with
  /// every readmission, and a readmitted peer keeps residual suspicion, so
  /// a still-lying peer is re-quarantined faster each round.  The decaying
  /// score (rather than a consecutive-streak counter) is what catches a
  /// flapping attacker that alternates feasible and infeasible messages.
  /// Must be positive: the screen is always on.
  std::uint32_t quarantine_threshold = 2;
  double suspicion_decay = 0.7;  ///< Score multiplier per accepted message.
  /// Dynamic membership (DESIGN.md decision 19).  When true, a kJoinReq
  /// from a spec neighbor not currently in the membership admits it (the
  /// transport learns its address from the datagram source) and a kLeave
  /// from a member retires it.  When false — the default, preserving the
  /// fixed-peer-set behavior — both are counted as ignored.  Note the
  /// datagrams are unauthenticated like everything else on the socket, so
  /// enabling this extends the untrusted-input surface to the roster
  /// itself; the spec-neighbor gate bounds who can ever be admitted.
  bool dynamic_join = false;
  /// Persistence file; empty disables checkpointing.  Requires a CSA that
  /// supports checkpoint() (a non-empty image).
  std::string checkpoint_path;
  /// Causal tracer (common/trace.h); null disables tracing (the default —
  /// every hook then costs one pointer test).  Not owned; must outlive the
  /// node.  Several in-process nodes may share one tracer: events carry the
  /// recording node's id, and a shared ring shows cross-node causality in
  /// one timeline.  When set, outbound data datagrams carry a minted trace
  /// id on the wire.
  Tracer* tracer = nullptr;
  /// Serving tier (DESIGN.md decision 17).  > 0 enables answering
  /// kClientReq datagrams (driftsyncd --serve) with at most this many
  /// resident client sessions; 0 leaves client requests counted as
  /// ignored.  Sessions are fixed-footprint (src/serve/session_table.h) —
  /// clients never enter the peer mesh.
  std::size_t serve_max_clients = 0;
  double serve_idle_timeout = 30.0;  ///< Seconds before an idle session reaps.
  double serve_evict_grace = 1.0;    ///< LRU protection window at the cap.
  /// Disciplined output clock (DESIGN.md decision 21).  Max |rate - 1| the
  /// discipline may apply against the local oscillator; 0 (the default)
  /// derives it from the node's own drift spec rho, floored at 1e-4 so a
  /// perfect-clock (rho = 0) node can still correct its offset.
  /// driftsyncd exposes this as --clock-slew.
  double clock_max_slew = 0.0;
  /// Seconds over which proportional steering corrects the full observed
  /// error (clock/disciplined_clock.h).
  double clock_steer_horizon = 1.0;
};

/// Everything a node exports, as one lock-coherent snapshot (stats()).
/// stats_json() and metrics_text() render this snapshot and nothing else
/// apart from the histograms, from one list in node.cpp that names each
/// scalar once: its JSON key, its Prometheus series, its value.  Counters
/// print as integers; a double prints as json::number, and an undefined
/// value (an unbounded or empty estimate, a clock not yet initialized) as
/// null in JSON and NaN/±Inf in Prometheus.  Building it walks the
/// membership into std::maps, so no datagram or estimate path calls it.
struct NodeStats {
  ProcId proc = kInvalidProc;
  std::string algo;  ///< Csa::name().
  std::uint64_t dgrams_in = 0;
  std::uint64_t dgrams_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t decode_drops = 0;    ///< Malformed datagrams (WireError).
  std::uint64_t ignored_dgrams = 0;  ///< Well-formed but stale/unknown.
  std::uint64_t duplicate_dgrams = 0;  ///< Data redelivered after processing.
  std::uint64_t loss_declarations = 0;
  std::uint64_t deliveries_confirmed = 0;
  std::uint64_t skips_sent = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t events = 0;  ///< Own events minted (send/recv/internal).
  std::uint64_t infeasible_rejected = 0;  ///< Observations renounced as
                                          ///< spec-violating (quarantine).
  /// Byzantine defense (DESIGN.md decision 18).
  std::uint64_t suspect_rejected = 0;  ///< Renounced by cross-path band.
  std::uint64_t replay_rejected = 0;   ///< Duplicate seq, mutated payload.
  std::uint64_t cross_check_failures = 0;  ///< Ingestions rolled back.
  std::uint64_t equivocations_detected = 0;  ///< Conflicting retellings.
  std::uint64_t peer_quarantines = 0;   ///< Quarantine entries, total.
  std::uint64_t peer_readmissions = 0;  ///< Quarantine exits, total.
  std::uint64_t backoff_resets = 0;  ///< Backed-off peers that recovered.
  /// Dynamic membership (decision 19): runtime admissions/retirements (the
  /// configured startup roster is not counted) and the journal gauge —
  /// departed peers whose wire frontier is retained for a sound rejoin.
  std::uint64_t peer_joins = 0;
  std::uint64_t peer_leaves = 0;
  std::uint64_t peers_journaled = 0;  ///< Gauge: inactive entries resident.
  /// Heap allocations (count / requested bytes) attributed to inbound
  /// datagram processing.  Stays 0 unless the counting operator-new hook
  /// (driftsync_allochook) is linked; deltas are taken under the node
  /// mutex, so concurrent allocations by non-protocol threads are a
  /// documented approximation (common/alloc_stats.h).
  std::uint64_t msg_path_allocs = 0;
  std::uint64_t msg_path_alloc_bytes = 0;
  /// Serving tier (zero unless NodeConfig::serve_max_clients > 0).
  std::uint64_t serve_requests = 0;  ///< Client requests answered.
  std::uint64_t serve_active = 0;    ///< Resident sessions (gauge).
  std::uint64_t serve_evicted = 0;   ///< LRU evictions at the cap.
  std::uint64_t serve_reaped = 0;    ///< Idle-timeout reaps.
  std::uint64_t serve_rejected = 0;  ///< Newcomers refused at the cap.
  /// Disciplined clock (decision 21): steering decisions on externalize.
  std::uint64_t clock_resteers = 0;     ///< Init + rate-steer decisions.
  std::uint64_t clock_holds = 0;        ///< Unbounded estimate, rate kept.
  std::uint64_t clock_slew_clamps = 0;  ///< Steers that saturated the budget.
  double clock_drift = 0.0;  ///< AccuracyStats::drift, the measured rate.
  std::uint64_t membership_active = 0;  ///< Gauge: active peers.
  /// The causal tracer's counters; zero without a tracer.
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  /// Transport-level counters (drops, socket errors, batch totals) from
  /// Transport::transport_stats(); all zero for transports that track
  /// nothing.
  TransportStats transport;
  /// The CSA's counters (zero where the algorithm has no such notion).
  CsaStats csa;
  /// The estimate at the snapshot's local time `lt` (not an
  /// externalization: it steers nothing), its width, and the disciplined
  /// clock's reading against it.
  LocalTime lt = 0.0;
  Interval est;
  double width = 0.0;
  clock::DisciplinedReading disc;
  /// Local seconds since each configured peer was last heard from (any
  /// well-formed datagram); negative = never heard.
  std::map<ProcId, double> last_heard;
  /// Currently quarantined peers.
  std::vector<ProcId> quarantined;
  /// Current (decayed) suspicion score per configured peer; the oracle's
  /// violation dumps name every peer whose score is nonzero as a suspect.
  std::map<ProcId, double> suspicion;
  /// Feasible probes the peer must produce for its NEXT readmission
  /// (doubles on every readmission; starts at quarantine_threshold).
  std::map<ProcId, std::uint32_t> readmission_cost;
};

/// One atomic (lock-coherent) estimate reading: the interval, the local
/// time it was queried at, and the disciplined clock's post-steer output.
/// The chaos oracle's width-dynamics and disciplined-clock invariants need
/// all of it from under one lock (runtime/oracle.h).
struct NodeSample {
  LocalTime lt = 0.0;
  Interval est;
  clock::DisciplinedReading disc;
};

class Node {
 public:
  Node(NodeConfig config, std::unique_ptr<Csa> csa,
       std::unique_ptr<TimeSource> time_source,
       std::unique_ptr<Transport> transport);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Initializes the CSA, restores the checkpoint if one exists (throwing
  /// driftsync::CheckpointError on a rejected image — a node must not
  /// silently restart fresh next to peers that remember it), then hands
  /// the transport its handler and timer and starts it.
  void start();

  /// Stops the transport (and with it the timer); idempotent.  The
  /// destructor calls it too.
  void stop();

  /// The external-synchronization output at the current local time.
  [[nodiscard]] Interval estimate() const;

  /// estimate() plus the local time it was queried at, under one lock.
  [[nodiscard]] NodeSample sample() const;

  [[nodiscard]] LocalTime local_time() const;

  /// The export snapshot (see NodeStats).  Not for hot loops: it builds
  /// per-peer maps under the node lock.
  [[nodiscard]] NodeStats stats() const;

  /// stats() as one line of JSON, plus the per-peer health maps, e.g. for
  /// a SIGUSR1 dump or the probe response.
  [[nodiscard]] std::string stats_json() const;

  /// stats() as Prometheus text, under the same names as stats_json(),
  /// plus the latency/width histograms (what a MetricsReq datagram
  /// returns).
  [[nodiscard]] std::string metrics_text() const;

  [[nodiscard]] ProcId self() const { return cfg_.self; }

  /// Dynamic membership, local initiative (decision 19).  admit_peer adds a
  /// spec neighbor to the active membership at runtime and solicits the
  /// remote side with a kJoinReq (the transport must already know the
  /// peer's address — add_peer on a UdpTransport, a hub link otherwise;
  /// inbound joins learn it from the datagram source instead).  A journaled
  /// former member resumes its wire frontier: sequence numbers continue and
  /// an unresolved in-flight fate is re-resolved through the skip-commit
  /// path, so loss accounting stays sound across the absence.  remove_peer
  /// announces a best-effort kLeave and retires the peer: its backlog is
  /// released, its health forgotten, its frontier journaled.  Both are
  /// idempotent; both require a started node.
  void admit_peer(ProcId peer);
  void remove_peer(ProcId peer);

  /// Bounds on `peer`'s current local clock reading, queried at this node's
  /// current local time — the per-edge gradient quantity the oracle's
  /// envelope check consumes.  Interval::everything() when the view cannot
  /// bound the neighbor (yet).
  [[nodiscard]] Interval peer_clock_bounds(ProcId peer) const;

 private:
  void on_datagram(std::span<const std::uint8_t> bytes);
  /// `arrival_lt` is this clock's reading when the datagram came off the
  /// transport, captured before the handler serialized on the node lock;
  /// the gap to the receive event's mint becomes the record's slack.
  void handle_data(const DataMsg& msg, LocalTime arrival_lt);
  void handle_ack(ProcId from, std::uint64_t processed_hw,
                  std::uint64_t seen_hw);
  void handle_skip(const SkipMsg& msg);
  void handle_probe(const ProbeReq& msg);
  void handle_metrics(const MetricsReq& msg);
  void handle_client_req(const ClientReq& msg);
  void handle_join_req(const JoinReqMsg& msg);
  void handle_join_ack(const JoinAckMsg& msg);
  void handle_leave(const LeaveMsg& msg);
  /// Admission/retirement cores (mu_ held).  `bind_sender` binds the peer's
  /// transport address to the datagram source being handled (inbound joins).
  PeerState& admit_locked(ProcId peer, bool bind_sender);
  void retire_locked(ProcId peer);
  /// Records one trace event at this node; no-op without a tracer.
  void trace(TraceEventKind kind, std::uint64_t trace_id, ProcId peer,
             double value = 0.0) const {
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->record(kind, trace_id, cfg_.self, peer, value);
    }
  }
  /// One externalization at `now` (mu_ held): the estimate, its width
  /// histogram and kExternalize event, a re-steer of the disciplined clock
  /// toward it (decision 21), then the clock's reading against it — every
  /// estimate that leaves the node pulls the output clock with it, and the
  /// reading it leaves with is the post-steer one.
  [[nodiscard]] NodeSample externalize_locked(LocalTime now) const;
  void poll_peer(ProcId peer, PeerState& state);
  void send_skip(ProcId peer, PeerState& state);
  void send_ack(ProcId peer, const PeerState& state);
  void transmit(ProcId to, const Datagram& dgram);
  /// Durably commit to never processing `msg` (advance last_seen, persist,
  /// ack) without touching the CSA — the sender resolves it as a loss.
  void renounce_data(const DataMsg& msg, PeerState& state);
  /// Adds 1 to `peer`'s suspicion score and quarantines it when the score
  /// crosses cfg_.quarantine_threshold.
  void raise_suspicion(PeerState& state, ProcId peer, std::uint64_t trace_id);
  /// Multiplies a cadence by the peer's backoff factor and ±15% jitter.
  [[nodiscard]] double backed_off(double base, const PeerState& state);
  EventRecord make_own_event(EventKind kind, ProcId peer, EventId match);
  void persist();
  /// Encodes the checkpoint image's node header, up to and including the
  /// CSA image's length, into checkpoint_header_.
  void encode_checkpoint_header(std::size_t csa_image_size);
  void load_checkpoint(std::span<const std::uint8_t> bytes);
  /// The timer work (Transport::set_timer): polls, fate timeouts, skip
  /// retries and session reaping that are due at the current local time.
  /// Returns the local seconds until the next of them.  A call before
  /// next_timer_ finds nothing due and does nothing.
  double on_timer();
  /// The export snapshot at local time `now` (one query_time_locked()
  /// reading), built under mu_; the two renderers below read it and the
  /// histograms, and no other node state.
  [[nodiscard]] NodeStats stats_locked(LocalTime now) const;
  [[nodiscard]] std::string stats_json_locked(LocalTime now) const;
  [[nodiscard]] std::string metrics_text_locked(LocalTime now) const;
  [[nodiscard]] LocalTime query_time_locked() const;

  NodeConfig cfg_;
  std::unique_ptr<Csa> csa_;
  std::unique_ptr<TimeSource> time_source_;
  std::unique_ptr<Transport> transport_;

  mutable std::mutex mu_;
  bool running_ = false;
  /// Local time of the next timer pass; -inf makes the next call run one
  /// (an admission must poll at once).
  LocalTime next_timer_ = -std::numeric_limits<double>::infinity();
  /// persist()'s buffers, reused so a checkpoint allocates only the CSA's
  /// image: the encoded node header and the temporary file's path.
  std::vector<std::uint8_t> checkpoint_header_;
  std::string checkpoint_tmp_path_;
  /// Active members + journaled former members (runtime/membership.h).
  MembershipTable membership_;
  std::uint32_t next_event_seq_ = 0;
  /// Local time of the last minted event; -inf until the first one, so a
  /// clock reading below zero mints at its own reading.
  LocalTime last_event_lt_ = -std::numeric_limits<double>::infinity();
  /// The counters the node bumps itself; stats_locked() adds the rest.
  NodeStats stats_;
  /// Estimate-width distribution over externalizations (seconds); mutable
  /// because estimate()/sample() are logically const reads.  Guarded by mu_.
  mutable Histogram width_hist_;
  /// Disciplined output clock (decision 21), re-steered on every
  /// externalization; mutable for the same reason as width_hist_.  The
  /// steering-jump and worst-case-error distributions ride the same
  /// Prometheus path as the width histogram.
  mutable clock::DisciplinedClock disc_clock_;
  mutable Histogram clock_jump_hist_;
  mutable Histogram clock_error_hist_;
  /// Inbound-datagram handling latency (seconds), measured inside mu_.
  Histogram handle_hist_;
  /// Per-neighbor gradient (Kuhn–Lenzen–Locher–Oshman sense): each poll
  /// samples the CSA's bounds on that neighbor's clock at the poll's local
  /// time — skew is the bound midpoint's offset from our own reading, width
  /// the bound's uncertainty.  Unbounded neighbors are not binned.
  Histogram gradient_skew_hist_;
  Histogram gradient_width_hist_;
  /// Serving tier; null unless cfg_.serve_max_clients > 0.  Guarded by mu_
  /// like all protocol state.
  std::unique_ptr<serve::Server> serve_;
  /// Local time of the next idle reap.
  LocalTime next_reap_ = -std::numeric_limits<double>::infinity();
  Rng jitter_rng_;  ///< Backoff jitter only; never touches protocol state.
};

}  // namespace driftsync::runtime
