#include "runtime/node.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include <unistd.h>

#include "common/alloc_stats.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/json.h"
#include "core/wire.h"

namespace driftsync::runtime {

namespace {

constexpr char kCkptMagic[4] = {'D', 'S', 'N', 'D'};
/// v2 adds a per-entry active flag so journaled former members persist;
/// v1 images (all entries implicitly active) still restore.
constexpr std::uint64_t kCkptVersion = 2;

/// Two events of one processor must have distinct, increasing local times
/// (the paper's clocks are strictly increasing); a coarse TimeSource can
/// return equal readings back to back, so we nudge by this much.
constexpr double kMinTimeStep = 1e-9;

/// Peer health: the poll-cadence multiplier of a quarantined peer, and the
/// cap on the backoff exponent (cadences back off to at most 2^6 = 64x).
constexpr double kQuarantineProbeFactor = 16.0;
constexpr std::uint32_t kBackoffCap = 6;

/// The longest a timer call puts off the next one (local seconds): the
/// wait of a node with no peers and nothing to reap.
constexpr double kIdleTimer = 3600.0;

/// The export list: every scalar a node exports, named once.  Each row is
/// f(json_key, prometheus_series, value) with an integer value (printed as
/// one) or a double (json::number; non-finite is null in JSON, NaN/±Inf in
/// Prometheus).  A null json_key marks a Prometheus-only aggregate whose
/// per-peer breakdown the JSON carries as a map.
template <typename F>
void for_each_export(const NodeStats& s, F&& f) {
  const double undefined = std::nan("");
  f("lt", "driftsync_local_time_seconds", s.lt);
  f("lo", "driftsync_estimate_lo_seconds", s.est.lo);
  f("hi", "driftsync_estimate_hi_seconds", s.est.hi);
  f("width", "driftsync_estimate_width_seconds", s.width);
  // Disciplined output clock (decision 21): the monotone reading next to
  // the raw interval (undefined until initialized), its worst-case error
  // bound, and the steering counters.
  f("disciplined", "driftsync_clock_disciplined_seconds",
    s.disc.initialized ? s.disc.out : undefined);
  f("clock_err", "driftsync_clock_error_bound_seconds",
    s.disc.initialized ? s.disc.err_bound : undefined);
  f("clock_drift", "driftsync_clock_drift", s.clock_drift);
  f("clock_resteers", "driftsync_clock_resteers", s.clock_resteers);
  f("clock_holds", "driftsync_clock_holds", s.clock_holds);
  f("clock_slew_clamps", "driftsync_clock_slew_clamps", s.clock_slew_clamps);
  f("dgrams_in", "driftsync_dgrams_in", s.dgrams_in);
  f("dgrams_out", "driftsync_dgrams_out", s.dgrams_out);
  f("bytes_in", "driftsync_bytes_in", s.bytes_in);
  f("bytes_out", "driftsync_bytes_out", s.bytes_out);
  f("decode_drops", "driftsync_decode_drops", s.decode_drops);
  f("ignored_dgrams", "driftsync_ignored_dgrams", s.ignored_dgrams);
  f("duplicate_dgrams", "driftsync_duplicate_dgrams", s.duplicate_dgrams);
  f("loss_declarations", "driftsync_loss_declarations", s.loss_declarations);
  f("deliveries_confirmed", "driftsync_deliveries_confirmed",
    s.deliveries_confirmed);
  f("skips_sent", "driftsync_skips_sent", s.skips_sent);
  f("checkpoints_written", "driftsync_checkpoints_written",
    s.checkpoints_written);
  f("checkpoint_failures", "driftsync_checkpoint_failures",
    s.checkpoint_failures);
  f("events", "driftsync_events", s.events);
  f("infeasible_rejected", "driftsync_infeasible_rejected",
    s.infeasible_rejected);
  // Byzantine defense (DESIGN.md decision 18).
  f("suspect_rejected", "driftsync_byzantine_suspect_rejected",
    s.suspect_rejected);
  f("replay_rejected", "driftsync_byzantine_replay_rejected",
    s.replay_rejected);
  f("cross_check_failures", "driftsync_byzantine_cross_check_failures",
    s.cross_check_failures);
  f("equivocations_detected", "driftsync_byzantine_equivocations",
    s.equivocations_detected);
  double suspicion_total = 0.0;
  for (const auto& [peer, score] : s.suspicion) suspicion_total += score;
  f(nullptr, "driftsync_byzantine_suspicion_total", suspicion_total);
  f("peer_quarantines", "driftsync_peer_quarantines", s.peer_quarantines);
  f("peer_readmissions", "driftsync_peer_readmissions", s.peer_readmissions);
  f("backoff_resets", "driftsync_backoff_resets", s.backoff_resets);
  // Dynamic membership (decision 19).
  f("peer_joins", "driftsync_peer_joins", s.peer_joins);
  f("peer_leaves", "driftsync_peer_leaves", s.peer_leaves);
  f("membership_active", "driftsync_membership_active", s.membership_active);
  f("membership_journal", "driftsync_membership_journal", s.peers_journaled);
  f("msg_path_allocs", "driftsync_msg_path_allocs", s.msg_path_allocs);
  f("msg_path_alloc_bytes", "driftsync_msg_path_alloc_bytes",
    s.msg_path_alloc_bytes);
  // Serving tier (all zero unless --serve is on).
  f("serve_requests", "driftsync_serve_requests", s.serve_requests);
  f("serve_active", "driftsync_serve_active", s.serve_active);
  f("serve_evicted", "driftsync_serve_evicted", s.serve_evicted);
  f("serve_reaped", "driftsync_serve_reaped", s.serve_reaped);
  f("serve_rejected", "driftsync_serve_rejected", s.serve_rejected);
  const TransportStats& ts = s.transport;
  f("transport_send_drops", "driftsync_transport_send_drops", ts.send_drops);
  f("transport_recv_drops", "driftsync_transport_recv_drops", ts.recv_drops);
  f("transport_socket_errors", "driftsync_transport_socket_errors",
    ts.socket_errors);
  f("transport_recv_batches", "driftsync_transport_recv_batches",
    ts.recv_batches);
  f("transport_recv_datagrams", "driftsync_transport_recv_datagrams",
    ts.recv_datagrams);
  f("transport_send_batches", "driftsync_transport_send_batches",
    ts.send_batches);
  f("transport_send_datagrams", "driftsync_transport_send_datagrams",
    ts.send_datagrams);
  const CsaStats& cs = s.csa;
  f("payload_bytes_sent", "driftsync_payload_bytes_sent",
    cs.payload_bytes_sent);
  f("payload_bytes_received", "driftsync_payload_bytes_received",
    cs.payload_bytes_received);
  f("reports_sent", "driftsync_reports_sent", cs.reports_sent);
  f("history_events", "driftsync_history_events", cs.history_events);
  f("live_points", "driftsync_live_points", cs.live_points);
  f("apsp_relaxations", "driftsync_apsp_relaxations", cs.apsp_relaxations);
  f("gc_passes", "driftsync_gc_passes", cs.gc_passes);
  f("state_bytes", "driftsync_state_bytes", cs.state_bytes);
  f("checkpoint_cache_bytes", "driftsync_checkpoint_cache_bytes",
    cs.checkpoint_cache_bytes);
  f("scratch_bytes", "driftsync_scratch_bytes", cs.scratch_bytes);
  f("trace_recorded", "driftsync_trace_recorded", s.trace_recorded);
  f("trace_dropped", "driftsync_trace_dropped", s.trace_dropped);
}

/// One step of FNV-1a over a whole 64-bit word: xor, then multiply by the
/// odd FNV prime.  Each step is a bijection of h, so two digests differ
/// whenever exactly one field does; a word per step instead of a byte
/// keeps the digest off the datagram path's profile.
std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Replay-hardening digest over every semantic field of a data datagram.
/// An honest transport may redeliver a datagram, but only byte-identically;
/// the same dgram_seq with a different digest is a mutated replay.
std::uint64_t data_msg_digest(const DataMsg& msg) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a_word(h, msg.dgram_seq);
  h = fnv1a_word(h, msg.send_seq);
  h = fnv1a_word(h, msg.app_tag);
  h = fnv1a_word(h, double_bits(msg.send_lt));
  for (const EventRecord& r : msg.payload.reports) {
    h = fnv1a_word(h, (static_cast<std::uint64_t>(r.id.proc) << 32) |
                          r.id.seq);
    h = fnv1a_word(h, double_bits(r.lt));
    h = fnv1a_word(h, static_cast<std::uint64_t>(r.kind));
    h = fnv1a_word(h, (static_cast<std::uint64_t>(r.peer) << 32) |
                          r.match.seq);
    h = fnv1a_word(h, r.match.proc);
  }
  for (const double s : msg.payload.scalars) {
    h = fnv1a_word(h, double_bits(s));
  }
  return h;
}

}  // namespace

Node::Node(NodeConfig config, std::unique_ptr<Csa> csa,
           std::unique_ptr<TimeSource> time_source,
           std::unique_ptr<Transport> transport)
    : cfg_(std::move(config)),
      csa_(std::move(csa)),
      time_source_(std::move(time_source)),
      transport_(std::move(transport)),
      // 100 µs .. ~26 s: spans loopback widths through badly diverged ones.
      width_hist_(Histogram::exponential(1e-4, 4.0, 10)),
      disc_clock_([this] {
        clock::DisciplineOptions copts;
        copts.max_slew = cfg_.clock_max_slew > 0.0
                             ? cfg_.clock_max_slew
                             : std::max(cfg_.spec.clock(cfg_.self).rho, 1e-4);
        copts.steer_horizon = cfg_.clock_steer_horizon;
        return copts;
      }()),
      // 100 ns .. ~0.1 s: steering jumps (midpoint moves per externalize).
      clock_jump_hist_(Histogram::exponential(1e-7, 4.0, 11)),
      // 10 µs .. ~2.6 s: worst-case disciplined error vs the interval.
      clock_error_hist_(Histogram::exponential(1e-5, 4.0, 9)),
      // 1 µs .. ~0.26 s: datagram handling including persist().
      handle_hist_(Histogram::exponential(1e-6, 4.0, 10)),
      // 1 µs .. ~4 s: per-neighbor gradient skew/width (poll-sampled).
      gradient_skew_hist_(Histogram::exponential(1e-6, 4.0, 12)),
      gradient_width_hist_(Histogram::exponential(1e-6, 4.0, 12)) {
  DS_CHECK(csa_ && time_source_ && transport_);
  DS_CHECK(cfg_.self < cfg_.spec.num_procs());
  DS_CHECK(cfg_.poll_period > 0.0 && cfg_.fate_timeout > 0.0 &&
           cfg_.skip_retry > 0.0);
  DS_CHECK(cfg_.clock_max_slew >= 0.0 && cfg_.clock_max_slew < 1.0);
  DS_CHECK(cfg_.clock_steer_horizon > 0.0);
  DS_CHECK(cfg_.quarantine_threshold > 0);
  // Jitter decorrelates peers' retry storms; it never touches protocol
  // state.  The node's id and its first clock reading seed it, so a daemon
  // restart draws afresh while a virtual-time run replays.
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
  jitter_seed ^= static_cast<std::uint64_t>(cfg_.self) << 32;
  jitter_seed ^= double_bits(time_source_->now());
  jitter_rng_.reseed(jitter_seed);
  if (cfg_.peers.empty()) cfg_.peers = cfg_.spec.neighbors(cfg_.self);
  for (const ProcId p : cfg_.peers) {
    DS_CHECK_MSG(cfg_.spec.are_neighbors(cfg_.self, p),
                 "peer is not a neighbor in the spec");
  }
  if (cfg_.serve_max_clients > 0) {
    DS_CHECK(cfg_.serve_idle_timeout > 0.0 && cfg_.serve_evict_grace >= 0.0);
    serve::Server::Options sopts;
    sopts.sessions.max_clients = cfg_.serve_max_clients;
    sopts.sessions.idle_timeout = cfg_.serve_idle_timeout;
    sopts.sessions.evict_grace = cfg_.serve_evict_grace;
    serve_ = std::make_unique<serve::Server>(sopts);
  }
}

Node::~Node() { stop(); }

void Node::start() {
  std::unique_lock<std::mutex> lock(mu_);
  DS_CHECK_MSG(!running_, "node started twice");
  csa_->init(cfg_.spec, cfg_.self);
  // The configured startup roster is membership, not churn: no join
  // counters, no CSA hooks — stats and CsaStats stay zero for a static
  // mesh, so churn counters mean what they say.
  membership_.reserve(cfg_.peers.size());
  for (const ProcId p : cfg_.peers) membership_.admit(p);
  if (!cfg_.checkpoint_path.empty()) {
    if (csa_->checkpoint().empty()) {
      throw CheckpointError(std::string(csa_->name()) +
                            " does not support checkpointing; start without "
                            "a checkpoint path");
    }
    checkpoint_tmp_path_ = cfg_.checkpoint_path + ".tmp";
    if (FILE* f = std::fopen(cfg_.checkpoint_path.c_str(), "rb")) {
      std::vector<std::uint8_t> bytes;
      std::uint8_t buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        bytes.insert(bytes.end(), buf, buf + n);
      }
      std::fclose(f);
      load_checkpoint(bytes);  // Throws CheckpointError on a bad image.
    }
  }
  // Stagger initial polls so an n-node restart does not burst.
  const double now = time_source_->now();
  std::size_t i = 0;
  const double denom = static_cast<double>(membership_.active_count() + 1);
  membership_.for_each_active([&](PeerState& state) {
    state.next_poll =
        now + cfg_.poll_period * static_cast<double>(++i) / denom;
  });
  running_ = true;
  lock.unlock();
  transport_->set_timer([this] { return on_timer(); });
  transport_->start(
      [this](std::span<const std::uint8_t> bytes) { on_datagram(bytes); });
}

void Node::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  transport_->stop();
}

NodeSample Node::externalize_locked(LocalTime now) const {
  NodeSample s;
  s.lt = now;
  s.est = csa_->estimate(now);
  const double width = s.est.width();
  // An unbounded estimate (infinite width) is still an externalization
  // event, but poisoning the histogram's sum with inf would break the
  // Prometheus exposition — only finite widths are binned.
  if (std::isfinite(width)) width_hist_.add(width);
  trace(TraceEventKind::kExternalize, 0, kInvalidProc, width);
  // Every externalized estimate re-steers the disciplined output clock
  // (decision 21): the scalar timestamp consumers read tracks exactly what
  // the node has published, never a fresher private view.
  const clock::SteerDecision d = disc_clock_.steer(now, s.est);
  if (d.kind == clock::SteerDecision::Kind::kSteer) {
    clock_jump_hist_.add(std::fabs(d.error));
  }
  s.disc = disc_clock_.reading(now, s.est);
  if (std::isfinite(s.disc.err_bound)) clock_error_hist_.add(s.disc.err_bound);
  return s;
}

Interval Node::estimate() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return externalize_locked(query_time_locked()).est;
}

NodeSample Node::sample() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return externalize_locked(query_time_locked());
}

LocalTime Node::local_time() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return query_time_locked();
}

NodeStats Node::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_locked(query_time_locked());
}

NodeStats Node::stats_locked(LocalTime now) const {
  NodeStats s = stats_;
  s.proc = cfg_.self;
  s.algo = csa_->name();
  if (serve_ != nullptr) {
    const serve::SessionTable::Counters& sc = serve_->sessions().counters();
    s.serve_active = serve_->sessions().size();
    s.serve_evicted = sc.evicted;
    s.serve_reaped = sc.reaped;
    s.serve_rejected = sc.rejected;
  }
  s.transport = transport_->transport_stats();
  s.csa = csa_->stats();
  s.lt = now;
  s.est = csa_->estimate(s.lt);
  s.width = s.est.width();
  s.disc = disc_clock_.reading(s.lt, s.est);
  const clock::AccuracyStats acc = disc_clock_.accuracy();
  s.clock_drift = acc.drift;
  s.clock_resteers = acc.resteers;
  s.clock_holds = acc.holds;
  s.clock_slew_clamps = acc.slew_clamps;
  s.membership_active = membership_.active_count();
  s.peers_journaled = membership_.journal_count();
  if (cfg_.tracer != nullptr) {
    s.trace_recorded = cfg_.tracer->recorded();
    s.trace_dropped = cfg_.tracer->dropped();
  }
  membership_.for_each_active([&](const PeerState& state) {
    const ProcId peer = state.peer;
    s.last_heard[peer] =
        std::isinf(state.last_heard) ? -1.0 : now - state.last_heard;
    if (state.quarantined) s.quarantined.push_back(peer);
    s.suspicion[peer] = state.suspicion;
    s.readmission_cost[peer] = state.readmission_cost != 0
                                   ? state.readmission_cost
                                   : cfg_.quarantine_threshold;
  });
  return s;
}

std::string Node::stats_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_json_locked(query_time_locked());
}

LocalTime Node::query_time_locked() const {
  // estimate() requires now >= the last event's local time; a coarse or
  // scaled clock could otherwise read an instant below it.
  const LocalTime now = time_source_->now();
  return now > last_event_lt_ ? now : last_event_lt_;
}

std::string Node::stats_json_locked(LocalTime now) const {
  const NodeStats s = stats_locked(now);
  std::string out = "{\"proc\":" + std::to_string(s.proc) +
                    ",\"algo\":" + json::quote(s.algo);
  for_each_export(s, [&out](const char* key, const char*, auto v) {
    if (key == nullptr) return;
    out += ",\"";
    out += key;
    out += "\":";
    if constexpr (std::is_integral_v<decltype(v)>) {
      out += std::to_string(v);
    } else {
      out += json::number(v);
    }
  });
  // Per-peer health: seconds since last heard (null = never), the
  // quarantine roster, and every nonzero (decayed) suspicion score — the
  // suspect set a violation dump names.
  const auto key = [&out](ProcId peer) {
    out += '"' + std::to_string(peer) + "\":";
  };
  const char* sep = "";
  out += ",\"last_heard\":{";
  for (const auto& [peer, ago] : s.last_heard) {
    out += std::exchange(sep, ",");
    key(peer);
    out += ago < 0.0 ? "null" : json::number(ago);
  }
  sep = "";
  out += "},\"quarantined\":[";
  for (const ProcId peer : s.quarantined) {
    out += std::exchange(sep, ",");
    out += std::to_string(peer);
  }
  sep = "";
  out += "],\"suspicion\":{";
  for (const auto& [peer, score] : s.suspicion) {
    if (score <= 0.0) continue;
    out += std::exchange(sep, ",");
    key(peer);
    out += json::number(score);
  }
  out += "}}";
  return out;
}

std::string Node::metrics_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return metrics_text_locked(query_time_locked());
}

std::string Node::metrics_text_locked(LocalTime now) const {
  const NodeStats s = stats_locked(now);
  const std::string labels = "node=\"" + std::to_string(s.proc) + '"';
  std::string out;
  for_each_export(s, [&out, &labels](const char*, const char* series,
                                     auto v) {
    out += series;
    out += '{';
    out += labels;
    out += "} ";
    if constexpr (std::is_integral_v<decltype(v)>) {
      out += std::to_string(v);
    } else if (std::isnan(v)) {
      out += "NaN";  // The text format spells non-finite values out.
    } else if (std::isinf(v)) {
      out += v > 0.0 ? "+Inf" : "-Inf";
    } else {
      out += json::number(v);
    }
    out += '\n';
  });
  append_prometheus(out, "driftsync_width_seconds", labels, width_hist_);
  append_prometheus(out, "driftsync_clock_jump_seconds", labels,
                    clock_jump_hist_);
  append_prometheus(out, "driftsync_clock_error_seconds", labels,
                    clock_error_hist_);
  append_prometheus(out, "driftsync_handle_seconds", labels, handle_hist_);
  append_prometheus(out, "driftsync_gradient_skew_seconds", labels,
                    gradient_skew_hist_);
  append_prometheus(out, "driftsync_gradient_width_seconds", labels,
                    gradient_width_hist_);
  if (serve_ != nullptr) {
    append_prometheus(out, "driftsync_serve_width_seconds", labels,
                      serve_->width_hist());
  }
  transport_->append_metrics(out, labels);
  return out;
}

EventRecord Node::make_own_event(EventKind kind, ProcId peer, EventId match) {
  EventRecord rec;
  rec.id = EventId{cfg_.self, next_event_seq_++};
  const LocalTime now = time_source_->now();
  rec.lt = now > last_event_lt_ ? now : last_event_lt_ + kMinTimeStep;
  last_event_lt_ = rec.lt;
  rec.kind = kind;
  rec.peer = peer;
  rec.match = match;
  ++stats_.events;
  return rec;
}

void Node::transmit(ProcId to, const Datagram& dgram) {
  // Encode into a transport-recycled buffer: on a pooled transport
  // (UdpTransport) the reply path then allocates nothing in steady state.
  std::vector<std::uint8_t> bytes = transport_->take_buffer(to);
  encode_datagram_into(bytes, dgram);
  ++stats_.dgrams_out;
  stats_.bytes_out += bytes.size();
  transport_->send(to, std::move(bytes));
}

void Node::poll_peer(ProcId peer, PeerState& state) {
  DS_CHECK(state.fate == PeerFate::kNone);
  // Gradient sample at the poll cadence: what the fused view can say about
  // this neighbor's clock right now.  Unbounded (no usable path yet) stays
  // out of the histograms so cold-start does not read as divergence.
  {
    const LocalTime now = query_time_locked();
    const Interval nb = csa_->peer_clock_estimate(peer, now);
    if (!nb.empty() && std::isfinite(nb.width())) {
      gradient_width_hist_.add(nb.width());
      gradient_skew_hist_.add(std::abs(0.5 * (nb.lo + nb.hi) - now));
    }
  }
  const EventRecord send_event = make_own_event(
      EventKind::kSend, peer, kInvalidEvent);
  const SendContext ctx{cfg_.self, peer, send_event, 0};
  CsaPayload payload = csa_->on_send(ctx);
  state.fate = PeerFate::kAwaitingAck;
  state.pending_seq = state.out_seq_next++;
  state.pending_send_seq = send_event.id.seq;
  state.fate_deadline = time_source_->now() + cfg_.fate_timeout;
  persist();  // Write-ahead: the event exists durably before it is visible.
  DataMsg msg;
  msg.from = cfg_.self;
  msg.dgram_seq = state.pending_seq;
  msg.processed_hw = state.last_processed;
  msg.seen_hw = state.last_seen;
  msg.app_tag = 0;
  msg.send_seq = send_event.id.seq;
  msg.send_lt = send_event.lt;
  msg.payload = std::move(payload);
  if (cfg_.tracer != nullptr) {
    // The id is a pure function of (sender, receiver, dgram_seq), so a node
    // restarting from a checkpoint re-mints the same id when it aborts the
    // same datagram — trace continuity needs no extra persisted state.
    msg.trace_id = mint_trace_id(cfg_.self, peer, state.pending_seq);
    trace(TraceEventKind::kSend, msg.trace_id, peer);
  }
  transmit(peer, Datagram{std::move(msg)});
}

void Node::send_skip(ProcId peer, PeerState& state) {
  DS_CHECK(state.fate == PeerFate::kAborting);
  state.fate_deadline =
      time_source_->now() + backed_off(cfg_.skip_retry, state);
  ++stats_.skips_sent;
  transmit(peer, Datagram{SkipMsg{cfg_.self, state.pending_seq}});
}

double Node::backed_off(double base, const PeerState& state) {
  const double factor =
      static_cast<double>(std::uint64_t{1} << state.backoff_exp);
  return base * factor * (0.85 + 0.3 * jitter_rng_.next_double());
}

void Node::send_ack(ProcId peer, const PeerState& state) {
  transmit(peer,
           Datagram{AckMsg{cfg_.self, state.last_processed, state.last_seen}});
}

void Node::on_datagram(std::span<const std::uint8_t> bytes) {
  // Arrival stamp BEFORE decode and before the lock wait below: the time a
  // datagram spends queued behind other handlers must not be charged to
  // the wire when the receive event's transit constraint is built (see
  // EventRecord::slack).  TimeSource::now() is a lock-free affine read.
  const LocalTime arrival_lt = time_source_->now();
  Datagram dgram;
  try {
    dgram = decode_datagram(bytes);
  } catch (const WireError&) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.decode_drops;
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t allocs_before = alloc_stats::allocations();
  const std::uint64_t alloc_bytes_before = alloc_stats::allocated_bytes();
  const double handle_start = time_source_->now();
  ++stats_.dgrams_in;
  stats_.bytes_in += bytes.size();
  if (const auto* data = std::get_if<DataMsg>(&dgram)) {
    handle_data(*data, arrival_lt);
  } else if (const auto* ack = std::get_if<AckMsg>(&dgram)) {
    if (membership_.find(ack->from) == nullptr) {
      ++stats_.ignored_dgrams;
    } else {
      handle_ack(ack->from, ack->processed_hw, ack->seen_hw);
    }
  } else if (const auto* skip = std::get_if<SkipMsg>(&dgram)) {
    handle_skip(*skip);
  } else if (const auto* probe = std::get_if<ProbeReq>(&dgram)) {
    handle_probe(*probe);
  } else if (const auto* metrics = std::get_if<MetricsReq>(&dgram)) {
    handle_metrics(*metrics);
  } else if (const auto* client = std::get_if<ClientReq>(&dgram)) {
    handle_client_req(*client);
  } else if (const auto* join = std::get_if<JoinReqMsg>(&dgram)) {
    handle_join_req(*join);
  } else if (const auto* join_ack = std::get_if<JoinAckMsg>(&dgram)) {
    handle_join_ack(*join_ack);
  } else if (const auto* leave = std::get_if<LeaveMsg>(&dgram)) {
    handle_leave(*leave);
  } else {
    ++stats_.ignored_dgrams;  // Responses: nodes never consume them.
  }
  handle_hist_.add(time_source_->now() - handle_start);
  stats_.msg_path_allocs += alloc_stats::allocations() - allocs_before;
  stats_.msg_path_alloc_bytes +=
      alloc_stats::allocated_bytes() - alloc_bytes_before;
}

void Node::handle_data(const DataMsg& msg, LocalTime arrival_lt) {
  PeerState* sp = membership_.find(msg.from);
  if (sp == nullptr) {
    ++stats_.ignored_dgrams;
    return;
  }
  PeerState& state = *sp;
  // The piggybacked cumulative ack first: it may resolve our own fate.
  handle_ack(msg.from, msg.processed_hw, msg.seen_hw);
  if (msg.dgram_seq <= state.last_seen) {
    // Already processed, or renounced via a skip commit.  Never process it
    // now — but re-ack, since our previous ack may have been lost.
    if (msg.dgram_seq == state.digest_seq &&
        data_msg_digest(msg) != state.digest) {
      // Same sequence number, different content: a mutated replay of an
      // observation already resolved.  An honest transport can duplicate a
      // datagram but never alter it — the retelling is a lie.
      ++stats_.replay_rejected;
      raise_suspicion(state, msg.from, msg.trace_id);
    } else if (msg.dgram_seq <= state.last_processed) {
      ++stats_.duplicate_dgrams;  // Redelivery of a processed datagram.
    } else {
      ++stats_.ignored_dgrams;
    }
    send_ack(msg.from, state);
    return;
  }
  // First sighting of this dgram_seq: remember its digest so a future
  // redelivery that arrives mutated is distinguishable from an honest
  // duplicate.
  state.digest_seq = msg.dgram_seq;
  state.digest = data_msg_digest(msg);
  // Spec-violation screen (see NodeConfig).  A renounced observation never
  // reaches ingestion, so the view is never poisoned and the sender soundly
  // resolves the datagram as a loss; verdicts drive the decaying suspicion
  // score, which drives the quarantine state machine.  Feasibility is
  // judged at ARRIVAL, not at processing: a datagram that waited out a lock
  // convoy is not thereby "too old", and a forged send_lt from the future
  // is compared against the earlier (stricter) reading the claim had to be
  // feasible at.
  const ObservationScreen screen =
      csa_->screen_message(msg.from, msg.send_lt, arrival_lt, msg.payload);
  if (screen.implicated != kInvalidProc) {
    // Equivocation evidence: the implicated peer told someone else a
    // different story about the same event.  When the carrier is an
    // honest relay the message itself may still be kOk — only the
    // equivocator's score is raised.
    ++stats_.equivocations_detected;
    PeerState* imp = membership_.find(screen.implicated);
    if (imp != nullptr && screen.implicated != msg.from) {
      raise_suspicion(*imp, screen.implicated, msg.trace_id);
    }
  }
  if (screen.verdict != ObservationVerdict::kOk) {
    if (screen.verdict == ObservationVerdict::kInfeasible) {
      ++stats_.infeasible_rejected;
    } else {
      ++stats_.suspect_rejected;
    }
    // When the evidence implicates a THIRD party (inconsistent records
    // the sender merely relays), the message is still renounced — it
    // cannot be ingested without contradiction — but the honest carrier
    // is not punished: its score stays, its readmission streak is not
    // reset.  The implicated peer's score was raised above.
    if (screen.implicated == kInvalidProc || screen.implicated == msg.from) {
      state.feasible_streak = 0;
      raise_suspicion(state, msg.from, msg.trace_id);
    }
    renounce_data(msg, state);
    return;
  }
  state.suspicion *= cfg_.suspicion_decay;
  if (state.suspicion < 1e-6) state.suspicion = 0.0;
  if (state.quarantined) {
    const std::uint32_t need = state.readmission_cost != 0
                                   ? state.readmission_cost
                                   : cfg_.quarantine_threshold;
    if (++state.feasible_streak < need) {
      // Feasible, but the peer has not re-earned trust yet: renounce,
      // keep probing.
      renounce_data(msg, state);
      return;
    }
    state.quarantined = false;
    state.feasible_streak = 0;
    // Escalating readmission: the next one costs twice as many feasible
    // probes, and the residual suspicion means a peer that resumes lying
    // is re-quarantined after fewer lies than the first time.
    state.readmission_cost =
        std::min<std::uint32_t>(need * 2, cfg_.quarantine_threshold * 64);
    state.suspicion = 0.5 * static_cast<double>(cfg_.quarantine_threshold);
    ++stats_.peer_readmissions;
    trace(TraceEventKind::kQuarantineExit, msg.trace_id, msg.from);
    // Fall through: this observation is the first one readmitted.
  }
  // Mint the receive event and attempt validated ingestion.  A rollback
  // (the CSA found the batch inconsistent with the view mid-merge) un-mints
  // the event — it was never externalized; persist/ack happen only below —
  // so the own-event sequence stays gapless.
  const std::uint32_t saved_event_seq = next_event_seq_;
  const std::uint64_t saved_events = stats_.events;
  EventRecord recv_event =
      make_own_event(EventKind::kReceive, msg.from,
                     EventId{msg.from, msg.send_seq});
  // Mint-minus-arrival: the handler latency this datagram actually paid.
  // The max() guards a time source whose reads are only non-decreasing
  // across threads (the mint above re-read the clock under the lock).
  recv_event.slack = std::max(0.0, recv_event.lt - arrival_lt);
  EventRecord send_event;
  send_event.id = EventId{msg.from, msg.send_seq};
  send_event.lt = msg.send_lt;
  send_event.kind = EventKind::kSend;
  send_event.peer = cfg_.self;
  const RecvContext ctx{cfg_.self, msg.from, recv_event, send_event,
                        msg.app_tag};
  if (!csa_->on_receive_validated(ctx, msg.payload)) {
    next_event_seq_ = saved_event_seq;
    stats_.events = saved_events;
    ++stats_.cross_check_failures;
    trace(TraceEventKind::kCrossCheckFail, msg.trace_id, msg.from);
    state.feasible_streak = 0;
    raise_suspicion(state, msg.from, msg.trace_id);
    renounce_data(msg, state);
    return;
  }
  state.last_seen = msg.dgram_seq;
  state.last_processed = msg.dgram_seq;
  trace(TraceEventKind::kDeliver, msg.trace_id, msg.from);
  persist();  // Write-ahead: before the ack makes the receive visible.
  send_ack(msg.from, state);
}

void Node::raise_suspicion(PeerState& state, ProcId peer,
                           std::uint64_t trace_id) {
  state.suspicion += 1.0;
  trace(TraceEventKind::kSuspect, trace_id, peer, state.suspicion);
  if (!state.quarantined &&
      state.suspicion >= static_cast<double>(cfg_.quarantine_threshold)) {
    state.quarantined = true;
    state.feasible_streak = 0;
    ++stats_.peer_quarantines;
    trace(TraceEventKind::kQuarantineEnter, trace_id, peer);
  }
}

void Node::renounce_data(const DataMsg& msg, PeerState& state) {
  state.last_seen = msg.dgram_seq;
  trace(TraceEventKind::kRenounce, msg.trace_id, msg.from);
  persist();  // The renunciation must be durable before the ack announces it.
  send_ack(msg.from, state);
}

void Node::handle_ack(ProcId from, std::uint64_t processed_hw,
                      std::uint64_t seen_hw) {
  PeerState* sp = membership_.find(from);
  if (sp == nullptr) return;  // Raced with a retirement.
  PeerState& state = *sp;
  state.last_heard = time_source_->now();
  if (state.fate == PeerFate::kNone) return;
  const std::uint64_t n = state.pending_seq;
  if (processed_hw >= n) {
    // Processed: the Section 3.3 fate is "delivered".
    csa_->on_delivery_confirmed(from);
    ++stats_.deliveries_confirmed;
  } else if (seen_hw >= n) {
    // Seen (or renounced) but never processed: the fate is "lost" — the
    // receiver has durably committed to never processing it.  Guard with
    // send_unmatched: if the matching receive somehow already reached the
    // view (it cannot under this protocol, but a CSA is the authority on
    // its own state), a loss declaration would be unsound.
    if (csa_->send_unmatched(EventId{cfg_.self, state.pending_send_seq})) {
      const EventRecord decl =
          make_own_event(EventKind::kLossDecl, from,
                         EventId{cfg_.self, state.pending_send_seq});
      csa_->on_internal(decl);
      ++stats_.loss_declarations;
      if (cfg_.tracer != nullptr) {
        // Re-mint rather than store: same (self, from, seq) → same id the
        // datagram carried on the wire.
        trace(TraceEventKind::kDrop,
              mint_trace_id(cfg_.self, from, state.pending_seq), from);
      }
    } else {
      csa_->on_delivery_confirmed(from);
      ++stats_.deliveries_confirmed;
    }
  } else {
    return;  // Stale ack: fate still unknown, keep waiting.
  }
  if (state.fate == PeerFate::kAwaitingAck && state.backoff_exp > 0) {
    // One clean round trip (no timeout) resets the backoff; a fate that
    // resolved only through the abort path keeps the peer backed off until
    // it manages one.
    state.backoff_exp = 0;
    ++stats_.backoff_resets;
  }
  state.fate = PeerFate::kNone;
  persist();
}

void Node::handle_skip(const SkipMsg& msg) {
  PeerState* sp = membership_.find(msg.from);
  if (sp == nullptr) {
    ++stats_.ignored_dgrams;
    return;
  }
  PeerState& state = *sp;
  state.last_heard = time_source_->now();
  if (msg.skip_to > state.last_seen) {
    // Commit: datagrams up to skip_to will never be processed here.  The
    // commit must be durable before the ack that announces it.
    state.last_seen = msg.skip_to;
    if (cfg_.tracer != nullptr) {
      // The committed datagram's id is recomputable from the sender's view.
      trace(TraceEventKind::kSkipCommit,
            mint_trace_id(msg.from, cfg_.self, msg.skip_to), msg.from,
            static_cast<double>(msg.skip_to));
    }
    persist();
  }
  send_ack(msg.from, state);
}

void Node::handle_probe(const ProbeReq& msg) {
  // Steer before rendering stats so the probe reply's disciplined reading
  // reflects this very externalization; the stats are rendered at the same
  // reading, so their lt/lo/hi equal the reply's own.
  const NodeSample s = externalize_locked(query_time_locked());
  ProbeResp resp;
  resp.nonce = msg.nonce;
  resp.from = cfg_.self;
  resp.local_time = s.lt;
  resp.lo = s.est.lo;
  resp.hi = s.est.hi;
  resp.stats_json = stats_json_locked(s.lt);
  // No state changed, so no checkpoint; the requester is not a configured
  // peer, so the reply addresses the transport's reply slot (kReplyPeer =
  // "origin of the datagram being handled").
  transmit(kReplyPeer, Datagram{std::move(resp)});
}

void Node::handle_metrics(const MetricsReq& msg) {
  MetricsResp resp;
  resp.nonce = msg.nonce;
  resp.from = cfg_.self;
  resp.metrics = metrics_text_locked(query_time_locked());
  if (msg.max_trace_events > 0 && cfg_.tracer != nullptr) {
    std::vector<TraceEvent> events = cfg_.tracer->snapshot();
    // Clamp so the reply stays under the 64 KiB UDP datagram ceiling
    // (each exported event is ~110 bytes of JSON).
    const std::size_t cap =
        std::min<std::size_t>(msg.max_trace_events, 400);
    if (events.size() > cap) {
      events.erase(events.begin(),
                   events.end() - static_cast<std::ptrdiff_t>(cap));
    }
    resp.trace_json = trace_to_chrome_json(events);
  }
  transmit(kReplyPeer, Datagram{std::move(resp)});
}

void Node::handle_client_req(const ClientReq& msg) {
  if (serve_ == nullptr) {
    ++stats_.ignored_dgrams;  // Not serving: clients chose the wrong node.
    return;
  }
  const std::uint64_t trace_id =
      cfg_.tracer != nullptr
          ? serve::client_trace_id(msg.client_id, msg.req_seq)
          : 0;
  trace(TraceEventKind::kClientReq, trace_id, kInvalidProc,
        static_cast<double>(msg.req_seq));
  // Serving an estimate externalizes it, exactly like a probe reply, and
  // the client's disciplined reading rides the reply next to the raw
  // interval (optional wire extension): the server's post-steer output
  // plus its worst-case error bound, attached once the clock has
  // initialized against a bounded estimate.
  const NodeSample s = externalize_locked(query_time_locked());
  serve::DisciplinedPoint point;
  if (std::isfinite(s.disc.err_bound)) {
    point.valid = true;
    point.time = s.disc.out;
    point.err_bound = s.disc.err_bound;
  }
  ClientResp resp;
  if (!serve_->handle(msg, cfg_.self, s.est, s.lt, s.lt, &resp, point)) {
    // Rejected at the cap: drop the request silently (the client's retry
    // lands once the grace window or the idle reaper frees a slot).  The
    // rejection is visible through the serve_rejected counter.
    return;
  }
  ++stats_.serve_requests;
  trace(TraceEventKind::kClientResp, trace_id, kInvalidProc, s.est.width());
  transmit(kReplyPeer, Datagram{resp});
}

PeerState& Node::admit_locked(ProcId peer, bool bind_sender) {
  bool newly_active = false;
  PeerState& state = membership_.admit(peer, &newly_active);
  if (bind_sender) {
    // Learn the joiner's transport address from the datagram being handled
    // (UDP: the source address).  Transports that route by ProcId alone
    // report success without needing it.
    [[maybe_unused]] const bool bound = transport_->admit_current_sender(peer);
  }
  if (newly_active) {
    if (state.fate != PeerFate::kNone) {
      // A journaled in-flight datagram's fate is still unresolved — the old
      // incarnation may or may not have processed it.  Renouncing it here
      // would be an unsound loss declaration; resuming as kAborting with an
      // expired deadline re-resolves it through the skip-commit path on the
      // next timer pass instead.
      state.fate = PeerFate::kAborting;
      state.fate_deadline = -std::numeric_limits<double>::infinity();
    }
    csa_->on_peer_join(peer);
    ++stats_.peer_joins;
    // state.next_poll is -inf (reset_health / fresh entry): the next timer
    // call polls this peer, and the transport makes one after every
    // delivery (or before it next advances, for a Hub).
    next_timer_ = -std::numeric_limits<double>::infinity();
  }
  state.last_heard = time_source_->now();
  return state;
}

void Node::retire_locked(ProcId peer) {
  if (!membership_.retire(peer)) return;  // Idempotent.
  // Drop the transport's queued backlog and forget the address; the peer's
  // wire frontier (sequence counters, unresolved fate) stays journaled so a
  // rejoin resumes soundly instead of restarting sequence numbers.
  transport_->retire_peer(peer);
  csa_->on_peer_leave(peer);
  ++stats_.peer_leaves;
}

void Node::handle_join_req(const JoinReqMsg& msg) {
  if (!cfg_.dynamic_join || msg.from == cfg_.self ||
      msg.from >= cfg_.spec.num_procs() ||
      !cfg_.spec.are_neighbors(cfg_.self, msg.from)) {
    ++stats_.ignored_dgrams;
    return;
  }
  admit_locked(msg.from, /*bind_sender=*/true);
  // Idempotent by design: a re-sent JoinReq (our ack was lost) re-acks.
  transmit(kReplyPeer, Datagram{JoinAckMsg{cfg_.self, msg.nonce}});
}

void Node::handle_join_ack(const JoinAckMsg& msg) {
  PeerState* sp = membership_.find(msg.from);
  if (sp == nullptr) {
    ++stats_.ignored_dgrams;  // Never solicited, or already retired again.
    return;
  }
  sp->last_heard = time_source_->now();
}

void Node::handle_leave(const LeaveMsg& msg) {
  if (!cfg_.dynamic_join || membership_.find(msg.from) == nullptr) {
    ++stats_.ignored_dgrams;
    return;
  }
  retire_locked(msg.from);
}

void Node::admit_peer(ProcId peer) {
  DS_CHECK_MSG(peer != cfg_.self && peer < cfg_.spec.num_procs() &&
                   cfg_.spec.are_neighbors(cfg_.self, peer),
               "admit_peer: not a spec neighbor");
  const std::lock_guard<std::mutex> lock(mu_);
  DS_CHECK_MSG(running_, "admit_peer before start");
  admit_locked(peer, /*bind_sender=*/false);
  // Solicit the remote side: it learns our address from this datagram's
  // source and (with dynamic_join on) admits us back.  Zero is reserved as
  // "no nonce" on the wire, hence the bias.
  const std::uint64_t nonce = 1 + (jitter_rng_.next_u64() >> 1);
  transmit(peer, Datagram{JoinReqMsg{cfg_.self, nonce}});
}

void Node::remove_peer(ProcId peer) {
  const std::lock_guard<std::mutex> lock(mu_);
  DS_CHECK_MSG(running_, "remove_peer before start");
  if (membership_.find(peer) == nullptr) return;  // Idempotent.
  // Best-effort courtesy announcement BEFORE the transport forgets the
  // peer's address; its loss costs nothing but a slower discovery (the
  // remote's polls time out into backoff against a silent neighbor).
  transmit(peer, Datagram{LeaveMsg{cfg_.self}});
  retire_locked(peer);
}

Interval Node::peer_clock_bounds(ProcId peer) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return csa_->peer_clock_estimate(peer, query_time_locked());
}

double Node::on_timer() {
  const std::lock_guard<std::mutex> lock(mu_);
  const double now = time_source_->now();
  if (!running_) return kIdleTimer;  // Stopping: the transport stops next.
  if (now < next_timer_) return next_timer_ - now;
  double next = now + kIdleTimer;
  membership_.for_each_active([&](PeerState& state) {
    const ProcId peer = state.peer;
    switch (state.fate) {
      case PeerFate::kAwaitingAck:
        if (now >= state.fate_deadline) {
          // Timeout: abort the datagram's fate via a skip commit.  No
          // persist needed — a restart maps kAwaitingAck to kAborting.
          if (state.backoff_exp < kBackoffCap) ++state.backoff_exp;
          state.fate = PeerFate::kAborting;
          send_skip(peer, state);
        }
        next = std::min(next, state.fate_deadline);
        break;
      case PeerFate::kAborting:
        if (now >= state.fate_deadline) send_skip(peer, state);
        next = std::min(next, state.fate_deadline);
        break;
      case PeerFate::kNone:
        if (now >= state.next_poll) {
          const double period =
              cfg_.poll_period *
              (state.quarantined ? kQuarantineProbeFactor : 1.0);
          state.next_poll = now + backed_off(period, state);
          poll_peer(peer, state);
          next = std::min(next, state.fate_deadline);
        } else {
          next = std::min(next, state.next_poll);
        }
        break;
    }
  });
  if (serve_ != nullptr) {
    if (now >= next_reap_) {
      serve_->reap_idle(now);
      // Reap a few times per idle window: precise enough for bounded
      // memory without waking a mostly-idle server constantly.
      next_reap_ =
          now + std::clamp(cfg_.serve_idle_timeout / 4.0, 0.05, 1.0);
    }
    next = std::min(next, next_reap_);
  }
  csa_->on_tick(query_time_locked());
  next_timer_ = next;
  return next - now;
}

void Node::encode_checkpoint_header(std::size_t csa_image_size) {
  std::vector<std::uint8_t>& out = checkpoint_header_;
  out.assign(kCkptMagic, kCkptMagic + 4);
  wire::put_varint(out, kCkptVersion);
  wire::put_varint(out, cfg_.self);
  wire::put_varint(out, cfg_.spec.num_procs());
  wire::put_varint(out, next_event_seq_);
  // Before the first event the field is a placeholder (load ignores it),
  // kept finite so the image format is unchanged.
  wire::put_double(out, next_event_seq_ == 0 ? 0.0 : last_event_lt_);
  wire::put_varint(out, membership_.size());
  // Every entry — journaled ones included: a departed peer's wire frontier
  // must survive a restart or its rejoin would see restarted sequence
  // numbers.  Ascending ProcId: canonical image.
  membership_.for_each([&out](const PeerState& state) {
    wire::put_varint(out, state.peer);
    out.push_back(state.active ? 1 : 0);
    wire::put_varint(out, state.out_seq_next);
    wire::put_varint(out, state.last_processed);
    wire::put_varint(out, state.last_seen);
    out.push_back(static_cast<std::uint8_t>(state.fate));
    if (state.fate != PeerFate::kNone) {
      wire::put_varint(out, state.pending_seq);
      wire::put_varint(out, state.pending_send_seq);
    }
  });
  wire::put_varint(out, csa_image_size);
}

void Node::load_checkpoint(std::span<const std::uint8_t> bytes) {
  // Parse everything into locals and commit only at the end: a rejected
  // image (CheckpointError) leaves the node exactly as it was.
  std::uint32_t next_event_seq = 0;
  LocalTime last_event_lt = 0.0;
  std::vector<PeerState> entries;
  try {
    if (bytes.size() < 4 || std::memcmp(bytes.data(), kCkptMagic, 4) != 0) {
      throw CheckpointError("bad node checkpoint magic");
    }
    std::size_t offset = 4;
    const std::uint64_t version = wire::get_varint(bytes, offset);
    if (version != 1 && version != kCkptVersion) {
      throw CheckpointError("unknown node checkpoint version");
    }
    if (wire::get_varint(bytes, offset) != cfg_.self) {
      throw CheckpointError("checkpoint belongs to another processor");
    }
    if (wire::get_varint(bytes, offset) != cfg_.spec.num_procs()) {
      throw CheckpointError("checkpoint system size mismatch");
    }
    const std::uint64_t seq = wire::get_varint(bytes, offset);
    if (seq > std::numeric_limits<std::uint32_t>::max()) {
      throw CheckpointError("event sequence does not fit 32 bits");
    }
    next_event_seq = static_cast<std::uint32_t>(seq);
    last_event_lt = wire::get_double(bytes, offset);
    if (!std::isfinite(last_event_lt)) {
      throw CheckpointError("non-finite last event time");
    }
    // An image written before any event carries no local-time floor.
    if (next_event_seq == 0) {
      last_event_lt = -std::numeric_limits<double>::infinity();
    }
    const std::uint64_t num_peers = wire::get_varint(bytes, offset);
    ProcId prev_peer = 0;
    bool first = true;
    for (std::uint64_t i = 0; i < num_peers; ++i) {
      const std::uint64_t peer64 = wire::get_varint(bytes, offset);
      if (peer64 >= kInvalidProc) throw CheckpointError("bad peer id");
      PeerState state;
      state.peer = static_cast<ProcId>(peer64);
      if (!first && state.peer <= prev_peer) {
        throw CheckpointError("peers out of order");
      }
      first = false;
      prev_peer = state.peer;
      if (version >= 2) {
        if (offset >= bytes.size()) {
          throw CheckpointError("truncated active flag");
        }
        const std::uint8_t active = bytes[offset++];
        if (active > 1) throw CheckpointError("bad active flag");
        state.active = active != 0;
      } else {
        state.active = true;  // v1: every persisted peer was active.
      }
      state.out_seq_next = wire::get_varint(bytes, offset);
      if (state.out_seq_next == 0) {
        throw CheckpointError("zero outbound sequence");
      }
      state.last_processed = wire::get_varint(bytes, offset);
      state.last_seen = wire::get_varint(bytes, offset);
      if (state.last_seen < state.last_processed) {
        throw CheckpointError("seen high-water below processed");
      }
      if (offset >= bytes.size()) throw CheckpointError("truncated fate");
      const std::uint8_t fate = bytes[offset++];
      if (fate > 2) throw CheckpointError("unknown fate value");
      state.fate = static_cast<PeerFate>(fate);
      if (state.fate != PeerFate::kNone) {
        state.pending_seq = wire::get_varint(bytes, offset);
        if (state.pending_seq == 0 ||
            state.pending_seq >= state.out_seq_next) {
          throw CheckpointError("pending sequence out of range");
        }
        const std::uint64_t ps = wire::get_varint(bytes, offset);
        if (ps >= next_event_seq) {
          throw CheckpointError("pending send event out of range");
        }
        state.pending_send_seq = static_cast<std::uint32_t>(ps);
      }
      entries.push_back(state);
    }
    const std::uint64_t csa_len = wire::get_varint(bytes, offset);
    if (csa_len > bytes.size() - offset) {
      throw CheckpointError("CSA image overruns buffer");
    }
    if (offset + csa_len != bytes.size()) {
      throw CheckpointError("trailing bytes after CSA image");
    }
    // The estimate contract needs the local clock ahead of every recorded
    // event: CLOCK_MONOTONIC restarts at boot, so this rejects stale
    // images from a previous boot (or the wrong machine).
    if (time_source_->now() < last_event_lt) {
      throw CheckpointError("local clock is behind the checkpoint");
    }
    csa_->restore(bytes.subspan(offset));  // Transactional on its own.
  } catch (const WireError& e) {
    throw CheckpointError(std::string("bad node checkpoint encoding (") +
                          e.what() + ")");
  }
  // Commit.  The CONFIGURED roster decides who is active now: an image
  // written under a different roster loads as the intersection, and every
  // peer it names beyond the roster is journaled — its wire frontier is
  // preserved for a later admission, never resurrected into the active
  // membership and never a reason to reject the image.
  next_event_seq_ = next_event_seq;
  last_event_lt_ = last_event_lt;
  for (const PeerState& entry : entries) {
    PeerState* cur = membership_.find_any(entry.peer);
    const bool in_roster = cur != nullptr && cur->active;
    if (cur == nullptr) {
      cur = &membership_.admit(entry.peer);
      membership_.retire(entry.peer);  // Straight to the journal.
    }
    cur->out_seq_next = entry.out_seq_next;
    cur->last_processed = entry.last_processed;
    cur->last_seen = entry.last_seen;
    cur->fate = entry.fate;
    cur->pending_seq = entry.pending_seq;
    cur->pending_send_seq = entry.pending_send_seq;
    if (in_roster && cur->fate != PeerFate::kNone) {
      // Whatever the pre-crash state, the datagram's fate is unresolved:
      // resume by aborting it (skip commit), immediately.  Journaled
      // entries keep theirs — admission performs the same mapping then.
      cur->fate = PeerFate::kAborting;
      cur->fate_deadline = -std::numeric_limits<double>::infinity();
    }
  }
}

void Node::persist() {
  if (cfg_.checkpoint_path.empty()) return;
  // The image is the node's header followed by the CSA's image, which is
  // written as checkpoint() returned it rather than copied behind the
  // header first.
  const std::vector<std::uint8_t> csa_image = csa_->checkpoint();
  encode_checkpoint_header(csa_image.size());
  const std::vector<std::uint8_t>& header = checkpoint_header_;
  const char* tmp = checkpoint_tmp_path_.c_str();
  FILE* f = std::fopen(tmp, "wb");
  if (f == nullptr) {
    ++stats_.checkpoint_failures;
    return;
  }
  const bool wrote =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(csa_image.data(), 1, csa_image.size(), f) ==
          csa_image.size() &&
      std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!wrote || std::rename(tmp, cfg_.checkpoint_path.c_str()) != 0) {
    ++stats_.checkpoint_failures;
    return;
  }
  ++stats_.checkpoints_written;
  trace(TraceEventKind::kCheckpoint, 0, kInvalidProc,
        static_cast<double>(header.size() + csa_image.size()));
}

}  // namespace driftsync::runtime
