#include "core/sync_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/errors.h"
#include "core/wire.h"

namespace driftsync {

using Handle = graph::IncrementalApsp::Handle;
using HalfEdge = graph::IncrementalApsp::HalfEdge;

SyncEngine::SyncEngine(const SystemSpec& spec, ProcId self, Options opts)
    : spec_(&spec), self_(self), opts_(opts) {
  DS_CHECK(self < spec.num_procs());
  live_.resize(spec.num_procs());
  last_id_.assign(spec.num_procs(), kInvalidEvent);
}

const SyncEngine::LiveNode* SyncEngine::find(EventId id) const {
  if (id.proc >= live_.size()) return nullptr;
  const std::vector<LiveNode>& nodes = live_[id.proc];
  const auto it = std::lower_bound(
      nodes.begin(), nodes.end(), id.seq,
      [](const LiveNode& n, std::uint32_t seq) { return n.rec.id.seq < seq; });
  return it != nodes.end() && it->rec.id.seq == id.seq ? &*it : nullptr;
}

const SyncEngine::LiveNode& SyncEngine::live_at(EventId id) const {
  const LiveNode* node = find(id);
  DS_CHECK_MSG(node != nullptr, "not a live point");
  return *node;
}

const char* describe(IngestVerdict verdict) {
  switch (verdict) {
    case IngestVerdict::kApplied:
      return "applied";
    case IngestVerdict::kSequenceGap:
      return "events of a processor must be ingested in sequence order";
    case IngestVerdict::kOutOfRange:
      return "processor, peer or match outside the spec";
    case IngestVerdict::kClockBackwards:
      return "local clock went backwards";
    case IngestVerdict::kBadSlack:
      return "processing slack must be a non-negative receive-only value";
    case IngestVerdict::kUnmatchedReceive:
      return "receive ingested before its matching send is live";
    case IngestVerdict::kNoLink:
      return "receive over a non-existent link";
    case IngestVerdict::kBadLossDecl:
      return "loss declaration must reference a live send of its own "
             "processor";
    case IngestVerdict::kNegativeCycle:
      return "negative cycle: the real-time specification is inconsistent "
             "with the observed local times";
  }
  return "unknown ingest verdict";
}

IngestVerdict SyncEngine::ingest(const EventRecord& record) {
  // Every refusal below happens before the first write (insert_node), so a
  // refused record leaves the engine exactly as it was.
  if (!procs_in_range(record, spec_->num_procs())) {
    return IngestVerdict::kOutOfRange;
  }
  const ProcId w = record.id.proc;
  const EventId prev_id = last_id_[w];
  if (record.id.seq != (prev_id.valid() ? prev_id.seq + 1 : 0)) {
    return IngestVerdict::kSequenceGap;
  }
  if (!std::isfinite(record.slack) || record.slack < 0.0 ||
      (record.slack != 0.0 && record.kind != EventKind::kReceive)) {
    return IngestVerdict::kBadSlack;
  }

  // At most two edges each way: built on the stack, so ingest allocates
  // nothing once the live lists and the distance matrix stop growing.
  std::array<HalfEdge, 2> in_edges;
  std::array<HalfEdge, 2> out_edges;
  std::size_t n_in = 0;
  std::size_t n_out = 0;

  // Drift edges to the processor-predecessor (Section 2, clock drift
  // bounds).  The predecessor is live: the last known event of every
  // processor always is (Definition 3.1).  Unless it is a pending send, it
  // dies with this record, and the new point takes over its slot in the
  // distance structure.
  Handle retire = graph::IncrementalApsp::kNoHandle;
  if (prev_id.valid()) {
    const LiveNode& prev = live_at(prev_id);
    const Duration dl = record.lt - prev.rec.lt;
    if (!(dl >= 0.0)) return IngestVerdict::kClockBackwards;
    const ProcEdgeWeights pw = proc_edge_weights(spec_->clock(w), dl);
    in_edges[n_in++] = HalfEdge{prev.handle, pw.forward};
    out_edges[n_out++] = HalfEdge{prev.handle, pw.backward};
    if (!opts_.keep_dead_nodes && !pending_send(prev)) retire = prev.handle;
  }

  // Transit edges to the matching send (Section 2, message transit bounds).
  // The send must be live and pending: its receive was not in the view
  // before this record.
  if (record.kind == EventKind::kReceive) {
    const LiveNode* const send = find(record.match);
    if (send == nullptr || send->rec.kind != EventKind::kSend ||
        send->recv_seen || send->lost) {
      return IngestVerdict::kUnmatchedReceive;
    }
    const LinkSpec* link = spec_->link_between(w, record.peer);
    if (link == nullptr) return IngestVerdict::kNoLink;
    const MsgEdgeWeights mw =
        msg_edge_weights(*link, record.peer, send->rec.lt, record.lt);
    in_edges[n_in++] = HalfEdge{send->handle, mw.send_to_recv};
    if (mw.recv_to_send != kNoBound) {
      // The spec's max transit bounds the *wire*; the record's local time
      // was read up to `slack` local seconds after the datagram arrived
      // (handler queueing — see EventRecord::slack).  Widen the upper
      // bound by that gap mapped through the receiver's drift envelope,
      // else honest processing delay masquerades as a spec violation.
      out_edges[n_out++] = HalfEdge{
          send->handle,
          mw.recv_to_send + spec_->clock(w).rt_upper(record.slack)};
    }
  } else if (record.kind == EventKind::kLossDecl) {
    // Only the sender declares a message lost.
    const LiveNode* const send = find(record.match);
    if (record.match.proc != w || send == nullptr ||
        send->rec.kind != EventKind::kSend) {
      return IngestVerdict::kBadLossDecl;
    }
  }

  const Handle h = apsp_.insert_node(std::span(in_edges.data(), n_in),
                                     std::span(out_edges.data(), n_out),
                                     retire);
  if (h == graph::IncrementalApsp::kNoHandle) {
    return IngestVerdict::kNegativeCycle;  // insert_node changed nothing
  }

  // The new event has the highest seq of its processor: appending keeps
  // the list sorted, and a retired predecessor is the list's last entry.
  if (retire != graph::IncrementalApsp::kNoHandle) {
    live_[w].back() = LiveNode{record, h};
  } else {
    live_[w].push_back(LiveNode{record, h});
    ++live_count_;
  }
  last_id_[w] = record.id;

  // Death processing (Definition 3.1): the predecessor is no longer the last
  // point of its processor, and a matched/lost send is no longer pending.
  if (prev_id.valid() && retire == graph::IncrementalApsp::kNoHandle) {
    drop_if_dead(prev_id);
  }
  // A loss declaration may name the predecessor itself, a send whose
  // receive is already in the view; that send died above.
  if (record.kind == EventKind::kReceive ||
      record.kind == EventKind::kLossDecl) {
    LiveNode* const send = find(record.match);
    if (send != nullptr) {
      (record.kind == EventKind::kReceive ? send->recv_seen : send->lost) =
          true;
      drop_if_dead(record.match);
    }
  }

  max_live_ = std::max(max_live_, live_count_);
  return IngestVerdict::kApplied;
}

void SyncEngine::drop_if_dead(EventId id) {
  if (opts_.keep_dead_nodes) return;  // ablation mode: no garbage collection
  const LiveNode& node = live_at(id);
  if (last_id_[id.proc] == id) return;  // still the last point at its proc
  if (pending_send(node)) return;
  apsp_.remove_node(node.handle);
  std::vector<LiveNode>& nodes = live_[id.proc];
  nodes.erase(nodes.begin() + (&node - nodes.data()));
  --live_count_;
}

Interval SyncEngine::estimate(LocalTime now) const {
  const EventId p_id = last_id_[self_];
  if (!p_id.valid() || !knows_source()) return Interval::everything();
  const LiveNode& p = live_at(p_id);
  const LiveNode& sp = live_at(last_id_[spec_->source()]);
  DS_CHECK_MSG(now >= p.rec.lt - 1e-12,
               "estimate() queried before the last ingested event");

  // ext_L = LT(p) - d(sp, p), ext_U = LT(p) + d(p, sp)  (Section 2.3),
  // then extrapolated from point p to local time `now` via the drift bound.
  const double d_sp_p = apsp_.distance(sp.handle, p.handle);
  const double d_p_sp = apsp_.distance(p.handle, sp.handle);
  const Duration dl = std::max(0.0, now - p.rec.lt);
  const ClockSpec& clock = spec_->clock(self_);
  Interval out = Interval::everything();
  if (d_sp_p != kNoBound) out.lo = p.rec.lt - d_sp_p + clock.rt_lower(dl);
  if (d_p_sp != kNoBound) out.hi = p.rec.lt + d_p_sp + clock.rt_upper(dl);
  return out;
}

Interval SyncEngine::peer_clock_estimate(ProcId w, LocalTime now) const {
  DS_CHECK(w < spec_->num_procs());
  if (w == self_) return Interval::point(now);  // my clock reads `now` now
  const EventId p_id = last_id_[self_];
  const EventId q_id = last_id_[w];
  if (!p_id.valid() || !q_id.valid()) return Interval::everything();
  const LiveNode& p = live_at(p_id);
  const LiveNode& q = live_at(q_id);

  // Real time elapsed since my last event (my own drift envelope) ...
  const ClockSpec& my_clock = spec_->clock(self_);
  const Duration dl = std::max(0.0, now - p.rec.lt);
  // ... plus the Theorem 2.1 bounds on RT(p) - RT(q): together, the real
  // time elapsed at w since its last known event q (non-negative, since q
  // is in the causal past of the query).
  const Interval d = rt_difference_bounds(p_id, q_id);
  const double t_lo =
      d.lo == kNegInf ? 0.0 : std::max(0.0, my_clock.rt_lower(dl) + d.lo);
  const double t_hi =
      d.hi == kNoBound ? kNoBound : my_clock.rt_upper(dl) + d.hi;

  // w's clock advances over that real time at a rate within its drift bound.
  const ClockSpec& w_clock = spec_->clock(w);
  return Interval{q.rec.lt + t_lo * w_clock.min_rate(),
                  t_hi == kNoBound ? kNoBound
                                   : q.rec.lt + t_hi * w_clock.max_rate()};
}

Interval SyncEngine::rt_difference_bounds(EventId p, EventId q) const {
  const LiveNode* const np = find(p);
  const LiveNode* const nq = find(q);
  DS_CHECK_MSG(np != nullptr && nq != nullptr,
               "rt_difference_bounds requires live points");
  const double vd = np->rec.lt - nq->rec.lt;
  const double d_pq = apsp_.distance(np->handle, nq->handle);
  const double d_qp = apsp_.distance(nq->handle, np->handle);
  return Interval{d_qp == kNoBound ? kNegInf : vd - d_qp,
                  d_pq == kNoBound ? kNoBound : vd + d_pq};
}

double SyncEngine::distance(EventId from, EventId to) const {
  return apsp_.distance(live_at(from).handle, live_at(to).handle);
}

std::vector<EventId> SyncEngine::live_points() const {
  std::vector<EventId> out;
  out.reserve(live_count_);
  for (const std::vector<LiveNode>& nodes : live_) {
    for (const LiveNode& node : nodes) out.push_back(node.rec.id);
  }
  return out;
}


// ------------------------------------------------------------ checkpointing

namespace {
constexpr std::uint64_t kEngineMagic = 0xE5617;

/// save()'s record encoder, cleared: per thread, so engine copies carry none.
wire::RecordEncoder& save_encoder() {
  thread_local wire::RecordEncoder encoder;
  encoder.clear();
  return encoder;
}
}  // namespace

std::size_t SyncEngine::live_records_size() const {
  std::size_t size = wire::varint_size(live_count_);
  wire::RecordEncoder& encoder = save_encoder();
  for (const std::vector<LiveNode>& nodes : live_) {
    for (const LiveNode& node : nodes) size += encoder.measure(node.rec);
  }
  return size;
}

std::size_t SyncEngine::saved_size() const {
  std::size_t size = wire::varint_size(kEngineMagic) +
                     wire::varint_size(self_) +
                     wire::varint_size(last_id_.size());
  for (const EventId& id : last_id_) {
    size += wire::varint_size(id.valid() ? std::uint64_t{id.seq} + 1 : 0);
  }
  const std::size_t records = live_records_size();
  return size + wire::varint_size(records) + records + live_count_ +
         live_count_ * live_count_ * 8 + wire::varint_size(max_live_);
}

void SyncEngine::save(std::vector<std::uint8_t>& out) const {
  wire::put_varint(out, kEngineMagic);
  wire::put_varint(out, self_);
  wire::put_varint(out, last_id_.size());
  for (const EventId& id : last_id_) {
    wire::put_varint(out, id.valid() ? std::uint64_t{id.seq} + 1 : 0);
  }
  // Live nodes in canonical (EventId) order, with flags and the exact
  // pairwise distance matrix in that order.  The canonical order is NOT
  // causally consistent; the record encoder is order-preserving, so this
  // is fine — the decoder applies no semantic checks.
  wire::put_varint(out, live_records_size());
  wire::put_varint(out, live_count_);
  wire::RecordEncoder& encoder = save_encoder();
  for (const std::vector<LiveNode>& nodes : live_) {
    for (const LiveNode& node : nodes) encoder.put(out, node.rec);
  }
  for (const std::vector<LiveNode>& nodes : live_) {
    for (const LiveNode& node : nodes) {
      out.push_back(static_cast<std::uint8_t>((node.recv_seen ? 1 : 0) |
                                              (node.lost ? 2 : 0)));
    }
  }
  for (const std::vector<LiveNode>& from : live_) {
    for (const LiveNode& a : from) {
      for (const std::vector<LiveNode>& to : live_) {
        for (const LiveNode& b : to) {
          wire::put_double(out, apsp_.distance(a.handle, b.handle));
        }
      }
    }
  }
  wire::put_varint(out, max_live_);
}

void SyncEngine::load(std::span<const std::uint8_t> bytes,
                      std::size_t& offset) {
  DS_CHECK_MSG(live_count_ == 0, "load into a fresh engine");
  // A checkpoint image is untrusted input: parse and cross-check everything
  // into locals first, then commit in one shot at the end — a throw on any
  // path below leaves this engine exactly as it was.
  std::size_t cur = offset;
  const std::size_t num_procs = last_id_.size();
  EventBatch records;
  std::vector<std::uint8_t> flags;
  std::vector<std::vector<double>> dist;
  std::vector<std::uint64_t> last_seq(num_procs);
  std::uint64_t max_live = 0;
  try {
    if (wire::get_varint(bytes, cur) != kEngineMagic) {
      throw CheckpointError("bad engine magic");
    }
    if (wire::get_varint(bytes, cur) != self_) {
      throw CheckpointError("wrong processor");
    }
    if (wire::get_varint(bytes, cur) != num_procs) {
      throw CheckpointError("wrong system size");
    }
    for (std::uint64_t& code : last_seq) {
      code = wire::get_varint(bytes, cur);
      // Codes are seq+1 (0 = "no event yet"); sequence numbers are 32-bit.
      if (code > std::uint64_t{1} << 32) {
        throw CheckpointError("frontier sequence number out of range");
      }
    }

    const std::uint64_t batch_bytes = wire::get_varint(bytes, cur);
    if (batch_bytes > bytes.size() - cur || cur > bytes.size()) {
      throw CheckpointError("truncated live records");
    }
    records = wire::decode_batch(bytes.subspan(cur, batch_bytes));
    cur += batch_bytes;
    const std::size_t n = records.size();
    if (n > bytes.size() - cur) throw CheckpointError("truncated flags");
    flags.assign(bytes.begin() + static_cast<std::ptrdiff_t>(cur),
                 bytes.begin() + static_cast<std::ptrdiff_t>(cur + n));
    cur += n;
    // The n*n distance matrix must actually be present before allocating
    // n*n doubles (the count prefix must not drive the allocation).
    if (static_cast<std::uint64_t>(n) * n * 8 > bytes.size() - cur) {
      throw CheckpointError("truncated distance matrix");
    }
    dist.assign(n, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double d = wire::get_double(bytes, cur);
        // kNoBound (+inf) encodes "unreachable"; anything else must be an
        // actual distance.  NaN would poison every comparison downstream.
        if (!std::isfinite(d) && d != kNoBound) {
          throw CheckpointError("non-finite distance matrix entry");
        }
        dist[i][j] = d;
      }
    }
    max_live = wire::get_varint(bytes, cur);
    if (max_live < n) throw CheckpointError("max live count below live set");

    // Cross-checks: records must be the canonical (sorted, duplicate-free)
    // live-point order save() emits, refer only to in-range processors, be
    // consistent with the frontier, and carry flags only a send can carry.
    for (std::size_t i = 0; i < n; ++i) {
      const EventRecord& r = records[i];
      if (i > 0 && !(records[i - 1].id < r.id)) {
        throw CheckpointError("live records not in canonical order");
      }
      if (r.id.proc >= num_procs) {
        throw CheckpointError("live record at out-of-range processor");
      }
      if (r.kind != EventKind::kInternal && r.peer >= num_procs) {
        throw CheckpointError("live record peer out of range");
      }
      if ((r.kind == EventKind::kReceive || r.kind == EventKind::kLossDecl) &&
          r.match.proc >= num_procs) {
        throw CheckpointError("live record match out of range");
      }
      const std::uint64_t frontier = last_seq[r.id.proc];
      if (std::uint64_t{r.id.seq} + 1 > frontier) {
        throw CheckpointError("live record beyond its processor frontier");
      }
      if ((flags[i] & ~std::uint8_t{3}) != 0 ||
          (flags[i] != 0 && r.kind != EventKind::kSend)) {
        throw CheckpointError("invalid live-node flags");
      }
    }
    for (std::size_t w = 0; w < num_procs; ++w) {
      if (last_seq[w] == 0) continue;
      const EventId frontier_id{static_cast<ProcId>(w),
                                static_cast<std::uint32_t>(last_seq[w] - 1)};
      const auto it = std::lower_bound(
          records.begin(), records.end(), frontier_id,
          [](const EventRecord& r, const EventId& id) { return r.id < id; });
      if (it == records.end() || it->id != frontier_id) {
        throw CheckpointError("frontier event not live");
      }
    }
  } catch (const WireError& e) {
    throw CheckpointError(std::string("bad embedded wire data (") + e.what() +
                          ")");
  }

  // Rebuild the APSP structure into a local instance, installing the saved
  // matrix verbatim (recomputing shortest paths here could differ from the
  // saved entries in the last ulp, breaking save/load byte identity).  A
  // matrix with a non-zero diagonal or a negative cycle — which real
  // distances cannot contain — is rejected.
  const std::size_t n = records.size();
  graph::IncrementalApsp apsp;
  if (!apsp.load_matrix(dist)) {
    throw CheckpointError("inconsistent distance matrix");
  }
  // Canonical order is (proc, seq): appending keeps every list sorted.
  std::vector<std::vector<LiveNode>> live(num_procs);
  for (std::size_t i = 0; i < n; ++i) {
    live[records[i].id.proc].push_back(
        LiveNode{records[i], apsp.live_handles()[i], (flags[i] & 1) != 0,
                 (flags[i] & 2) != 0});
  }

  // Everything validated: commit.
  apsp_ = std::move(apsp);
  live_ = std::move(live);
  live_count_ = n;
  for (std::size_t w = 0; w < num_procs; ++w) {
    last_id_[w] = last_seq[w] == 0
                      ? kInvalidEvent
                      : EventId{static_cast<ProcId>(w),
                                static_cast<std::uint32_t>(last_seq[w] - 1)};
  }
  max_live_ = max_live;
  offset = cur;
}

}  // namespace driftsync
