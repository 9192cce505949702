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
  head_.assign(spec.num_procs(), kNoEntry);
  tail_.assign(spec.num_procs(), kNoEntry);
}

SyncEngine::Found SyncEngine::locate(EventId id) const {
  Found f;
  if (id.proc >= head_.size()) return f;
  // A list holds a processor's last event and its pending sends: short.
  for (std::uint32_t i = head_[id.proc]; i != kNoEntry; i = pool_[i].next) {
    const LiveNode& node = pool_[i];
    if (node.rec.id.seq >= id.seq) {
      if (node.rec.id.seq == id.seq) f.at = i;
      return f;
    }
    f.before = i;
  }
  return Found{};
}

void SyncEngine::push_live(const LiveNode& node) {
  if (free_ == kNoEntry) {  // Every entry is live: the matrix outgrew them.
    const auto used = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(apsp_.capacity());
    save_slots_.resize(pool_.size());
    for (auto i = static_cast<std::uint32_t>(pool_.size()); i-- > used;) {
      pool_[i].next = free_;
      free_ = i;
    }
  }
  const std::uint32_t i = free_;
  free_ = pool_[i].next;
  pool_[i] = node;
  std::uint32_t& tail = tail_[node.rec.id.proc];
  (tail == kNoEntry ? head_[node.rec.id.proc] : pool_[tail].next) = i;
  tail = i;
  ++live_count_;
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
  // The predecessor is w's last event, the tail of its list.
  const std::uint32_t prev_at = tail_[w];
  const std::uint32_t next_seq =
      prev_at == kNoEntry ? 0 : pool_[prev_at].rec.id.seq + 1;
  if (record.id.seq != next_seq) return IngestVerdict::kSequenceGap;
  if (!std::isfinite(record.slack) || record.slack < 0.0 ||
      (record.slack != 0.0 && record.kind != EventKind::kReceive)) {
    return IngestVerdict::kBadSlack;
  }

  // At most two edges each way: built on the stack, so ingest allocates
  // nothing until the distance matrix grows.
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
  if (prev_at != kNoEntry) {
    const LiveNode& prev = pool_[prev_at];
    const Duration dl = record.lt - prev.rec.lt;
    if (!(dl >= 0.0)) return IngestVerdict::kClockBackwards;
    const ProcEdgeWeights pw = proc_edge_weights(spec_->clock(w), dl);
    in_edges[n_in++] = HalfEdge{prev.handle, pw.forward};
    out_edges[n_out++] = HalfEdge{prev.handle, pw.backward};
    if (!opts_.keep_dead_nodes && !pending_send(prev)) retire = prev.handle;
  }

  // Transit edges to the matching send (Section 2, message transit bounds).
  // The send must be live and pending: its receive was not in the view
  // before this record.  It is looked up once; its entry and the one
  // before it stay put below (the record joins w's list at the back).
  Found send;
  if (record.kind == EventKind::kReceive) {
    send = locate(record.match);
    const LiveNode* const s = send.at == kNoEntry ? nullptr : &pool_[send.at];
    if (s == nullptr || s->rec.kind != EventKind::kSend || s->recv_seen ||
        s->lost) {
      return IngestVerdict::kUnmatchedReceive;
    }
    const LinkSpec* link = spec_->link_between(w, record.peer);
    if (link == nullptr) return IngestVerdict::kNoLink;
    const MsgEdgeWeights mw =
        msg_edge_weights(*link, record.peer, s->rec.lt, record.lt);
    in_edges[n_in++] = HalfEdge{s->handle, mw.send_to_recv};
    if (mw.recv_to_send != kNoBound) {
      // The spec's max transit bounds the *wire*; the record's local time
      // was read up to `slack` local seconds after the datagram arrived
      // (handler queueing — see EventRecord::slack).  Widen the upper
      // bound by that gap mapped through the receiver's drift envelope,
      // else honest processing delay masquerades as a spec violation.
      out_edges[n_out++] = HalfEdge{
          s->handle,
          mw.recv_to_send + spec_->clock(w).rt_upper(record.slack)};
    }
  } else if (record.kind == EventKind::kLossDecl) {
    // Only the sender declares a message lost.
    send = locate(record.match);
    if (record.match.proc != w || send.at == kNoEntry ||
        pool_[send.at].rec.kind != EventKind::kSend) {
      return IngestVerdict::kBadLossDecl;
    }
  }

  const Handle h = apsp_.insert_node(std::span(in_edges.data(), n_in),
                                     std::span(out_edges.data(), n_out),
                                     retire);
  if (h == graph::IncrementalApsp::kNoHandle) {
    return IngestVerdict::kNegativeCycle;  // insert_node changed nothing
  }

  // The new event has the highest seq of its processor: it goes at the
  // back of the list, where a retired predecessor hands it its entry.  A
  // predecessor that stays is a pending send, live as such.
  const bool retired = retire != graph::IncrementalApsp::kNoHandle;
  if (retired) {
    pool_[prev_at] = LiveNode{record, h};
  } else {
    push_live(LiveNode{record, h});
  }

  // Death processing (Definition 3.1): a matched or lost send is no longer
  // pending.  A loss declaration may name the predecessor itself, a send
  // whose receive is already in the view; that send died above.
  if (send.at != kNoEntry && !(retired && send.at == prev_at)) {
    LiveNode& s = pool_[send.at];
    (record.kind == EventKind::kReceive ? s.recv_seen : s.lost) = true;
    drop_if_dead(send);
  }

  max_live_ = std::max(max_live_, live_count_);
  return IngestVerdict::kApplied;
}

void SyncEngine::drop_if_dead(const Found& f) {
  if (opts_.keep_dead_nodes) return;  // ablation mode: no garbage collection
  LiveNode& node = pool_[f.at];
  const ProcId p = node.rec.id.proc;
  if (tail_[p] == f.at) return;  // still the last point at its proc
  if (pending_send(node)) return;
  apsp_.remove_node(node.handle);
  (f.before == kNoEntry ? head_[p] : pool_[f.before].next) = node.next;
  node.next = free_;
  free_ = f.at;
  --live_count_;
}

Interval SyncEngine::estimate(LocalTime now) const {
  if (tail_[self_] == kNoEntry || !knows_source()) {
    return Interval::everything();
  }
  const LiveNode& p = last_of(self_);
  const LiveNode& sp = last_of(spec_->source());
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
  if (tail_[self_] == kNoEntry || tail_[w] == kNoEntry) {
    return Interval::everything();
  }
  const LiveNode& p = last_of(self_);
  const LiveNode& q = last_of(w);

  // Real time elapsed since my last event (my own drift envelope) ...
  const ClockSpec& my_clock = spec_->clock(self_);
  const Duration dl = std::max(0.0, now - p.rec.lt);
  // ... plus the Theorem 2.1 bounds on RT(p) - RT(q): together, the real
  // time elapsed at w since its last known event q (non-negative, since q
  // is in the causal past of the query).
  const Interval d = rt_difference_bounds(p, q);
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
  return rt_difference_bounds(*np, *nq);
}

Interval SyncEngine::rt_difference_bounds(const LiveNode& p,
                                          const LiveNode& q) const {
  const double vd = p.rec.lt - q.rec.lt;
  const double d_pq = apsp_.distance(p.handle, q.handle);
  const double d_qp = apsp_.distance(q.handle, p.handle);
  return Interval{d_qp == kNoBound ? kNegInf : vd - d_qp,
                  d_pq == kNoBound ? kNoBound : vd + d_pq};
}

double SyncEngine::distance(EventId from, EventId to) const {
  return apsp_.distance(live_at(from).handle, live_at(to).handle);
}

std::vector<EventId> SyncEngine::live_points() const {
  std::vector<EventId> out;
  out.reserve(live_count_);
  for_each_live([&](const LiveNode& node) { out.push_back(node.rec.id); });
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
  for_each_live(
      [&](const LiveNode& node) { size += encoder.measure(node.rec); });
  return size;
}

std::uint64_t SyncEngine::frontier_code(ProcId p) const {
  const EventId last = last_event_of(p);
  return last.valid() ? std::uint64_t{last.seq} + 1 : 0;
}

std::size_t SyncEngine::saved_size() const {
  std::size_t size = wire::varint_size(kEngineMagic) +
                     wire::varint_size(self_) +
                     wire::varint_size(tail_.size());
  for (ProcId p = 0; p < tail_.size(); ++p) {
    size += wire::varint_size(frontier_code(p));
  }
  const std::size_t records = live_records_size();
  return size + wire::varint_size(records) + records + live_count_ +
         live_count_ * live_count_ * 8 + wire::varint_size(max_live_);
}

void SyncEngine::save(std::vector<std::uint8_t>& out) const {
  wire::put_varint(out, kEngineMagic);
  wire::put_varint(out, self_);
  wire::put_varint(out, tail_.size());
  for (ProcId p = 0; p < tail_.size(); ++p) {
    wire::put_varint(out, frontier_code(p));
  }
  // Live nodes in canonical (EventId) order, with flags and the exact
  // pairwise distance matrix in that order.  The canonical order is NOT
  // causally consistent; the record encoder is order-preserving, so this
  // is fine — the decoder applies no semantic checks.  The records' batch
  // image is written before its byte length, so no record is measured
  // here.
  const std::size_t batch_at = out.size();
  wire::put_varint(out, live_count_);
  wire::RecordEncoder& encoder = save_encoder();
  for_each_live([&](const LiveNode& node) { encoder.put(out, node.rec); });
  wire::prefix_length(out, batch_at);
  // The flags, collecting each node's matrix slot on the way; then the
  // rows, written straight into the image.
  std::uint32_t* const slots = save_slots_.data();
  std::size_t k = 0;
  for_each_live([&](const LiveNode& node) {
    out.push_back(static_cast<std::uint8_t>((node.recv_seen ? 1 : 0) |
                                            (node.lost ? 2 : 0)));
    slots[k++] = apsp_.slot(node.handle);
  });
  const std::size_t n = live_count_;
  const std::size_t matrix_at = out.size();
  out.resize(matrix_at + n * n * 8);
  std::uint8_t* dst = out.data() + matrix_at;
  for (std::size_t a = 0; a < n; ++a) {
    const double* const row = apsp_.distances_from(slots[a]);
    for (std::size_t b = 0; b < n; ++b, dst += 8) {
      wire::store_double(dst, row[slots[b]]);
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
  const std::size_t num_procs = head_.size();
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
  // Sized before anything is committed.
  pool_.reserve(apsp.capacity());
  save_slots_.reserve(apsp.capacity());

  // Everything validated: commit.  The records are in canonical order, so
  // each is the newest of its processor so far, and each processor's last
  // is its frontier event.
  apsp_ = std::move(apsp);
  for (std::size_t i = 0; i < n; ++i) {
    push_live(LiveNode{records[i], apsp_.live_handles()[i],
                       (flags[i] & 1) != 0, (flags[i] & 2) != 0});
  }
  max_live_ = max_live;
  offset = cur;
}

}  // namespace driftsync
