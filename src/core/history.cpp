#include "core/history.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/errors.h"
#include "core/wire.h"

namespace driftsync {

HistoryProtocol::HistoryProtocol(const SystemSpec& spec, ProcId self,
                                 Options opts)
    : spec_(&spec), self_(self), opts_(opts) {
  DS_CHECK(self < spec.num_procs());
  known_seq_.assign(spec.num_procs(), -1);
  held_.assign(spec.num_procs(), Held{});
  gc_known_to_all_.assign(spec.num_procs(), 0);
  neighbors_.reserve(spec.neighbors(self).size());
  for (const ProcId u : spec.neighbors(self)) {
    NeighborState ns;
    ns.id = u;
    ns.c.assign(spec.num_procs(), -1);
    neighbors_.push_back(std::move(ns));
  }
}

HistoryProtocol::NeighborState& HistoryProtocol::neighbor_state(ProcId u) {
  for (NeighborState& ns : neighbors_) {
    if (ns.id == u) return ns;
  }
  DS_CHECK_MSG(false, "not a neighbor: " + std::to_string(u));
  __builtin_unreachable();
}

void HistoryProtocol::record_own_event(const EventRecord& event) {
  DS_CHECK_MSG(event.id.proc == self_, "record_own_event: foreign event");
  DS_CHECK_MSG(
      static_cast<std::int64_t>(event.id.seq) == known_seq_[self_] + 1,
      "own events must be recorded in sequence order");
  known_seq_[self_] = event.id.seq;
  hold(event);
  max_history_size_ = std::max(max_history_size_, history_.size());
}

void HistoryProtocol::hold(const EventRecord& p) {
  // p extends its processor's known seq by one, so it never lowers the
  // lowest held seq.
  Held& h = held_[p.id.proc];
  if (h.count++ == 0) {
    h.oldest = history_.size();
    h.low_seq = p.id.seq;
  }
  history_.push_back(p);
}

EventBatch HistoryProtocol::fill_message(ProcId dest,
                                         const EventRecord& send_event) {
  record_own_event(send_event);
  NeighborState& ns = neighbor_state(dest);
  if (opts_.loss_tolerant) {
    // Retain the pre-send knowledge until the detection mechanism reports
    // this message's fate; until then GC must not trust the advance below.
    if (ns.n_pending == 0) {
      ns.pending_min = ns.c;
    } else {
      for (std::size_t w = 0; w < ns.c.size(); ++w) {
        ns.pending_min[w] = std::min(ns.pending_min[w], ns.c[w]);
      }
    }
    ++ns.n_pending;
  }
  // dest is owed records only of processors whose known seq is past its
  // C entry, none of them before such a processor's oldest record.  A
  // processor's held records carry consecutive seqs from low_seq on, so
  // dest is owed the last count - (c - low_seq + 1) of them.
  std::size_t start = history_.size();
  std::size_t owed = 0;
  for (std::size_t w = 0; w < held_.size(); ++w) {
    const Held& h = held_[w];
    if (h.count == 0 || known_seq_[w] <= ns.c[w]) continue;
    start = std::min(start, h.oldest);
    const std::int64_t known = std::clamp<std::int64_t>(
        ns.c[w] - h.low_seq + 1, 0, static_cast<std::int64_t>(h.count));
    owed += h.count - static_cast<std::size_t>(known);
  }
  EventBatch batch;
  batch.reserve(owed);
  sizer_.reset(known_seq_.size());
  for (std::size_t i = start; i < history_.size(); ++i) {
    const EventRecord& p = history_[i];
    if (static_cast<std::int64_t>(p.id.seq) > ns.c[p.id.proc]) {
      batch.push_back(p);
      sizer_.add(p);
      if (opts_.audit) {
        if (++ns.reported[p.id.pack()] > 1) ++audit_repeat_reports_;
      }
    }
  }
  reports_sent_ += batch.size();
  // After this message, dest knows everything v knows (optimistically so
  // under loss; see pending_min above).
  ns.c = known_seq_;
  garbage_collect();
  return batch;
}

MergeVerdict HistoryProtocol::receive_message(ProcId from,
                                              const EventBatch& batch) {
  const MergeVerdict verdict = begin_receive(from, batch);
  if (verdict == MergeVerdict::kMerged) {
    // The sweep moves H_v's tail, so fresh() outlives it as a copy.
    fresh_.assign(history_.begin() +
                      static_cast<std::ptrdiff_t>(undo_.history_size),
                  history_.end());
    undo_.open = false;
    garbage_collect();
  }
  return verdict;
}

MergeVerdict HistoryProtocol::begin_receive(ProcId from,
                                            const EventBatch& batch) {
  NeighborState& ns = neighbor_state(from);
  undo_.open = true;
  undo_.from = static_cast<std::size_t>(&ns - neighbors_.data());
  undo_.history_size = history_.size();
  undo_.max_history_size = max_history_size_;
  undo_.duplicate_reports_received = duplicate_reports_received_;
  undo_.gap_dropped = gap_dropped_;
  undo_.known_seq = known_seq_;
  undo_.c_from = ns.c;
  fresh_.clear();
  const std::size_t num_procs = known_seq_.size();
  for (const EventRecord& p : batch) {
    if (!procs_in_range(p, num_procs)) {
      rollback_receive();
      return MergeVerdict::kOutOfRange;
    }
    const auto seq = static_cast<std::int64_t>(p.id.seq);
    // Whatever the sender reports, the sender knows.
    ns.c[p.id.proc] = std::max(ns.c[p.id.proc], seq);
    if (seq <= known_seq_[p.id.proc]) {
      ++duplicate_reports_received_;
      continue;
    }
    const bool gap = seq != known_seq_[p.id.proc] + 1;
    const bool needs_match =
        p.kind == EventKind::kReceive || p.kind == EventKind::kLossDecl;
    const bool match_missing =
        needs_match && static_cast<std::int64_t>(p.match.seq) >
                           known_seq_[p.match.proc];
    if (gap || match_missing) {
      if (!opts_.loss_tolerant) {
        // Only a lossy link can drop a predecessor report; on reliable
        // links the batch itself is wrong.
        rollback_receive();
        return MergeVerdict::kOutOfOrder;
      }
      ++gap_dropped_;
      continue;  // a predecessor report was lost; rollback will resend
    }
    known_seq_[p.id.proc] = seq;
    hold(p);
  }
  max_history_size_ = std::max(max_history_size_, history_.size());
  return MergeVerdict::kMerged;
}

void HistoryProtocol::commit_receive(const EventRecord& recv_event) {
  DS_CHECK_MSG(undo_.open, "commit_receive without begin_receive");
  undo_.open = false;
  garbage_collect();
  record_own_event(recv_event);
}

void HistoryProtocol::rollback_receive() {
  DS_CHECK_MSG(undo_.open, "rollback_receive without begin_receive");
  undo_.open = false;
  // The merged records were appended after everything their processors
  // held, so dropping them leaves each processor's oldest record and
  // lowest seq as they were.
  for (std::size_t i = undo_.history_size; i < history_.size(); ++i) {
    --held_[history_[i].id.proc].count;
  }
  history_.erase(history_.begin() +
                     static_cast<std::ptrdiff_t>(undo_.history_size),
                 history_.end());
  history_image_.truncate(
      std::min(history_image_.size(), undo_.history_size));
  known_seq_.swap(undo_.known_seq);
  neighbors_[undo_.from].c.swap(undo_.c_from);
  max_history_size_ = undo_.max_history_size;
  duplicate_reports_received_ = undo_.duplicate_reports_received;
  gap_dropped_ = undo_.gap_dropped;
  fresh_.clear();
}

void HistoryProtocol::confirm_delivery(ProcId dest) {
  DS_CHECK(opts_.loss_tolerant);
  NeighborState& ns = neighbor_state(dest);
  DS_CHECK_MSG(ns.n_pending > 0, "confirm_delivery without outstanding send");
  if (--ns.n_pending == 0) ns.pending_min.clear();
  garbage_collect();
}

void HistoryProtocol::handle_loss(ProcId dest) {
  DS_CHECK(opts_.loss_tolerant);
  NeighborState& ns = neighbor_state(dest);
  DS_CHECK_MSG(ns.n_pending > 0, "handle_loss without outstanding send");
  // Roll back to confirmed knowledge.  Element-wise min against the current
  // C: entries advanced by *receiving* from dest meanwhile may be forgotten
  // (causing a benign duplicate report later) but are never over-claimed.
  for (std::size_t w = 0; w < ns.c.size(); ++w) {
    ns.c[w] = std::min(ns.c[w], ns.pending_min[w]);
  }
  if (--ns.n_pending == 0) ns.pending_min.clear();
}

std::int64_t HistoryProtocol::confirmed_c(const NeighborState& ns,
                                          ProcId proc) const {
  if (ns.n_pending == 0) return ns.c[proc];
  return std::min(ns.c[proc], ns.pending_min[proc]);
}

void HistoryProtocol::garbage_collect() {
  if (opts_.disable_gc) return;  // ablation mode
  ++gc_passes_;
  // Keep p while some neighbor may not (confirmably) know it yet.  With a
  // single neighbor and no loss this empties the buffer after every send.
  // The removable records of a processor are those at or below its
  // threshold, the minimum confirmed C over the neighbors; none of them
  // lies before the processor's oldest record.
  const std::size_t n = history_.size();
  std::size_t first = n;
  for (std::size_t w = 0; w < held_.size(); ++w) {
    const Held& h = held_[w];
    if (h.count == 0) continue;
    std::int64_t known = std::numeric_limits<std::int64_t>::max();
    for (const NeighborState& ns : neighbors_) {
      known = std::min(known, confirmed_c(ns, static_cast<ProcId>(w)));
    }
    gc_known_to_all_[w] = known;
    if (h.low_seq <= known) first = std::min(first, h.oldest);
  }
  if (first == n) return;  // Nothing can go.
  // Every record from the first removed one on shifts and may change its
  // delta encoding, so the checkpoint image is valid only before it.
  history_image_.truncate(std::min(history_image_.size(), first));
  // A processor whose oldest record lies before `first` is not removable:
  // it loses nothing and keeps its bounds.  The others' are rebuilt as
  // the kept records move down.
  for (Held& h : held_) {
    if (h.count > 0 && h.oldest >= first) h.count = 0;
  }
  std::size_t out = first;
  for (std::size_t i = first; i < n; ++i) {
    const EventRecord& p = history_[i];
    const auto seq = static_cast<std::int64_t>(p.id.seq);
    if (seq <= gc_known_to_all_[p.id.proc]) continue;
    Held& h = held_[p.id.proc];
    if (h.oldest >= first) {
      if (h.count++ == 0) {
        h.oldest = out;
        h.low_seq = seq;
      } else {
        h.low_seq = std::min(h.low_seq, seq);
      }
    }
    history_[out++] = p;
  }
  history_.resize(out);
}

std::int64_t HistoryProtocol::c_entry(ProcId neighbor, ProcId proc) const {
  for (const NeighborState& ns : neighbors_) {
    if (ns.id == neighbor) {
      DS_CHECK(proc < ns.c.size());
      return ns.c[proc];
    }
  }
  DS_CHECK_MSG(false, "not a neighbor: " + std::to_string(neighbor));
  __builtin_unreachable();
}

std::size_t HistoryProtocol::scratch_bytes() const {
  return fresh_.capacity() * sizeof(EventRecord) +
         (undo_.known_seq.capacity() + undo_.c_from.capacity() +
          gc_known_to_all_.capacity()) *
             sizeof(std::int64_t) +
         held_.capacity() * sizeof(Held) + sizer_.memory_bytes();
}

std::vector<HistoryProtocol::Held> HistoryProtocol::scan_held(
    std::span<const EventRecord> history, std::size_t num_procs) {
  std::vector<Held> held(num_procs);
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto seq = static_cast<std::int64_t>(history[i].id.seq);
    Held& h = held[history[i].id.proc];
    if (h.count++ == 0) {
      h.oldest = i;
      h.low_seq = seq;
    } else {
      h.low_seq = std::min(h.low_seq, seq);
    }
  }
  return held;
}

std::string HistoryProtocol::audit() const {
  const std::vector<Held> scan = scan_held(history_, held_.size());
  for (std::size_t w = 0; w < held_.size(); ++w) {
    const Held& have = held_[w];
    const Held& want = scan[w];
    if (have.count != want.count ||
        (want.count > 0 &&
         (have.oldest != want.oldest || have.low_seq != want.low_seq))) {
      return "processor " + std::to_string(w) + ": bounds hold " +
             std::to_string(have.count) + " records, H_v " +
             std::to_string(want.count);
    }
  }
  return {};
}

std::size_t HistoryProtocol::state_bytes() const {
  std::size_t bytes = history_.capacity() * sizeof(EventRecord);
  for (const NeighborState& ns : neighbors_) {
    bytes += ns.c.capacity() * sizeof(std::int64_t);
    bytes += ns.pending_min.capacity() * sizeof(std::int64_t);
  }
  bytes += known_seq_.capacity() * sizeof(std::int64_t);
  return bytes;
}

// ------------------------------------------------------------ checkpointing

namespace {
// Sequence numbers are saved +1 so that "none known" (-1) encodes as 0.
std::uint64_t seq_code(std::int64_t seq) {
  return static_cast<std::uint64_t>(seq + 1);
}
std::int64_t seq_decode(std::uint64_t code) {
  return static_cast<std::int64_t>(code) - 1;
}
constexpr std::uint64_t kHistoryMagic = 0xD5711;
}  // namespace

void HistoryProtocol::update_image() const {
  for (std::size_t i = history_image_.size(); i < history_.size(); ++i) {
    history_image_.append(history_[i]);
  }
}

std::size_t HistoryProtocol::saved_size() const {
  const auto seqs_size = [](const std::vector<std::int64_t>& seqs) {
    std::size_t size = 0;
    for (const std::int64_t s : seqs) size += wire::varint_size(seq_code(s));
    return size;
  };
  std::size_t size = wire::varint_size(kHistoryMagic) +
                     wire::varint_size(self_) +
                     wire::varint_size(known_seq_.size()) +
                     seqs_size(known_seq_) +
                     wire::varint_size(neighbors_.size());
  for (const NeighborState& ns : neighbors_) {
    size += wire::varint_size(ns.id) + seqs_size(ns.c) +
            wire::varint_size(ns.n_pending);
    if (ns.n_pending > 0) size += seqs_size(ns.pending_min);
  }
  update_image();
  const std::size_t image = history_image_.encoded_size();
  return size + wire::varint_size(image) + image +
         wire::varint_size(max_history_size_) +
         wire::varint_size(reports_sent_) +
         wire::varint_size(duplicate_reports_received_) +
         wire::varint_size(gap_dropped_);
}

void HistoryProtocol::save(std::vector<std::uint8_t>& out) const {
  DS_CHECK_MSG(!opts_.audit, "audit mode cannot be checkpointed");
  wire::put_varint(out, kHistoryMagic);
  wire::put_varint(out, self_);
  wire::put_varint(out, known_seq_.size());
  for (const std::int64_t s : known_seq_) wire::put_varint(out, seq_code(s));
  wire::put_varint(out, neighbors_.size());
  for (const NeighborState& ns : neighbors_) {
    wire::put_varint(out, ns.id);
    for (const std::int64_t s : ns.c) wire::put_varint(out, seq_code(s));
    wire::put_varint(out, ns.n_pending);
    if (ns.n_pending > 0) {
      for (const std::int64_t s : ns.pending_min) {
        wire::put_varint(out, seq_code(s));
      }
    }
  }
  update_image();
  wire::put_varint(out, history_image_.encoded_size());
  history_image_.write(out);
  wire::put_varint(out, max_history_size_);
  wire::put_varint(out, reports_sent_);
  wire::put_varint(out, duplicate_reports_received_);
  wire::put_varint(out, gap_dropped_);
}

namespace {

// Reads a seq_code and rejects values no 32-bit sequence number encodes.
std::int64_t load_seq(std::span<const std::uint8_t> bytes,
                      std::size_t& offset) {
  const std::uint64_t code = wire::get_varint(bytes, offset);
  if (code > std::uint64_t{1} << 32) {
    throw CheckpointError("sequence number out of range");
  }
  return seq_decode(code);
}

}  // namespace

void HistoryProtocol::load(std::span<const std::uint8_t> bytes,
                           std::size_t& offset) {
  DS_CHECK_MSG(!opts_.audit, "audit mode cannot be checkpointed");
  // A checkpoint image is untrusted input: parse and validate into locals,
  // commit only once everything checked out — a throw below leaves this
  // protocol instance exactly as it was.
  std::size_t cur = offset;
  const std::size_t num_procs = known_seq_.size();
  std::vector<std::int64_t> known_seq(num_procs);
  struct LoadedNeighbor {
    std::vector<std::int64_t> c;
    std::vector<std::int64_t> pending_min;
    std::size_t n_pending = 0;
  };
  std::vector<LoadedNeighbor> loaded(neighbors_.size());
  std::vector<EventRecord> history;
  std::uint64_t max_history = 0, reports = 0, duplicates = 0, gaps = 0;
  try {
    if (wire::get_varint(bytes, cur) != kHistoryMagic) {
      throw CheckpointError("bad history magic");
    }
    if (wire::get_varint(bytes, cur) != self_) {
      throw CheckpointError("wrong processor");
    }
    if (wire::get_varint(bytes, cur) != num_procs) {
      throw CheckpointError("wrong system size");
    }
    for (std::int64_t& s : known_seq) s = load_seq(bytes, cur);
    if (wire::get_varint(bytes, cur) != neighbors_.size()) {
      throw CheckpointError("wrong neighbor count");
    }
    for (std::size_t i = 0; i < neighbors_.size(); ++i) {
      if (wire::get_varint(bytes, cur) != neighbors_[i].id) {
        throw CheckpointError("neighbor mismatch");
      }
      loaded[i].c.resize(num_procs);
      for (std::int64_t& s : loaded[i].c) s = load_seq(bytes, cur);
      loaded[i].n_pending = wire::get_varint(bytes, cur);
      if (loaded[i].n_pending > 0) {
        if (!opts_.loss_tolerant) {
          throw CheckpointError("pending snapshots need loss_tolerant mode");
        }
        loaded[i].pending_min.resize(num_procs);
        for (std::int64_t& s : loaded[i].pending_min) s = load_seq(bytes, cur);
      }
    }
    const std::uint64_t batch_bytes = wire::get_varint(bytes, cur);
    if (batch_bytes > bytes.size() - cur) {
      throw CheckpointError("truncated history batch");
    }
    history = wire::decode_batch(bytes.subspan(cur, batch_bytes));
    cur += batch_bytes;
    // Every buffered event must be of an in-range processor and already
    // counted as known — otherwise record_own_event/GC invariants break.
    for (const EventRecord& r : history) {
      if (r.id.proc >= num_procs) {
        throw CheckpointError("history record at out-of-range processor");
      }
      if (static_cast<std::int64_t>(r.id.seq) > known_seq[r.id.proc]) {
        throw CheckpointError("history record beyond known sequence");
      }
    }
    max_history = wire::get_varint(bytes, cur);
    if (max_history < history.size()) {
      throw CheckpointError("max history size below buffer size");
    }
    reports = wire::get_varint(bytes, cur);
    duplicates = wire::get_varint(bytes, cur);
    gaps = wire::get_varint(bytes, cur);
  } catch (const WireError& e) {
    throw CheckpointError(std::string("bad embedded wire data (") + e.what() +
                          ")");
  }

  // Everything validated: commit.
  known_seq_ = std::move(known_seq);
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    neighbors_[i].c = std::move(loaded[i].c);
    neighbors_[i].pending_min = std::move(loaded[i].pending_min);
    neighbors_[i].n_pending = loaded[i].n_pending;
  }
  history_ = std::move(history);
  held_ = scan_held(history_, num_procs);
  history_image_.clear();
  max_history_size_ = max_history;
  reports_sent_ = reports;
  duplicate_reports_received_ = duplicates;
  gap_dropped_ = gaps;
  offset = cur;
}

}  // namespace driftsync
