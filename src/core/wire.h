// Compact wire encoding for event-report batches.
//
// The paper's Section 3.1 remark addresses bit complexity: node labels are
// (processor, local time) pairs, and "a time-stamp is represented by a
// fixed-length structure (e.g., 64 bits in NTP)".  This module makes the
// message-size accounting concrete: batches are serialized with
//
//   * varint processor ids and sequence numbers, delta-encoded per
//     processor within the batch (the history protocol sends contiguous
//     per-processor runs, so deltas are almost always 0/1),
//   * one flag byte per record (kind + which optional fields follow),
//   * 64-bit IEEE local times (the fixed-length time-stamp of the remark),
//   * match references as (processor varint, seq varint), present only for
//     receive and loss-declaration records.
//
// Encoding is fully self-describing, order-preserving and *canonical*, so
// decode is a strict inverse of encode: a buffer either decodes to a batch
// whose re-encoding reproduces it byte for byte, or it is rejected.
//
// A network payload is untrusted input.  Every decode path throws
// driftsync::WireError (common/errors.h, recoverable — never a DS_CHECK
// std::logic_error) on:
//   * truncation anywhere, and trailing bytes after the last record,
//   * non-canonical varints (over-long encodings, 64-bit overflow),
//   * values that do not fit their field (processor ids and sequence
//     numbers are 32-bit),
//   * unknown flag bits, invalid processor ids, non-finite local times,
//   * redundant encodings the encoder never emits (an explicit processor
//     or sequence number where the delta flag would have applied),
//   * count prefixes implying more records than the buffer could hold
//     (which also caps the decoder's up-front allocation at the buffer
//     size).
//
// There is one parser per image, and it writes into caller-owned storage:
// decode_batch_into and decode_payload_into overwrite every field of their
// target and keep its buffers' capacity, so a caller that reuses one
// target across messages decodes without a heap allocation once that
// capacity covers its largest message.  decode_batch and decode_payload
// are thin wrappers that decode into a fresh value.  The hot reads are
// inline: a byte below 0x80 is a whole varint, and a time-stamp is one
// bounds check plus an 8-byte little-endian load.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "core/csa.h"
#include "core/event.h"

namespace driftsync::wire {

/// Per-processor next-sequence-number table for the delta flags.  A flat
/// array with linear scan: a batch touches at most a handful of distinct
/// processors (the history protocol emits contiguous per-processor runs),
/// so this beats a hash map, and reused across calls it costs the hot
/// paths zero heap allocations.
class SeqTracker {
 public:
  void clear() { entries_.clear(); }

  /// p's entry, appended holding 0 when p has none; `found` says which.
  /// One scan where find() and then set() would make two.
  std::uint32_t& slot(ProcId p, bool& found) {
    for (auto& [proc, next] : entries_) {
      if (proc == p) {
        found = true;
        return next;
      }
    }
    found = false;
    return append(p);
  }

  [[nodiscard]] const std::uint32_t* find(ProcId p) const {
    for (const auto& [proc, next] : entries_) {
      if (proc == p) return &next;
    }
    return nullptr;
  }

  void set(ProcId p, std::uint32_t next) {
    for (auto& [proc, n] : entries_) {
      if (proc == p) {
        n = next;
        return;
      }
    }
    entries_.push_back({p, next});
  }

  void erase(ProcId p) {
    for (auto& entry : entries_) {
      if (entry.first == p) {
        entry = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(entries_[0]);
  }

 private:
  /// slot()'s miss, out of line so the scan inlines.
  std::uint32_t& append(ProcId p);

  std::vector<std::pair<ProcId, std::uint32_t>> entries_;
};

/// varint_size(v) is the number of bytes put_varint(out, v) appends: one
/// per started group of seven bits.
inline std::size_t varint_size(std::uint64_t value) {
  return 1 + static_cast<std::size_t>(std::bit_width(value | 1) - 1) / 7;
}

/// The size of `r`'s encoding given its two delta flags: `same_proc` (its
/// processor is the previous record's) and `next_seq` (its sequence number
/// follows its processor's previous one in the batch).  Every sizing path
/// (RecordEncoder::measure, BatchSizer) goes through this one rule.
inline std::size_t record_size(const EventRecord& r, bool same_proc,
                               bool next_seq) {
  std::size_t size = 1 + 8;  // flags + local time
  if (!same_proc) size += varint_size(r.id.proc);
  if (!next_seq) size += varint_size(r.id.seq);
  if (r.kind == EventKind::kSend || r.kind == EventKind::kReceive ||
      r.kind == EventKind::kLossDecl) {
    size += varint_size(r.peer);
  }
  if (r.kind == EventKind::kReceive || r.kind == EventKind::kLossDecl) {
    size += varint_size(r.match.proc) + varint_size(r.match.seq);
  }
  if (r.kind == EventKind::kReceive && r.slack != 0.0) size += 8;
  return size;
}

/// encoded_size() of a batch, counted while a caller walks the batch in
/// order anyway.  The per-processor next-seq table is indexed by processor
/// id, so add() is O(1) and reset() O(V); every record added must name a
/// processor below reset()'s `num_procs` (the caller range-checks).
class BatchSizer {
 public:
  /// Starts an empty batch of a system of `num_procs` processors.
  void reset(std::size_t num_procs) {
    prev_proc_ = kInvalidProc;
    next_seq_.assign(num_procs, kNoSeq);
    records_ = 0;
    bytes_ = 0;
  }

  void add(const EventRecord& r) {
    std::uint64_t& next = next_seq_[r.id.proc];
    bytes_ += record_size(r, r.id.proc == prev_proc_, next == r.id.seq);
    prev_proc_ = r.id.proc;
    next = static_cast<std::uint32_t>(r.id.seq + 1);
    ++records_;
  }

  /// The encoded size of the records added since reset().
  [[nodiscard]] std::size_t size() const {
    return varint_size(records_) + bytes_;
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return next_seq_.capacity() * sizeof(std::uint64_t);
  }

 private:
  /// No record of the processor yet: matches no 32-bit sequence number.
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};
  ProcId prev_proc_ = kInvalidProc;
  std::vector<std::uint64_t> next_seq_;
  std::size_t records_ = 0;
  std::size_t bytes_ = 0;
};

/// The canonical record encoder, one record at a time.  Its state is that
/// of a batch encoding in progress: the previous record's processor and,
/// per processor, the sequence number after its last record (in uint32
/// arithmetic: the successor of 0xFFFFFFFF is 0).  Every batch image is
/// written by one of these, so the format has a single implementation.
class RecordEncoder {
 public:
  /// Forgets all state: the next record encodes as a batch's first.
  void clear() {
    prev_proc_ = kInvalidProc;
    next_seq_.clear();
  }

  /// Appends `r`'s encoding to `out` and advances the state past it.
  void put(std::vector<std::uint8_t>& out, const EventRecord& r);

  /// The size of `r`'s encoding; advances the state exactly as put() does.
  [[nodiscard]] std::size_t measure(const EventRecord& r);

  [[nodiscard]] std::size_t memory_bytes() const {
    return next_seq_.memory_bytes();
  }

 private:
  friend class IncrementalBatch;
  ProcId prev_proc_ = kInvalidProc;
  SeqTracker next_seq_;
};

/// A batch image kept current as records are appended and the tail is cut
/// back, so each record is encoded once however often the image is
/// written.  write() emits exactly encode_batch() of the cached records.
class IncrementalBatch {
 public:
  /// Number of records encoded so far.
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  void append(const EventRecord& r);

  /// Drops records [k, size()) and rewinds the encoder state to k.
  void truncate(std::size_t k);

  void clear();

  /// Size of the image write() appends.
  [[nodiscard]] std::size_t encoded_size() const;

  /// Appends the image: varint(size()) then the cached record bytes.
  void write(std::vector<std::uint8_t>& out) const;

  /// Resident bytes of the cache (buffers at capacity).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// What truncate() needs to undo one record's encoding.
  struct Entry {
    std::uint32_t offset = 0;  ///< Start of its bytes in bytes_.
    ProcId proc = kInvalidProc;
    std::uint32_t prior_next = 0;  ///< next_seq_[proc] before the record.
    bool had_prior = false;        ///< Whether next_seq_ had proc then.
  };

  RecordEncoder encoder_;
  std::vector<std::uint8_t> bytes_;
  std::vector<Entry> records_;
};

/// Serializes a batch (any record order; the encoder keeps it).
std::vector<std::uint8_t> encode_batch(const EventBatch& batch);

/// Appends the batch encoding to `out` without clearing it — the
/// allocation-free path: a caller that reuses `out` across messages pays
/// no heap traffic once its capacity has grown to the working-set size.
void encode_batch_into(std::vector<std::uint8_t>& out,
                       const EventBatch& batch);

/// Parses a batch into a caller-owned batch (cleared first, capacity
/// reused); throws driftsync::WireError on malformed input.  On WireError
/// the batch holds the records decoded so far and must not be interpreted.
void decode_batch_into(EventBatch& out, std::span<const std::uint8_t> bytes);

/// decode_batch_into a fresh batch.
EventBatch decode_batch(std::span<const std::uint8_t> bytes);

/// Encoded size without materializing the buffer.
std::size_t encoded_size(const EventBatch& batch);

/// Serializes a full CSA payload (report batch + scalar slots) so that any
/// CSA — view-propagating or classic baseline — can ride a real transport:
/// a byte-length-prefixed encode_batch image followed by a count-prefixed
/// run of 64-bit IEEE scalars.  Scalars may be infinite (open error bounds)
/// but never NaN.  Canonical like the batch encoding: decode is a strict
/// inverse and rejects anything the encoder could not have produced.
std::vector<std::uint8_t> encode_payload(const CsaPayload& payload);
void append_payload(std::vector<std::uint8_t>& out, const CsaPayload& payload);

/// Parses a payload starting at `offset` into a caller-owned payload,
/// advancing `offset` past it (the caller owns trailing data).  Every field
/// of `out` is rewritten and its buffers keep their capacity.  Throws
/// driftsync::WireError on malformed input, after which `out` must not be
/// interpreted.
void decode_payload_into(CsaPayload& out, std::span<const std::uint8_t> bytes,
                         std::size_t& offset);

/// decode_payload_into a fresh payload.  The single-argument overload
/// requires the payload to consume the whole buffer.
CsaPayload decode_payload(std::span<const std::uint8_t> bytes,
                          std::size_t& offset);
CsaPayload decode_payload(std::span<const std::uint8_t> bytes);

// Low-level primitives (exposed for tests and the checkpoint module; see
// varint_size above).  The getters throw WireError on truncation;
// get_varint additionally rejects over-long (non-minimal) and
// 64-bit-overflowing encodings, so every accepted varint re-encodes to the
// exact bytes consumed.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

namespace detail {
/// get_varint past its one-byte fast path: the multi-byte and the
/// rejection cases.
std::uint64_t get_varint_slow(std::span<const std::uint8_t> bytes,
                              std::size_t& offset);
[[noreturn]] void throw_truncated_double();
}  // namespace detail

inline std::uint64_t get_varint(std::span<const std::uint8_t> bytes,
                                std::size_t& offset) {
  // A byte below 0x80 is a whole varint, and a one-byte encoding is
  // always the minimal one.
  if (offset < bytes.size() && bytes[offset] < 0x80) return bytes[offset++];
  return detail::get_varint_slow(bytes, offset);
}

void put_double(std::vector<std::uint8_t>& out, double v);
/// Puts the byte length of out[at, end) in front of it as a varint, for an
/// image whose length is known once it is written: no sizing pass.
void prefix_length(std::vector<std::uint8_t>& out, std::size_t at);
/// Writes the 8 bytes put_double appends to `dst`, for a caller that has
/// sized the buffer already.
inline void store_double(std::uint8_t* dst, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  if constexpr (std::endian::native == std::endian::little) {
    // The wire order is little-endian: the bytes as they sit in memory.
    std::memcpy(dst, &bits, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      dst[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
  }
}
/// Reads the 8 bytes put_double appended.
inline double get_double(std::span<const std::uint8_t> bytes,
                         std::size_t& offset) {
  if (offset > bytes.size() || bytes.size() - offset < 8) {
    detail::throw_truncated_double();
  }
  const std::uint8_t* src = bytes.data() + offset;
  std::uint64_t bits = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, src, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    }
  }
  offset += 8;
  return std::bit_cast<double>(bits);
}

}  // namespace driftsync::wire
