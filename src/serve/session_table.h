// Fixed-footprint client sessions for the serving tier (DESIGN.md
// decision 17).
//
// A serving node answers Cristian-style ClientReq datagrams for clients
// that never join the AGDP peer mesh.  All it remembers per client is one
// ClientSession — a slab entry of ~O(100 B): the last request sequence, a
// smoothed RTT, and an 8-entry minimum-delay filter window.  No history
// protocol, no APSP row, no fate state.  The SessionTable owns a slab of
// max_clients sessions plus an open-addressed index and an intrusive LRU
// list, all preallocated at construction, so the steady-state request path
// performs zero heap allocations (the bench_serve contract).
//
// Cap semantics: when the table is full, a newcomer evicts the
// least-recently-active session only if that session has been idle for at
// least evict_grace seconds; otherwise the newcomer is rejected (counted,
// request dropped) so a burst of fresh identities cannot churn out an
// active fleet.  Independently, sessions idle longer than idle_timeout are
// reaped by the owner's timer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace driftsync::serve {

/// Per-client state.  Everything the serving tier knows about one client;
/// deliberately fixed-size so table memory is max_clients * O(100 B).
struct ClientSession {
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kWindow = 8;

  std::uint64_t client_id = 0;    ///< 0 = free slab slot.
  std::uint64_t last_req_seq = 0;
  std::uint64_t requests = 0;
  double last_active = 0.0;       ///< Owner-supplied monotonic seconds.
  double srtt = 0.0;              ///< EWMA of reported RTTs; 0 = no sample.
  double rtt_window[kWindow] = {};  ///< Ring of recent reported RTTs.
  std::uint8_t window_next = 0;
  std::uint8_t window_count = 0;
  std::uint32_t lru_prev = kNil;  ///< Toward more recently used.
  std::uint32_t lru_next = kNil;  ///< Toward less recently used.

  /// Feeds one client-reported RTT sample into the smoothed estimate and
  /// the minimum-delay filter window.
  void note_rtt(double rtt);

  /// Minimum over the filter window — the session's best observed delay
  /// bound.  Returns 0 when no sample has been reported yet.
  [[nodiscard]] double min_rtt() const;
};

/// Slab + open-addressed index + intrusive LRU over ClientSession.  Not
/// thread-safe; the owner (Node) calls it from its one thread.
class SessionTable {
 public:
  struct Options {
    std::size_t max_clients = 1024;  ///< Hard cap, >= 1.
    double idle_timeout = 30.0;      ///< reap_idle() threshold, seconds.
    /// LRU protection window: at the cap, the least-recently-active
    /// session is evicted for a newcomer only once it has been idle this
    /// long; younger tails cause the newcomer to be rejected instead.
    double evict_grace = 1.0;
  };

  struct Counters {
    std::uint64_t hits = 0;      ///< touch() found an existing session.
    std::uint64_t inserts = 0;   ///< touch() created a session.
    std::uint64_t evicted = 0;   ///< LRU evictions at the cap.
    std::uint64_t reaped = 0;    ///< Idle-timeout reaps.
    std::uint64_t rejected = 0;  ///< Newcomers refused at the cap.
  };

  explicit SessionTable(const Options& opts);

  /// Looks up client_id, creating the session if absent, bumping it to the
  /// LRU head and stamping last_active = now.  Returns nullptr when the
  /// table is at the cap and the LRU tail is inside the grace window (the
  /// rejection is counted).  The pointer is valid until the next mutating
  /// call.
  ClientSession* touch(std::uint64_t client_id, double now);

  /// Lookup without creating or reordering; nullptr when absent.
  [[nodiscard]] ClientSession* find(std::uint64_t client_id);

  /// Drops every session idle longer than idle_timeout; returns the count.
  std::size_t reap_idle(double now);

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t capacity() const { return slab_.size(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Heap bytes owned by the table (slab + index + free list) — the flat
  /// per-client figure exp_serve_scaling reports.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kEmpty = ClientSession::kNil;

  [[nodiscard]] std::size_t home(std::uint64_t client_id) const;
  /// Bucket holding client_id, or the bucket where it would insert.
  [[nodiscard]] std::size_t probe(std::uint64_t client_id) const;
  void index_insert(std::uint64_t client_id, std::uint32_t slot);
  void index_erase(std::uint64_t client_id);
  void lru_unlink(std::uint32_t slot);
  void lru_push_head(std::uint32_t slot);
  void drop_session(std::uint32_t slot);

  Options opts_;
  std::vector<ClientSession> slab_;
  std::vector<std::uint32_t> buckets_;  ///< Slab slots; kEmpty = vacant.
  std::vector<std::uint32_t> free_;     ///< Vacant slab slots.
  std::size_t mask_ = 0;                ///< buckets_.size() - 1 (pow2).
  std::size_t live_ = 0;
  std::uint32_t lru_head_ = kEmpty;  ///< Most recently used.
  std::uint32_t lru_tail_ = kEmpty;  ///< Least recently used.
  Counters counters_;
};

}  // namespace driftsync::serve
