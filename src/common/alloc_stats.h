// Process-wide heap-allocation counters, fed by an optional counting
// operator-new replacement (bench/alloc_hook.cpp, library
// driftsync_allochook).
//
// The counters live here, in driftsync_common, so any code can *read* them
// unconditionally: in a binary that does not link the hook they simply stay
// at zero and hooked() reports false.  Binaries that want real numbers (the
// micro-benchmarks, driftsync_benchall, driftsyncd) link the hook library,
// whose static initializer flips hooked() to true.
//
// Counting is two relaxed atomic increments per allocation — cheap enough
// to leave on in a daemon, but it is still a measurement tool: treat deltas
// taken around a code region as attribution only when no other thread
// allocates concurrently (the bench harness and a driftsyncd process run
// on one thread; the Node documents the approximation).
#pragma once

#include <cstddef>
#include <cstdint>

namespace driftsync::alloc_stats {

/// True when the counting operator-new hook is linked into this binary.
[[nodiscard]] bool hooked();

/// Total heap allocations / requested bytes since process start (0 when the
/// hook is not linked).  Monotonic; frees are deliberately not tracked —
/// the interesting hot-path quantity is allocation *events*, not residency.
[[nodiscard]] std::uint64_t allocations();
[[nodiscard]] std::uint64_t allocated_bytes();

/// Hook-side entry points.  note() is called from every operator new;
/// set_hooked() once from the hook library's static initializer.
void note(std::size_t bytes);
void set_hooked();

}  // namespace driftsync::alloc_stats
