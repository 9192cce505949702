// CRC-32C (Castagnoli), the checksum iSCSI, ext4 and SCTP use.  The
// Node's write-ahead log frames each record with it (DESIGN.md decision
// 12).  SSE4.2's crc32 instruction computes it where the CPU has one; a
// table does elsewhere, with identical results.  The table costs ~3 ns a
// byte against the instruction's ~0.14, and a compaction checksums the
// whole ~17 KiB snapshot (52 against 2.4 µs on a 4-vCPU Xeon VM): on
// node-ingest the table alone doubled `latency_p99_us` (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <span>

namespace driftsync {

/// Extends `crc` over `bytes`: crc32c(crc32c(0, a), b) == crc32c(0, a ‖ b),
/// and crc32c(0, "123456789") == 0xE3069283.
[[nodiscard]] std::uint32_t crc32c(std::uint32_t crc,
                                   std::span<const std::uint8_t> bytes);

/// crc32c() one byte at a time through a table, on any CPU: what crc32c()
/// runs without SSE4.2, callable directly so a test compares the two.
[[nodiscard]] std::uint32_t crc32c_by_table(
    std::uint32_t crc, std::span<const std::uint8_t> bytes);

}  // namespace driftsync
