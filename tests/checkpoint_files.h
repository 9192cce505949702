// The durable Node's files as the tests and fuzz_checkpoint handle them:
// a checkpoint path whose snapshot, temporary and log segment are removed
// before and after, whole-file reads and writes, and the log segment's
// layout (DESIGN.md decision 12) walked and re-framed.  No gtest, so
// tools/fuzz_checkpoint includes it too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"

namespace driftsync::testing {

/// A checkpoint path, CWD-relative (ctest runs in the build tree), whose
/// snapshot, temporary and log segment are removed before and after.
struct CheckpointFiles {
  std::string path;
  explicit CheckpointFiles(std::string name) : path(std::move(name)) {
    remove_all();
  }
  ~CheckpointFiles() { remove_all(); }
  CheckpointFiles(const CheckpointFiles&) = delete;
  CheckpointFiles& operator=(const CheckpointFiles&) = delete;
  void remove_all() const {
    for (const char* suffix : {"", ".tmp", ".log"}) {
      std::remove((path + suffix).c_str());
    }
  }
};

/// The whole file at `path`; empty when it cannot be opened.
inline std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::vector<std::uint8_t> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

/// Replaces the file at `path` with `bytes`.
inline void write_bytes(const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// A segment opens with a 16-byte header (magic, the snapshot's size and
/// CRC-32C); each record follows as its body's length (4 bytes), a CRC-32C
/// over that length and the body chained from the previous record's (the
/// first from the snapshot's), and the body.  Little-endian.
inline constexpr std::size_t kSegmentHeaderBytes = 16;
inline constexpr std::size_t kRecordFrameBytes = 8;

inline std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline void put_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// The end offset of every complete record of `seg`, walking the length
/// fields only (checksums unchecked).
inline std::vector<std::size_t> record_ends(
    std::span<const std::uint8_t> seg) {
  std::vector<std::size_t> ends;
  std::size_t at = kSegmentHeaderBytes;
  while (at + kRecordFrameBytes <= seg.size()) {
    const std::size_t len = get_le32(seg.data() + at);
    if (len > seg.size() - at - kRecordFrameBytes) break;
    at += kRecordFrameBytes + len;
    ends.push_back(at);
  }
  return ends;
}

/// `seg`, whose records end at `ends`, with record `i`'s body replaced by
/// `body`, and that record and every one after it re-framed: lengths and
/// the CRC chain recomputed, so the forgery passes every check that a
/// crash or a flipped bit fails.
inline std::vector<std::uint8_t> with_record_body(
    std::span<const std::uint8_t> seg, const std::vector<std::size_t>& ends,
    std::size_t i, std::span<const std::uint8_t> body) {
  const auto begin = [&](std::size_t k) {
    return k == 0 ? kSegmentHeaderBytes : ends[k - 1];
  };
  // The chain value before record i: the previous record's CRC, or the
  // snapshot's, which the segment header carries.
  std::uint32_t chain = i == 0 ? get_le32(seg.data() + 12)
                               : get_le32(seg.data() + begin(i - 1) + 4);
  std::vector<std::uint8_t> out(
      seg.begin(), seg.begin() + static_cast<std::ptrdiff_t>(begin(i)));
  for (std::size_t k = i; k < ends.size(); ++k) {
    const std::span<const std::uint8_t> b =
        k == i ? body
               : seg.subspan(begin(k) + kRecordFrameBytes,
                             ends[k] - begin(k) - kRecordFrameBytes);
    std::uint8_t frame[kRecordFrameBytes];
    put_le32(frame, static_cast<std::uint32_t>(b.size()));
    chain = crc32c(crc32c(chain, std::span(frame, 4)), b);
    put_le32(frame + 4, chain);
    out.insert(out.end(), frame, frame + kRecordFrameBytes);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

}  // namespace driftsync::testing
