#include "common/crc32c.h"

#include <array>
#include <cstring>

namespace driftsync {

namespace {

/// The reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78U;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? (c >> 1) ^ kPoly : c >> 1;
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("sse4.2"))) std::uint32_t by_instruction(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  std::uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c64 = __builtin_ia32_crc32di(c64, word);
  }
  auto c32 = static_cast<std::uint32_t>(c64);
  for (; n > 0; --n, ++p) c32 = __builtin_ia32_crc32qi(c32, *p);
  return c32;
}

const bool kHaveInstruction = __builtin_cpu_supports("sse4.2");
#endif

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, std::span<const std::uint8_t> bytes) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (kHaveInstruction) {
    return ~by_instruction(~crc, bytes.data(), bytes.size());
  }
#endif
  return crc32c_by_table(crc, bytes);
}

std::uint32_t crc32c_by_table(std::uint32_t crc,
                              std::span<const std::uint8_t> bytes) {
  std::uint32_t c = ~crc;
  for (const std::uint8_t b : bytes) c = kTable[(c ^ b) & 0xFFU] ^ (c >> 8);
  return ~c;
}

}  // namespace driftsync
