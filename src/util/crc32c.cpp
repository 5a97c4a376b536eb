#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define BITIO_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace bitio {

namespace {

// tables[0] is the classic 256-entry table for the reflected Castagnoli
// polynomial; tables[k][b] is the CRC register after byte b followed by k
// zero bytes, which lets slicing-by-8 fold eight input bytes per step.
// Built once at first use (a function-local static keeps the header free
// of the tables).
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

const Tables& tables() {
  static const Tables t = make_tables();
  return t;
}

/// Little-endian 64-bit load, independent of host byte order (compiles to
/// one unaligned load on x86).
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t word = 0;
  for (int i = 7; i >= 0; --i) word = (word << 8) | p[i];
  return word;
}

#ifdef BITIO_CRC32C_X86
bool cpu_has_sse42() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}

// Compiled for SSE4.2 regardless of the project's baseline flags and
// selected at runtime, so the binary still runs on machines without it.
__attribute__((target("sse4.2"))) std::uint32_t sse42_register(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  crc = std::uint32_t(c);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

}  // namespace

std::uint32_t crc32c_bytewise(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  const auto& table = tables()[0];
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c_slice8(std::span<const std::uint8_t> data,
                            std::uint32_t seed) {
  const Tables& t = tables();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t word = load_le64(p) ^ crc;
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
          t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
          t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
          t[1][(word >> 48) & 0xFFu] ^ t[0][word >> 56];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

bool crc32c_sse42_supported() {
#ifdef BITIO_CRC32C_X86
  return cpu_has_sse42();
#else
  return false;
#endif
}

std::uint32_t crc32c_sse42(std::span<const std::uint8_t> data,
                           std::uint32_t seed) {
#ifdef BITIO_CRC32C_X86
  if (cpu_has_sse42())
    return sse42_register(data.data(), data.size(), seed ^ 0xFFFFFFFFu) ^
           0xFFFFFFFFu;
#endif
  return crc32c_slice8(data, seed);
}

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return crc32c_sse42(data, seed);
}

}  // namespace bitio
