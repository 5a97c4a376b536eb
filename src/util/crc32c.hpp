#pragma once
// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum ADIOS2/HDF5-class containers use for end-to-end integrity.  The
// miniBP v5 format stores one CRC per data chunk and per metadata block so
// torn writes and silent bit flips are *detectable* on read (the corruption
// failure mode the paper reports beyond 20k ranks).
//
// Three kernels compute the same function.  crc32c() runs the SSE4.2
// `crc32` instruction (8 bytes per instruction) when cpuid reports it and
// falls back to a portable slicing-by-8 table loop otherwise; the dispatch
// is decided once per process.  The byte-at-a-time table loop is kept as
// the differential reference the other two are tested against.

#include <cstdint>
#include <span>

namespace bitio {

/// CRC32C of `data`, continuing from `seed` (pass the previous return value
/// to checksum a logical stream in pieces; start with 0).
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

/// The kernels behind crc32c(), for differential tests and kernel probes.
/// All take and return the same values as crc32c().
std::uint32_t crc32c_bytewise(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0);
std::uint32_t crc32c_slice8(std::span<const std::uint8_t> data,
                            std::uint32_t seed = 0);
/// True when this CPU runs the SSE4.2 kernel; crc32c_sse42() falls back to
/// slicing-by-8 otherwise (and on non-x86 builds).
bool crc32c_sse42_supported();
std::uint32_t crc32c_sse42(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0);

}  // namespace bitio
