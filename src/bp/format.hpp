#pragma once
// Binary (de)serialization of miniBP metadata: StepRecords for md.0 and
// IndexEntries for md.idx.  The format is versioned and bounds-checked so a
// truncated or corrupt container fails loudly on read (the original BIT1
// failure mode the paper reports — corrupted output files beyond 20k ranks —
// must be *detectable* here).
//
// Three on-disk versions coexist:
//   v4 ("MD04"/"IDX4")  the original layout, no checksums; still readable.
//   v5 ("MD05"/"IDX5")  every chunk record carries the CRC32C of its stored
//       bytes, every step-metadata block ends in its own CRC32C, and every
//       index entry repeats the CRC of the metadata block it points at.  A
//       torn or bit-flipped write anywhere in the container is therefore
//       detectable on read.
//   v6 ("MD06")  adds a per-chunk FNV-1a content hash of the raw bytes (the
//       dedup key of incremental checkpoints).
// Closed containers end md.0 in a *footer index* ("FTR7"): a copy of the
// md.idx pointer table (32 bytes per step) and a fixed 24-byte trailer
// pointing back at it, so a reader opens from md.0 alone.  Step metadata is
// written once; the footer costs O(steps) bytes.  A missing, torn, corrupt
// or foreign footer (such as the "FTR6" footer of earlier writers, which
// repeated every step record) falls back to the md.idx scan path, which
// ignores the footer region.
// Any other magic is a wrong-version/corrupt input and raises FormatError.

#include <span>

#include "bp/types.hpp"

namespace bitio::bp {

inline constexpr std::uint32_t kMdMagic = 0x4D443034;     // "MD04" (legacy)
inline constexpr std::uint32_t kIdxMagic = 0x49445834;    // "IDX4" (legacy)
inline constexpr std::uint32_t kIdxEntryBytes = 24;       // v4 record size
inline constexpr std::uint32_t kMdMagicV5 = 0x4D443035;   // "MD05"
inline constexpr std::uint32_t kIdxMagicV5 = 0x49445835;  // "IDX5"
inline constexpr std::uint32_t kIdxEntryBytesV5 = 32;     // v5 record size
inline constexpr std::uint32_t kIdxHeaderBytes = 8;       // magic | count
inline constexpr std::uint32_t kMdMagicV6 = 0x4D443036;   // "MD06"
inline constexpr std::uint32_t kFtrMagic = 0x46545237;    // "FTR7"
/// Fixed-size footer trailer at the very end of md.0:
///   u64 footer_offset | u64 footer_length | u32 crc32c(footer) | u32 magic
inline constexpr std::uint32_t kFtrTrailerBytes = 24;
/// CRC32C of any block that ends in the little-endian CRC32C of the bytes
/// before it — hence of every v5+ step block (see IndexEntry::md_crc).
inline constexpr std::uint32_t kMdBlockCrcResidue = 0x48674BC7;

/// Serialize one step's metadata (appended to md.0).  Writes v6: chunk CRCs
/// and content hashes plus a trailing CRC32C over the whole block.
std::vector<std::uint8_t> encode_step(const StepRecord& record);
/// Parse one step's metadata (v4, v5 or v6; v5+ blocks are CRC-verified).
/// Throws FormatError on corruption or an unknown version magic.
StepRecord decode_step(std::span<const std::uint8_t> data);

/// Serialize/parse the whole md.idx file (header + fixed-size entries).
/// encode writes v5; decode accepts v4 and v5.  A v5 md_crc is the same
/// constant for every valid block (see IndexEntry).
std::vector<std::uint8_t> encode_index(const std::vector<IndexEntry>& index);
std::vector<IndexEntry> decode_index(std::span<const std::uint8_t> data);

/// The md.idx md_crc of a v5+ step block: crc32c(whole block), continued
/// from the CRC the block ends in over its last four bytes instead of a
/// second pass (encode_step/decode_step already checksum the body).  Always
/// kMdBlockCrcResidue.  Throws FormatError below four bytes.
std::uint32_t md_block_crc(std::span<const std::uint8_t> block);

/// The footer trailer for a pointer table `footer` (encode_index bytes)
/// written at byte `footer_offset` of md.0.
std::vector<std::uint8_t> encode_trailer(std::uint64_t footer_offset,
                                         std::span<const std::uint8_t> footer);

}  // namespace bitio::bp
