// frost::BlockCompressor — the bzip2 stand-in.
//
// Like bzip2, frost compresses independent blocks, each carrying its own
// CRC of the original data; unlike bzip2 it uses RLE + canonical Huffman
// instead of BWT+MTF+Huffman (ratio is not the point — the *block structure*
// is, because Section 4.2.2's forensics depend on it: a single flipped bit
// corrupts exactly one of ~396 blocks and the rest remain recoverable).
//
// Container layout (all integers little-endian):
//   "FZ01"            4-byte stream magic
//   u32 block_count
//   u32 block_size    nominal uncompressed block size
//   then per block:
//     u32 0xB10CB10C  block magic (what recovery scans for)
//     u32 orig_size
//     u32 comp_size
//     u32 crc32       CRC-32 of the ORIGINAL block bytes
//     u8  method      0 = stored, 1 = RLE+Huffman
//     comp_size bytes of payload
//
// Compression runs in two stages.  frost_plan scans each block once (RLE
// into symbol counts, then Huffman code lengths) and so knows every block's
// method and payload size, and the container's size, without writing a
// byte.  frost_emit writes the container from the data and its plan, reusing
// the plan's code lengths: bits, CRCs and headers.  frost_compress is plan
// then emit.  Neither stage keeps the RLE stream in memory.  A block is
// stored raw when coding would not make it smaller, or when its longest
// code would be over 32 bits, the longest the decoder reads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace zerodeg::workload {

struct CompressorConfig {
    std::size_t block_size = 16 * 1024;
};

struct BlockInfo {
    std::size_t offset = 0;     ///< of the block header in the container
    std::uint32_t orig_size = 0;
    std::uint32_t comp_size = 0;
    std::uint32_t crc = 0;
    std::uint8_t method = 0;

    bool operator==(const BlockInfo&) const = default;
};

/// How one block will be stored, decided by frost_plan.
struct FrostBlockPlan {
    std::uint32_t orig_size = 0;
    std::uint32_t comp_size = 0;  ///< payload bytes
    std::uint8_t method = 0;      ///< 0 = stored, 1 = RLE+Huffman
    /// Method 1 only: the 257 code lengths the payload starts with.
    std::vector<std::uint8_t> lengths;
};

/// Everything frost_emit needs beyond the data: the container's exact
/// layout, block by block.
struct FrostPlan {
    CompressorConfig config;
    std::size_t data_size = 0;
    std::size_t container_bytes = 0;  ///< the emitted container's size
    std::vector<FrostBlockPlan> blocks;
};

/// Plan the container for `data`: per-block method and payload size.
[[nodiscard]] FrostPlan frost_plan(std::span<const std::uint8_t> data,
                                   CompressorConfig config = {});

/// Write the container `plan` describes.  `data` must be the bytes the plan
/// was made from; throws InvalidArgument when its size or a block's coded
/// size disagrees with the plan, or a block holds a symbol the plan gave no
/// code.
[[nodiscard]] std::vector<std::uint8_t> frost_emit(std::span<const std::uint8_t> data,
                                                   const FrostPlan& plan);

/// Compress `data` into a frost container: frost_emit(data, frost_plan(data)).
[[nodiscard]] std::vector<std::uint8_t> frost_compress(std::span<const std::uint8_t> data,
                                                       CompressorConfig config = {});

/// Decompress a container; throws CorruptData on any structural or CRC
/// failure (bad magic, short payload, CRC mismatch).
[[nodiscard]] std::vector<std::uint8_t> frost_decompress(std::span<const std::uint8_t> container);

/// Parse the block directory without decompressing payloads.
[[nodiscard]] std::vector<BlockInfo> frost_block_directory(
    std::span<const std::uint8_t> container);

/// Decode and CRC-check one block (throws CorruptData if it is damaged).
/// This is the primitive the recovery utility is built on.
[[nodiscard]] std::vector<std::uint8_t> frost_decode_block(
    std::span<const std::uint8_t> container, const BlockInfo& info);

/// Number of blocks a data size maps to under `config`.
[[nodiscard]] std::size_t frost_block_count(std::size_t data_size, CompressorConfig config = {});

// --- internals, exposed for the unit/property tests ------------------------
namespace frost_detail {

/// Escape-coded run-length encoding (runs of >= 4 bytes).  The encoded
/// stream is what frost_plan counts and frost_emit codes; this buffers it.
[[nodiscard]] std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data);
[[nodiscard]] std::vector<std::uint8_t> rle_decode(std::span<const std::uint8_t> data);

/// MSB-first bit reader.
class BitReader {
public:
    explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
    /// Read one bit; throws CorruptData past the end.
    [[nodiscard]] int bit();
    [[nodiscard]] bool exhausted() const;

    /// Expose up to `want` upcoming bits MSB-first without consuming them
    /// (refilling the internal buffer as needed); returns how many are
    /// actually available — fewer than `want` only near end of stream.
    /// `want` must be in [1, 32].
    [[nodiscard]] int peek(int want, std::uint32_t& window);
    /// Consume bits previously exposed by peek (count <= its return value).
    void consume(int count) { buf_bits_ -= count; }

private:
    void fill();

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;       ///< next unread byte
    std::uint64_t buf_ = 0;     ///< up to 64 buffered bits, MSB-first order
    int buf_bits_ = 0;
};

/// Huffman code lengths for the given symbol frequencies (0 frequency =>
/// length 0 / absent).  At least one symbol must have nonzero frequency;
/// there are at most 257 symbols, each frequency below 2^55.
/// Merges the two lightest subtrees first, ties going to the leaf, then the
/// lower symbol, then the earlier merge: the tree a heap ordered by (weight,
/// creation index) builds.
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freq);

/// Canonical codes from lengths (symbols with length 0 get no code).
[[nodiscard]] std::vector<std::uint32_t> canonical_codes(
    const std::vector<std::uint8_t>& lengths);

}  // namespace frost_detail

}  // namespace zerodeg::workload
