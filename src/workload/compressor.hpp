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
// then emit.  Neither stage keeps the RLE stream in memory.
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
/// size disagrees with the plan.
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

/// MSB-first bit writer/reader.
class BitWriter {
public:
    BitWriter() = default;
    /// Room for `expected_bytes` before the buffer has to grow.
    explicit BitWriter(std::size_t expected_bytes) : bytes_(expected_bytes) {}

    /// Append the low `count` bits of `bits`, most significant first.
    /// `count` must be in [0, 32].  Inline: the encoder calls it per symbol.
    void put(std::uint32_t bits, int count) {
        if (count < 0 || count > 32) [[unlikely]] throw_bad_count();
        // Whole 32-bit words leave the accumulator as soon as they fill;
        // bits above acc_bits_ are stale and never read.
        acc_ = (acc_ << count) | (static_cast<std::uint64_t>(bits) & ((1ull << count) - 1));
        acc_bits_ += count;
        if (acc_bits_ >= 32) {
            acc_bits_ -= 32;
            if (bytes_.size() - size_ < 4) [[unlikely]] grow(4);
            const auto word = static_cast<std::uint32_t>(acc_ >> acc_bits_);
            std::uint8_t* out = bytes_.data() + size_;
            out[0] = static_cast<std::uint8_t>(word >> 24);
            out[1] = static_cast<std::uint8_t>(word >> 16);
            out[2] = static_cast<std::uint8_t>(word >> 8);
            out[3] = static_cast<std::uint8_t>(word);
            size_ += 4;
        }
    }
    /// Zero-pad the pending bits to a byte boundary.
    void align() {
        if (acc_bits_ % 8 != 0) put(0, 8 - acc_bits_ % 8);
    }
    /// Append whole bytes; the writer must be byte-aligned (see align()).
    void put_bytes(std::span<const std::uint8_t> bytes);
    /// Bytes finish() would hand back now.
    [[nodiscard]] std::size_t bytes_written() const {
        return size_ + static_cast<std::size_t>((acc_bits_ + 7) / 8);
    }
    /// Flush the pending bits, zero-padding the last byte, and hand back
    /// the buffer.
    [[nodiscard]] std::vector<std::uint8_t> finish();

private:
    [[noreturn]] static void throw_bad_count();
    /// Make room for at least `more` bytes past size_.
    void grow(std::size_t more);

    std::vector<std::uint8_t> bytes_;  ///< bytes_[0, size_) written, the rest room
    std::size_t size_ = 0;
    std::uint64_t acc_ = 0;  ///< pending bits in its low acc_bits_ bits
    int acc_bits_ = 0;       ///< always < 32 between calls
};

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
/// length 0 / absent).  At least one symbol must have nonzero frequency.
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
