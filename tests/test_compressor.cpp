#include "workload/compressor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <string_view>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/corpus.hpp"
#include "workload/crc32.hpp"

namespace zerodeg::workload {
namespace {

using frost_detail::BitReader;
using frost_detail::canonical_codes;
using frost_detail::huffman_code_lengths;
using frost_detail::rle_decode;
using frost_detail::rle_encode;

// --- RLE ---------------------------------------------------------------

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> xs) {
    std::vector<std::uint8_t> out;
    for (const int x : xs) out.push_back(static_cast<std::uint8_t>(x));
    return out;
}

TEST(Rle, CompressesRuns) {
    const std::vector<std::uint8_t> data(1000, 0x00);
    const auto enc = rle_encode(data);
    EXPECT_LT(enc.size(), 20u);
    EXPECT_EQ(rle_decode(enc), data);
}

TEST(Rle, ShortRunsStayLiteral) {
    const auto data = bytes_of({1, 1, 1, 2, 3});  // run of 3 < minimum 4
    const auto enc = rle_encode(data);
    EXPECT_EQ(enc, data);
    EXPECT_EQ(rle_decode(enc), data);
}

TEST(Rle, EscapeByteHandled) {
    const auto data = bytes_of({0xf7, 1, 0xf7, 0xf7, 2});
    EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

TEST(Rle, RunOfEscapeBytes) {
    const std::vector<std::uint8_t> data(300, 0xf7);
    EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

TEST(Rle, TruncatedEscapeThrows) {
    EXPECT_THROW((void)rle_decode(bytes_of({0xf7, 1})), core::CorruptData);
    EXPECT_THROW((void)rle_decode(bytes_of({0xf7})), core::CorruptData);
}

TEST(Rle, BadLiteralEscapeThrows) {
    // count 0 with value != ESC is invalid.
    EXPECT_THROW((void)rle_decode(bytes_of({0xf7, 0x01, 0x00})), core::CorruptData);
}

// Property sweep: round trip across byte patterns, including the regression
// case of runs longer than the count byte can express.
class RleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RleRoundTrip, Inverse) {
    core::RngStream rng(static_cast<std::uint64_t>(GetParam()), "rle");
    std::vector<std::uint8_t> data;
    for (int i = 0; i < 200; ++i) {
        const auto value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        const auto run = static_cast<std::size_t>(rng.uniform_int(1, 600));
        data.insert(data.end(), run, value);
    }
    EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleRoundTrip, ::testing::Range(0, 8));

TEST(Rle, ExactCountBoundaries) {
    // Runs of 257, 258, 259 (the 259 case was a real overflow bug).
    for (const std::size_t n : {253u, 254u, 255u, 256u, 257u, 258u, 259u, 260u, 600u}) {
        const std::vector<std::uint8_t> data(n, 0x41);
        EXPECT_EQ(rle_decode(rle_encode(data)), data) << n;
    }
}

// The byte-at-a-time scanner the word scanner replaced, kept as the
// reference whose stream rle_encode, frost_plan and frost_emit must match.
std::vector<std::uint8_t> reference_rle(std::span<const std::uint8_t> data) {
    constexpr std::uint8_t kEsc = 0xf7;
    constexpr std::size_t kMinRun = 4;
    std::vector<std::uint8_t> out;
    const auto sink = [&out](std::uint8_t b) { out.push_back(b); };
    const std::size_t n = data.size();
    std::size_t i = 0;
    while (i < n) {
        const std::uint8_t b = data[i];
        if (b != kEsc && (i + 1 == n || data[i + 1] != b)) {
            sink(b);
            ++i;
            continue;
        }
        std::size_t run = 1;
        while (i + run < n && data[i + run] == b && run < 254 + kMinRun) ++run;
        if (run >= kMinRun) {
            sink(kEsc);
            sink(b);
            sink(static_cast<std::uint8_t>(run - kMinRun + 1));
            i += run;
        } else if (b == kEsc) {
            sink(kEsc);
            sink(kEsc);
            sink(std::uint8_t{0});
            ++i;
        } else {
            sink(b);
            ++i;
        }
    }
    return out;
}

/// Literal filler: no two neighbours equal and no escape byte.
std::vector<std::uint8_t> filler(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>('a' + i % 7);
    return out;
}

/// The word scanner's edge cases: in blocks of 1 to 40 bytes, runs of 3, 4
/// and 5 (of a letter and of the escape byte) and a lone escape byte at
/// every offset, so at every position of a word and inside the last 11
/// bytes, where the scanner goes byte by byte; then runs of 258, 259, 516
/// and 517, past the longest one escape triple holds, at several offsets.
std::vector<std::vector<std::uint8_t>> word_edge_inputs() {
    std::vector<std::vector<std::uint8_t>> inputs;
    const std::vector<std::pair<std::uint8_t, std::size_t>> items = {
        {'x', 3}, {'x', 4}, {'x', 5}, {0xf7, 1}, {0xf7, 3}, {0xf7, 4}, {0xf7, 5}};
    for (std::size_t size = 1; size <= 40; ++size) {
        for (const auto& [value, len] : items) {
            for (std::size_t off = 0; off + len <= size; ++off) {
                std::vector<std::uint8_t> data = filler(size);
                std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(off), len, value);
                inputs.push_back(std::move(data));
            }
        }
    }
    for (const std::size_t len : {258u, 259u, 516u, 517u}) {
        for (const std::size_t off : {0u, 1u, 5u, 7u, 8u, 11u}) {
            for (const std::uint8_t value : {std::uint8_t{'x'}, std::uint8_t{0xf7}}) {
                std::vector<std::uint8_t> data = filler(off);
                data.insert(data.end(), len, value);
                const auto tail = filler(off + 3);
                data.insert(data.end(), tail.begin(), tail.end());
                inputs.push_back(std::move(data));
            }
        }
    }
    return inputs;
}

/// `data` followed by 11 more of its last byte, so that a scanner which
/// looked past the end of `data` would see its last run go on.
std::vector<std::uint8_t> continued(std::vector<std::uint8_t> data) {
    data.insert(data.end(), 11, data.back());
    return data;
}

/// Seeded mixes of literals, short and long runs and escape bytes.
std::vector<std::uint8_t> seeded_mix(std::uint64_t seed) {
    core::RngStream rng(seed, "word-scanner-mix");
    std::vector<std::uint8_t> data;
    const auto pieces = rng.uniform_int(0, 80);
    for (std::int64_t p = 0; p < pieces; ++p) {
        const auto kind = rng.uniform_int(0, 3);
        const auto value = static_cast<std::uint8_t>(
            kind == 0 ? 0xf7 : kind == 1 ? rng.uniform_int(0x61, 0x63) : rng.uniform_int(0, 255));
        const auto len = static_cast<std::size_t>(
            rng.uniform_int(0, 9) == 0 ? rng.uniform_int(1, 600) : rng.uniform_int(1, 6));
        data.insert(data.end(), len, value);
    }
    return data;
}

TEST(Rle, WordScannerMatchesAByteAtATimeReference) {
    for (const auto& data : word_edge_inputs()) {
        const auto enc = rle_encode(data);
        ASSERT_EQ(enc, reference_rle(data)) << "size " << data.size();
        ASSERT_EQ(rle_decode(enc), data);
        const auto longer = continued(data);
        ASSERT_EQ(rle_encode(std::span(longer).first(data.size())), enc) << "size " << data.size();
    }
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        const auto data = seeded_mix(seed);
        ASSERT_EQ(rle_encode(data), reference_rle(data)) << "seed " << seed;
    }
}

// --- bitstream -----------------------------------------------------------

// Reference writer: every bit appended one at a time, MSB-first within each
// code, then packed MSB-first into bytes with a zero-padded last byte.
std::vector<std::uint8_t> pack_bit_by_bit(
    const std::vector<std::pair<std::uint32_t, int>>& codes) {
    std::vector<bool> bits;
    for (const auto& [code, len] : codes) {
        for (int i = len - 1; i >= 0; --i) bits.push_back(((code >> i) & 1u) != 0);
    }
    std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) out[i / 8] = static_cast<std::uint8_t>(out[i / 8] | (0x80u >> (i % 8)));
    }
    return out;
}

TEST(Bitstream, RoundTrip) {
    const auto bytes = pack_bit_by_bit({{0b101, 3}, {0b1, 1}, {0xABCD, 16}});
    BitReader r(bytes);
    std::uint32_t v = 0;
    for (int i = 0; i < 3; ++i) v = (v << 1) | static_cast<std::uint32_t>(r.bit());
    EXPECT_EQ(v, 0b101u);
    EXPECT_EQ(r.bit(), 1);
    v = 0;
    for (int i = 0; i < 16; ++i) v = (v << 1) | static_cast<std::uint32_t>(r.bit());
    EXPECT_EQ(v, 0xABCDu);
}

TEST(Bitstream, ReadPastEndThrows) {
    const auto bytes = pack_bit_by_bit({{1, 1}});
    BitReader r(bytes);
    for (int i = 0; i < 8; ++i) (void)r.bit();
    EXPECT_TRUE(r.exhausted());
    EXPECT_THROW((void)r.bit(), core::CorruptData);
}

TEST(Bitstream, MatchesABitByBitReference) {
    // The reader's peek/consume hands back, code by code, what the
    // bit-by-bit writer packed.
    core::RngStream rng(5, "bitwriter");
    for (int trial = 0; trial < 200; ++trial) {
        // Codes carry stray high bits above `len`: the writer drops them.
        std::vector<std::pair<std::uint32_t, int>> codes;
        const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
        for (std::size_t i = 0; i < n; ++i) {
            const auto code = static_cast<std::uint32_t>(rng.next_u64());
            const auto len = static_cast<int>(rng.uniform_int(1, 32));
            codes.emplace_back(code, len);
        }
        const auto bytes = pack_bit_by_bit(codes);
        BitReader r(bytes);
        for (const auto& [code, len] : codes) {
            std::uint32_t window = 0;
            ASSERT_EQ(r.peek(len, window), len) << "trial " << trial;
            const std::uint32_t low = len == 32 ? code : code & ((1u << len) - 1);
            ASSERT_EQ(window, low) << "trial " << trial;
            r.consume(len);
        }
    }
}

// --- Huffman ---------------------------------------------------------------

TEST(Huffman, KraftEquality) {
    // An optimal prefix code satisfies sum(2^-len) == 1.
    std::vector<std::uint64_t> freq(257, 0);
    freq['a'] = 50;
    freq['b'] = 30;
    freq['c'] = 15;
    freq['d'] = 5;
    freq[256] = 1;
    const auto lengths = huffman_code_lengths(freq);
    double kraft = 0.0;
    for (const auto len : lengths) {
        if (len > 0) kraft += std::pow(2.0, -static_cast<double>(len));
    }
    EXPECT_NEAR(kraft, 1.0, 1e-12);
    // More frequent symbols never get longer codes.
    EXPECT_LE(lengths['a'], lengths['b']);
    EXPECT_LE(lengths['b'], lengths['c']);
    EXPECT_LE(lengths['c'], lengths['d']);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
    std::vector<std::uint64_t> freq(257, 0);
    freq[42] = 100;
    const auto lengths = huffman_code_lengths(freq);
    EXPECT_EQ(lengths[42], 1);
}

TEST(Huffman, EmptyThrows) {
    EXPECT_THROW((void)huffman_code_lengths(std::vector<std::uint64_t>(257, 0)),
                 core::InvalidArgument);
}

// The heap-ordered builder the two-queue merge replaced, kept as the
// reference its lengths must match exactly.
std::vector<std::uint8_t> heap_code_lengths(const std::vector<std::uint64_t>& freq) {
    struct Node {
        std::uint64_t weight;
        int index;
        int left = -1;
        int right = -1;
        int symbol = -1;
    };
    std::vector<Node> nodes;
    auto cmp = [&nodes](int a, int b) {
        if (nodes[a].weight != nodes[b].weight) return nodes[a].weight > nodes[b].weight;
        return nodes[a].index > nodes[b].index;
    };
    std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
    for (std::size_t s = 0; s < freq.size(); ++s) {
        if (freq[s] == 0) continue;
        nodes.push_back({freq[s], static_cast<int>(nodes.size()), -1, -1, static_cast<int>(s)});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }
    std::vector<std::uint8_t> lengths(freq.size(), 0);
    if (nodes.size() == 1) {
        lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
        return lengths;
    }
    while (heap.size() > 1) {
        const int a = heap.top();
        heap.pop();
        const int b = heap.top();
        heap.pop();
        nodes.push_back({nodes[a].weight + nodes[b].weight, static_cast<int>(nodes.size()), a, b,
                         -1});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }
    std::vector<std::pair<int, int>> stack{{heap.top(), 0}};
    while (!stack.empty()) {
        const auto [n, depth] = stack.back();
        stack.pop_back();
        if (nodes[n].symbol >= 0) {
            lengths[static_cast<std::size_t>(nodes[n].symbol)] = static_cast<std::uint8_t>(depth);
        } else {
            stack.emplace_back(nodes[n].left, depth + 1);
            stack.emplace_back(nodes[n].right, depth + 1);
        }
    }
    return lengths;
}

/// Frequency vector `trial` of five shapes: heavy ties, all-equal weights,
/// one symbol, two symbols, Fibonacci-skewed weights (with repeats).
std::vector<std::uint64_t> tie_heavy_frequencies(int trial, core::RngStream& rng) {
    std::vector<std::uint64_t> freq(257, 0);
    const auto pick = [&rng] { return static_cast<std::size_t>(rng.uniform_int(0, 256)); };
    switch (trial % 5) {
        case 0: {
            const auto symbols = rng.uniform_int(2, 257);
            for (std::int64_t i = 0; i < symbols; ++i) {
                freq[pick()] = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
            }
            break;
        }
        case 1: {
            const auto weight = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
            const auto symbols = rng.uniform_int(2, 257);
            for (std::int64_t i = 0; i < symbols; ++i) freq[pick()] = weight;
            break;
        }
        case 2:
            freq[pick()] = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
            break;
        case 3:
            freq[pick()] = static_cast<std::uint64_t>(rng.uniform_int(1, 5));
            freq[pick()] = static_cast<std::uint64_t>(rng.uniform_int(1, 5));
            break;
        default: {
            std::uint64_t a = 1, b = 1;
            const auto symbols = rng.uniform_int(2, 40);
            for (std::int64_t i = 0; i < symbols; ++i) {
                freq[pick()] = a;
                if (rng.uniform_int(0, 3) != 0) {  // sometimes repeat a weight
                    const std::uint64_t next = a + b;
                    a = b;
                    b = next;
                }
            }
            break;
        }
    }
    if (std::count(freq.begin(), freq.end(), 0u) == 257) freq[0] = 1;
    return freq;
}

TEST(Huffman, TwoQueueMergeMatchesTheHeapBuilder) {
    core::RngStream rng(17, "huffman-ties");
    for (int trial = 0; trial < 500; ++trial) {
        const std::vector<std::uint64_t> freq = tie_heavy_frequencies(trial, rng);
        ASSERT_EQ(huffman_code_lengths(freq), heap_code_lengths(freq)) << "trial " << trial;
    }
}

TEST(Huffman, CanonicalCodesArePrefixFree) {
    std::vector<std::uint64_t> freq(257, 0);
    for (int i = 0; i < 257; ++i) freq[static_cast<std::size_t>(i)] = 1 + (i % 37);
    const auto lengths = huffman_code_lengths(freq);
    const auto codes = canonical_codes(lengths);
    for (std::size_t a = 0; a < codes.size(); ++a) {
        for (std::size_t b = a + 1; b < codes.size(); ++b) {
            if (lengths[a] == 0 || lengths[b] == 0) continue;
            const int la = lengths[a], lb = lengths[b];
            const int shared = std::min(la, lb);
            EXPECT_NE(codes[a] >> (la - shared), codes[b] >> (lb - shared))
                << a << " prefixes " << b;
        }
    }
}

// --- container ---------------------------------------------------------------

std::vector<std::uint8_t> sample_data(std::size_t size, std::uint64_t seed = 9) {
    CorpusConfig cfg;
    cfg.total_bytes = size;
    return corpus_archive(cfg, seed);
}

TEST(Frost, RoundTrip) {
    const auto data = sample_data(96 * 1024);
    const auto packed = frost_compress(data);
    EXPECT_EQ(frost_decompress(packed), data);
    // Source text compresses meaningfully.
    EXPECT_LT(packed.size(), data.size());
}

TEST(Frost, EmptyInput) {
    const std::vector<std::uint8_t> empty;
    const auto packed = frost_compress(empty);
    EXPECT_TRUE(frost_decompress(packed).empty());
    EXPECT_TRUE(frost_block_directory(packed).empty());
}

TEST(Frost, BlockCountArithmetic) {
    CompressorConfig cfg;
    cfg.block_size = 1000;
    EXPECT_EQ(frost_block_count(0, cfg), 0u);
    EXPECT_EQ(frost_block_count(1, cfg), 1u);
    EXPECT_EQ(frost_block_count(1000, cfg), 1u);
    EXPECT_EQ(frost_block_count(1001, cfg), 2u);
    cfg.block_size = 0;
    EXPECT_THROW((void)frost_block_count(10, cfg), core::InvalidArgument);
}

TEST(Frost, DirectoryMatchesConfig) {
    const auto data = sample_data(64 * 1024);
    CompressorConfig cfg;
    cfg.block_size = 4096;
    const auto packed = frost_compress(data, cfg);
    const auto dir = frost_block_directory(packed);
    EXPECT_EQ(dir.size(), frost_block_count(data.size(), cfg));
    std::size_t total = 0;
    for (const BlockInfo& b : dir) total += b.orig_size;
    EXPECT_EQ(total, data.size());
}

TEST(Frost, IncompressibleDataStoredRaw) {
    core::RngStream rng(1, "noise");
    std::vector<std::uint8_t> noise(8192);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    CompressorConfig cfg;
    cfg.block_size = 4096;
    const auto packed = frost_compress(noise, cfg);
    const auto dir = frost_block_directory(packed);
    // Random bytes don't compress: stored blocks (method 0).
    for (const BlockInfo& b : dir) EXPECT_EQ(b.method, 0);
    EXPECT_EQ(frost_decompress(packed), noise);
}

TEST(Frost, PayloadCorruptionCaughtByCrc) {
    const auto data = sample_data(32 * 1024);
    auto packed = frost_compress(data);
    packed[packed.size() / 2] ^= 0x10;
    EXPECT_THROW((void)frost_decompress(packed), core::CorruptData);
}

TEST(Frost, StreamMagicChecked) {
    auto packed = frost_compress(sample_data(8 * 1024));
    packed[0] = 'X';
    EXPECT_THROW((void)frost_block_directory(packed), core::CorruptData);
}

TEST(Frost, TruncationDetected) {
    auto packed = frost_compress(sample_data(32 * 1024));
    packed.resize(packed.size() - 10);
    EXPECT_THROW((void)frost_block_directory(packed), core::CorruptData);
}

TEST(Frost, DeterministicOutput) {
    const auto data = sample_data(32 * 1024);
    EXPECT_EQ(frost_compress(data), frost_compress(data));
}

TEST(Frost, BlockWithACodeOver32BitsIsStoredRaw) {
    // 33 byte values with Fibonacci counts 1, 2, 3, 5, ..., 5,702,887 (EOB
    // is the other 1) give a longest code of 33 bits, one more than the
    // decoder reads.  No byte repeats, so the stream is the bytes.
    std::vector<std::uint64_t> counts = {1, 2};
    while (counts.size() < 33) counts.push_back(counts[counts.size() - 1] + counts[counts.size() - 2]);
    ASSERT_EQ(counts.back(), 5'702'887u);
    std::vector<std::uint64_t> freq(257, 0);
    freq[256] = 1;
    for (std::size_t s = 0; s < 33; ++s) freq[s] = counts[s];
    const auto lengths = huffman_code_lengths(freq);
    ASSERT_EQ(*std::max_element(lengths.begin(), lengths.end()), 33);

    // Grouped by value, most frequent first, then laid out at the even
    // positions and then the odd ones: no group is half the data, so no two
    // neighbours are equal.
    std::vector<std::uint8_t> grouped;
    for (std::size_t s = 33; s-- > 0;) grouped.insert(grouped.end(), counts[s], static_cast<std::uint8_t>(s));
    ASSERT_EQ(grouped.size(), 14'930'350u);
    std::vector<std::uint8_t> data(grouped.size());
    const std::size_t half = (data.size() + 1) / 2;
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = grouped[i % 2 == 0 ? i / 2 : half + i / 2];
    }
    CompressorConfig cfg;
    cfg.block_size = data.size();
    const auto packed = frost_compress(data, cfg);
    const auto dir = frost_block_directory(packed);
    ASSERT_EQ(dir.size(), 1u);
    EXPECT_EQ(dir[0].method, 0);
    EXPECT_EQ(frost_decompress(packed), data);
}

// Property: round trip holds across block sizes, including sizes that leave
// a small tail block.
class FrostBlockSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrostBlockSizes, RoundTrip) {
    const auto data = sample_data(40 * 1024 + 123);
    CompressorConfig cfg;
    cfg.block_size = GetParam();
    EXPECT_EQ(frost_decompress(frost_compress(data, cfg)), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrostBlockSizes,
                         ::testing::Values(1024, 3000, 4096, 10000, 16384, 65536, 1 << 20));

// --- plan / emit ---------------------------------------------------------------

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int k = 0; k < 4; ++k) out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

/// The plan frost_plan must make, from the reference scanner's stream: a
/// block is coded when that is smaller and no code is over 32 bits.
FrostPlan reference_plan(const std::vector<std::uint8_t>& data, CompressorConfig cfg) {
    FrostPlan plan;
    plan.config = cfg;
    plan.data_size = data.size();
    plan.container_bytes = 12;
    for (std::size_t off = 0; off < data.size(); off += cfg.block_size) {
        const std::size_t len = std::min(cfg.block_size, data.size() - off);
        std::vector<std::uint64_t> freq(257, 0);
        for (const std::uint8_t s : reference_rle(std::span(data).subspan(off, len))) ++freq[s];
        freq[256] = 1;
        std::vector<std::uint8_t> lengths = huffman_code_lengths(freq);
        std::uint64_t bits = 0;
        for (std::size_t s = 0; s < 257; ++s) bits += freq[s] * lengths[s];
        const std::uint64_t coded = 257 + (bits + 7) / 8;
        FrostBlockPlan block;
        block.orig_size = static_cast<std::uint32_t>(len);
        if (coded < len && *std::max_element(lengths.begin(), lengths.end()) <= 32) {
            block.method = 1;
            block.comp_size = static_cast<std::uint32_t>(coded);
            block.lengths = std::move(lengths);
        } else {
            block.comp_size = static_cast<std::uint32_t>(len);
        }
        plan.container_bytes += 17 + block.comp_size;
        plan.blocks.push_back(std::move(block));
    }
    return plan;
}

/// The container `plan` describes, written with the reference scanner and
/// the bit-by-bit writer.
std::vector<std::uint8_t> reference_emit(const std::vector<std::uint8_t>& data,
                                         const FrostPlan& plan) {
    std::vector<std::uint8_t> out = {'F', 'Z', '0', '1'};
    put_le32(out, static_cast<std::uint32_t>(plan.blocks.size()));
    put_le32(out, static_cast<std::uint32_t>(plan.config.block_size));
    for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
        const FrostBlockPlan& bp = plan.blocks[b];
        const std::size_t off = b * plan.config.block_size;
        const auto block = std::span(data).subspan(off, bp.orig_size);
        put_le32(out, 0xb10cb10cu);
        put_le32(out, bp.orig_size);
        put_le32(out, bp.comp_size);
        put_le32(out, crc32(block));
        out.push_back(bp.method);
        if (bp.method == 0) {
            out.insert(out.end(), block.begin(), block.end());
            continue;
        }
        out.insert(out.end(), bp.lengths.begin(), bp.lengths.end());
        const auto codes = canonical_codes(bp.lengths);
        std::vector<std::pair<std::uint32_t, int>> stream;
        for (const std::uint8_t s : reference_rle(block)) stream.emplace_back(codes[s], bp.lengths[s]);
        stream.emplace_back(codes[256], bp.lengths[256]);
        const auto bits = pack_bit_by_bit(stream);
        out.insert(out.end(), bits.begin(), bits.end());
    }
    return out;
}

/// The plan is the reference plan; its per-block method and payload size,
/// and its container size, are those of the container emitted from it,
/// which is frost_compress's and the reference writer's.
void expect_plan_describes_container(const std::vector<std::uint8_t>& data,
                                     CompressorConfig cfg) {
    const FrostPlan plan = frost_plan(data, cfg);
    const FrostPlan reference = reference_plan(data, cfg);
    EXPECT_EQ(plan.container_bytes, reference.container_bytes);
    ASSERT_EQ(plan.blocks.size(), reference.blocks.size());
    for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
        SCOPED_TRACE(b);
        EXPECT_EQ(plan.blocks[b].orig_size, reference.blocks[b].orig_size);
        EXPECT_EQ(plan.blocks[b].comp_size, reference.blocks[b].comp_size);
        EXPECT_EQ(plan.blocks[b].method, reference.blocks[b].method);
        EXPECT_EQ(plan.blocks[b].lengths, reference.blocks[b].lengths);
    }
    const std::vector<std::uint8_t> container = frost_emit(data, plan);
    EXPECT_EQ(container, reference_emit(data, plan));
    EXPECT_EQ(container, frost_compress(data, cfg));
    EXPECT_EQ(plan.container_bytes, container.size());
    EXPECT_EQ(plan.data_size, data.size());
    const std::vector<BlockInfo> dir = frost_block_directory(container);
    ASSERT_EQ(plan.blocks.size(), dir.size());
    std::size_t offset = 12;
    for (std::size_t b = 0; b < dir.size(); ++b) {
        SCOPED_TRACE(b);
        EXPECT_EQ(dir[b].offset, offset);
        EXPECT_EQ(dir[b].orig_size, plan.blocks[b].orig_size);
        EXPECT_EQ(dir[b].comp_size, plan.blocks[b].comp_size);
        EXPECT_EQ(dir[b].method, plan.blocks[b].method);
        EXPECT_EQ(plan.blocks[b].lengths.size(), dir[b].method == 1 ? 257u : 0u);
        offset += 17 + dir[b].comp_size;
    }
}

std::vector<std::uint8_t> runs_1_to_300() {
    // Runs of every length 1..300 (past the 258-byte cap); every third run
    // is of the escape byte.
    std::vector<std::uint8_t> runs;
    for (std::size_t n = 1; n <= 300; ++n) {
        const std::uint8_t value = n % 3 == 0 ? 0xf7 : static_cast<std::uint8_t>(n);
        runs.insert(runs.end(), n, value);
    }
    return runs;
}

std::vector<std::uint8_t> noise_bytes(std::size_t n) {
    core::RngStream rng(1, "noise");
    std::vector<std::uint8_t> noise(n);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return noise;
}

TEST(FrostPlan, DescribesTheEmittedContainerOnPinnedCases) {
    CompressorConfig small;
    small.block_size = 1024;
    CompressorConfig large;
    large.block_size = 16 * 1024;
    const auto text = sample_data(40 * 1024 + 123);
    expect_plan_describes_container({}, {});
    expect_plan_describes_container(bytes_of({0x41}), {});
    expect_plan_describes_container(std::vector<std::uint8_t>(5000, 0xf7), {});
    expect_plan_describes_container(runs_1_to_300(), {});
    expect_plan_describes_container(noise_bytes(8192), small);
    expect_plan_describes_container(text, small);
    expect_plan_describes_container(text, large);
}

TEST(FrostPlan, DescribesTheEmittedContainerOnSeededInputs) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        SCOPED_TRACE(seed);
        core::RngStream rng(seed, "plan-inputs");
        std::vector<std::uint8_t> data;
        const auto pieces = rng.uniform_int(0, 60);
        for (std::int64_t p = 0; p < pieces; ++p) {
            const auto value = static_cast<std::uint8_t>(
                rng.uniform_int(0, 3) == 0 ? 0xf7 : rng.uniform_int(0, 255));
            const auto length = static_cast<std::size_t>(rng.uniform_int(1, 700));
            if (rng.uniform_int(0, 2) == 0) {
                for (std::size_t i = 0; i < length; ++i) {
                    data.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
                }
            } else {
                data.insert(data.end(), length, value);
            }
        }
        CompressorConfig cfg;
        cfg.block_size = static_cast<std::size_t>(rng.uniform_int(1, 20000));
        expect_plan_describes_container(data, cfg);
    }
}

TEST(FrostPlan, DescribesTheEmittedContainerAtWordBoundaries) {
    // Each edge case as one block, alone and with its last run going on
    // into the next block, then seeded mixes cut into blocks of 1 to 40
    // bytes, so runs and escapes fall at and across every block end.
    for (const auto& data : word_edge_inputs()) {
        SCOPED_TRACE(data.size());
        CompressorConfig cfg;
        cfg.block_size = data.size();
        expect_plan_describes_container(data, cfg);
        expect_plan_describes_container(continued(data), cfg);
    }
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        SCOPED_TRACE(seed);
        CompressorConfig cfg;
        cfg.block_size = static_cast<std::size_t>(seed + 1);
        expect_plan_describes_container(seeded_mix(seed), cfg);
    }
}

TEST(FrostPlan, EmitPacksCodesOf1To32Bits) {
    // A hand-made plan whose symbols 0..31 have codes of 1..32 bits (EOB
    // the other 32-bit one), so the packer writes every code length.
    core::RngStream rng(3, "long-codes");
    std::vector<std::uint8_t> data;
    while (data.size() < 3000) {
        const auto s = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
        const std::size_t n = data.size();
        if (n >= 3 && data[n - 1] == s && data[n - 2] == s && data[n - 3] == s) continue;
        data.push_back(s);
    }
    std::vector<std::uint8_t> lengths(257, 0);
    for (std::size_t s = 0; s < 32; ++s) lengths[s] = static_cast<std::uint8_t>(s + 1);
    lengths[256] = 32;
    FrostPlan plan;
    plan.config.block_size = 1000;
    plan.data_size = data.size();
    plan.container_bytes = 12;
    for (std::size_t off = 0; off < data.size(); off += 1000) {
        std::uint64_t bits = 32;  // EOB
        for (std::size_t i = off; i < off + 1000; ++i) bits += lengths[data[i]];
        FrostBlockPlan block;
        block.orig_size = 1000;
        block.method = 1;
        block.comp_size = static_cast<std::uint32_t>(257 + (bits + 7) / 8);
        block.lengths = lengths;
        plan.container_bytes += 17 + block.comp_size;
        plan.blocks.push_back(block);
    }
    const auto container = frost_emit(data, plan);
    EXPECT_EQ(container, reference_emit(data, plan));
    EXPECT_EQ(frost_decompress(container), data);
}

TEST(FrostPlan, EmitRefusesAPlanForOtherData) {
    CompressorConfig cfg;
    cfg.block_size = 4096;
    const auto text = sample_data(16 * 1024);
    const FrostPlan plan = frost_plan(text, cfg);
    EXPECT_THROW((void)frost_emit(noise_bytes(text.size() + 1), plan), core::InvalidArgument);
    EXPECT_THROW((void)frost_emit(noise_bytes(text.size()), plan), core::InvalidArgument);
    FrostPlan bad_method = plan;
    bad_method.blocks[1].method = 2;
    EXPECT_THROW((void)frost_emit(text, bad_method), core::InvalidArgument);
    FrostPlan short_table = plan;
    ASSERT_EQ(short_table.blocks[1].method, 1);
    short_table.blocks[1].lengths.resize(256);
    EXPECT_THROW((void)frost_emit(text, short_table), core::InvalidArgument);
    FrostPlan long_code = plan;
    long_code.blocks[1].lengths[0] = 33;  // longer than the packer takes
    EXPECT_THROW((void)frost_emit(text, long_code), core::InvalidArgument);
    FrostPlan bad_size = plan;
    bad_size.container_bytes -= 1;
    EXPECT_THROW((void)frost_emit(text, bad_size), core::InvalidArgument);
    FrostPlan short_payload = plan;
    short_payload.blocks[1].comp_size = 100;
    short_payload.container_bytes -= plan.blocks[1].comp_size - 100;
    EXPECT_THROW((void)frost_emit(text, short_payload), core::InvalidArgument);

    // A byte the plan gave no code.  At this length the last payload byte
    // has room for the bits that byte's code would have taken, so the
    // container would be the planned size and would not decode.
    std::vector<std::uint8_t> cycle(2991);
    for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = static_cast<std::uint8_t>('a' + i % 8);
    const FrostPlan cycle_plan = frost_plan(cycle, cfg);
    ASSERT_EQ(cycle_plan.blocks[0].method, 1);
    for (const std::size_t at : {0u, 1u, 1500u, 2981u, 2990u}) {
        std::vector<std::uint8_t> other = cycle;
        other[at] = 'Z';
        EXPECT_THROW((void)frost_emit(other, cycle_plan), core::InvalidArgument) << at;
    }
}

// --- pinned container bytes ---------------------------------------------------

std::uint64_t fnv_of(const std::vector<std::uint8_t>& bytes) {
    return core::fnv1a(
        std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

TEST(FrostPins, ContainerBytesArePinned) {
    const auto runs = runs_1_to_300();
    const auto noise = noise_bytes(8192);
    const auto text = sample_data(40 * 1024 + 123);
    CompressorConfig small;
    small.block_size = 1024;
    CompressorConfig large;
    large.block_size = 16 * 1024;

    EXPECT_EQ(fnv_of(frost_compress(std::vector<std::uint8_t>{})), 0x5519dfec6f5d5fceULL);
    EXPECT_EQ(fnv_of(frost_compress(bytes_of({0x41}))), 0x9218b16522e01755ULL);
    EXPECT_EQ(fnv_of(frost_compress(std::vector<std::uint8_t>(5000, 0xf7))), 0xc95fdb9b54f46087ULL);
    EXPECT_EQ(fnv_of(frost_compress(runs)), 0xca6a46c7e8bcc67fULL);
    const auto stored = frost_compress(noise, small);
    for (const BlockInfo& b : frost_block_directory(stored)) EXPECT_EQ(b.method, 0);
    EXPECT_EQ(fnv_of(stored), 0x93a8ee28c5421b67ULL);
    EXPECT_EQ(fnv_of(frost_compress(text, small)), 0x74806a5a072b0dadULL);
    EXPECT_EQ(fnv_of(frost_compress(text, large)), 0xea9b24eb5ac54211ULL);
}

}  // namespace
}  // namespace zerodeg::workload
