#include "workload/compressor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <string_view>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/archive.hpp"
#include "workload/corpus.hpp"

namespace zerodeg::workload {
namespace {

using frost_detail::BitReader;
using frost_detail::BitWriter;
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

// --- bitstream -----------------------------------------------------------

TEST(Bitstream, RoundTrip) {
    BitWriter w;
    w.put(0b101, 3);
    w.put(0b1, 1);
    w.put(0xABCD, 16);
    const auto bytes = w.finish();
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
    BitWriter w;
    w.put(1, 1);
    const auto bytes = w.finish();
    BitReader r(bytes);
    for (int i = 0; i < 8; ++i) (void)r.bit();
    EXPECT_TRUE(r.exhausted());
    EXPECT_THROW((void)r.bit(), core::CorruptData);
}

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

TEST(Bitstream, MatchesABitByBitReference) {
    core::RngStream rng(5, "bitwriter");
    for (int trial = 0; trial < 200; ++trial) {
        // Codes carry stray high bits above `len`: the writer must mask them.
        std::vector<std::pair<std::uint32_t, int>> codes;
        const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
        for (std::size_t i = 0; i < n; ++i) {
            const auto code = static_cast<std::uint32_t>(rng.next_u64());
            const auto len = static_cast<int>(rng.uniform_int(1, 32));
            codes.emplace_back(code, len);
        }
        BitWriter w;
        for (const auto& [code, len] : codes) w.put(code, len);
        EXPECT_EQ(w.finish(), pack_bit_by_bit(codes)) << "trial " << trial;
    }
}

TEST(Bitstream, AlignAndPutBytes) {
    BitWriter w(4);
    w.put(0b101, 3);
    EXPECT_EQ(w.bytes_written(), 1u);
    EXPECT_THROW(w.put_bytes(bytes_of({0xAB})), core::InvalidArgument);
    w.align();
    w.put_bytes(bytes_of({0xAB, 0xCD}));
    w.put(0xF, 4);
    w.align();
    w.align();  // already aligned: no-op
    EXPECT_EQ(w.bytes_written(), 4u);
    EXPECT_EQ(w.finish(), bytes_of({0xA0, 0xAB, 0xCD, 0xF0}));
}

TEST(Bitstream, BadPutCountThrows) {
    BitWriter w;
    EXPECT_THROW(w.put(0, -1), core::InvalidArgument);
    EXPECT_THROW(w.put(0, 33), core::InvalidArgument);
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
    const SyntheticCorpus corpus(cfg, seed);
    return write_archive(corpus.files());
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

/// The plan's per-block method and payload size, and its container size,
/// are those of the container emitted from it, which is frost_compress's.
void expect_plan_describes_container(const std::vector<std::uint8_t>& data,
                                     CompressorConfig cfg) {
    const FrostPlan plan = frost_plan(data, cfg);
    const std::vector<std::uint8_t> container = frost_emit(data, plan);
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
