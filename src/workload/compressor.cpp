#include "workload/compressor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <iterator>

#include "core/error.hpp"
#include "workload/crc32.hpp"

namespace zerodeg::workload {

namespace frost_detail {

namespace {

constexpr std::uint8_t kEsc = 0xf7;
constexpr std::size_t kMinRun = 4;
constexpr std::size_t kSymbols = 257;  // 256 byte values + EOB
constexpr std::uint32_t kEob = 256;

constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kByteLow7 = 0x7f7f7f7f7f7f7f7fULL;
constexpr std::uint64_t kByteHigh = 0x8080808080808080ULL;

/// Bytes p[0..7] as one word, p[k] in bits [8k, 8k + 8) on any byte order.
inline std::uint64_t load_le64(const std::uint8_t* p) {
    return static_cast<std::uint64_t>(p[0]) | static_cast<std::uint64_t>(p[1]) << 8 |
           static_cast<std::uint64_t>(p[2]) << 16 | static_cast<std::uint64_t>(p[3]) << 24 |
           static_cast<std::uint64_t>(p[4]) << 32 | static_cast<std::uint64_t>(p[5]) << 40 |
           static_cast<std::uint64_t>(p[6]) << 48 | static_cast<std::uint64_t>(p[7]) << 56;
}

/// The high bit of every zero byte of `v`.  Exact: no carry crosses a byte.
constexpr std::uint64_t zero_bytes(std::uint64_t v) {
    return ~(((v & kByteLow7) + kByteLow7) | v) & kByteHigh;
}

/// Whether position i of data[0, n) is flagged: its byte is kEsc, or it
/// starts a run of kMinRun or more.  Every other position is a literal.
bool flagged(const std::uint8_t* data, std::size_t i, std::size_t n) {
    const std::uint8_t b = data[i];
    return b == kEsc ||
           (i + 3 < n && data[i + 1] == b && data[i + 2] == b && data[i + 3] == b);
}

/// The first flagged position of data[i, n), or n.  Tests 8 positions per
/// step while the 11 bytes a step reads remain, then one at a time.
std::size_t next_flagged(const std::uint8_t* data, std::size_t i, std::size_t n) {
    for (; i + 11 <= n; i += 8) {
        // Byte k of w, w1, w2, w3 is data[i + k], data[i + k + 1], ...
        const std::uint64_t w = load_le64(data + i);
        const std::uint64_t w1 = load_le64(data + i + 1);
        const std::uint64_t w2 = load_le64(data + i + 2);
        const std::uint64_t w3 = load_le64(data + i + 3);
        const std::uint64_t hits =
            zero_bytes((w ^ w1) | (w ^ w2) | (w ^ w3)) | zero_bytes(w ^ (kEsc * kByteOnes));
        if (hits != 0) return i + static_cast<std::size_t>(std::countr_zero(hits)) / 8;
    }
    while (i < n && !flagged(data, i, n)) ++i;
    return i;
}

/// The one RLE scanner: hands the escape-coded stream of `data` to `sink`,
/// each stretch of literals as one call to sink.literals(bytes, count) and
/// each escape triple (kEsc, value, count) as sink.escape(value, count).
/// rle_encode buffers the stream, frost_plan counts its symbols and
/// frost_emit Huffman-codes them, so the planner and the emitter never hold
/// it in memory.
template <class Sink>
void rle_scan(std::span<const std::uint8_t> data, Sink& sink) {
    const std::uint8_t* p = data.data();
    const std::size_t n = data.size();
    std::size_t i = 0;
    while (i < n) {
        const std::size_t f = next_flagged(p, i, n);
        if (f > i) sink.literals(p + i, f - i);
        if (f == n) return;
        const std::uint8_t b = p[f];
        std::size_t run = 1;
        // Longest encodable run: count byte 255 => 255 + kMinRun - 1 bytes.
        while (f + run < n && p[f + run] == b && run < 254 + kMinRun) ++run;
        if (run >= kMinRun) {
            sink.escape(b, static_cast<std::uint8_t>(run - kMinRun + 1));  // 1..255
            i = f + run;
        } else {
            // A lone escape byte (flagged for no run): run field 0.
            sink.escape(kEsc, 0);
            i = f + 1;
        }
    }
}

/// rle_scan's sink for rle_encode: the stream, byte for byte.
struct RleBytes {
    std::uint8_t* out;

    void literals(const std::uint8_t* bytes, std::size_t count) {
        std::memcpy(out, bytes, count);
        out += count;
    }
    void escape(std::uint8_t value, std::uint8_t count) {
        out[0] = kEsc;
        out[1] = value;
        out[2] = count;
        out += 3;
    }
};

}  // namespace

std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data) {
    // Every input byte takes at most three output bytes (an escaped escape
    // byte), so one buffer of that size holds any encoding.
    std::vector<std::uint8_t> out(3 * data.size());
    RleBytes sink{out.data()};
    rle_scan(data, sink);
    out.resize(static_cast<std::size_t>(sink.out - out.data()));
    return out;
}

std::vector<std::uint8_t> rle_decode(std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> out;
    out.reserve(data.size());
    std::size_t i = 0;
    while (i < data.size()) {
        const std::uint8_t b = data[i];
        if (b == kEsc) {
            if (i + 2 >= data.size()) throw core::CorruptData("rle: truncated escape");
            const std::uint8_t value = data[i + 1];
            const std::uint8_t count = data[i + 2];
            if (count == 0) {
                if (value != kEsc) throw core::CorruptData("rle: bad literal escape");
                out.push_back(kEsc);
            } else {
                out.insert(out.end(), count + kMinRun - 1, value);
            }
            i += 3;
        } else {
            out.push_back(b);
            ++i;
        }
    }
    return out;
}

void BitReader::fill() {
    while (buf_bits_ <= 56 && pos_ < bytes_.size()) {
        buf_ = (buf_ << 8) | bytes_[pos_++];
        buf_bits_ += 8;
    }
}

int BitReader::bit() {
    if (buf_bits_ == 0) {
        fill();
        if (buf_bits_ == 0) throw core::CorruptData("BitReader: out of data");
    }
    --buf_bits_;
    return static_cast<int>((buf_ >> buf_bits_) & 1u);
}

int BitReader::peek(int want, std::uint32_t& window) {
    if (want < 1 || want > 32) throw core::InvalidArgument("BitReader::peek: bad want");
    if (buf_bits_ < want) fill();
    const int have = std::min(want, buf_bits_);
    window = have == 0 ? 0
                       : static_cast<std::uint32_t>((buf_ >> (buf_bits_ - have)) &
                                                    ((1ull << have) - 1));
    return have;
}

bool BitReader::exhausted() const { return pos_ >= bytes_.size() && buf_bits_ == 0; }

std::vector<std::uint8_t> huffman_code_lengths(std::span<const std::uint64_t> freq) {
    if (freq.size() > kSymbols) {
        throw core::InvalidArgument("huffman_code_lengths: more than 257 symbols");
    }
    // Each leaf is one key, weight << 9 | symbol, so one sort puts the
    // leaves in (weight, symbol) order.
    std::array<std::uint64_t, kSymbols> keys{};
    std::size_t leaves = 0;
    for (std::size_t s = 0; s < freq.size(); ++s) {
        if (freq[s] == 0) continue;
        if (freq[s] >> 55 != 0) throw core::InvalidArgument("huffman_code_lengths: weight too large");
        keys[leaves++] = freq[s] << 9 | s;
    }
    if (leaves == 0) throw core::InvalidArgument("huffman_code_lengths: no symbols");

    std::vector<std::uint8_t> lengths(freq.size(), 0);
    const auto symbol_of = [&keys](std::size_t k) { return keys[k] & 0x1ff; };
    if (leaves == 1) {
        lengths[symbol_of(0)] = 1;
        return lengths;
    }
    std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(leaves));

    // Two queues instead of a heap: the sorted leaves, and the merged nodes
    // in the order they are made, which is also nondecreasing weight.
    // Taking the leaf on a weight tie reproduces the heap's (weight,
    // creation index) order, since every leaf is created before every
    // merged node.  Nodes [0, leaves) are the sorted leaves, [leaves,
    // 2 * leaves - 1) the merged nodes in creation order; the last one is
    // the root.
    constexpr std::size_t kMaxNodes = 2 * kSymbols - 1;
    std::array<std::uint64_t, kMaxNodes> weight{};
    std::array<std::uint16_t, kMaxNodes> parent{};
    std::array<std::uint16_t, kMaxNodes> depth{};
    const std::size_t nodes = 2 * leaves - 1;
    for (std::size_t k = 0; k < leaves; ++k) weight[k] = keys[k] >> 9;
    std::size_t next_leaf = 0;
    std::size_t next_merged = leaves;
    std::size_t created = leaves;
    const auto take_lightest = [&] {
        if (next_leaf < leaves &&
            (next_merged == created || weight[next_leaf] <= weight[next_merged])) {
            return next_leaf++;
        }
        return next_merged++;
    };
    while (created < nodes) {
        const std::size_t a = take_lightest();
        const std::size_t b = take_lightest();
        weight[created] = weight[a] + weight[b];
        parent[a] = static_cast<std::uint16_t>(created);
        parent[b] = static_cast<std::uint16_t>(created);
        ++created;
    }
    // Depths from the root down: every parent is made after its children.
    for (std::size_t k = nodes - 1; k-- > 0;) {
        depth[k] = static_cast<std::uint16_t>(depth[parent[k]] + 1);
    }
    for (std::size_t k = 0; k < leaves; ++k) {
        lengths[symbol_of(k)] = static_cast<std::uint8_t>(depth[k]);
    }
    return lengths;
}

namespace {

/// Canonical codes for `lengths` into codes[0, lengths.size()); a symbol
/// of length 0 gets code 0.
void assign_canonical_codes(std::span<const std::uint8_t> lengths, std::uint32_t* codes) {
    std::array<std::uint32_t, 33> length_count{};
    for (const std::uint8_t l : lengths) {
        if (l > 32) throw core::InvalidArgument("canonical_codes: code too long");
        ++length_count[l];
    }
    length_count[0] = 0;
    std::array<std::uint32_t, 33> next_code{};
    std::uint32_t code = 0;
    for (std::size_t len = 1; len <= 32; ++len) {
        code = (code + length_count[len - 1]) << 1;
        next_code[len] = code;
    }
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        codes[s] = lengths[s] > 0 ? next_code[lengths[s]]++ : 0;
    }
}

}  // namespace

std::vector<std::uint32_t> canonical_codes(const std::vector<std::uint8_t>& lengths) {
    std::vector<std::uint32_t> codes(lengths.size());
    assign_canonical_codes(lengths, codes.data());
    return codes;
}

namespace {

/// Canonical decoder: per-length first-code / first-symbol-index tables,
/// fronted by a primary lookup table that resolves codes of up to
/// kPrimaryBits in a single indexed load.  decode() consumes exactly the
/// bits the per-bit reference loop would and throws the same CorruptData
/// classifications (out-of-data vs invalid-code), so damaged blocks fail
/// identically — only faster.
class CanonicalDecoder {
public:
    explicit CanonicalDecoder(const std::vector<std::uint8_t>& lengths) {
        int max_len = 0;
        for (const std::uint8_t l : lengths) max_len = std::max(max_len, static_cast<int>(l));
        if (max_len == 0) throw core::CorruptData("huffman: empty code table");
        if (max_len > 32) throw core::CorruptData("huffman: oversized code length");
        max_len_ = max_len;
        first_code_.assign(static_cast<std::size_t>(max_len) + 1, 0);
        first_index_.assign(static_cast<std::size_t>(max_len) + 1, 0);
        count_.assign(static_cast<std::size_t>(max_len) + 1, 0);

        // Symbols sorted by (length, symbol) — canonical order.
        for (std::size_t s = 0; s < lengths.size(); ++s) {
            if (lengths[s] > 0) ++count_[lengths[s]];
        }
        std::uint32_t code = 0;
        std::uint32_t index = 0;
        for (int len = 1; len <= max_len; ++len) {
            code = (code + count_[static_cast<std::size_t>(len) - 1]) << 1;
            first_code_[static_cast<std::size_t>(len)] = code;
            first_index_[static_cast<std::size_t>(len)] = index;
            index += count_[static_cast<std::size_t>(len)];
        }
        symbols_by_code_.reserve(index);
        for (int len = 1; len <= max_len; ++len) {
            for (std::size_t s = 0; s < lengths.size(); ++s) {
                if (lengths[s] == len) symbols_by_code_.push_back(static_cast<std::uint32_t>(s));
            }
        }

        // Primary table: every kPrimaryBits-wide window whose leading bits
        // form a code of length <= kPrimaryBits maps straight to (symbol,
        // length).  Filled longest-length first so that with an
        // oversubscribed (corrupt) table, the SHORTEST matching code wins a
        // contested window — the same tie-break the reference scan applies.
        primary_bits_ = std::min(max_len_, kPrimaryBits);
        primary_.assign(std::size_t{1} << primary_bits_, PrimaryEntry{});
        for (int len = primary_bits_; len >= 1; --len) {
            const std::uint32_t n = count_[static_cast<std::size_t>(len)];
            for (std::uint32_t c = 0; c < n; ++c) {
                const std::uint32_t entry_code = first_code_[static_cast<std::size_t>(len)] + c;
                if (entry_code >= (std::uint32_t{1} << len)) break;  // corrupt oversubscribed table
                const std::uint32_t sym =
                    symbols_by_code_[first_index_[static_cast<std::size_t>(len)] + c];
                const int pad = primary_bits_ - len;
                const std::size_t base = std::size_t{entry_code} << pad;
                for (std::size_t f = 0; f < (std::size_t{1} << pad); ++f) {
                    primary_[base + f] = {static_cast<std::uint16_t>(sym),
                                          static_cast<std::uint8_t>(len)};
                }
            }
        }
    }

    [[nodiscard]] std::uint32_t decode(BitReader& reader) const {
        std::uint32_t window = 0;
        const int have = reader.peek(max_len_, window);
        if (have >= primary_bits_) {
            const PrimaryEntry e =
                primary_[window >> (have - primary_bits_)];
            if (e.length != 0) {
                reader.consume(e.length);
                return e.symbol;
            }
        }
        // Slow path: codes longer than the primary table, or a short tail.
        // Identical match order to the per-bit reference: shortest length
        // that covers the window wins.
        for (int len = 1; len <= have; ++len) {
            const std::uint32_t code = window >> (have - len);
            const std::uint32_t first = first_code_[static_cast<std::size_t>(len)];
            const std::uint32_t n = count_[static_cast<std::size_t>(len)];
            if (code >= first && code - first < n) {  // first + n may wrap at 32 bits
                reader.consume(len);
                return symbols_by_code_[first_index_[static_cast<std::size_t>(len)] +
                                        (code - first)];
            }
        }
        // No match in the available bits: the reference loop would have
        // consumed them and asked for one more (out of data), or — with all
        // max_len_ bits in hand — declared the code invalid.
        if (have < max_len_) throw core::CorruptData("BitReader: out of data");
        throw core::CorruptData("huffman: invalid code in stream");
    }

private:
    static constexpr int kPrimaryBits = 11;

    struct PrimaryEntry {
        std::uint16_t symbol = 0;
        std::uint8_t length = 0;  ///< 0 = no code this short for the window
    };

    int max_len_ = 0;
    int primary_bits_ = 0;
    std::vector<std::uint32_t> first_code_;
    std::vector<std::uint32_t> first_index_;
    std::vector<std::uint32_t> count_;
    std::vector<std::uint32_t> symbols_by_code_;
    std::vector<PrimaryEntry> primary_;
};

std::vector<std::uint8_t> huffman_decode_block(std::span<const std::uint8_t> payload,
                                               std::size_t expected_rle_max) {
    if (payload.size() < kSymbols) throw core::CorruptData("frost: payload shorter than table");
    const std::vector<std::uint8_t> lengths(payload.begin(), payload.begin() + kSymbols);
    const CanonicalDecoder decoder(lengths);
    BitReader reader(payload.subspan(kSymbols));
    std::vector<std::uint8_t> rle;
    // expected_rle_max comes from an untrusted header; every symbol takes at
    // least one bit, so the payload itself bounds what can be decoded.
    rle.reserve(std::min(expected_rle_max, (payload.size() - kSymbols) * 8));
    for (;;) {
        const std::uint32_t sym = decoder.decode(reader);
        if (sym == kEob) break;
        if (rle.size() > expected_rle_max) throw core::CorruptData("frost: block overruns");
        rle.push_back(static_cast<std::uint8_t>(sym));
    }
    return rle;
}

}  // namespace

}  // namespace frost_detail

namespace {

constexpr char kStreamMagic[4] = {'F', 'Z', '0', '1'};
constexpr std::uint32_t kBlockMagic = 0xb10cb10cu;
constexpr std::size_t kStreamHeaderBytes = 12;
constexpr std::size_t kBlockHeaderBytes = 17;

void put_u32(std::uint8_t* out, std::uint32_t v) {
    out[0] = static_cast<std::uint8_t>(v & 0xff);
    out[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
    out[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
    out[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

/// rle_scan's sink for frost_plan: a block's symbol counts.  Literals are
/// counted into four interleaved tables, so that neighbouring bytes of one
/// value do not wait on each other's increments; escape triples go straight
/// into `freq`.  A lane takes at most a quarter of a block's bytes, so its
/// 32-bit counts do not overflow for any block size a container can record.
struct SymbolCounts {
    std::array<std::array<std::uint32_t, 256>, 4> lanes{};
    std::array<std::uint64_t, frost_detail::kSymbols> freq{};

    void literals(const std::uint8_t* bytes, std::size_t count) {
        std::size_t k = 0;
        for (; k + 4 <= count; k += 4) {
            ++lanes[0][bytes[k]];
            ++lanes[1][bytes[k + 1]];
            ++lanes[2][bytes[k + 2]];
            ++lanes[3][bytes[k + 3]];
        }
        for (; k < count; ++k) ++lanes[0][bytes[k]];
    }
    void escape(std::uint8_t value, std::uint8_t count) {
        ++freq[frost_detail::kEsc];
        ++freq[value];
        ++freq[count];
    }
    /// Fold the lanes into `freq`.
    void merge() {
        for (std::size_t s = 0; s < 256; ++s) {
            freq[s] += std::uint64_t{lanes[0][s]} + lanes[1][s] + lanes[2][s] + lanes[3][s];
        }
    }
};

[[noreturn]] void refuse_other_data() {
    throw core::InvalidArgument("frost_emit: the plan is for other data");
}

/// rle_scan's sink for frost_emit: Huffman-codes the stream MSB-first into
/// a payload that must end at `end`.  table[s] holds symbol s's code
/// left-aligned in its high bits and its length in the low byte, 0 for a
/// symbol the plan gave no code.
///
/// The pending bits sit left-aligned in a 64-bit accumulator, fewer than 8
/// of them between codes.  After each code the accumulator is stored as 8
/// big-endian bytes and the write position moves on by the whole bytes it
/// holds, so there is no flush branch; the bytes past those are rewritten
/// by the next store.  A code is at most 32 bits, so a store reaches at
/// most 4 bytes past the position before the code, plus 8.
///
/// Data the plan was not made from codes to another size or meets an
/// uncoded symbol.  Both are tested before every escape and every 16
/// literals, not per code, so the writer can overshoot `end` by at most
/// kOvershoot bytes before it refuses; frost_emit's buffer has that slack.
class BitPacker {
public:
    static constexpr std::size_t kChunk = 16;
    static constexpr std::size_t kOvershoot = kChunk * 4 + 8;

    BitPacker(const std::uint64_t* table, std::uint8_t* out, const std::uint8_t* end)
        : table_(table), state_{out}, end_(end) {}

    void literals(const std::uint8_t* bytes, std::size_t count) {
        State st = state_;  // a local copy stays in registers across the loop
        while (count > 0) {
            check(st);
            const std::size_t chunk = std::min(count, kChunk);
            for (std::size_t k = 0; k < chunk; ++k) st.put(table_[bytes[k]]);
            bytes += chunk;
            count -= chunk;
        }
        state_ = st;
    }
    void escape(std::uint8_t value, std::uint8_t count) {
        check(state_);
        state_.put(table_[frost_detail::kEsc]);
        state_.put(table_[value]);
        state_.put(table_[count]);
    }
    /// Code the end-of-block symbol and pad to a byte: the payload's end.
    std::uint8_t* finish() {
        check(state_);
        state_.put(table_[frost_detail::kEob]);
        if (state_.uncoded != 0) refuse_other_data();
        return state_.out + (state_.bits > 0 ? 1 : 0);
    }

private:
    struct State {
        std::uint8_t* out;
        std::uint64_t acc = 0;   ///< pending bits, left-aligned
        unsigned bits = 0;       ///< how many are pending, < 8 between codes
        unsigned uncoded = 0;    ///< nonzero once a symbol had no code

        void put(std::uint64_t entry) {
            const auto len = static_cast<unsigned>(entry & 0xff);
            uncoded |= static_cast<unsigned>(len == 0);
            acc |= (entry & ~std::uint64_t{0xff}) >> bits;
            bits += len;
            out[0] = static_cast<std::uint8_t>(acc >> 56);
            out[1] = static_cast<std::uint8_t>(acc >> 48);
            out[2] = static_cast<std::uint8_t>(acc >> 40);
            out[3] = static_cast<std::uint8_t>(acc >> 32);
            out[4] = static_cast<std::uint8_t>(acc >> 24);
            out[5] = static_cast<std::uint8_t>(acc >> 16);
            out[6] = static_cast<std::uint8_t>(acc >> 8);
            out[7] = static_cast<std::uint8_t>(acc);
            out += bits >> 3;
            acc <<= bits & ~7u;
            bits &= 7;
        }
    };

    void check(const State& st) const {
        if (st.out > end_ || st.uncoded != 0) [[unlikely]] refuse_other_data();
    }

    const std::uint64_t* table_;
    State state_;
    const std::uint8_t* end_;
};

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t off) {
    if (off + 4 > bytes.size()) throw core::CorruptData("frost: truncated integer");
    return static_cast<std::uint32_t>(bytes[off]) |
           static_cast<std::uint32_t>(bytes[off + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[off + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[off + 3]) << 24;
}

}  // namespace

std::size_t frost_block_count(std::size_t data_size, CompressorConfig config) {
    if (config.block_size == 0) throw core::InvalidArgument("frost: zero block size");
    return data_size == 0 ? 0 : (data_size + config.block_size - 1) / config.block_size;
}

FrostPlan frost_plan(std::span<const std::uint8_t> data, CompressorConfig config) {
    const std::size_t blocks = frost_block_count(data.size(), config);
    FrostPlan plan;
    plan.config = config;
    plan.data_size = data.size();
    plan.container_bytes = kStreamHeaderBytes;
    plan.blocks.reserve(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t off = b * config.block_size;
        const std::size_t len = std::min(config.block_size, data.size() - off);

        SymbolCounts counts;
        frost_detail::rle_scan(data.subspan(off, len), counts);
        counts.merge();
        std::array<std::uint64_t, frost_detail::kSymbols>& freq = counts.freq;
        freq[frost_detail::kEob] = 1;
        std::vector<std::uint8_t> lengths = frost_detail::huffman_code_lengths(freq);

        // The payload is the 257-byte length table plus sum(freq * length)
        // bits; one that is not smaller than the block is stored raw, and so
        // is one with a code the decoder cannot read.
        std::uint64_t bits = 0;
        std::uint8_t longest = 0;
        for (std::size_t s = 0; s < frost_detail::kSymbols; ++s) {
            bits += freq[s] * lengths[s];
            longest = std::max(longest, lengths[s]);
        }
        const std::uint64_t coded = frost_detail::kSymbols + (bits + 7) / 8;

        FrostBlockPlan block;
        block.orig_size = static_cast<std::uint32_t>(len);
        if (coded < len && longest <= 32) {
            block.method = 1;
            block.comp_size = static_cast<std::uint32_t>(coded);
            block.lengths = std::move(lengths);
        } else {
            block.method = 0;
            block.comp_size = static_cast<std::uint32_t>(len);
        }
        plan.container_bytes += kBlockHeaderBytes + block.comp_size;
        plan.blocks.push_back(std::move(block));
    }
    return plan;
}

std::vector<std::uint8_t> frost_emit(std::span<const std::uint8_t> data, const FrostPlan& plan) {
    const std::size_t blocks = frost_block_count(data.size(), plan.config);
    if (data.size() != plan.data_size || plan.blocks.size() != blocks) refuse_other_data();
    // The buffer is sized from container_bytes, so it must be what the
    // blocks add up to; the slack takes a refused payload's overshoot.
    std::size_t total = kStreamHeaderBytes;
    for (const FrostBlockPlan& bp : plan.blocks) total += kBlockHeaderBytes + bp.comp_size;
    if (total != plan.container_bytes) {
        throw core::InvalidArgument("frost_emit: the plan's blocks do not add up to its size");
    }
    std::vector<std::uint8_t> out(plan.container_bytes + BitPacker::kOvershoot);
    std::uint8_t* o = out.data();
    std::copy(std::begin(kStreamMagic), std::end(kStreamMagic), o);
    put_u32(o + 4, static_cast<std::uint32_t>(blocks));
    put_u32(o + 8, static_cast<std::uint32_t>(plan.config.block_size));
    o += kStreamHeaderBytes;

    std::array<std::uint32_t, frost_detail::kSymbols> codes{};
    std::array<std::uint64_t, frost_detail::kSymbols> table{};
    for (std::size_t b = 0; b < blocks; ++b) {
        const FrostBlockPlan& bp = plan.blocks[b];
        const std::size_t off = b * plan.config.block_size;
        const auto block = data.subspan(off, std::min(plan.config.block_size, data.size() - off));

        put_u32(o, kBlockMagic);
        put_u32(o + 4, static_cast<std::uint32_t>(block.size()));
        put_u32(o + 8, bp.comp_size);
        put_u32(o + 12, crc32(block));
        o[16] = bp.method;
        o += kBlockHeaderBytes;
        std::uint8_t* const payload_end = o + bp.comp_size;

        if (bp.method == 0) {
            if (block.size() != bp.comp_size) refuse_other_data();
            std::memcpy(o, block.data(), block.size());
            o += block.size();
        } else if (bp.method == 1 && bp.lengths.size() == frost_detail::kSymbols) {
            if (bp.comp_size < frost_detail::kSymbols) refuse_other_data();
            std::memcpy(o, bp.lengths.data(), frost_detail::kSymbols);
            o += frost_detail::kSymbols;
            frost_detail::assign_canonical_codes(bp.lengths, codes.data());
            for (std::size_t s = 0; s < frost_detail::kSymbols; ++s) {
                const unsigned len = bp.lengths[s];
                table[s] = len == 0 ? 0 : (std::uint64_t{codes[s]} << (64 - len)) | len;
            }
            BitPacker packer(table.data(), o, payload_end);
            frost_detail::rle_scan(block, packer);
            o = packer.finish();
        } else {
            throw core::InvalidArgument("frost_emit: malformed block plan");
        }
        if (o != payload_end) refuse_other_data();
    }
    out.resize(plan.container_bytes);
    return out;
}

std::vector<std::uint8_t> frost_compress(std::span<const std::uint8_t> data,
                                         CompressorConfig config) {
    return frost_emit(data, frost_plan(data, config));
}

std::vector<BlockInfo> frost_block_directory(std::span<const std::uint8_t> container) {
    if (container.size() < 12 || std::memcmp(container.data(), kStreamMagic, 4) != 0) {
        throw core::CorruptData("frost: bad stream magic");
    }
    const std::uint32_t blocks = get_u32(container, 4);
    std::vector<BlockInfo> dir;
    std::size_t off = 12;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        if (get_u32(container, off) != kBlockMagic) {
            throw core::CorruptData("frost: bad block magic");
        }
        BlockInfo info;
        info.offset = off;
        info.orig_size = get_u32(container, off + 4);
        info.comp_size = get_u32(container, off + 8);
        info.crc = get_u32(container, off + 12);
        if (off + 17 > container.size()) throw core::CorruptData("frost: truncated header");
        info.method = container[off + 16];
        off += 17;
        if (off + info.comp_size > container.size()) {
            throw core::CorruptData("frost: truncated payload");
        }
        off += info.comp_size;
        dir.push_back(info);
    }
    return dir;
}

std::vector<std::uint8_t> frost_decode_block(std::span<const std::uint8_t> container,
                                             const BlockInfo& info) {
    const auto payload = container.subspan(info.offset + 17, info.comp_size);
    std::vector<std::uint8_t> block;
    if (info.method == 0) {
        block.assign(payload.begin(), payload.end());
    } else if (info.method == 1) {
        const std::vector<std::uint8_t> rle =
            frost_detail::huffman_decode_block(payload, 3 * std::size_t{info.orig_size} + 16);
        block = frost_detail::rle_decode(rle);
    } else {
        throw core::CorruptData("frost: unknown method");
    }
    if (block.size() != info.orig_size) throw core::CorruptData("frost: size mismatch");
    if (crc32(block) != info.crc) throw core::CorruptData("frost: block CRC mismatch");
    return block;
}

std::vector<std::uint8_t> frost_decompress(std::span<const std::uint8_t> container) {
    const std::vector<BlockInfo> dir = frost_block_directory(container);
    std::vector<std::uint8_t> out;
    for (const BlockInfo& info : dir) {
        const std::vector<std::uint8_t> block = frost_decode_block(container, info);
        out.insert(out.end(), block.begin(), block.end());
    }
    return out;
}

}  // namespace zerodeg::workload
