#include "workload/compressor.hpp"

#include <algorithm>
#include <array>
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

/// The one RLE scanner: hands the escape-coded stream of `data` to `sink`
/// one byte at a time.  rle_encode buffers the stream, frost_plan counts
/// its symbols and frost_emit Huffman-codes them, so the planner and the
/// emitter never hold it in memory.
template <class Sink>
void rle_scan(std::span<const std::uint8_t> data, Sink&& sink) {
    const std::size_t n = data.size();
    std::size_t i = 0;
    while (i < n) {
        const std::uint8_t b = data[i];
        if (b != kEsc && (i + 1 == n || data[i + 1] != b)) {
            // A literal that does not start a run: the common case.
            sink(b);
            ++i;
            continue;
        }
        std::size_t run = 1;
        // Longest encodable run: count byte 255 => 255 + kMinRun - 1 bytes.
        while (i + run < n && data[i + run] == b && run < 254 + kMinRun) ++run;
        if (run >= kMinRun) {
            sink(kEsc);
            sink(b);
            sink(static_cast<std::uint8_t>(run - kMinRun + 1));  // 1..255
            i += run;
        } else if (b == kEsc) {
            // Escaped literal escape byte: run field 0.
            sink(kEsc);
            sink(kEsc);
            sink(std::uint8_t{0});
            ++i;
        } else {
            sink(b);
            ++i;
        }
    }
}

}  // namespace

std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data) {
    // Every input byte takes at most three output bytes (an escaped escape
    // byte), so one buffer of that size holds any encoding.
    std::vector<std::uint8_t> out(3 * data.size());
    std::uint8_t* o = out.data();
    rle_scan(data, [&o](std::uint8_t b) { *o++ = b; });
    out.resize(static_cast<std::size_t>(o - out.data()));
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

void BitWriter::grow(std::size_t more) {
    bytes_.resize(std::max<std::size_t>(2 * bytes_.size(), size_ + more + 64));
}

void BitWriter::put_bytes(std::span<const std::uint8_t> bytes) {
    if (acc_bits_ % 8 != 0) throw core::InvalidArgument("BitWriter::put_bytes: not byte-aligned");
    const std::size_t pending = static_cast<std::size_t>(acc_bits_ / 8);
    if (bytes_.size() - size_ < pending + bytes.size()) grow(pending + bytes.size());
    while (acc_bits_ > 0) {
        acc_bits_ -= 8;
        bytes_[size_++] = static_cast<std::uint8_t>((acc_ >> acc_bits_) & 0xff);
    }
    if (!bytes.empty()) std::memcpy(bytes_.data() + size_, bytes.data(), bytes.size());
    size_ += bytes.size();
}

void BitWriter::throw_bad_count() { throw core::InvalidArgument("BitWriter::put: bad count"); }

std::vector<std::uint8_t> BitWriter::finish() {
    // At most 31 pending bits: whole bytes, then the last partial byte,
    // zero-padded at its low end.
    bytes_.resize(size_);
    while (acc_bits_ >= 8) {
        acc_bits_ -= 8;
        bytes_.push_back(static_cast<std::uint8_t>((acc_ >> acc_bits_) & 0xff));
    }
    if (acc_bits_ > 0) {
        bytes_.push_back(static_cast<std::uint8_t>((acc_ << (8 - acc_bits_)) & 0xff));
    }
    acc_ = 0;
    acc_bits_ = 0;
    size_ = 0;
    return std::move(bytes_);
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
    // Two queues instead of a heap: the leaves sorted by (weight, symbol),
    // and the merged nodes in the order they are made, which is also
    // nondecreasing weight.  Taking the leaf on a weight tie reproduces the
    // heap's (weight, creation index) order, since every leaf is created
    // before every merged node.
    std::vector<std::uint32_t> symbols;
    for (std::size_t s = 0; s < freq.size(); ++s) {
        if (freq[s] != 0) symbols.push_back(static_cast<std::uint32_t>(s));
    }
    if (symbols.empty()) throw core::InvalidArgument("huffman_code_lengths: no symbols");

    std::vector<std::uint8_t> lengths(freq.size(), 0);
    const std::size_t leaves = symbols.size();
    if (leaves == 1) {
        lengths[symbols[0]] = 1;
        return lengths;
    }
    std::stable_sort(symbols.begin(), symbols.end(),
                     [&freq](std::uint32_t a, std::uint32_t b) { return freq[a] < freq[b]; });

    // Nodes [0, leaves) are the sorted leaves, [leaves, 2 * leaves - 1) the
    // merged nodes in creation order; the last one is the root.
    const std::size_t nodes = 2 * leaves - 1;
    std::vector<std::uint64_t> weight(nodes);
    std::vector<std::size_t> parent(nodes, 0);
    for (std::size_t k = 0; k < leaves; ++k) weight[k] = freq[symbols[k]];
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
        parent[a] = created;
        parent[b] = created;
        ++created;
    }
    // Depths from the root down: every parent is made after its children.
    std::vector<int> depth(nodes, 0);
    for (std::size_t k = nodes - 1; k-- > 0;) depth[k] = depth[parent[k]] + 1;
    for (std::size_t k = 0; k < leaves; ++k) {
        lengths[symbols[k]] = static_cast<std::uint8_t>(depth[k]);
    }
    return lengths;
}

std::vector<std::uint32_t> canonical_codes(const std::vector<std::uint8_t>& lengths) {
    int max_len = 0;
    for (const std::uint8_t l : lengths) max_len = std::max(max_len, static_cast<int>(l));
    if (max_len > 32) throw core::InvalidArgument("canonical_codes: code too long");

    std::vector<std::uint32_t> length_count(static_cast<std::size_t>(max_len) + 1, 0);
    for (const std::uint8_t l : lengths) {
        if (l > 0) ++length_count[l];
    }
    std::vector<std::uint32_t> next_code(static_cast<std::size_t>(max_len) + 1, 0);
    std::uint32_t code = 0;
    for (int len = 1; len <= max_len; ++len) {
        code = (code + length_count[static_cast<std::size_t>(len) - 1]) << 1;
        next_code[static_cast<std::size_t>(len)] = code;
    }
    std::vector<std::uint32_t> codes(lengths.size(), 0);
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] > 0) codes[s] = next_code[lengths[s]]++;
    }
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
            if (n > 0 && code >= first && code < first + n) {
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

        std::array<std::uint64_t, frost_detail::kSymbols> freq{};
        frost_detail::rle_scan(data.subspan(off, len), [&freq](std::uint8_t s) { ++freq[s]; });
        freq[frost_detail::kEob] = 1;
        std::vector<std::uint8_t> lengths = frost_detail::huffman_code_lengths(freq);

        // The payload is the 257-byte length table plus sum(freq * length)
        // bits; one that is not smaller than the block is stored raw.
        std::uint64_t bits = 0;
        for (std::size_t s = 0; s < frost_detail::kSymbols; ++s) bits += freq[s] * lengths[s];
        const std::uint64_t coded = frost_detail::kSymbols + (bits + 7) / 8;

        FrostBlockPlan block;
        block.orig_size = static_cast<std::uint32_t>(len);
        if (coded < len) {
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
    if (data.size() != plan.data_size || plan.blocks.size() != blocks) {
        throw core::InvalidArgument("frost_emit: the plan is for other data");
    }
    frost_detail::BitWriter out(plan.container_bytes);
    std::array<std::uint8_t, kStreamHeaderBytes> stream_header{};
    std::copy(std::begin(kStreamMagic), std::end(kStreamMagic), stream_header.begin());
    put_u32(stream_header.data() + 4, static_cast<std::uint32_t>(blocks));
    put_u32(stream_header.data() + 8, static_cast<std::uint32_t>(plan.config.block_size));
    out.put_bytes(stream_header);

    for (std::size_t b = 0; b < blocks; ++b) {
        const FrostBlockPlan& bp = plan.blocks[b];
        const std::size_t off = b * plan.config.block_size;
        const auto block = data.subspan(off, std::min(plan.config.block_size, data.size() - off));

        std::array<std::uint8_t, kBlockHeaderBytes> header{};
        put_u32(header.data(), kBlockMagic);
        put_u32(header.data() + 4, static_cast<std::uint32_t>(block.size()));
        put_u32(header.data() + 8, bp.comp_size);
        put_u32(header.data() + 12, crc32(block));
        header[16] = bp.method;
        out.put_bytes(header);
        const std::size_t payload_end = out.bytes_written() + bp.comp_size;

        if (bp.method == 0) {
            out.put_bytes(block);
        } else if (bp.method == 1 && bp.lengths.size() == frost_detail::kSymbols) {
            out.put_bytes(bp.lengths);
            const std::vector<std::uint32_t> codes = frost_detail::canonical_codes(bp.lengths);
            const std::uint8_t* lengths = bp.lengths.data();
            frost_detail::rle_scan(block, [&out, &codes, lengths](std::uint8_t s) {
                out.put(codes[s], lengths[s]);
            });
            out.put(codes[frost_detail::kEob], lengths[frost_detail::kEob]);
            out.align();
        } else {
            throw core::InvalidArgument("frost_emit: malformed block plan");
        }
        if (out.bytes_written() != payload_end) {
            throw core::InvalidArgument("frost_emit: the plan is for other data");
        }
    }
    return out.finish();
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
