#include "workload/md5.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};

// The RFC 1321 compression function, written once for any word type with
// +, ^, &, |, ~ and rotl<S>: a std::uint32_t, or the words of four messages
// side by side in an SSE2 register (Lanes4).

/// Step i's additive constant, floor(abs(sin(i + 1)) * 2^32).
constexpr std::uint32_t kK[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu, 0x4787c62au, 0xa8304613u,
    0xfd469501u, 0x698098d8u, 0x8b44f7afu, 0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u,
    0xa679438eu, 0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau, 0xd62f105du,
    0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u, 0xc33707d6u, 0xf4d50d87u, 0x455a14edu,
    0xa9e3e905u, 0xfcefa3f8u, 0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u, 0x289b7ec6u, 0xeaa127fau,
    0xd4ef3085u, 0x04881d05u, 0xd9d4d039u, 0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u,
    0x432aff97u, 0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du, 0x85845dd1u,
    0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u, 0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu,
    0xeb86d391u};

/// Left-rotation amounts, by round and by step within a group of four.
constexpr int kShift[4][4] = {{7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}};

template <int S>
constexpr std::uint32_t rotl(std::uint32_t x) {
    return (x << S) | (x >> (32 - S));
}

/// The four round functions, F and G in their branch-free bit-select forms.
template <int Round, class W>
inline W round_fn(W x, W y, W z) {
    if constexpr (Round == 0) {
        return z ^ (x & (y ^ z));
    } else if constexpr (Round == 1) {
        return y ^ (z & (x ^ y));
    } else if constexpr (Round == 2) {
        return x ^ y ^ z;
    } else {
        return y ^ (x | ~z);
    }
}

/// Step I of 64: a becomes b + rotl(a + f(b, c, d) + m[g] + K[I], s) with
/// the round function, message word g and shift s RFC 1321 gives step I;
/// then the roles rotate, (a, b, c, d) <- (d, new a, b, c).
template <int I, class W>
inline void step(W& a, W& b, W& c, W& d, const W (&m)[16]) {
    constexpr int round = I / 16;
    constexpr int g = round == 0   ? I
                      : round == 1 ? (5 * I + 1) % 16
                      : round == 2 ? (3 * I + 5) % 16
                                   : 7 * I % 16;
    const W t = b + rotl<kShift[round][I % 4]>(a + round_fn<round>(b, c, d) + m[g] + W(kK[I]));
    a = d;
    d = c;
    c = b;
    b = t;
}

/// Feeds one block's message words to `state`.  Sixty-four steps rotate the
/// roles back to where they started.
template <class W, int... I>
inline void compress(std::array<W, 4>& state, const W (&m)[16],
                     std::integer_sequence<int, I...> /*steps*/) {
    W a = state[0], b = state[1], c = state[2], d = state[3];
    (step<I>(a, b, c, d, m), ...);
    state[0] = state[0] + a;
    state[1] = state[1] + b;
    state[2] = state[2] + c;
    state[3] = state[3] + d;
}

constexpr auto kSteps = std::make_integer_sequence<int, 64>{};

/// Index of the first of `patches` at or after `offset`.
std::size_t first_patch_at(std::span<const BytePatch> patches, std::size_t offset) {
    return static_cast<std::size_t>(
        std::lower_bound(patches.begin(), patches.end(), offset,
                         [](const BytePatch& p, std::size_t off) { return p.offset < off; }) -
        patches.begin());
}

/// Feeds `h` the bytes [from, to) of `job.data` with the job's patches
/// XORed in: the spans between patches go straight from the data.
void update_patched(Md5& h, const Md5Job& job, std::size_t from, std::size_t to) {
    for (std::size_t i = first_patch_at(job.patches, from);
         i < job.patches.size() && job.patches[i].offset < to; ++i) {
        const BytePatch& p = job.patches[i];
        h.update(job.data.subspan(from, p.offset - from));
        const std::uint8_t patched = job.data[p.offset] ^ p.mask;
        h.update(std::span<const std::uint8_t>(&patched, 1));
        from = p.offset + 1;
    }
    h.update(job.data.subspan(from, to - from));
}

#if defined(__SSE2__)

/// The words of four messages, lane j holding message j's.
struct Lanes4 {
    __m128i v;
    Lanes4() = default;
    explicit Lanes4(__m128i x) : v(x) {}
    explicit Lanes4(std::uint32_t k) : v(_mm_set1_epi32(static_cast<int>(k))) {}
};
inline Lanes4 operator+(Lanes4 x, Lanes4 y) { return Lanes4(_mm_add_epi32(x.v, y.v)); }
inline Lanes4 operator^(Lanes4 x, Lanes4 y) { return Lanes4(_mm_xor_si128(x.v, y.v)); }
inline Lanes4 operator&(Lanes4 x, Lanes4 y) { return Lanes4(_mm_and_si128(x.v, y.v)); }
inline Lanes4 operator|(Lanes4 x, Lanes4 y) { return Lanes4(_mm_or_si128(x.v, y.v)); }
inline Lanes4 operator~(Lanes4 x) { return Lanes4(_mm_xor_si128(x.v, _mm_set1_epi32(-1))); }
template <int S>
inline Lanes4 rotl(Lanes4 x) {
    return Lanes4(_mm_or_si128(_mm_slli_epi32(x.v, S), _mm_srli_epi32(x.v, 32 - S)));
}

/// One 64-byte block of each lane: `blocks[j]` is lane j's block.
void process_blocks_x4(std::array<Lanes4, 4>& state, const std::uint8_t* const blocks[4]) {
    // Transpose four 16-byte rows at a time: m[i] gets word i of every lane.
    Lanes4 m[16];
    for (int g = 0; g < 4; ++g) {
        const __m128i r0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[0] + 16 * g));
        const __m128i r1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[1] + 16 * g));
        const __m128i r2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[2] + 16 * g));
        const __m128i r3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[3] + 16 * g));
        const __m128i lo01 = _mm_unpacklo_epi32(r0, r1);
        const __m128i lo23 = _mm_unpacklo_epi32(r2, r3);
        const __m128i hi01 = _mm_unpackhi_epi32(r0, r1);
        const __m128i hi23 = _mm_unpackhi_epi32(r2, r3);
        m[4 * g] = Lanes4(_mm_unpacklo_epi64(lo01, lo23));
        m[4 * g + 1] = Lanes4(_mm_unpackhi_epi64(lo01, lo23));
        m[4 * g + 2] = Lanes4(_mm_unpacklo_epi64(hi01, hi23));
        m[4 * g + 3] = Lanes4(_mm_unpackhi_epi64(hi01, hi23));
    }
    compress(state, m, kSteps);
}

#endif  // __SSE2__

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
    state_ = {kInit[0], kInit[1], kInit[2], kInit[3]};
    total_bytes_ = 0;
    buffered_ = 0;
    finalized_ = false;
}

void Md5::process_block(const std::uint8_t* block) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
        m[i] = static_cast<std::uint32_t>(block[i * 4]) |
               static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
               static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
               static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
    }
    compress(state_, m, kSteps);
}

void Md5::update(std::span<const std::uint8_t> data) {
    if (finalized_) throw core::InvalidArgument("Md5::update after finalize");
    // An empty span may carry a null pointer, which memcpy must not see.
    if (data.empty()) return;
    total_bytes_ += data.size();
    std::size_t offset = 0;
    if (buffered_ > 0) {
        const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
        std::memcpy(buffer_.data() + buffered_, data.data(), take);
        buffered_ += take;
        offset = take;
        if (buffered_ == buffer_.size()) {
            process_block(buffer_.data());
            buffered_ = 0;
        }
    }
    while (offset + 64 <= data.size()) {
        process_block(data.data() + offset);
        offset += 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

void Md5::update(const std::string& s) {
    update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                         s.size()));
}

Md5Digest Md5::finalize() {
    if (finalized_) throw core::InvalidArgument("Md5::finalize called twice");
    const std::uint64_t bit_len = total_bytes_ * 8;

    // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length (LE).
    std::uint8_t pad[72] = {0x80};
    const std::size_t pad_len =
        (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
    update(std::span<const std::uint8_t>(pad, pad_len));
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) {
        len_bytes[i] = static_cast<std::uint8_t>((bit_len >> (8 * i)) & 0xff);
    }
    update(std::span<const std::uint8_t>(len_bytes, 8));

    Md5Digest digest;
    for (int i = 0; i < 4; ++i) {
        digest[i * 4] = static_cast<std::uint8_t>(state_[i] & 0xff);
        digest[i * 4 + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
        digest[i * 4 + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
        digest[i * 4 + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xff);
    }
    finalized_ = true;
    return digest;
}

std::vector<Md5Digest> md5_many(std::span<const Md5Job> jobs) {
    const std::size_t n = jobs.size();
    std::vector<Md5> hash;
    std::vector<std::size_t> pos(n, 0);  ///< next byte of each job's data
    hash.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Md5& h = hash.emplace_back(jobs[i].start);
        if (h.finalized_) throw core::InvalidArgument("md5_many: job starts finalized");
        // Top a part-filled buffer up on the scalar path, so every lane
        // block starts on a block boundary of its message.
        if (h.buffered_ != 0) {
            pos[i] = std::min(jobs[i].data.size(), 64 - h.buffered_);
            update_patched(h, jobs[i], 0, pos[i]);
        }
    }

#if defined(__SSE2__)
    if (n >= 2) {
        const auto whole_blocks = [&](std::size_t i) {
            return (jobs[i].data.size() - pos[i]) / 64;
        };
        // Lanes read patches in offset order, so each job keeps its place.
        std::vector<std::size_t> next_patch(n);
        for (std::size_t i = 0; i < n; ++i) next_patch[i] = first_patch_at(jobs[i].patches, pos[i]);
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
            return whole_blocks(x) > whole_blocks(y);
        });
        // Lanes are idle (lane_job == n) or hash their job's next whole
        // block each round; an idle lane hashes a zero block nobody reads.
        alignas(16) static constexpr std::uint8_t kIdleBlock[64] = {};
        alignas(16) std::uint8_t patched[4][64];
        alignas(16) std::uint32_t words[4][4];  ///< words[w][lane]
        std::size_t lane_job[4] = {n, n, n, n};
        std::size_t next = 0;
        const auto lane_out = [&](int lane) {
            Md5& h = hash[lane_job[lane]];
            for (int w = 0; w < 4; ++w) h.state_[w] = words[w][lane];
            lane_job[lane] = n;
        };
        for (;;) {
            int busy = 0;
            for (int lane = 0; lane < 4; ++lane) {
                if (lane_job[lane] == n && next < n && whole_blocks(order[next]) > 0) {
                    lane_job[lane] = order[next++];
                    for (int w = 0; w < 4; ++w) words[w][lane] = hash[lane_job[lane]].state_[w];
                }
                busy += lane_job[lane] != n ? 1 : 0;
            }
            const bool more = next < n && whole_blocks(order[next]) > 0;
            if (busy == 0 || (busy == 1 && !more)) {
                // The last lone lane finishes on the scalar path below.
                for (int lane = 0; lane < 4; ++lane) {
                    if (lane_job[lane] != n) lane_out(lane);
                }
                break;
            }
            // Run every busy lane up to the first one that runs out.
            std::size_t rounds = std::numeric_limits<std::size_t>::max();
            for (int lane = 0; lane < 4; ++lane) {
                if (lane_job[lane] != n) rounds = std::min(rounds, whole_blocks(lane_job[lane]));
            }
            std::array<Lanes4, 4> state = {
                Lanes4(_mm_load_si128(reinterpret_cast<const __m128i*>(words[0]))),
                Lanes4(_mm_load_si128(reinterpret_cast<const __m128i*>(words[1]))),
                Lanes4(_mm_load_si128(reinterpret_cast<const __m128i*>(words[2]))),
                Lanes4(_mm_load_si128(reinterpret_cast<const __m128i*>(words[3])))};
            for (std::size_t r = 0; r < rounds; ++r) {
                const std::uint8_t* blocks[4];
                for (int lane = 0; lane < 4; ++lane) {
                    const std::size_t i = lane_job[lane];
                    if (i == n) {
                        blocks[lane] = kIdleBlock;
                        continue;
                    }
                    const Md5Job& job = jobs[i];
                    blocks[lane] = job.data.data() + pos[i];
                    // A block with damage in it is hashed from a patched copy.
                    std::size_t& q = next_patch[i];
                    if (q < job.patches.size() && job.patches[q].offset < pos[i] + 64) {
                        std::memcpy(patched[lane], blocks[lane], 64);
                        for (; q < job.patches.size() && job.patches[q].offset < pos[i] + 64; ++q) {
                            patched[lane][job.patches[q].offset - pos[i]] ^= job.patches[q].mask;
                        }
                        blocks[lane] = patched[lane];
                    }
                    pos[i] += 64;
                    hash[i].total_bytes_ += 64;
                }
                process_blocks_x4(state, blocks);
            }
            for (int w = 0; w < 4; ++w) {
                _mm_store_si128(reinterpret_cast<__m128i*>(words[w]), state[w].v);
            }
            for (int lane = 0; lane < 4; ++lane) {
                if (lane_job[lane] != n && whole_blocks(lane_job[lane]) == 0) lane_out(lane);
            }
        }
    }
#endif  // __SSE2__

    std::vector<Md5Digest> digests;
    digests.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        update_patched(hash[i], jobs[i], pos[i], jobs[i].data.size());
        digests.push_back(hash[i].finalize());
    }
    return digests;
}

Md5Digest md5(std::span<const std::uint8_t> data) {
    Md5 h;
    h.update(data);
    return h.finalize();
}

std::string to_hex(const Md5Digest& d) {
    static const char* hex = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (const std::uint8_t byte : d) {
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xf]);
    }
    return out;
}

}  // namespace zerodeg::workload
