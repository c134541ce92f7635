#include "workload/md5.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace zerodeg::workload {
namespace {

std::string hex_of(const std::string& s) {
    Md5 h;
    h.update(s);
    return to_hex(h.finalize());
}

// The RFC 1321 appendix test suite, verbatim.
struct Rfc1321Case {
    const char* input;
    const char* digest;
};

// Name each case by its digest. gtest's default printer would dump the two
// pointers' bytes, which ASLR moves from one build's test discovery to the next.
void PrintTo(const Rfc1321Case& c, std::ostream* os) { *os << c.digest; }

class Rfc1321 : public ::testing::TestWithParam<Rfc1321Case> {};

TEST_P(Rfc1321, Matches) {
    const auto& [input, digest] = GetParam();
    EXPECT_EQ(hex_of(input), digest);
}

constexpr Rfc1321Case kRfc1321[] = {
    {"", "d41d8cd98f00b204e9800998ecf8427e"},
    {"a", "0cc175b9c0f1b6a831c399e269772661"},
    {"abc", "900150983cd24fb0d6963f7d28e17f72"},
    {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
    {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
    {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "d174ab98d277d9f5a5611c2c9f419d9f"},
    {"1234567890123456789012345678901234567890123456789012345678901234567890123456"
     "7890",
     "57edf4a22be3c955ac49da2e2107b67a"},
};

INSTANTIATE_TEST_SUITE_P(Vectors, Rfc1321, ::testing::ValuesIn(kRfc1321));

TEST(Md5Test, IncrementalEqualsOneShot) {
    const std::string text(10000, 'x');
    Md5 whole;
    whole.update(text);
    Md5 pieces;
    // Deliberately awkward chunk sizes around the 64-byte block boundary.
    std::size_t off = 0;
    for (const std::size_t chunk : {1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
        pieces.update(text.substr(off, chunk));
        off += chunk;
    }
    pieces.update(text.substr(off));
    EXPECT_EQ(to_hex(whole.finalize()), to_hex(pieces.finalize()));
}

TEST(Md5Test, BlockBoundaryLengths) {
    // Padding edge cases: lengths around 55/56/64 take different paths.
    for (const std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
        const std::string a(len, 'q');
        Md5 h1, h2;
        h1.update(a);
        h2.update(a.substr(0, len / 2));
        h2.update(a.substr(len / 2));
        EXPECT_EQ(to_hex(h1.finalize()), to_hex(h2.finalize())) << len;
    }
}

TEST(Md5Test, OneShotHelper) {
    const std::string s = "abc";
    const auto d = md5(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
    EXPECT_EQ(to_hex(d), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5Test, SingleBitChangesDigest) {
    std::vector<std::uint8_t> data(4096, 0xab);
    const Md5Digest before = md5(data);
    data[2048] ^= 0x01;
    const Md5Digest after = md5(data);
    EXPECT_NE(to_hex(before), to_hex(after));
}

TEST(Md5Test, ReuseAfterFinalizeThrows) {
    Md5 h;
    h.update(std::string("x"));
    (void)h.finalize();
    EXPECT_THROW(h.update(std::string("y")), core::InvalidArgument);
    EXPECT_THROW((void)h.finalize(), core::InvalidArgument);
}

TEST(Md5Test, ResetAllowsReuse) {
    Md5 h;
    h.update(std::string("abc"));
    (void)h.finalize();
    h.reset();
    h.update(std::string("abc"));
    EXPECT_EQ(to_hex(h.finalize()), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5Test, HexFormat) {
    Md5Digest d{};
    d[0] = 0x0f;
    d[15] = 0xf0;
    const std::string hex = to_hex(d);
    EXPECT_EQ(hex.size(), 32u);
    EXPECT_EQ(hex.substr(0, 2), "0f");
    EXPECT_EQ(hex.substr(30, 2), "f0");
}

// --- pinned digests of a fixed pattern --------------------------------------

// 100 kB of a fixed, non-periodic byte pattern.  Its digests at lengths
// around the padding and block boundaries are pinned by value, so the
// compression function itself is checked, not only its self-consistency.
std::vector<std::uint8_t> pattern_buffer() {
    std::vector<std::uint8_t> buf(100000);
    std::uint32_t x = 0x9e3779b9u;
    for (std::size_t i = 0; i < buf.size(); ++i) {
        x = x * 1664525u + 1013904223u;
        buf[i] = static_cast<std::uint8_t>(x >> 24);
    }
    return buf;
}

TEST(Md5Test, PinnedDigestsOfAPatternBuffer) {
    struct Pin {
        std::size_t length;
        const char* digest;
    };
    const Pin pins[] = {
        {0, "d41d8cd98f00b204e9800998ecf8427e"},
        {1, "9d5ed678fe57bcca610140957afab571"},
        {55, "1ab5c451c6162ebb5110fe8e094ee0b1"},
        {56, "d5d4b6ec386acad04ea0ba864b0482a0"},
        {63, "20c409740453eec1b69206d484ff4fd3"},
        {64, "c2816d196ccaedfe73439329c0353a79"},
        {65, "74b99a35cbfdfbf370c7b53be0811385"},
        {127, "59b5d9414c89ad32ff7227122a775bd4"},
        {128, "f8a95a5ae2e99ede797843cb809fcc4c"},
        {1000, "460055fdc1d5b140168fe671b8a65e90"},
        {99999, "6159f734c427d19a6e5e68aba3fcfe3c"},
    };
    const std::vector<std::uint8_t> buf = pattern_buffer();
    for (const Pin& pin : pins) {
        EXPECT_EQ(to_hex(md5(std::span(buf).first(pin.length))), pin.digest) << pin.length;
    }
}

TEST(Md5Test, RandomChunkedUpdatesEqualTheOneShotDigest) {
    const std::vector<std::uint8_t> buf = pattern_buffer();
    const std::span<const std::uint8_t> all(buf);
    core::RngStream rng(11, "md5.chunks");
    for (int trial = 0; trial < 40; ++trial) {
        const auto length = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size())));
        const std::int64_t max_chunk = trial % 2 == 0 ? 130 : 5000;
        Md5 h;
        std::size_t off = 0;
        while (off < length) {
            const auto want = static_cast<std::size_t>(rng.uniform_int(0, max_chunk));
            const std::size_t take = std::min(want, length - off);
            h.update(all.subspan(off, take));
            off += take;
        }
        EXPECT_EQ(to_hex(h.finalize()), to_hex(md5(all.first(length))))
            << "trial " << trial << " length " << length;
    }
}


// --- md5_many: four SSE2 lanes against the scalar Md5 ------------------------

/// `job` finished on its own: a patched copy of its data fed to its start.
Md5Digest scalar_digest(const Md5Job& job) {
    std::vector<std::uint8_t> data(job.data.begin(), job.data.end());
    apply_patches(data, 0, job.patches);
    Md5 h = job.start;
    h.update(data);
    return h.finalize();
}

void expect_lanes_match_scalar(std::span<const Md5Job> jobs) {
    const std::vector<Md5Digest> digests = md5_many(jobs);
    ASSERT_EQ(digests.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(to_hex(digests[i]), to_hex(scalar_digest(jobs[i])))
            << "job " << i << " of " << jobs.size() << ", " << jobs[i].data.size() << " bytes";
    }
}

TEST(Md5Many, NoJobsNoDigests) { EXPECT_TRUE(md5_many({}).empty()); }

TEST(Md5Many, Rfc1321VectorsInEveryLanePosition) {
    // Four jobs of one whole block each take the lanes in job order, so the
    // 80-byte vector runs in lane p at job index p.  The shorter vectors have
    // no whole block: they finish on the scalar path beside busy lanes.
    const std::vector<std::uint8_t> filler = pattern_buffer();
    for (const Rfc1321Case& c : kRfc1321) {
        for (std::size_t p = 0; p < 4; ++p) {
            std::vector<Md5Job> jobs(4);
            for (std::size_t j = 0; j < 4; ++j) jobs[j].data = std::span(filler).first(64 + 17 * j);
            jobs[p].data = std::span(reinterpret_cast<const std::uint8_t*>(c.input),
                                     std::strlen(c.input));
            const std::vector<Md5Digest> digests = md5_many(jobs);
            EXPECT_EQ(to_hex(digests[p]), c.digest) << "position " << p;
            expect_lanes_match_scalar(jobs);
        }
    }
}

TEST(Md5Many, SeededMixesOfUnequalJobsMatchTheScalarDigest) {
    // 1-9 jobs of unequal lengths with a few damaged bytes each: lanes
    // refill as jobs end, and the last lone job goes scalar.  Every other
    // trial starts with the padding and block edges as lengths.
    const std::vector<std::uint8_t> buf = pattern_buffer();
    constexpr std::size_t kEdges[] = {0, 55, 56, 63, 64, 119, 120};
    core::RngStream rng(12, "md5.lane-mixes");
    for (int trial = 0; trial < 80; ++trial) {
        const auto count = static_cast<std::size_t>(rng.uniform_int(1, 9));
        std::vector<std::vector<BytePatch>> patches(count);
        std::vector<Md5Job> jobs(count);
        for (std::size_t j = 0; j < count; ++j) {
            std::size_t length = 0;
            if (trial % 2 == 0 && j < std::size(kEdges)) {
                length = kEdges[(j + static_cast<std::size_t>(trial) / 2) % std::size(kEdges)];
            } else {
                length = static_cast<std::size_t>(rng.uniform_int(0, 6000));
            }
            const auto offset = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(buf.size() - length)));
            jobs[j].data = std::span(buf).subspan(offset, length);
            const std::int64_t flips = length == 0 ? 0 : rng.uniform_int(0, 4);
            std::vector<BytePatch> raw;
            for (std::int64_t f = 0; f < flips; ++f) {
                const auto at = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(length) - 1));
                const auto mask = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
                raw.push_back({at, mask});
            }
            patches[j] = net_patches(raw);
            jobs[j].patches = patches[j];
        }
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        expect_lanes_match_scalar(jobs);
    }
}

TEST(Md5Many, JobsResumeFromPartFedStates) {
    // Starts after whole blocks (as checkpoints are) and inside a block (the
    // buffer is topped up first); each job is the rest of one prefix of the
    // pattern buffer, so its digest is that prefix's one-shot digest.
    const std::vector<std::uint8_t> buf = pattern_buffer();
    const std::span<const std::uint8_t> all(buf);
    struct Split {
        std::size_t fed;
        std::size_t length;
    };
    const Split splits[] = {{64, 9000},   {16384, 30000}, {3 * 64 + 5, 4000},
                            {1, 62},      {70000, 129},   {127, 0},
                            {40000, 120}, {0, 50000}};
    std::vector<Md5Job> jobs;
    for (const Split& s : splits) {
        Md5Job job;
        job.start.update(all.first(s.fed));
        job.data = all.subspan(s.fed, s.length);
        jobs.push_back(job);
    }
    const std::vector<Md5Digest> digests = md5_many(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(to_hex(digests[i]), to_hex(md5(all.first(splits[i].fed + splits[i].length))))
            << "job " << i;
    }
    expect_lanes_match_scalar(jobs);
}

TEST(Md5Many, FinalizedStartThrows) {
    Md5Job job;
    (void)job.start.finalize();
    std::vector<Md5Job> jobs = {Md5Job{}, job};
    EXPECT_THROW((void)md5_many(jobs), core::InvalidArgument);
}

}  // namespace
}  // namespace zerodeg::workload
