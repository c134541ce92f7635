#include "workload/load_job.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <string_view>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/archive.hpp"

namespace zerodeg::workload {
namespace {

LoadJobConfig small_config() {
    LoadJobConfig cfg;
    cfg.corpus.total_bytes = 256 * 1024;
    cfg.target_blocks = 50;
    return cfg;
}

faults::MemoryFaultModel quiet_memory(std::uint64_t seed = 1) {
    return faults::MemoryFaultModel(faults::MemoryFaultParams{},
                                    core::RngStream(seed, "mem"));
}

faults::MemoryFaultModel noisy_memory(std::uint64_t seed = 1) {
    faults::MemoryFaultParams p;
    p.flip_probability_per_page_op = 1.0 / 1000.0;  // flips every run
    return faults::MemoryFaultModel(p, core::RngStream(seed, "mem"));
}

TEST(LoadJob, ReferenceIsStableAcrossInstances) {
    const LoadJob a(small_config(), 2010);
    const LoadJob b(small_config(), 2010);
    EXPECT_EQ(a.reference_digest(), b.reference_digest());
    EXPECT_EQ(a.block_count(), b.block_count());
}

TEST(LoadJob, BlockCountNearTarget) {
    const LoadJob job(LoadJobConfig{}, 2010);
    // The paper's tarball had 396 blocks; ours lands within a few.
    EXPECT_NEAR(static_cast<double>(job.block_count()), 396.0, 8.0);
}

TEST(LoadJob, CleanRunMatchesReference) {
    LoadJob job(small_config(), 2010);
    auto mem = quiet_memory();
    const JobResult r = job.run(mem, false);
    // A cached clean run matches by determinism: it hashes nothing.
    EXPECT_TRUE(r.hash_ok);
    EXPECT_FALSE(r.digest.has_value());
    EXPECT_EQ(r.md5_bytes, 0u);
    EXPECT_FALSE(r.forensics.has_value());
    EXPECT_EQ(r.page_ops, job.page_ops_per_run());
    // What it would have hashed, once the container is forced out.
    EXPECT_EQ(md5(job.reference_container()), job.reference_digest());
}

TEST(LoadJob, UncachedCleanRunAlsoMatches) {
    // With caching off the whole pipeline really runs, and determinism makes
    // the digest identical.
    LoadJobConfig cfg = small_config();
    cfg.cache_clean_runs = false;
    LoadJob job(cfg, 2010);
    auto mem = quiet_memory();
    const JobResult r = job.run(mem, false);
    EXPECT_TRUE(r.hash_ok);
    ASSERT_TRUE(r.digest.has_value());
    EXPECT_EQ(*r.digest, job.reference_digest());
}

TEST(LoadJob, CorruptingFlipIsDetectedAndAnalyzed) {
    LoadJob job(small_config(), 2010);
    auto mem = noisy_memory();
    // Run until a flip actually lands (high probability per run).
    JobResult r;
    for (int i = 0; i < 50; ++i) {
        r = job.run(mem, false);
        if (!r.hash_ok) break;
    }
    ASSERT_FALSE(r.hash_ok);
    ASSERT_TRUE(r.digest.has_value());
    EXPECT_NE(*r.digest, job.reference_digest());
    ASSERT_TRUE(r.forensics.has_value());
    // A flip in a payload leaves the directory whole; a flip in a block
    // header damages the directory walk and costs the rescan a block or two.
    EXPECT_LE(r.forensics->total_blocks, job.block_count());
    EXPECT_GE(r.forensics->total_blocks + 2, job.block_count());
    EXPECT_GE(r.forensics->corrupt_blocks.size() +
                  (r.forensics->directory_damaged ? 1 : 0),
              1u);
    // A single flip damages a single block ("only a single one of the 396
    // bzip2 compression blocks had been corrupted").
    if (r.raw_flips == 1) {
        EXPECT_EQ(r.forensics->corrupt_blocks.size(), 1u);
    }
}

TEST(LoadJob, EccHostAbsorbsSingleBitFlips) {
    LoadJobConfig cfg = small_config();
    LoadJob job(cfg, 2010);
    faults::MemoryFaultParams p;
    p.flip_probability_per_page_op = 1.0 / 1000.0;
    p.multi_bit_fraction = 0.0;
    faults::MemoryFaultModel mem(p, core::RngStream(5, "mem"));
    for (int i = 0; i < 30; ++i) {
        const JobResult r = job.run(mem, true);
        EXPECT_TRUE(r.hash_ok);
        if (r.raw_flips > 0) {
            EXPECT_EQ(r.corrected_flips, r.raw_flips);
        }
    }
}

TEST(LoadJob, PageOpsScaledToPaperMagnitude) {
    const LoadJob job(LoadJobConfig{}, 2010);
    // ~3.2e9 page ops over 27627 runs = ~116k per run; ours must be the
    // same order of magnitude so the wrong-hash *rate* transfers.
    EXPECT_GT(job.page_ops_per_run(), 40'000u);
    EXPECT_LT(job.page_ops_per_run(), 400'000u);
}

TEST(LoadJob, ZeroTargetBlocksThrows) {
    LoadJobConfig cfg = small_config();
    cfg.target_blocks = 0;
    EXPECT_THROW(LoadJob(cfg, 1), core::InvalidArgument);
}

TEST(LoadJob, BadPageOpMultiplierThrowsAtConstruction) {
    // Each would reach a double -> uint64 conversion out of range: undefined
    // behaviour.  Construction plans nothing, so the check cannot wait.
    for (const double m : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e30}) {
        LoadJobConfig cfg = small_config();
        cfg.page_op_multiplier = m;
        EXPECT_THROW(LoadJob(cfg, 1), core::InvalidArgument) << m;
    }
    for (const double m : {0.0, LoadJobConfig::kMaxPageOpMultiplier}) {
        LoadJobConfig cfg = small_config();
        cfg.page_op_multiplier = m;
        EXPECT_NO_THROW((void)LoadJob(cfg, 1).page_ops_per_run()) << m;
    }
}

// --- lazy build stages -----------------------------------------------------

TEST(LoadJob, ConstructionBuildsNothing) {
    const LoadJob job(small_config(), 2010);
    EXPECT_FALSE(job.planned());
    EXPECT_FALSE(job.emitted());
    (void)job.container_bytes();
    EXPECT_TRUE(job.planned());
    EXPECT_FALSE(job.emitted());
    (void)job.reference_digest();
    EXPECT_TRUE(job.emitted());
}

TEST(LoadJob, PlannedSizesAreTheEmittedContainers) {
    for (const bool cached : {true, false}) {
        LoadJobConfig cfg = small_config();
        cfg.cache_clean_runs = cached;
        const LoadJob job(cfg, 2010);
        const std::size_t container_bytes = job.container_bytes();
        const std::size_t block_count = job.block_count();
        const std::size_t archive_bytes = job.archive_bytes();
        EXPECT_EQ(job.reference_container().size(), container_bytes);
        EXPECT_EQ(frost_block_directory(job.reference_container()).size(), block_count);
        EXPECT_EQ(job.block_count(), block_count);
        EXPECT_EQ(job.archive_bytes(), archive_bytes);
        EXPECT_EQ(archive_bytes,
                  write_archive(SyntheticCorpus(cfg.corpus, 2010).files()).size());
    }
}

TEST(LoadJob, CleanRunsPlanButNeverEmit) {
    LoadJob job(small_config(), 2010);
    auto mem = quiet_memory();
    for (int i = 0; i < 50; ++i) {
        const JobResult r = job.run(mem, false);
        ASSERT_TRUE(r.hash_ok);
        ASSERT_EQ(r.raw_flips, 0u);
    }
    EXPECT_TRUE(job.planned());
    EXPECT_FALSE(job.emitted());
}

TEST(LoadJob, FirstCorruptingRunEmitsOnce) {
    LoadJob job(small_config(), 2010);
    const std::size_t archive_bytes = job.archive_bytes();
    auto mem = noisy_memory();
    const JobResult first = job.run(mem, false);
    ASSERT_GT(first.raw_flips, 0u);
    EXPECT_TRUE(job.emitted());
    // The emitted container stays put: later runs copy it rather than emit
    // again (the freed archive could not be emitted from a second time).
    const std::uint8_t* container = job.reference_container().data();
    for (int i = 0; i < 10; ++i) (void)job.run(mem, false);
    EXPECT_EQ(job.reference_container().data(), container);
    EXPECT_EQ(job.archive_bytes(), archive_bytes);
    EXPECT_EQ(job.reference_container(), LoadJob(small_config(), 2010).reference_container());
}

TEST(LoadJob, ArchiveLargerThanCorpusButContainerSmaller) {
    const LoadJob job(small_config(), 2010);
    EXPECT_GT(job.archive_bytes(), 0u);
    EXPECT_LT(job.container_bytes(), job.archive_bytes());
}

// --- resumable MD5 ---------------------------------------------------------

constexpr std::size_t kStride = Md5Checkpoints::kStride;

std::vector<std::uint8_t> sample_bytes(std::size_t n) {
    core::RngStream rng(99, "md5-bytes");
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return bytes;
}

/// Flips one bit at each of `positions` and checks the resumed digest
/// against a one-shot md5() of the damaged copy.
void expect_resume_matches(const std::vector<std::uint8_t>& reference,
                           const std::vector<std::size_t>& positions) {
    const Md5Checkpoints checkpoints(reference);
    std::vector<std::uint8_t> damaged = reference;
    for (const std::size_t pos : positions) damaged[pos] ^= 0x10;
    const std::size_t first = *std::min_element(positions.begin(), positions.end());
    EXPECT_EQ(checkpoints.resume(damaged, first), md5(damaged));
    EXPECT_NE(checkpoints.resume(damaged, first), checkpoints.digest());
    EXPECT_EQ(checkpoints.resume_offset(first), first / kStride * kStride);
}

TEST(Md5Checkpoints, DigestIsTheOneShotDigest) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kStride - 1, kStride,
                                kStride + 1, 5 * kStride + 123}) {
        const auto bytes = sample_bytes(n);
        EXPECT_EQ(Md5Checkpoints(bytes).digest(), md5(bytes)) << n;
    }
}

TEST(Md5Checkpoints, ResumedDigestMatchesOneShotAtEveryBoundary) {
    const auto reference = sample_bytes(5 * kStride + 123);
    for (const std::size_t pos :
         {std::size_t{12}, kStride - 1, kStride, kStride + 1, 3 * kStride - 1, 3 * kStride,
          3 * kStride + 1, 5 * kStride, reference.size() - 1}) {
        SCOPED_TRACE(pos);
        expect_resume_matches(reference, {pos});
    }
}

TEST(Md5Checkpoints, LastByteOfAStrideAlignedBuffer) {
    const auto reference = sample_bytes(4 * kStride);
    expect_resume_matches(reference, {reference.size() - 1});
    expect_resume_matches(reference, {reference.size() - kStride});
}

TEST(Md5Checkpoints, MultipleFlipsInDifferentStrides) {
    const auto reference = sample_bytes(5 * kStride + 123);
    expect_resume_matches(reference, {4 * kStride + 9, kStride + 7, reference.size() - 1});
    expect_resume_matches(reference, {2 * kStride, 2 * kStride + 1, 3 * kStride - 1});
}

TEST(Md5Checkpoints, ResumeHandlesALengthChange) {
    const auto reference = sample_bytes(3 * kStride + 5);
    const Md5Checkpoints checkpoints(reference);
    std::vector<std::uint8_t> longer = reference;
    longer.push_back(0x42);
    EXPECT_EQ(checkpoints.resume(longer, reference.size()), md5(longer));
    const std::vector<std::uint8_t> shorter(reference.begin(), reference.begin() + 2 * kStride + 1);
    EXPECT_EQ(checkpoints.resume(shorter, reference.size()), md5(shorter));
}

TEST(Md5Checkpoints, RealContainer) {
    const LoadJob job(small_config(), 2010);
    const auto& container = job.reference_container();
    ASSERT_GT(container.size(), 2 * kStride);
    expect_resume_matches(container, {12});
    expect_resume_matches(container, {kStride});
    expect_resume_matches(container, {container.size() - 1});
}

// --- cache_clean_runs on and off agree --------------------------------------

void expect_same_result(const JobResult& cached, const JobResult& full,
                        const Md5Digest& reference) {
    EXPECT_EQ(cached.hash_ok, full.hash_ok);
    // The full pipeline always hashes; a cached clean run skips the hash
    // that would have given the reference digest.
    ASSERT_TRUE(full.digest.has_value());
    EXPECT_EQ(cached.digest.value_or(reference), *full.digest);
    if (!cached.digest) {
        EXPECT_TRUE(cached.hash_ok);
    }
    EXPECT_EQ(cached.raw_flips, full.raw_flips);
    EXPECT_EQ(cached.corrected_flips, full.corrected_flips);
    ASSERT_EQ(cached.forensics.has_value(), full.forensics.has_value());
    if (!full.forensics) return;
    EXPECT_EQ(cached.forensics->total_blocks, full.forensics->total_blocks);
    EXPECT_EQ(cached.forensics->corrupt_blocks, full.forensics->corrupt_blocks);
    EXPECT_EQ(cached.forensics->salvaged_bytes, full.forensics->salvaged_bytes);
    EXPECT_EQ(cached.forensics->lost_bytes, full.forensics->lost_bytes);
    EXPECT_EQ(cached.forensics->directory_damaged, full.forensics->directory_damaged);
}

TEST(LoadJob, CachedRunsMatchTheFullPipelineForTheSameFlipStream) {
    // Same seed, same memory stream: the cached job (diff-aware forensics,
    // resumed MD5) and the full pipeline see the same flips.  Two regimes:
    // mostly single flips, and many flips per run.
    for (const double p : {1.0 / 20000.0, 1.0 / 1000.0}) {
        LoadJobConfig full_cfg = small_config();
        full_cfg.cache_clean_runs = false;
        LoadJob cached(small_config(), 2010);
        LoadJob full(full_cfg, 2010);
        faults::MemoryFaultParams params;
        params.flip_probability_per_page_op = p;
        faults::MemoryFaultModel mem_a(params, core::RngStream(3, "mem"));
        faults::MemoryFaultModel mem_b(params, core::RngStream(3, "mem"));
        int wrong = 0;
        for (int i = 0; i < 12; ++i) {
            SCOPED_TRACE(testing::Message() << "p " << p << " run " << i);
            const JobResult a = cached.run(mem_a, false);
            const JobResult b = full.run(mem_b, false);
            expect_same_result(a, b, full.reference_digest());
            // Work: the full pipeline hashes everything and decodes every
            // block it finds; the cached one never does more.
            EXPECT_EQ(b.md5_bytes, full.container_bytes());
            EXPECT_LE(a.md5_bytes, b.md5_bytes);
            EXPECT_LE(a.blocks_decoded, b.blocks_decoded);
            if (b.forensics) {
                EXPECT_EQ(b.blocks_decoded, b.forensics->total_blocks);
            }
            if (a.raw_flips == 0) {
                EXPECT_EQ(a.md5_bytes, 0u);
                EXPECT_EQ(a.blocks_decoded, 0u);
            }
            if (!a.hash_ok) ++wrong;
        }
        EXPECT_GT(wrong, 0);
    }
}

// --- byte pins ------------------------------------------------------------

// The archive, container and digest are pinned by value, not only by
// run-twice determinism: a reordered RNG draw in the corpus generator or an
// off-by-one bit flush in the encoder changes every one of them.

std::uint64_t fnv_of(const std::vector<std::uint8_t>& bytes) {
    return core::fnv1a(
        std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

struct BytePin {
    std::size_t corpus_bytes;
    std::uint64_t seed;
    std::uint64_t archive_fnv;
    std::uint64_t container_fnv;
    const char* digest;
    std::size_t container_bytes;
};

void PrintTo(const BytePin& p, std::ostream* os) {
    *os << p.corpus_bytes << "B_seed" << p.seed;
}

class LoadJobBytes : public ::testing::TestWithParam<BytePin> {};

TEST_P(LoadJobBytes, ArchiveContainerAndDigestArePinned) {
    const BytePin& pin = GetParam();
    LoadJobConfig cfg;
    cfg.corpus.total_bytes = pin.corpus_bytes;
    const LoadJob job(cfg, pin.seed);
    EXPECT_EQ(fnv_of(write_archive(SyntheticCorpus(cfg.corpus, pin.seed).files())),
              pin.archive_fnv);
    EXPECT_EQ(fnv_of(job.reference_container()), pin.container_fnv);
    EXPECT_EQ(to_hex(job.reference_digest()), pin.digest);
    EXPECT_EQ(job.container_bytes(), pin.container_bytes);
}

constexpr std::size_t kDefaultBytes = CorpusConfig{}.total_bytes;

INSTANTIATE_TEST_SUITE_P(
    Seeds, LoadJobBytes,
    ::testing::Values(BytePin{kDefaultBytes, 20100219, 0x35be94fd4b8fa269ULL,
                              0xbe01b7d99969b1bdULL, "6fc4458a5f38fc88b4726b5f6130fc59", 1445826},
                      BytePin{kDefaultBytes, 20110219, 0x39f4a4ef64510b8bULL,
                              0xa21f64b9a024a003ULL, "744c2c7990bfbd57b828ad7de51ec791", 1449976},
                      BytePin{300000, 7, 0x694e50ce9bb2b483ULL, 0x473c3cace8e2330bULL,
                              "5c3734f21fd958311c5f3388af775bb8", 283828}));

}  // namespace
}  // namespace zerodeg::workload
