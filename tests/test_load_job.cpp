#include "workload/load_job.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/corpus.hpp"

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

/// The load cycle with none of LoadJob's shortcuts, kept as the reference
/// it must match: rebuild the archive from the seed, compress it afresh on
/// every run, flip bits drawn from its own `loadjob.flips` stream in the
/// library's order, hash the whole container and recover without a
/// reference container.
class FullPipeline {
public:
    FullPipeline(const LoadJobConfig& config, std::uint64_t seed)
        : archive_(corpus_archive(config.corpus, seed)),
          flip_rng_(seed, "loadjob.flips") {
        compressor_.block_size =
            std::max<std::size_t>(1024, archive_.size() / config.target_blocks);
        const std::vector<std::uint8_t> container = frost_compress(archive_, compressor_);
        reference_ = md5(container);
        container_bytes_ = container.size();
        page_ops_per_run_ = static_cast<std::uint64_t>(
            static_cast<double>((archive_.size() + container.size()) / 4096) *
            config.page_op_multiplier);
    }

    [[nodiscard]] const Md5Digest& reference_digest() const { return reference_; }
    [[nodiscard]] std::size_t container_bytes() const { return container_bytes_; }
    [[nodiscard]] std::uint64_t page_ops_per_run() const { return page_ops_per_run_; }

    JobResult run(faults::MemoryFaultModel& memory, bool ecc) {
        JobResult result;
        result.page_ops = page_ops_per_run_;
        const faults::MemoryFaultOutcome outcome = memory.run(result.page_ops, ecc);
        result.raw_flips = outcome.raw_flips;
        result.corrected_flips = outcome.corrected;
        std::vector<std::uint8_t> container = frost_compress(archive_, compressor_);
        for (std::uint64_t i = 0; i < outcome.corrupting_flips; ++i) {
            const auto byte_index = static_cast<std::size_t>(
                flip_rng_.uniform_int(12, static_cast<std::int64_t>(container.size()) - 1));
            const auto bit = static_cast<int>(flip_rng_.uniform_int(0, 7));
            container[byte_index] ^= static_cast<std::uint8_t>(1u << bit);
        }
        result.digest = md5(container);
        result.md5_bytes = container.size();
        result.hash_ok = result.digest == reference_;
        if (!result.hash_ok) {
            result.forensics = frost_recover(container);
            result.blocks_decoded = result.forensics->blocks_decoded;
        }
        return result;
    }

private:
    std::vector<std::uint8_t> archive_;
    core::RngStream flip_rng_;
    CompressorConfig compressor_;
    Md5Digest reference_{};
    std::size_t container_bytes_ = 0;
    std::uint64_t page_ops_per_run_ = 0;
};

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

TEST(LoadJob, CleanRunMatchesTheFullPipeline) {
    // The full pipeline really recompresses and hashes a clean run, and
    // determinism makes its digest LoadJob's reference.
    const LoadJob job(small_config(), 2010);
    FullPipeline full(small_config(), 2010);
    auto mem = quiet_memory();
    const JobResult r = full.run(mem, false);
    EXPECT_TRUE(r.hash_ok);
    ASSERT_TRUE(r.digest.has_value());
    EXPECT_EQ(*r.digest, job.reference_digest());
    EXPECT_EQ(full.container_bytes(), job.container_bytes());
    EXPECT_EQ(full.page_ops_per_run(), job.page_ops_per_run());
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

TEST(LoadJob, ZeroTopLevelDirsThrowsAtConstruction) {
    // The corpus could not pick a directory: without the check this threw
    // from the first size read, inside a season's event loop.
    LoadJobConfig cfg = small_config();
    cfg.corpus.top_level_dirs = 0;
    EXPECT_THROW(LoadJob(cfg, 1), core::InvalidArgument);
    cfg.corpus.top_level_dirs = 1;
    EXPECT_NO_THROW((void)LoadJob(cfg, 1).container_bytes());
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
    const LoadJob job(small_config(), 2010);
    const std::size_t container_bytes = job.container_bytes();
    const std::size_t block_count = job.block_count();
    const std::size_t archive_bytes = job.archive_bytes();
    EXPECT_EQ(job.reference_container().size(), container_bytes);
    EXPECT_EQ(frost_block_directory(job.reference_container()).size(), block_count);
    EXPECT_EQ(job.block_count(), block_count);
    EXPECT_EQ(job.archive_bytes(), archive_bytes);
    EXPECT_EQ(archive_bytes, corpus_archive(small_config().corpus, 2010).size());
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
    // The emitted container stays put: later runs read it rather than emit
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

TEST(Md5Checkpoints, LanesResumeFromCheckpointStates) {
    // md5_many jobs that start from checkpoint states past the first one:
    // each is a damaged copy of the reference, hashed from the checkpoint
    // below its first damaged byte.
    const auto reference = sample_bytes(6 * kStride + 77);
    const Md5Checkpoints checkpoints(reference);
    const std::size_t firsts[] = {kStride + 3, 2 * kStride, 5 * kStride + 70, 3 * kStride - 1,
                                  6 * kStride + 76, 4 * kStride + 64};
    std::vector<std::vector<BytePatch>> patches;
    std::vector<Md5Job> jobs;
    std::vector<Md5Digest> want;
    for (const std::size_t first : firsts) {
        const std::size_t from = checkpoints.resume_offset(first);
        ASSERT_GT(from, 0u);
        std::vector<std::uint8_t> damaged = reference;
        damaged[first] ^= 0x21;
        damaged.back() ^= 0x80;
        want.push_back(md5(damaged));
        std::vector<BytePatch> damage = {{first, 0x21}, {reference.size() - 1, 0x80}};
        for (BytePatch& p : damage) p.offset -= from;
        patches.push_back(net_patches(damage));
    }
    for (std::size_t i = 0; i < std::size(firsts); ++i) {
        const std::size_t from = checkpoints.resume_offset(firsts[i]);
        jobs.push_back({checkpoints.resume_state(firsts[i]), std::span(reference).subspan(from),
                        patches[i]});
    }
    const std::vector<Md5Digest> got = md5_many(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(got[i], want[i]) << "job " << i;
}

// --- settle ---------------------------------------------------------------

/// The damage `flips` leave, materialised: the reference with each flip applied.
std::vector<std::uint8_t> damaged_copy(const LoadJob& job, const RunDamage& damage) {
    std::vector<std::uint8_t> container = job.reference_container();
    for (const BytePatch& f : damage.flips) container[f.offset] ^= f.mask;
    return container;
}

RunDamage damage_of(std::vector<BytePatch> flips) {
    RunDamage damage;
    damage.flips = std::move(flips);
    damage.first_flipped = std::min_element(damage.flips.begin(), damage.flips.end(),
                                            [](const BytePatch& a, const BytePatch& b) {
                                                return a.offset < b.offset;
                                            })->offset;
    return damage;
}

TEST(LoadJobSettle, CancellingFlipsHashCleanButCountFromTheLowerOffset) {
    const LoadJob job(small_config(), 2010);
    const std::size_t size = job.container_bytes();
    const std::vector<BlockInfo> dir = frost_block_directory(job.reference_container());
    const std::size_t low = dir[1].offset + 20;
    const BlockInfo& middle = dir[dir.size() / 2];
    const std::size_t high = middle.offset + 17 + middle.comp_size / 2;
    const Md5Checkpoints checkpoints(job.reference_container());
    ASSERT_LT(checkpoints.resume_offset(low), checkpoints.resume_offset(high));
    // A pair that cancels, alone and beside a flip that does not.
    const std::vector<RunDamage> runs = {
        damage_of({{low, 0x08}, {low, 0x08}}),
        damage_of({{high, 0x01}, {low, 0x40}, {low, 0x40}}),
    };
    const std::vector<JobVerdict> verdicts = job.settle(runs);
    ASSERT_EQ(verdicts.size(), 2u);

    EXPECT_TRUE(verdicts[0].hash_ok);
    EXPECT_EQ(verdicts[0].digest, job.reference_digest());
    EXPECT_FALSE(verdicts[0].forensics.has_value());
    EXPECT_EQ(verdicts[0].blocks_decoded, 0u);
    EXPECT_EQ(verdicts[0].md5_bytes, size - checkpoints.resume_offset(low));

    EXPECT_FALSE(verdicts[1].hash_ok);
    EXPECT_EQ(verdicts[1].digest, md5(damaged_copy(job, runs[1])));
    EXPECT_EQ(verdicts[1].md5_bytes, size - checkpoints.resume_offset(low));
    ASSERT_TRUE(verdicts[1].forensics.has_value());
    EXPECT_EQ(verdicts[1].blocks_decoded, 1u);
}

TEST(LoadJobSettle, ABatchSettlesAsEachRunAlone) {
    // Seeded multi-flip damage, some of it in block headers: a batch (lanes)
    // and runs settled one by one (scalar) give the same verdicts, and each
    // verdict is what the materialised container hashes and recovers to.
    const LoadJob job(small_config(), 2010);
    const auto size = static_cast<std::int64_t>(job.container_bytes());
    core::RngStream rng(21, "settle.batch");
    std::vector<RunDamage> runs;
    for (int r = 0; r < 11; ++r) {
        std::vector<BytePatch> flips;
        const std::int64_t n = rng.uniform_int(1, 4);
        for (std::int64_t f = 0; f < n; ++f) {
            const auto at = static_cast<std::size_t>(rng.uniform_int(12, size - 1));
            const auto bit = static_cast<int>(rng.uniform_int(0, 7));
            flips.push_back({at, static_cast<std::uint8_t>(1u << bit)});
        }
        runs.push_back(damage_of(std::move(flips)));
    }
    // Two runs whose damage is in the first block's header.
    const std::size_t header = frost_block_directory(job.reference_container())[1].offset;
    runs.push_back(damage_of({{header + 9, 0x02}}));
    runs.push_back(damage_of({{header + 16, 0x01}, {header + 40, 0x10}}));

    const std::vector<JobVerdict> batch = job.settle(runs);
    ASSERT_EQ(batch.size(), runs.size());
    const Md5Checkpoints checkpoints(job.reference_container());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "run " << i);
        const JobVerdict alone = job.settle(std::span(&runs[i], 1)).front();
        const std::vector<std::uint8_t> damaged = damaged_copy(job, runs[i]);
        EXPECT_EQ(batch[i].digest, alone.digest);
        EXPECT_EQ(batch[i].digest, md5(damaged));
        EXPECT_EQ(batch[i].hash_ok, batch[i].digest == job.reference_digest());
        EXPECT_EQ(batch[i].md5_bytes, alone.md5_bytes);
        EXPECT_EQ(batch[i].md5_bytes,
                  damaged.size() - checkpoints.resume_offset(runs[i].first_flipped));
        EXPECT_EQ(batch[i].blocks_decoded, alone.blocks_decoded);
        ASSERT_EQ(batch[i].forensics.has_value(), !batch[i].hash_ok);
        if (!batch[i].forensics) continue;
        const RecoveryReport full = frost_recover(damaged);
        EXPECT_EQ(batch[i].forensics->total_blocks, full.total_blocks);
        EXPECT_EQ(batch[i].forensics->corrupt_blocks, full.corrupt_blocks);
        EXPECT_EQ(batch[i].forensics->salvaged_bytes, full.salvaged_bytes);
        EXPECT_EQ(batch[i].forensics->lost_bytes, full.lost_bytes);
        EXPECT_EQ(batch[i].forensics->directory_damaged, full.directory_damaged);
        EXPECT_EQ(alone.forensics->corrupt_blocks, full.corrupt_blocks);
    }
}

TEST(LoadJobSettle, CleanDrawsPlanACorruptingDrawEmits) {
    // The emit frees the archive, so it comes with the first corrupting
    // draw rather than waiting for the first settle.
    LoadJob clean(small_config(), 2010);
    auto quiet = quiet_memory();
    EXPECT_FALSE(clean.draw(quiet, false).damage.has_value());
    EXPECT_TRUE(clean.planned());
    EXPECT_FALSE(clean.emitted());

    LoadJob job(small_config(), 2010);
    auto mem = noisy_memory();
    const JobDraw drawn = job.draw(mem, false);
    ASSERT_TRUE(drawn.damage.has_value());
    EXPECT_TRUE(job.emitted());
    // Drawn and settled apart, or run whole: the same verdict.
    LoadJob twin(small_config(), 2010);
    auto twin_mem = noisy_memory();
    const JobResult whole = twin.run(twin_mem, false);
    ASSERT_TRUE(whole.digest.has_value());
    EXPECT_EQ(job.settle(std::span(&*drawn.damage, 1)).front().digest, *whole.digest);
}

// --- LoadJob and the full pipeline agree -----------------------------------

void expect_same_result(const JobResult& cached, const JobResult& full,
                        const Md5Digest& reference) {
    EXPECT_EQ(cached.hash_ok, full.hash_ok);
    // The full pipeline always hashes; LoadJob's clean run skips the hash
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
    // Same seed, same memory stream: the job (diff-aware forensics, resumed
    // MD5) and the full pipeline see the same flips.  Two regimes: mostly
    // single flips, and many flips per run.
    for (const double p : {1.0 / 20000.0, 1.0 / 1000.0}) {
        LoadJob cached(small_config(), 2010);
        FullPipeline full(small_config(), 2010);
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
        EXPECT_EQ(cached.reference_digest(), full.reference_digest());
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
    EXPECT_EQ(fnv_of(corpus_archive(cfg.corpus, pin.seed)), pin.archive_fnv);
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
