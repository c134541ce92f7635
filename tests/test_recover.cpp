#include "workload/recover.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>

#include "core/rng.hpp"
#include "experiment/runner.hpp"
#include "faults/memory_faults.hpp"
#include "workload/corpus.hpp"
#include "workload/scheduler.hpp"

namespace zerodeg::workload {
namespace {

std::vector<std::uint8_t> sample_container(std::size_t corpus_bytes = 64 * 1024,
                                           std::size_t block_size = 4096) {
    CorpusConfig cfg;
    cfg.total_bytes = corpus_bytes;
    CompressorConfig cc;
    cc.block_size = block_size;
    return frost_compress(corpus_archive(cfg, 13), cc);
}

TEST(Recover, PristineContainerFullyIntact) {
    const auto packed = sample_container();
    std::vector<std::uint8_t> salvaged;
    const RecoveryReport r = frost_recover(packed, &salvaged);
    EXPECT_TRUE(r.fully_intact());
    EXPECT_TRUE(r.corrupt_blocks.empty());
    EXPECT_EQ(r.lost_bytes, 0u);
    EXPECT_EQ(salvaged.size(), r.salvaged_bytes);
    EXPECT_EQ(salvaged, frost_decompress(packed));
}

TEST(Recover, SingleFlipDamagesExactlyOneBlock) {
    // Section 4.2.2's forensics: one flipped bit, one bad block of ~396.
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    ASSERT_GT(dir.size(), 4u);
    // Flip a payload bit in block 3.
    packed[dir[3].offset + 17 + dir[3].comp_size / 2] ^= 0x04;

    const RecoveryReport r = frost_recover(packed);
    EXPECT_EQ(r.total_blocks, dir.size());
    ASSERT_EQ(r.corrupt_blocks.size(), 1u);
    EXPECT_EQ(r.corrupt_blocks[0], 3u);
    EXPECT_EQ(r.lost_bytes, dir[3].orig_size);
    EXPECT_FALSE(r.directory_damaged);
}

TEST(Recover, MultipleFlipsMultipleBlocks) {
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    ASSERT_GT(dir.size(), 8u);
    packed[dir[2].offset + 17 + 5] ^= 0x01;
    packed[dir[7].offset + 17 + 5] ^= 0x01;
    const RecoveryReport r = frost_recover(packed);
    EXPECT_EQ(r.corrupt_blocks, (std::vector<std::size_t>{2, 7}));
}

TEST(Recover, CrcFieldCorruptionAlsoFlagsBlock) {
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    packed[dir[1].offset + 12] ^= 0xff;  // stored CRC itself
    const RecoveryReport r = frost_recover(packed);
    ASSERT_EQ(r.corrupt_blocks.size(), 1u);
    EXPECT_EQ(r.corrupt_blocks[0], 1u);
}

TEST(Recover, DamagedStreamHeaderTriggersRescan) {
    auto packed = sample_container();
    const auto expected_blocks = frost_block_directory(packed).size();
    packed[0] = 'X';  // destroy the stream magic
    const RecoveryReport r = frost_recover(packed);
    EXPECT_TRUE(r.directory_damaged);
    // The magic-scan recovers all blocks (their headers are intact).
    EXPECT_EQ(r.total_blocks, expected_blocks);
    EXPECT_TRUE(r.corrupt_blocks.empty());
    EXPECT_GT(r.salvaged_bytes, 0u);
}

TEST(Recover, TruncatedTailLosesOnlyTailBlocks) {
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    // Cut the container in the middle of the last block.
    packed.resize(dir.back().offset + 10);
    const RecoveryReport r = frost_recover(packed);
    EXPECT_TRUE(r.directory_damaged);  // directory walk hits the truncation
    EXPECT_EQ(r.total_blocks, dir.size() - 1);
    EXPECT_TRUE(r.corrupt_blocks.empty());
}

TEST(Recover, GarbageInput) {
    std::vector<std::uint8_t> garbage(1000, 0xaa);
    const RecoveryReport r = frost_recover(garbage);
    EXPECT_TRUE(r.directory_damaged);
    EXPECT_EQ(r.total_blocks, 0u);
    EXPECT_EQ(r.salvaged_bytes, 0u);
}

TEST(Recover, SalvagedBytesDeliveredInOrder) {
    auto packed = sample_container(32 * 1024, 2048);
    const auto original = frost_decompress(packed);
    const auto dir = frost_block_directory(packed);
    packed[dir[0].offset + 17 + 3] ^= 0x20;  // kill block 0

    std::vector<std::uint8_t> salvaged;
    const RecoveryReport r = frost_recover(packed, &salvaged);
    ASSERT_EQ(r.corrupt_blocks.size(), 1u);
    // Salvage equals the original minus the first block.
    const std::vector<std::uint8_t> expected(
        original.begin() + static_cast<std::ptrdiff_t>(dir[0].orig_size), original.end());
    EXPECT_EQ(salvaged, expected);
}

// Property: wherever a single payload bit lands, recovery reports exactly
// one corrupt block and never throws.
class SingleFlipAnywhere : public ::testing::TestWithParam<int> {};

TEST_P(SingleFlipAnywhere, OneBadBlock) {
    auto packed = sample_container(48 * 1024, 4096);
    core::RngStream rng(static_cast<std::uint64_t>(GetParam()), "flip");
    const auto dir = frost_block_directory(packed);
    const auto& blk =
        dir[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(dir.size()) - 1))];
    ASSERT_GT(blk.comp_size, 0u);
    const std::size_t pos =
        blk.offset + 17 +
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(blk.comp_size) - 1));
    packed[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    const RecoveryReport r = frost_recover(packed);
    EXPECT_EQ(r.corrupt_blocks.size(), 1u);
    EXPECT_EQ(r.salvaged_bytes + r.lost_bytes,
              frost_decompress(sample_container(48 * 1024, 4096)).size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleFlipAnywhere, ::testing::Range(0, 10));

// --- the reference-aware path -------------------------------------------
//
// frost_recover given the pristine container must report exactly what the
// full decode of every block reports, for any damage.

void expect_same_findings(const RecoveryReport& full, const RecoveryReport& diff) {
    EXPECT_EQ(diff.total_blocks, full.total_blocks);
    EXPECT_EQ(diff.corrupt_blocks, full.corrupt_blocks);
    EXPECT_EQ(diff.salvaged_bytes, full.salvaged_bytes);
    EXPECT_EQ(diff.lost_bytes, full.lost_bytes);
    EXPECT_EQ(diff.directory_damaged, full.directory_damaged);
}

/// Recovers `damaged` with and without the reference and compares the two
/// reports; returns the reference-aware one.
RecoveryReport recover_both_ways(const std::vector<std::uint8_t>& damaged,
                                 const std::vector<std::uint8_t>& pristine) {
    const std::vector<BlockInfo> dir = frost_block_directory(pristine);
    const RecoveryReference reference{pristine, dir};
    const RecoveryReport full = frost_recover(damaged);
    const RecoveryReport diff = frost_recover(damaged, nullptr, &reference);
    expect_same_findings(full, diff);
    EXPECT_EQ(full.blocks_decoded, full.total_blocks);
    EXPECT_LE(diff.blocks_decoded, full.blocks_decoded);
    return diff;
}

TEST(RecoverReference, PristineContainerDecodesNothing) {
    const auto packed = sample_container();
    const RecoveryReport r = recover_both_ways(packed, packed);
    EXPECT_TRUE(r.fully_intact());
    EXPECT_EQ(r.blocks_decoded, 0u);
}

TEST(RecoverReference, SinglePayloadFlipDecodesOneBlock) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    auto packed = pristine;
    packed[dir[3].offset + 17 + dir[3].comp_size / 2] ^= 0x04;
    const RecoveryReport r = recover_both_ways(packed, pristine);
    EXPECT_EQ(r.corrupt_blocks, (std::vector<std::size_t>{3}));
    EXPECT_EQ(r.blocks_decoded, 1u);
}

TEST(RecoverReference, EveryHeaderBitOfFirstMiddleAndLastBlock) {
    // Flips in comp_size shift every later offset (the directory walk then
    // fails and the rescan takes over); flips in orig_size, crc and method
    // keep the directory but change the block's BlockInfo.
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    ASSERT_GT(dir.size(), 4u);
    for (const std::size_t b : {std::size_t{0}, dir.size() / 2, dir.size() - 1}) {
        for (std::size_t byte = 0; byte < 17; ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                SCOPED_TRACE(testing::Message() << "block " << b << " byte " << byte << " bit "
                                                << bit);
                auto packed = pristine;
                packed[dir[b].offset + byte] ^= static_cast<std::uint8_t>(1u << bit);
                recover_both_ways(packed, pristine);
            }
        }
    }
}

TEST(RecoverReference, EveryStreamHeaderBit) {
    const auto pristine = sample_container();
    for (std::size_t byte = 0; byte < 12; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            SCOPED_TRACE(testing::Message() << "byte " << byte << " bit " << bit);
            auto packed = pristine;
            packed[byte] ^= static_cast<std::uint8_t>(1u << bit);
            recover_both_ways(packed, pristine);
        }
    }
}

TEST(RecoverReference, StrideSampledPayloadBits) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    for (const BlockInfo& blk : dir) {
        for (std::size_t pos = 0; pos < blk.comp_size; pos += 131) {
            auto packed = pristine;
            packed[blk.offset + 17 + pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
            const RecoveryReport r = recover_both_ways(packed, pristine);
            EXPECT_EQ(r.blocks_decoded, 1u);
        }
    }
}

TEST(RecoverReference, MultiFlipContainers) {
    const auto pristine = sample_container();
    core::RngStream rng(7, "multi-flip");
    for (int trial = 0; trial < 40; ++trial) {
        auto packed = pristine;
        const int flips = static_cast<int>(rng.uniform_int(2, 6));
        for (int f = 0; f < flips; ++f) {
            const auto pos = static_cast<std::size_t>(
                rng.uniform_int(12, static_cast<std::int64_t>(packed.size()) - 1));
            packed[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        }
        recover_both_ways(packed, pristine);
    }
}

TEST(RecoverReference, TruncatedAndExtendedContainers) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);

    auto truncated = pristine;
    truncated.resize(dir.back().offset + 10);
    EXPECT_TRUE(recover_both_ways(truncated, pristine).directory_damaged);

    auto extended = pristine;
    extended.insert(extended.end(), 100, 0x5a);
    const RecoveryReport r = recover_both_ways(extended, pristine);
    EXPECT_TRUE(r.fully_intact());
    EXPECT_EQ(r.blocks_decoded, 0u);

    // And the other way round: a reference with one block fewer, whose
    // directory ends before the damaged container's does.
    std::vector<std::uint8_t> shorter(pristine.begin(),
                                      pristine.begin() +
                                          static_cast<std::ptrdiff_t>(dir.back().offset));
    ASSERT_LT(dir.size(), 256u);
    shorter[4] = static_cast<std::uint8_t>(dir.size() - 1);
    ASSERT_EQ(frost_block_directory(shorter).size(), dir.size() - 1);
    EXPECT_EQ(recover_both_ways(pristine, shorter).blocks_decoded, 1u);
}

TEST(RecoverReference, SalvageRequestTakesTheFullPath) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    auto packed = pristine;
    packed[dir[2].offset + 17 + 9] ^= 0x10;
    const RecoveryReference reference{pristine, dir};
    std::vector<std::uint8_t> with_reference;
    std::vector<std::uint8_t> without;
    const RecoveryReport r = frost_recover(packed, &with_reference, &reference);
    expect_same_findings(frost_recover(packed, &without), r);
    EXPECT_EQ(r.blocks_decoded, dir.size());
    EXPECT_EQ(with_reference, without);
}

TEST(RecoverReference, EveryCorruptingRunOfTheGoldenSeason) {
    // The default season (seed 20100219) keeps only counts of its wrong-hash
    // incidents, so rebuild each damaged container: replay every host's
    // memory-fault stream to find how many flips its corrupting runs drew,
    // and the job's flip stream to place them, in the order the season ran
    // them — the order of its incidents.
    const experiment::ExperimentConfig config;
    experiment::ExperimentRunner run(config);
    run.run();
    const LoadScheduler& load = run.load();
    const LoadJob& job = load.job();
    const std::vector<std::uint8_t>& pristine = job.reference_container();

    std::map<int, faults::MemoryFaultModel> memory;
    std::map<int, bool> ecc;
    for (const hardware::HostRecord& rec : run.fleet().hosts()) {
        const int id = rec.server->id();
        const std::string stream = "load.mem." + std::to_string(id);
        memory.emplace(id, faults::MemoryFaultModel(config.memory,
                                                    core::RngStream{config.master_seed, stream}));
        ecc.emplace(id, rec.server->spec().ecc_memory);
    }
    core::RngStream flips(config.master_seed, "loadjob.flips");
    std::map<int, std::uint64_t> replayed_runs;

    ASSERT_EQ(load.incidents().size(), 13u);
    for (const WrongHashIncident& inc : load.incidents()) {
        SCOPED_TRACE(testing::Message() << "host " << inc.host_id);
        faults::MemoryFaultOutcome outcome;
        std::uint64_t& runs = replayed_runs[inc.host_id];
        do {
            ASSERT_LT(runs, load.stats(inc.host_id).runs) << "replay ran past the season";
            outcome = memory.at(inc.host_id).run(job.page_ops_per_run(), ecc.at(inc.host_id));
            ++runs;
        } while (outcome.corrupting_flips == 0);

        std::vector<std::uint8_t> damaged = pristine;
        for (std::uint64_t i = 0; i < outcome.corrupting_flips; ++i) {
            const auto pos = static_cast<std::size_t>(
                flips.uniform_int(12, static_cast<std::int64_t>(damaged.size()) - 1));
            damaged[pos] ^= static_cast<std::uint8_t>(1u << flips.uniform_int(0, 7));
        }
        const RecoveryReport r = recover_both_ways(damaged, pristine);
        // The replay rebuilt the season's own container.
        EXPECT_EQ(r.corrupt_blocks.size(), inc.corrupt_blocks);
        EXPECT_EQ(r.total_blocks, inc.total_blocks);
    }
}

// --- touched-block forensics ---------------------------------------------
//
// frost_recover_patched reads the reference with the damage XORed in and
// decodes only the blocks a patch touches; it must report what the full
// decode of the materialised damaged container reports.

RecoveryReport expect_patched_matches_full(const std::vector<std::uint8_t>& pristine,
                                           const std::vector<BytePatch>& flips) {
    std::vector<std::uint8_t> damaged = pristine;
    for (const BytePatch& f : flips) damaged[f.offset] ^= f.mask;
    const std::vector<BlockInfo> dir = frost_block_directory(pristine);
    const RecoveryReference reference{pristine, dir};
    const RecoveryReport full = frost_recover(damaged);
    const RecoveryReport patched = frost_recover_patched(reference, net_patches(flips));
    expect_same_findings(full, patched);
    EXPECT_LE(patched.blocks_decoded, full.blocks_decoded);
    return patched;
}

TEST(RecoverPatched, EveryBitOfTheFirstTwoBlockHeaders) {
    // Header damage takes the materialised fallback.
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    for (const std::size_t b : {std::size_t{0}, std::size_t{1}}) {
        for (std::size_t byte = 0; byte < 17; ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                SCOPED_TRACE(testing::Message() << "block " << b << " byte " << byte << " bit "
                                                << bit);
                expect_patched_matches_full(
                    pristine, {{dir[b].offset + byte, static_cast<std::uint8_t>(1u << bit)}});
            }
        }
    }
}

TEST(RecoverPatched, SampledPayloadBytesDecodeOnlyTheirBlock) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    for (std::size_t b = 0; b < dir.size(); ++b) {
        for (std::size_t pos = 0; pos < dir[b].comp_size; pos += 97) {
            SCOPED_TRACE(testing::Message() << "block " << b << " pos " << pos);
            const RecoveryReport r = expect_patched_matches_full(
                pristine,
                {{dir[b].offset + 17 + pos, static_cast<std::uint8_t>(1u << (pos % 8))}});
            EXPECT_EQ(r.blocks_decoded, 1u);
        }
    }
}

TEST(RecoverPatched, PaddingBitsOfTheLastByte) {
    // Some of the last byte's bits are padding: the block may still decode
    // cleanly, and both reports must say the same either way.
    const auto pristine = sample_container();
    for (int bit = 0; bit < 8; ++bit) {
        SCOPED_TRACE(bit);
        const RecoveryReport r = expect_patched_matches_full(
            pristine, {{pristine.size() - 1, static_cast<std::uint8_t>(1u << bit)}});
        EXPECT_EQ(r.blocks_decoded, 1u);
    }
}

TEST(RecoverPatched, CancellingPairsTouchNothing) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    const std::size_t payload = dir[2].offset + 17 + 5;
    const std::size_t header = dir[3].offset + 8;
    const RecoveryReport none = expect_patched_matches_full(
        pristine, {{payload, 0x04}, {header, 0x10}, {payload, 0x04}, {header, 0x10}});
    EXPECT_TRUE(none.fully_intact());
    EXPECT_EQ(none.blocks_decoded, 0u);
    // A cancelled pair beside a flip that stands: only its block decodes.
    const RecoveryReport one = expect_patched_matches_full(
        pristine, {{header, 0x10}, {dir[4].offset + 30, 0x01}, {header, 0x10}});
    EXPECT_EQ(one.blocks_decoded, 1u);
    EXPECT_EQ(one.corrupt_blocks, (std::vector<std::size_t>{4}));
}

TEST(RecoverPatched, MultiFlipDamageAcrossBlocks) {
    const auto pristine = sample_container();
    core::RngStream rng(8, "recover.patched-flips");
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<BytePatch> flips;
        const std::int64_t n = rng.uniform_int(2, 6);
        for (std::int64_t f = 0; f < n; ++f) {
            const auto pos = static_cast<std::size_t>(
                rng.uniform_int(12, static_cast<std::int64_t>(pristine.size()) - 1));
            const auto bit = static_cast<int>(rng.uniform_int(0, 7));
            flips.push_back({pos, static_cast<std::uint8_t>(1u << bit)});
        }
        SCOPED_TRACE(trial);
        expect_patched_matches_full(pristine, flips);
    }
}

// --- untrusted header sizes ----------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Lowers this process's soft address-space limit to `headroom` bytes above
/// what it has mapped now, and restores the old limit on destruction.
class AddressSpaceCap {
public:
    explicit AddressSpaceCap(std::size_t headroom) {
        std::ifstream statm("/proc/self/statm");
        std::size_t pages = 0;
        statm >> pages;
        ok_ = statm && ::getrlimit(RLIMIT_AS, &saved_) == 0;
        if (!ok_) return;
        rlimit capped = saved_;
        capped.rlim_cur = static_cast<rlim_t>(pages * static_cast<std::size_t>(::getpagesize()) +
                                              headroom);
        if (saved_.rlim_max != RLIM_INFINITY) {
            capped.rlim_cur = std::min(capped.rlim_cur, saved_.rlim_max);
        }
        ok_ = ::setrlimit(RLIMIT_AS, &capped) == 0;
    }
    ~AddressSpaceCap() {
        if (ok_) ::setrlimit(RLIMIT_AS, &saved_);
    }
    AddressSpaceCap(const AddressSpaceCap&) = delete;
    AddressSpaceCap& operator=(const AddressSpaceCap&) = delete;

    [[nodiscard]] bool ok() const { return ok_; }

private:
    rlimit saved_{};
    bool ok_ = false;
};

TEST(Recover, HugeOrigSizeFieldDoesNotExhaustMemory) {
    // orig_size comes from the block header; with its top bit flipped the
    // decoder once reserved ~6 GB for the block and threw std::bad_alloc on
    // a host with less address space.  Recover with ~1 GB to spare.
    if (kSanitized) GTEST_SKIP() << "sanitizer runtimes map far more than the cap";
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    std::size_t victim = dir.size();
    for (std::size_t i = 0; i < dir.size() && victim == dir.size(); ++i) {
        if (dir[i].method == 1) victim = i;
    }
    ASSERT_LT(victim, dir.size());
    auto packed = pristine;
    packed[dir[victim].offset + 7] ^= 0x80;  // top bit of orig_size
    const RecoveryReference reference{pristine, dir};

    std::vector<RecoveryReport> reports;
    reports.reserve(2);
    {
        const AddressSpaceCap cap(std::size_t{1} << 30);
        ASSERT_TRUE(cap.ok());
        EXPECT_NO_THROW({
            reports.push_back(frost_recover(packed));
            reports.push_back(frost_recover(packed, nullptr, &reference));
        });
    }
    ASSERT_EQ(reports.size(), 2u);
    for (const RecoveryReport& r : reports) {
        EXPECT_EQ(r.corrupt_blocks, std::vector<std::size_t>{victim});
        EXPECT_EQ(r.lost_bytes, std::size_t{dir[victim].orig_size} + (std::size_t{1} << 31));
    }
}

}  // namespace
}  // namespace zerodeg::workload
