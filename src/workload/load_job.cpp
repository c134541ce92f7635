#include "workload/load_job.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "workload/archive.hpp"

namespace zerodeg::workload {

Md5Checkpoints::Md5Checkpoints(std::span<const std::uint8_t> reference) {
    Md5 h;
    for (std::size_t off = 0; off < reference.size(); off += kStride) {
        states_.push_back(h);
        h.update(reference.subspan(off, std::min(kStride, reference.size() - off)));
    }
    if (states_.empty()) states_.push_back(h);  // an empty reference resumes from the start
    digest_ = h.finalize();
}

std::size_t Md5Checkpoints::resume_offset(std::size_t first_changed) const {
    return std::min(first_changed / kStride, states_.size() - 1) * kStride;
}

Md5Digest Md5Checkpoints::resume(std::span<const std::uint8_t> data,
                                 std::size_t first_changed) const {
    const std::size_t from = resume_offset(std::min(first_changed, data.size()));
    Md5 h = states_[from / kStride];
    h.update(data.subspan(from));
    return h.finalize();
}

LoadJob::LoadJob(LoadJobConfig config, std::uint64_t seed)
    : config_(config), seed_(seed), flip_rng_(seed, "loadjob.flips") {
    if (config.target_blocks == 0) throw core::InvalidArgument("LoadJob: zero target blocks");
    if (!LoadJobConfig::valid_page_op_multiplier(config.page_op_multiplier)) {
        throw core::InvalidArgument("LoadJob: page_op_multiplier out of range");
    }
    if (config.corpus.total_bytes == 0 || config.corpus.mean_file_bytes == 0) {
        throw core::InvalidArgument("LoadJob: corpus sizes must be positive");
    }
}

void LoadJob::plan() const {
    // The corpus is a temporary: it is freed before the compressor runs.
    std::vector<std::uint8_t> archive =
        write_archive(SyntheticCorpus(config_.corpus, seed_).files());

    // Pick a block size that yields ~target_blocks blocks, as the paper's
    // corpus did under bzip2's 900k blocks (396 blocks there).
    Planned planned;
    planned.compressor.block_size =
        std::max<std::size_t>(1024, archive.size() / config_.target_blocks);
    FrostPlan frost = frost_plan(archive, planned.compressor);
    planned.archive_bytes = archive.size();
    planned.container_bytes = frost.container_bytes;
    planned.block_count = frost.blocks.size();
    const std::uint64_t real_page_ops =
        static_cast<std::uint64_t>((planned.archive_bytes + planned.container_bytes) / 4096);
    planned.page_ops_per_run = static_cast<std::uint64_t>(static_cast<double>(real_page_ops) *
                                                          config_.page_op_multiplier);

    planned_ = planned;
    archive_ = std::move(archive);
    frost_plan_ = std::move(frost);
    stage_ = Stage::kPlanned;
}

void LoadJob::emit() const {
    if (stage_ == Stage::kConfigured) plan();
    Emitted emitted;
    emitted.container = frost_emit(archive_, frost_plan_);
    emitted.md5 = Md5Checkpoints(emitted.container);
    emitted.directory = frost_block_directory(emitted.container);

    emitted_ = std::move(emitted);
    frost_plan_ = FrostPlan{};
    // Runs never compress again, so only the archive's size stays.
    std::vector<std::uint8_t>().swap(archive_);
    stage_ = Stage::kEmitted;
}

JobResult LoadJob::run(faults::MemoryFaultModel& memory, bool ecc) {
    JobResult result;
    result.page_ops = page_ops_per_run();

    const faults::MemoryFaultOutcome outcome = memory.run(result.page_ops, ecc);
    result.raw_flips = outcome.raw_flips;
    result.corrected_flips = outcome.corrected;

    // Clean run: the pipeline is deterministic, so the output is
    // bit-identical to the reference container, which need not even be built.
    if (outcome.corrupting_flips == 0) return result;

    // A corrupting flip: damage the pipeline's buffer the way a flipped DRAM
    // bit does — one bit, somewhere in the data pages.  By determinism the
    // pre-damage buffer is a copy of the reference container, its hash
    // resumes from the reference's checkpoint below the first flipped byte,
    // and forensics decodes only the blocks that differ from the reference.
    const Emitted& reference = emitted_state();
    std::vector<std::uint8_t> container = reference.container;
    std::size_t first_flipped = container.size();
    for (std::uint64_t i = 0; i < outcome.corrupting_flips; ++i) {
        // Flip within payload area (skip the 12-byte stream header so the
        // damage lands in a block, as the paper observed).
        const auto byte_index = static_cast<std::size_t>(
            flip_rng_.uniform_int(12, static_cast<std::int64_t>(container.size()) - 1));
        const auto bit = static_cast<int>(flip_rng_.uniform_int(0, 7));
        container[byte_index] ^= static_cast<std::uint8_t>(1u << bit);
        first_flipped = std::min(first_flipped, byte_index);
    }

    result.digest = reference.md5.resume(container, first_flipped);
    result.md5_bytes = container.size() - reference.md5.resume_offset(first_flipped);
    result.hash_ok = result.digest == reference.md5.digest();
    if (!result.hash_ok) {
        // "If the results differ, the packed tarball is stored" — and later
        // inspected with the recovery utility.
        const RecoveryReference recovery{reference.container, reference.directory};
        result.forensics = frost_recover(container, nullptr, &recovery);
        result.blocks_decoded = result.forensics->blocks_decoded;
    }
    return result;
}

}  // namespace zerodeg::workload
