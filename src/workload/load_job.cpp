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
    : config_(config), flip_rng_(seed, "loadjob.flips") {
    // The corpus is a temporary: it is freed before the compressor runs.
    archive_ = write_archive(SyntheticCorpus(config.corpus, seed).files());

    // Pick a block size that yields ~target_blocks blocks, as the paper's
    // corpus did under bzip2's 900k blocks (396 blocks there).
    if (config.target_blocks == 0) throw core::InvalidArgument("LoadJob: zero target blocks");
    comp_config_.block_size = std::max<std::size_t>(1024, archive_.size() / config.target_blocks);
    reference_container_ = frost_compress(archive_, comp_config_);
    reference_md5_ = Md5Checkpoints(reference_container_);
    reference_directory_ = frost_block_directory(reference_container_);

    const std::uint64_t real_page_ops =
        static_cast<std::uint64_t>((archive_.size() + reference_container_.size()) / 4096);
    page_ops_per_run_ = static_cast<std::uint64_t>(static_cast<double>(real_page_ops) *
                                                   config.page_op_multiplier);
}

JobResult LoadJob::run(faults::MemoryFaultModel& memory, bool ecc) {
    JobResult result;
    result.page_ops = page_ops_per_run_;

    const faults::MemoryFaultOutcome outcome = memory.run(page_ops_per_run_, ecc);
    result.raw_flips = outcome.raw_flips;
    result.corrected_flips = outcome.corrected;

    if (outcome.corrupting_flips == 0) {
        // Clean run: the pipeline is deterministic, so the output is
        // bit-identical to the reference container.
        if (config_.cache_clean_runs) {
            result.digest = reference_digest();
        } else {
            const std::vector<std::uint8_t> container = frost_compress(archive_, comp_config_);
            result.digest = md5(container);
            result.md5_bytes = container.size();
        }
        result.hash_ok = result.digest == reference_digest();
        return result;
    }

    // A corrupting flip: run the real pipeline and damage the buffer the way
    // a flipped DRAM bit does — one bit, somewhere in the data pages.  The
    // pipeline is deterministic (the clean path above already banks on it),
    // so under cache_clean_runs the pre-damage buffer is a copy of the
    // reference container rather than a fresh compression pass, its hash
    // resumes from the reference's checkpoint below the first flipped byte,
    // and forensics decodes only the blocks that differ from the reference.
    std::vector<std::uint8_t> container =
        config_.cache_clean_runs ? reference_container_ : frost_compress(archive_, comp_config_);
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

    if (config_.cache_clean_runs) {
        result.digest = reference_md5_.resume(container, first_flipped);
        result.md5_bytes = container.size() - reference_md5_.resume_offset(first_flipped);
    } else {
        result.digest = md5(container);
        result.md5_bytes = container.size();
    }
    result.hash_ok = result.digest == reference_digest();
    if (!result.hash_ok) {
        // "If the results differ, the packed tarball is stored" — and later
        // inspected with the recovery utility.
        const RecoveryReference reference{reference_container_, reference_directory_};
        result.forensics =
            frost_recover(container, nullptr, config_.cache_clean_runs ? &reference : nullptr);
        result.blocks_decoded = result.forensics->blocks_decoded;
    }
    return result;
}

}  // namespace zerodeg::workload
