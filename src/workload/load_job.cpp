#include "workload/load_job.hpp"

#include <algorithm>

#include "core/error.hpp"

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
    first_changed = std::min(first_changed, data.size());
    Md5 h = resume_state(first_changed);
    h.update(data.subspan(resume_offset(first_changed)));
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
    if (config.corpus.top_level_dirs == 0) {
        throw core::InvalidArgument("LoadJob: corpus top_level_dirs must be positive");
    }
}

void LoadJob::plan() const {
    // The corpus is generated straight into the archive: one buffer, which
    // the plan scans and the emit later compresses.
    std::vector<std::uint8_t> archive = corpus_archive(config_.corpus, seed_);

    // Pick a block size that yields ~target_blocks blocks, as the paper's
    // corpus did under bzip2's 900k blocks (396 blocks there).  It depends
    // on the whole archive's size, so the plan cannot run block by block
    // beside the generator.
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

JobDraw LoadJob::draw(faults::MemoryFaultModel& memory, bool ecc) {
    JobDraw draw;
    draw.page_ops = page_ops_per_run();

    const faults::MemoryFaultOutcome outcome = memory.run(draw.page_ops, ecc);
    draw.raw_flips = outcome.raw_flips;
    draw.corrected_flips = outcome.corrected;

    // Clean run: the pipeline is deterministic, so the output is
    // bit-identical to the reference container, which need not even be built.
    if (outcome.corrupting_flips == 0) return draw;

    // The first corrupting run emits, so the 2 MB archive the emit reads is
    // freed now rather than held until the first settle.
    const std::size_t size = emitted_state().container.size();

    // A corrupting flip damages the pipeline's buffer the way a flipped DRAM
    // bit does: one bit, somewhere in the data pages.  It lands within the
    // payload area, past the 12-byte stream header, so the damage is in a
    // block, as the paper observed.
    RunDamage& damage = draw.damage.emplace();
    damage.first_flipped = size;
    for (std::uint64_t i = 0; i < outcome.corrupting_flips; ++i) {
        const auto byte_index = static_cast<std::size_t>(
            flip_rng_.uniform_int(12, static_cast<std::int64_t>(size) - 1));
        const auto bit = static_cast<int>(flip_rng_.uniform_int(0, 7));
        damage.flips.push_back({byte_index, static_cast<std::uint8_t>(1u << bit)});
        damage.first_flipped = std::min(damage.first_flipped, byte_index);
    }
    return draw;
}

std::vector<JobVerdict> LoadJob::settle(std::span<const RunDamage> runs) const {
    const Emitted& reference = emitted_state();
    const std::span<const std::uint8_t> container = reference.container;

    // Each run's net damage, and the same patches relative to where its
    // hash resumes.
    std::vector<std::vector<BytePatch>> damage;
    std::vector<std::vector<BytePatch>> suffix_patches;
    std::vector<Md5Job> jobs;
    damage.reserve(runs.size());
    suffix_patches.reserve(runs.size());
    jobs.reserve(runs.size());
    for (const RunDamage& run : runs) {
        const std::size_t from = reference.md5.resume_offset(run.first_flipped);
        std::vector<BytePatch>& net = damage.emplace_back(net_patches(run.flips));
        std::vector<BytePatch>& shifted = suffix_patches.emplace_back(net);
        for (BytePatch& p : shifted) p.offset -= from;
        jobs.push_back({reference.md5.resume_state(run.first_flipped), container.subspan(from),
                        shifted});
    }
    const std::vector<Md5Digest> digests = md5_many(jobs);

    std::vector<JobVerdict> verdicts(runs.size());
    const RecoveryReference recovery{reference.container, reference.directory};
    for (std::size_t i = 0; i < runs.size(); ++i) {
        JobVerdict& v = verdicts[i];
        v.digest = digests[i];
        v.md5_bytes = jobs[i].data.size();
        v.hash_ok = v.digest == reference.md5.digest();
        if (!v.hash_ok) {
            // "If the results differ, the packed tarball is stored" — and
            // later inspected with the recovery utility.
            v.forensics = frost_recover_patched(recovery, damage[i]);
            v.blocks_decoded = v.forensics->blocks_decoded;
        }
    }
    return verdicts;
}

JobResult LoadJob::run(faults::MemoryFaultModel& memory, bool ecc) {
    const JobDraw drawn = draw(memory, ecc);
    JobResult result;
    result.page_ops = drawn.page_ops;
    result.raw_flips = drawn.raw_flips;
    result.corrected_flips = drawn.corrected_flips;
    if (!drawn.damage) return result;

    const std::vector<JobVerdict> verdicts = settle(std::span(&*drawn.damage, 1));
    const JobVerdict& verdict = verdicts.front();
    result.hash_ok = verdict.hash_ok;
    result.digest = verdict.digest;
    result.blocks_decoded = verdict.blocks_decoded;
    result.md5_bytes = verdict.md5_bytes;
    result.forensics = verdict.forensics;
    return result;
}

}  // namespace zerodeg::workload
