// The synthetic load cycle of Section 3.5:
//   pack the source tree (frost::Archive), compress it (frost), hash the
//   result (MD5), compare against the reference value computed at
//   installation; on mismatch, keep the bad tarball for forensics.
//
// Memory faults are injected between the buffers of the real pipeline: a
// corrupting bit flip lands in the compressed container exactly as a flipped
// DRAM bit in a page of the tar/bzip2 buffers landed in the paper's
// tarballs, and the same recovery forensics then applies.
//
// A cycle runs in two parts.  draw() is what the event loop needs: the
// memory-model draw and, for a corrupting run, where its flips land.
// settle() verifies corrupting runs later, any number at once: it hashes
// each damaged container and runs forensics on a mismatch.  No event and no
// later draw reads a verdict, so when it is computed changes no byte.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "faults/memory_faults.hpp"
#include "workload/compressor.hpp"
#include "workload/corpus.hpp"
#include "workload/md5.hpp"
#include "workload/recover.hpp"

namespace zerodeg::workload {

/// The MD5 of a reference buffer, with a copy of the hash state kept every
/// kStride bytes.  A copy of the buffer that first differs from it at byte
/// `first_changed` is hashed exactly by resuming from the checkpoint at or
/// below that byte, so only the suffix is re-hashed.
class Md5Checkpoints {
public:
    static constexpr std::size_t kStride = 16 * 1024;

    Md5Checkpoints() : Md5Checkpoints(std::span<const std::uint8_t>{}) {}
    explicit Md5Checkpoints(std::span<const std::uint8_t> reference);

    [[nodiscard]] const Md5Digest& digest() const { return digest_; }

    /// Offset of the checkpoint at or below `first_changed`: where resume()
    /// starts hashing.
    [[nodiscard]] std::size_t resume_offset(std::size_t first_changed) const;

    /// The hash state at resume_offset(first_changed), to be fed the bytes
    /// from there on.
    [[nodiscard]] const Md5& resume_state(std::size_t first_changed) const {
        return states_[resume_offset(first_changed) / kStride];
    }

    /// MD5 of `data`, whose bytes before `first_changed` equal the
    /// reference's.  Its length may differ from the reference's.
    [[nodiscard]] Md5Digest resume(std::span<const std::uint8_t> data,
                                   std::size_t first_changed) const;

private:
    std::vector<Md5> states_;  ///< states_[k]: the state after k * kStride bytes
    Md5Digest digest_{};
};

struct LoadJobConfig {
    CorpusConfig corpus{};
    /// Chosen so the container carries ~396 blocks, the paper's count.
    std::size_t target_blocks = 396;
    /// The paper's corpus (a kernel tree) is far larger than ours; page
    /// operations are scaled so one run costs what the paper's run cost
    /// (~3.2e9 page ops over 27627 runs ~= 116k per run).  Must be finite
    /// and in [0, kMaxPageOpMultiplier].
    double page_op_multiplier = 160.0;
    /// Any archive that fits in memory has under 2^37 real page ops, so a
    /// multiplier this size keeps page_ops_per_run below 2^57: the
    /// conversion to an integer can never overflow.
    static constexpr double kMaxPageOpMultiplier = 1e6;
    /// False for NaN too.
    [[nodiscard]] static bool valid_page_op_multiplier(double m) {
        return std::isfinite(m) && m >= 0.0 && m <= kMaxPageOpMultiplier;
    }
};

/// Where a corrupting run's flips land in the container, drawn in the event
/// loop and verified later by LoadJob::settle.
struct RunDamage {
    std::vector<BytePatch> flips;  ///< one bit each, in draw order
    /// The lowest flipped offset, also when flips cancel: the hash resumes
    /// from the checkpoint below it, and md5_bytes counts from there.
    std::size_t first_flipped = 0;
};

/// What one cycle draws in the event loop.
struct JobDraw {
    std::uint64_t page_ops = 0;
    std::uint64_t raw_flips = 0;
    std::uint64_t corrected_flips = 0;
    std::optional<RunDamage> damage;  ///< set for a corrupting run
};

/// What verifying one corrupting run finds.
struct JobVerdict {
    bool hash_ok = true;
    Md5Digest digest{};
    std::uint64_t blocks_decoded = 0;
    std::uint64_t md5_bytes = 0;
    std::optional<RecoveryReport> forensics;  ///< set when the hash mismatched
};

/// A whole cycle: its draw and, for a corrupting run, its verdict.
struct JobResult {
    bool hash_ok = true;
    /// The digest of this run's container, present only when one was
    /// computed.  A clean run matches the reference by determinism and
    /// hashes nothing.
    std::optional<Md5Digest> digest;
    std::uint64_t page_ops = 0;
    std::uint64_t raw_flips = 0;
    std::uint64_t corrected_flips = 0;
    /// Work counters: blocks run through the decoder and bytes fed to MD5.
    std::uint64_t blocks_decoded = 0;
    std::uint64_t md5_bytes = 0;
    /// Set when the hash mismatched and recovery ran on the stored tarball.
    std::optional<RecoveryReport> forensics;
};

/// One load cycle's reference, built lazily in two stages on first use.
/// The constructor only validates the config.  The first call that needs a
/// size (draw, the size accessors) plans: corpus_archive, which writes the
/// corpus straight into one archive buffer, then frost_plan over it.
/// The first corrupting draw, or any accessor for bytes or digests, emits:
/// the container, its MD5 checkpoints and its block directory; it then frees
/// the archive.  A clean run never emits.  The pipeline is deterministic, so a run never
/// compresses again: a clean run's container is the reference, and a
/// corrupting run's is the reference with its flips XORed in.  Settling
/// reads it that way, with no copy: the hash resumes from the checkpoint
/// below the first flipped byte, and forensics decodes only the blocks a
/// flip touched.  The stages are filled in through `mutable` members behind
/// const accessors, so a LoadJob belongs to one season's thread.
class LoadJob {
public:
    /// Throws InvalidArgument for a config no stage could build.
    LoadJob(LoadJobConfig config, std::uint64_t seed);

    /// Draw one cycle on a host with or without ECC memory: the memory
    /// model's draw and, for a corrupting run, its flips from the job's
    /// `loadjob.flips` stream.
    [[nodiscard]] JobDraw draw(faults::MemoryFaultModel& memory, bool ecc);

    /// The verdict of each corrupting run, in order.  Two or more runs hash
    /// side by side (md5_many).
    [[nodiscard]] std::vector<JobVerdict> settle(std::span<const RunDamage> runs) const;

    /// One whole cycle: draw, then settle it alone if it corrupted.
    [[nodiscard]] JobResult run(faults::MemoryFaultModel& memory, bool ecc);

    /// Which stages have been built; neither call builds one.
    [[nodiscard]] bool planned() const { return stage_ != Stage::kConfigured; }
    [[nodiscard]] bool emitted() const { return stage_ == Stage::kEmitted; }

    // Sizes: these plan.
    [[nodiscard]] std::size_t block_count() const { return planned_state().block_count; }
    [[nodiscard]] std::size_t archive_bytes() const { return planned_state().archive_bytes; }
    [[nodiscard]] std::size_t container_bytes() const { return planned_state().container_bytes; }
    [[nodiscard]] std::uint64_t page_ops_per_run() const {
        return planned_state().page_ops_per_run;
    }
    [[nodiscard]] const CompressorConfig& compressor_config() const {
        return planned_state().compressor;
    }

    // Bytes and digests: these emit.
    [[nodiscard]] const Md5Digest& reference_digest() const {
        return emitted_state().md5.digest();
    }
    /// The pristine compressed container (for tests and examples).
    [[nodiscard]] const std::vector<std::uint8_t>& reference_container() const {
        return emitted_state().container;
    }

private:
    enum class Stage { kConfigured, kPlanned, kEmitted };

    struct Planned {
        CompressorConfig compressor;
        std::size_t archive_bytes = 0;
        std::size_t container_bytes = 0;
        std::size_t block_count = 0;
        std::uint64_t page_ops_per_run = 0;
    };
    struct Emitted {
        std::vector<std::uint8_t> container;
        std::vector<BlockInfo> directory;
        Md5Checkpoints md5;
    };

    const Planned& planned_state() const {
        if (stage_ == Stage::kConfigured) [[unlikely]] plan();
        return planned_;
    }
    const Emitted& emitted_state() const {
        if (stage_ != Stage::kEmitted) [[unlikely]] emit();
        return emitted_;
    }
    void plan() const;
    void emit() const;

    LoadJobConfig config_;
    std::uint64_t seed_;
    core::RngStream flip_rng_;

    mutable Stage stage_ = Stage::kConfigured;
    mutable Planned planned_;
    mutable std::vector<std::uint8_t> archive_;  ///< held from plan to emit
    mutable FrostPlan frost_plan_;  ///< held from plan to emit
    mutable Emitted emitted_;
};

}  // namespace zerodeg::workload
