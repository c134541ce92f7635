// The synthetic load cycle of Section 3.5:
//   pack the source tree (frost::Archive), compress it (frost), hash the
//   result (MD5), compare against the reference value computed at
//   installation; on mismatch, keep the bad tarball for forensics.
//
// Memory faults are injected between the buffers of the real pipeline: a
// corrupting bit flip lands in the compressed container exactly as a flipped
// DRAM bit in a page of the tar/bzip2 buffers landed in the paper's
// tarballs, and the same recovery forensics then applies.
#pragma once

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
    /// (~3.2e9 page ops over 27627 runs ~= 116k per run).
    double page_op_multiplier = 160.0;
    /// When true (default), runs reuse the cached deterministic container
    /// instead of recompressing, and a corrupting run re-hashes only from
    /// the first flipped byte's checkpoint and decodes only the blocks that
    /// differ from the reference — output is bit-identical.  Disable in
    /// tests that want every run end-to-end.
    bool cache_clean_runs = true;
};

struct JobResult {
    bool hash_ok = true;
    Md5Digest digest{};
    std::uint64_t page_ops = 0;
    std::uint64_t raw_flips = 0;
    std::uint64_t corrected_flips = 0;
    /// Work counters: blocks run through the decoder and bytes fed to MD5.
    std::uint64_t blocks_decoded = 0;
    std::uint64_t md5_bytes = 0;
    /// Set when the hash mismatched and recovery ran on the stored tarball.
    std::optional<RecoveryReport> forensics;
};

class LoadJob {
public:
    LoadJob(LoadJobConfig config, std::uint64_t seed);

    /// Execute one cycle on a host with or without ECC memory.
    [[nodiscard]] JobResult run(faults::MemoryFaultModel& memory, bool ecc);

    [[nodiscard]] const Md5Digest& reference_digest() const { return reference_md5_.digest(); }
    [[nodiscard]] std::size_t block_count() const { return reference_directory_.size(); }
    [[nodiscard]] std::size_t archive_bytes() const { return archive_.size(); }
    [[nodiscard]] std::size_t container_bytes() const { return reference_container_.size(); }
    [[nodiscard]] std::uint64_t page_ops_per_run() const { return page_ops_per_run_; }
    [[nodiscard]] const CompressorConfig& compressor_config() const { return comp_config_; }

    /// The pristine compressed container (for tests and examples).
    [[nodiscard]] const std::vector<std::uint8_t>& reference_container() const {
        return reference_container_;
    }

private:
    LoadJobConfig config_;
    CompressorConfig comp_config_;
    std::vector<std::uint8_t> archive_;
    std::vector<std::uint8_t> reference_container_;
    std::vector<BlockInfo> reference_directory_;
    Md5Checkpoints reference_md5_;
    std::uint64_t page_ops_per_run_ = 0;
    core::RngStream flip_rng_;
};

}  // namespace zerodeg::workload
