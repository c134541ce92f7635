// MD5 (RFC 1321), implemented from scratch.
//
// The paper's synthetic load verifies every compressed tarball by comparing
// its md5sum against a reference value computed at installation; a mismatch
// is the detector for the memory-corruption events of Section 4.2.2.  This
// is the same algorithm on the same role.  (MD5 is of course not to be used
// for security anywhere; here it is an integrity checksum, as in the paper.)
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "workload/byte_patch.hpp"

namespace zerodeg::workload {

using Md5Digest = std::array<std::uint8_t, 16>;

struct Md5Job;

class Md5 {
public:
    Md5();

    /// Feed data incrementally.
    void update(std::span<const std::uint8_t> data);
    void update(const std::string& s);

    /// Finish and return the digest.  The object must not be reused after
    /// finalize() without reset().
    [[nodiscard]] Md5Digest finalize();

    void reset();

private:
    friend std::vector<Md5Digest> md5_many(std::span<const Md5Job> jobs);

    std::array<std::uint32_t, 4> state_;
    std::uint64_t total_bytes_ = 0;
    std::array<std::uint8_t, 64> buffer_;
    std::size_t buffered_ = 0;
    bool finalized_ = false;

    void process_block(const std::uint8_t* block);
};

/// One message for md5_many: `start` fed the bytes of `data` with
/// `patches` XORed in.  `start` is a fresh Md5 or a copy of one part fed
/// (not finalized); `patches` lie inside `data`, in strictly increasing
/// offset order (net_patches gives that form).
struct Md5Job {
    Md5 start;
    std::span<const std::uint8_t> data;
    std::span<const BytePatch> patches;
};

/// The digest of each job, in order, bitwise equal to finishing each on its
/// own.  Two or more jobs are hashed side by side in four SSE2 lanes, the
/// multi-buffer technique of isa-l_crypto's md5_mb: longest job first, and a
/// lane takes the next job as soon as its own runs out of whole blocks.  The
/// last job left alone, a lone job, and every job's final partial block and
/// padding run on the scalar compression function.
[[nodiscard]] std::vector<Md5Digest> md5_many(std::span<const Md5Job> jobs);

/// One-shot convenience.
[[nodiscard]] Md5Digest md5(std::span<const std::uint8_t> data);

/// Lowercase hex, as md5sum prints it.
[[nodiscard]] std::string to_hex(const Md5Digest& d);

}  // namespace zerodeg::workload
