// frost_recover — the bzip2recover analogue.
//
// Section 4.2.2: "While inspecting the tarball with the bzip2recover
// utility, it became clear that only a single one of the 396 bzip2
// compression blocks had been corrupted."  This utility performs the same
// forensics on a frost container: walk the block directory (rescanning for
// block magics if the directory itself is damaged), decode each block, and
// report which blocks fail their CRC and how many bytes are salvageable.
//
// Given the pristine container the damaged one was copied from, recovery
// decodes only the blocks whose bytes differ from it: a block whose header
// and payload byte-match the reference decodes exactly as the reference
// block does, so it is intact by determinism.  Foreign or structurally
// damaged input still takes the full decode of every block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "workload/compressor.hpp"

namespace zerodeg::workload {

struct RecoveryReport {
    std::size_t total_blocks = 0;
    std::vector<std::size_t> corrupt_blocks;   ///< indices of damaged blocks
    std::size_t salvaged_bytes = 0;            ///< original bytes recovered
    std::size_t lost_bytes = 0;                ///< original bytes in bad blocks
    bool directory_damaged = false;            ///< had to rescan for magics
    /// Work done, not a finding: blocks run through frost_decode_block.
    /// Equals total_blocks on the full path; the reference-aware path
    /// decodes only the blocks that differ from the reference.
    std::size_t blocks_decoded = 0;

    [[nodiscard]] bool fully_intact() const {
        return corrupt_blocks.empty() && !directory_damaged;
    }
};

/// A pristine container and its block directory.  Every block of it must
/// decode cleanly (as any frost_compress output does).
struct RecoveryReference {
    std::span<const std::uint8_t> container;
    std::span<const BlockInfo> directory;
};

/// Analyze a (possibly damaged) container.  Never throws on corrupt input —
/// damage is the expected case here.  With a `reference`, a block counts as
/// intact without decoding when the directory parsed cleanly and the
/// block's BlockInfo and its 17 + comp_size bytes equal the reference's
/// block at the same index; the report is the same as without it.  The
/// reference is ignored when `salvaged` bytes are asked for.
[[nodiscard]] RecoveryReport frost_recover(std::span<const std::uint8_t> container,
                                           std::vector<std::uint8_t>* salvaged = nullptr,
                                           const RecoveryReference* reference = nullptr);

}  // namespace zerodeg::workload
