#include "workload/recover.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr std::uint32_t kBlockMagic = 0xb10cb10cu;

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t off) {
    return static_cast<std::uint32_t>(bytes[off]) |
           static_cast<std::uint32_t>(bytes[off + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[off + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[off + 3]) << 24;
}

/// Rebuild a block directory by scanning for block magics — what
/// bzip2recover does when the stream structure is broken.
std::vector<BlockInfo> rescan_for_blocks(std::span<const std::uint8_t> container) {
    std::vector<BlockInfo> dir;
    if (container.size() < 21) return dir;
    std::size_t off = 12 <= container.size() ? 12 : 0;
    while (off + 21 <= container.size()) {
        if (get_u32(container, off) == kBlockMagic) {
            BlockInfo info;
            info.offset = off;
            info.orig_size = get_u32(container, off + 4);
            info.comp_size = get_u32(container, off + 8);
            info.crc = get_u32(container, off + 12);
            info.method = container[off + 16];
            if (off + 17 + info.comp_size <= container.size()) {
                dir.push_back(info);
                off += 17 + info.comp_size;
                continue;
            }
        }
        ++off;
    }
    return dir;
}

/// Block `i` of a cleanly parsed directory byte-matches the reference's
/// block `i`: same BlockInfo, same header and payload bytes.
bool matches_reference(std::span<const std::uint8_t> container, const BlockInfo& info,
                       std::size_t i, const RecoveryReference& reference) {
    if (i >= reference.directory.size() || !(info == reference.directory[i])) return false;
    const std::size_t len = 17 + std::size_t{info.comp_size};
    if (info.offset + len > reference.container.size()) return false;
    return std::memcmp(container.data() + info.offset, reference.container.data() + info.offset,
                       len) == 0;
}

}  // namespace

RecoveryReport frost_recover(std::span<const std::uint8_t> container,
                             std::vector<std::uint8_t>* salvaged,
                             const RecoveryReference* reference) {
    RecoveryReport report;
    std::vector<BlockInfo> dir;
    try {
        dir = frost_block_directory(container);
    } catch (const core::CorruptData&) {
        report.directory_damaged = true;
        dir = rescan_for_blocks(container);
    }
    report.total_blocks = dir.size();
    // Salvage needs every block's bytes, and a rescanned directory's blocks
    // need not line up with the reference's.
    if (report.directory_damaged || salvaged != nullptr) reference = nullptr;

    for (std::size_t i = 0; i < dir.size(); ++i) {
        if (reference != nullptr && matches_reference(container, dir[i], i, *reference)) {
            report.salvaged_bytes += dir[i].orig_size;
            continue;
        }
        ++report.blocks_decoded;
        try {
            const std::vector<std::uint8_t> block = frost_decode_block(container, dir[i]);
            report.salvaged_bytes += block.size();
            if (salvaged != nullptr) salvaged->insert(salvaged->end(), block.begin(), block.end());
        } catch (const core::CorruptData&) {
            report.corrupt_blocks.push_back(i);
            report.lost_bytes += dir[i].orig_size;
        }
    }
    return report;
}

RecoveryReport frost_recover_patched(const RecoveryReference& reference,
                                     std::span<const BytePatch> patches) {
    const std::span<const BlockInfo> dir = reference.directory;
    const std::span<const std::uint8_t> container = reference.container;
    const auto in_payload = [&dir](const BytePatch& p) {
        const auto after = std::upper_bound(
            dir.begin(), dir.end(), p.offset,
            [](std::size_t off, const BlockInfo& info) { return off < info.offset; });
        if (after == dir.begin()) return false;
        const BlockInfo& info = *std::prev(after);
        return p.offset >= info.offset + 17 && p.offset < info.offset + 17 + info.comp_size;
    };
    if (!std::all_of(patches.begin(), patches.end(), in_payload)) {
        std::vector<std::uint8_t> damaged(container.begin(), container.end());
        apply_patches(damaged, 0, patches);
        return frost_recover(damaged, nullptr, &reference);
    }

    // Headers intact: the damaged container's directory is the reference's.
    RecoveryReport report;
    report.total_blocks = dir.size();
    std::vector<std::uint8_t> block;
    std::size_t next = 0;
    for (std::size_t i = 0; i < dir.size(); ++i) {
        const BlockInfo& info = dir[i];
        const std::size_t end = info.offset + 17 + std::size_t{info.comp_size};
        if (next == patches.size() || patches[next].offset >= end) {
            report.salvaged_bytes += info.orig_size;
            continue;
        }
        block.assign(container.begin() + static_cast<std::ptrdiff_t>(info.offset),
                     container.begin() + static_cast<std::ptrdiff_t>(end));
        for (; next < patches.size() && patches[next].offset < end; ++next) {
            block[patches[next].offset - info.offset] ^= patches[next].mask;
        }
        BlockInfo local = info;
        local.offset = 0;
        ++report.blocks_decoded;
        try {
            report.salvaged_bytes += frost_decode_block(block, local).size();
        } catch (const core::CorruptData&) {
            report.corrupt_blocks.push_back(i);
            report.lost_bytes += info.orig_size;
        }
    }
    return report;
}

}  // namespace zerodeg::workload
