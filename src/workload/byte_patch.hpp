// Damaged copies of a buffer, described rather than copied.
//
// A corrupting run damages the reference container in a handful of bytes.
// A list of byte patches names those bytes, so the hash and the forensics
// can read the reference with the damage XORed in on the fly instead of
// copying the whole container once per run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace zerodeg::workload {

/// One damaged byte: the buffer's byte at `offset` XORed with `mask`.
struct BytePatch {
    std::size_t offset = 0;
    std::uint8_t mask = 0;

    bool operator==(const BytePatch&) const = default;
};

/// The net damage of `flips`, applied in any order: sorted by strictly
/// increasing offset, one patch per offset, and none whose flips cancel.
[[nodiscard]] inline std::vector<BytePatch> net_patches(std::vector<BytePatch> flips) {
    std::stable_sort(flips.begin(), flips.end(),
                     [](const BytePatch& a, const BytePatch& b) { return a.offset < b.offset; });
    std::vector<BytePatch> net;
    for (const BytePatch& f : flips) {
        if (!net.empty() && net.back().offset == f.offset) {
            net.back().mask ^= f.mask;
        } else {
            net.push_back(f);
        }
        if (net.back().mask == 0) net.pop_back();
    }
    return net;
}

/// XORs into `bytes`, which hold the buffer's bytes from offset `base` on,
/// every patch of `patches` that lands in them.
inline void apply_patches(std::span<std::uint8_t> bytes, std::size_t base,
                          std::span<const BytePatch> patches) {
    for (const BytePatch& p : patches) {
        if (p.offset >= base && p.offset - base < bytes.size()) bytes[p.offset - base] ^= p.mask;
    }
}

}  // namespace zerodeg::workload
