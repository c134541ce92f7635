// Synthetic source-tree corpus.
//
// The paper's load compresses a Linux kernel source directory.  We cannot
// ship one, so this generates a deterministic tree of C-like source files
// with realistic statistics (token repetition, indentation, comments) —
// compressible the way source code is — at a configurable total size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace zerodeg::workload {

struct CorpusFile {
    std::string path;
    std::vector<std::uint8_t> contents;
};

struct CorpusConfig {
    /// Approximate total bytes across all files.
    std::size_t total_bytes = 2 * 1024 * 1024;
    /// Approximate bytes per file.
    std::size_t mean_file_bytes = 16 * 1024;
    /// Directory fan-out flavor ("drivers", "fs", "net", ...).
    std::size_t top_level_dirs = 8;
};

/// Deterministic for a given (config, seed).  Every draw comes from the one
/// stream RngStream(seed, "corpus"), in this order, which the pinned
/// archives and containers, the memory-flip offsets and the golden census
/// all depend on:
///
///   per file:      directory, file stem, size factor uniform(0.5, 1.5), then
///                  functions until the text reaches its target size;
///   per function:  callee and identifier of its name, return type, argument
///                  count, per argument its name then its type, statement
///                  count, then per statement its kind followed by
///     declaration  initial value, variable, type
///     call         argument, callee, assigned variable
///     check        right operand, left operand
///     comment      the held object, the lock ("lock must hold held")
///     loop         body argument, body callee, step variable, bound,
///                  condition variable, initialised variable.
///
/// Within a line this is right to left: the order GCC 12 gave the draws
/// when each line was one expression, whose evaluation order the language
/// leaves unspecified.  Each draw is now a named local (lint ZD019).
class SyntheticCorpus {
public:
    SyntheticCorpus(CorpusConfig config, std::uint64_t seed);

    [[nodiscard]] const std::vector<CorpusFile>& files() const { return files_; }
    [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }
    [[nodiscard]] std::size_t file_count() const { return files_.size(); }

private:
    std::vector<CorpusFile> files_;
    std::size_t total_bytes_ = 0;
};

}  // namespace zerodeg::workload
