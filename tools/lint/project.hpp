// Whole-project analyzer for zerodeg_lint: the cross-TU pass.
//
// The per-file checks (lint.cpp) see one translation unit at a time, which is
// exactly the wrong granularity for the three remaining determinism
// conventions: layer boundaries (an include edge is only wrong *relative to
// the declared DAG*), globally unique named RNG streams (a collision is two
// files agreeing on a string), and never-discarded ErrorCodes (the discard
// site and the declaration usually live in different TUs).  This pass scans
// every file once into a ProjectModel (pass 1) and then judges the model as
// a whole (pass 2):
//
//   ZD015  include edge violating the layer DAG, or any include cycle
//   ZD016  RNG stream-name literal constructed from two different files
//   ZD017  bare statement discarding a known ErrorCode-returning function
//   ZD018  std::accumulate/std::reduce over floats outside core/parallel.hpp
//   ZD019  two draws from one RngStream in one unsequenced expression (the
//          stream may be declared in a header and drawn from in a .cpp)
//
// plus ZD097 staleness for suppressions that name the project checks (the
// per-file pass cannot know whether those fire, so it leaves them to us).
//
// The declared layer DAG (allowed include edges between src/ modules; tools/,
// bench/ and tests/ may see everything, nothing may see them):
//
//   core        -> (nothing)
//   weather     -> core
//   faults      -> core
//   thermal     -> core, weather
//   energy      -> core, weather
//   hardware    -> core, thermal, weather
//   workload    -> core, faults
//   monitoring  -> core, weather, faults, thermal, energy, hardware, workload
//   experiment  -> all of the above + monitoring
//
// A src/ module absent from this table is itself a ZD015: new subsystems are
// added here (and in DESIGN.md) deliberately, not by accretion.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.hpp"
#include "lint/scan.hpp"

namespace zerodeg::lint {

/// One quoted `#include "..."` directive.  `target` is the spelling between
/// the quotes; `resolved` is the repo-relative path of the file it names
/// (filled by resolve_includes), or empty when it points outside the model.
struct IncludeEdge {
    std::size_t line = 0;
    std::string target;
    std::string resolved;
};

/// One `core::RngStream(seed, "name")` construction whose name is a literal.
struct StreamUse {
    std::size_t line = 0;
    std::string name;
};

/// One full-statement call `f(...);` / `obj.f(...);` — the form that
/// discards the return value.
struct BareCall {
    std::size_t line = 0;
    std::string callee;  ///< last identifier before the argument list
};

/// One `std::accumulate(...)` / `std::reduce(...)` call whose argument span
/// shows floating-point evidence (float/double tokens or a float literal).
struct FloatReduction {
    std::size_t line = 0;
    std::string what;  ///< the qualified spelling found
};

/// Two draws from one identifier in one full-expression whose order the
/// language leaves open: operands of the same arithmetic operator, or
/// arguments of the same call.  Pass 2 reports those whose identifier is
/// declared somewhere in the project as a RngStream.
struct UnsequencedDraws {
    std::size_t line = 0;  ///< of the earlier draw
    std::string name;
};

/// One function declared with an ErrorCode return type (harvested from
/// headers only — that is where the contract lives).
struct ErrorFn {
    std::size_t line = 0;
    std::string name;
};

/// Everything pass 2 needs to know about one file, extracted in one lex.
struct FileScan {
    std::string path;    ///< repo-relative, forward slashes
    std::string module;  ///< "core".."workload", "tools", "bench", "tests", or ""
    std::vector<IncludeEdge> includes;
    std::vector<StreamUse> streams;
    std::vector<ErrorFn> error_fns;
    std::vector<BareCall> bare_calls;
    std::vector<FloatReduction> reductions;
    std::vector<std::string> rng_names;  ///< declared `RngStream [&*] name`
    std::vector<UnsequencedDraws> unsequenced_draws;
    std::vector<Suppression> suppressions;
    std::vector<std::uint64_t> fingerprints;  ///< per line, for baseline keys
};

/// Module a path belongs to: `src/<m>/...` -> `<m>`; `tools/...` -> "tools";
/// likewise bench/tests; anything else -> "".
[[nodiscard]] std::string module_of(std::string_view path);

/// Pass-1 extraction for one in-memory file.  Pure (no filesystem).
[[nodiscard]] FileScan scan_file(std::string path, std::string_view content);

struct ProjectModel {
    std::vector<FileScan> files;  ///< sorted by path
};

/// Fill every IncludeEdge::resolved against the model's own file set
/// (candidates: the includer's directory, then src/, tools/, bench/, tests/,
/// then the repo root).  Exposed separately so tests can assemble models
/// in memory from scan_file() without touching the filesystem.
void resolve_includes(ProjectModel& model);

/// Walk `root` under the given scan roots (sorted, .cpp/.cc/.hpp/.h only),
/// scan every file and resolve includes.  Throws zerodeg::IoError on
/// unreadable files.
[[nodiscard]] ProjectModel build_project_model(const std::filesystem::path& root,
                                               const std::vector<std::string>& scan_roots);

/// Module-level include graph plus the violations found on it.
struct ModuleGraph {
    std::map<std::string, std::set<std::string>> edges;    ///< module -> its deps
    std::map<std::string, std::set<std::string>> illegal;  ///< subset violating the DAG
    std::vector<std::vector<std::string>> cycles;          ///< file-level include cycles
};

struct ProjectReport {
    std::vector<Diagnostic> diagnostics;  ///< ZD015-ZD019 + project ZD097, sorted
    ModuleGraph graph;
    std::size_t files_scanned = 0;
};

/// Pass 2: judge the whole model.  Reasoned `allow(ZDxxx)` suppressions are
/// honoured; stale ones naming project checks come back as ZD097.
[[nodiscard]] ProjectReport analyze_project(const ProjectModel& model);

/// The allowed-edge table (src/ modules only), for docs and tests.
[[nodiscard]] const std::map<std::string, std::set<std::string>>& layer_dag();

/// Graphviz rendering of the module graph; illegal edges are drawn red.
[[nodiscard]] std::string render_dot(const ModuleGraph& graph);

/// Human-readable per-module fan-in/fan-out and cycle summary.
[[nodiscard]] std::string render_architecture_report(const ModuleGraph& graph);

}  // namespace zerodeg::lint
