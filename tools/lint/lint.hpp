// zerodeg_lint — determinism and hygiene checker for the zerodeg tree.
//
// The repo's headline numbers (PUE 1.74, the prototype weekend, the fault
// census) are regenerated by sweeps whose contract is byte-identical output
// for any --jobs and across kill-and-resume.  That contract is easy to break
// silently: one std::random_device seed, one wall-clock call, one
// unordered_map iteration feeding a CSV writer.  This checker makes the
// determinism rules mechanically enforceable at review time.
//
// It is deliberately a token/line-level scanner, not a compiler plugin: no
// libclang dependency, runs in milliseconds over the whole tree, and the
// rules it enforces are lexically recognisable by construction (the banned
// constructs are banned *by spelling*, so spelling-level detection is exact,
// not heuristic — except ZD005/ZD006, whose function-scope reasoning is a
// documented best-effort approximation).
//
// Suppression: append `// zerodeg-lint: allow(ZDxxx): <reason>` to the
// offending line, or place it alone on the line above.  The reason text is
// mandatory (ZD098) and the id must exist (ZD099) so suppressions cannot rot.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zerodeg::lint {

enum class Severity { kWarning, kError };

[[nodiscard]] constexpr const char* to_string(Severity s) {
    return s == Severity::kError ? "error" : "warning";
}

/// One finding.  `file` is the path the caller handed in (by convention
/// repo-relative with forward slashes — the directory-scoped checks key off
/// it), `line` is 1-based.
struct Diagnostic {
    std::string file;
    std::size_t line = 0;
    std::string id;        ///< "ZD001" ... "ZD099"
    Severity severity = Severity::kError;
    std::string message;
    std::string hint;
    /// FNV-1a of the whitespace-stripped source line — the baseline key,
    /// stable across unrelated edits that shift line numbers.
    std::uint64_t fingerprint = 0;
};

/// Static description of one check, for --list-checks and the docs table.
struct CheckInfo {
    std::string_view id;
    Severity severity;
    std::string_view summary;
};

/// All known checks, in id order.
[[nodiscard]] const std::vector<CheckInfo>& known_checks();

/// True if `id` names a known check (including the meta checks ZD097–ZD099).
[[nodiscard]] bool is_known_check(std::string_view id);

/// True if `id` is a whole-project check (ZD015–ZD019): these only fire in
/// `--project` mode, so per-file ZD097 staleness reasoning must leave their
/// suppressions to the project analyzer.
[[nodiscard]] bool is_project_check(std::string_view id);

/// True if findings with this id may be recorded in the baseline.  The meta
/// checks (ZD097 stale suppression, ZD098 missing reason, ZD099 unknown id)
/// are never baselinable: they lint the waiver mechanism itself.
[[nodiscard]] bool is_baselinable_check(std::string_view id);

/// Run every check over one in-memory translation unit.  `path` must be the
/// repo-relative path (forward slashes): the monitoring/-only clock
/// exemption, the tools/-only getenv exemption and the core/-only engine
/// exemption are keyed off it.  Returns diagnostics sorted by line.
[[nodiscard]] std::vector<Diagnostic> lint_source(std::string_view path, std::string_view content);

/// Baseline: the set of findings that predate the linter and are accepted.
/// Entries are (id, file, fingerprint) — line numbers are deliberately not
/// part of the key so unrelated edits don't invalidate it.
class Baseline {
public:
    /// Parse the baseline format produced by serialize().  Unknown or
    /// malformed lines throw core::ParseError with the line number.
    [[nodiscard]] static Baseline parse(std::string_view text);

    void add(const Diagnostic& d);

    [[nodiscard]] bool contains(const Diagnostic& d) const;
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// Stable textual form: sorted, one `ZDxxx <fingerprint-hex> <file>`
    /// entry per line, with an explanatory header.
    [[nodiscard]] std::string serialize() const;

private:
    std::vector<std::string> entries_;  // "ZDxxx fingerprint-hex file", sorted
};

/// Render one diagnostic in the canonical `file:line: [ZDxxx][sev] msg`
/// + indented hint form used by the CLI and the CTest gate.
[[nodiscard]] std::string format_diagnostic(const Diagnostic& d);

/// Render one diagnostic as a single JSON object
/// (`{"file":...,"line":...,"id":...,"severity":...,"message":...,"hint":...}`)
/// for `--format=json`.  The hint key is omitted when empty.
[[nodiscard]] std::string format_diagnostic_json(const Diagnostic& d);

}  // namespace zerodeg::lint
