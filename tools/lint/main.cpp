// zerodeg_lint CLI — walks the tree, runs the checks, applies the baseline.
//
// Exit codes (mirroring the zerodeg CLI convention):
//   0  clean (or report-only mode)
//   1  findings that fail the gate (--error-on-new)
//   2  usage or I/O error
//
// The walk is deterministic by construction: files are collected, sorted by
// repo-relative path, then linted in that order — the tool obeys the same
// ordering rule it enforces.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "lint/lint.hpp"
#include "lint/project.hpp"

namespace fs = std::filesystem;
using zerodeg::lint::Baseline;
using zerodeg::lint::Diagnostic;
using zerodeg::lint::Severity;

namespace {

constexpr const char* kUsage =
    R"(usage: zerodeg_lint [options] [subdir...]

Determinism and hygiene checker for the zerodeg tree.

options:
  --root DIR         repo root to scan (default: .)
  --baseline FILE    accepted pre-existing findings (see --write-baseline)
  --error-on-new     exit 1 on error-severity findings not in the baseline
  --write-baseline   rewrite the --baseline file from current findings
  --project          also run the whole-project pass (include-graph layering
                     ZD015, RNG-stream collisions ZD016, ErrorCode discards
                     ZD017, float reductions ZD018, unsequenced RNG draws
                     ZD019); always scans the full
                     tree regardless of subdir arguments
  --graph-dot FILE   write the module include graph as Graphviz dot
                     (implies --project)
  --format=FMT       output format: human (default) or json
  --changed          lint only the files named on stdin, one path per line
                     (fast pre-commit mode: git diff --name-only | ... );
                     incompatible with --project
  --list-checks      print the check table and exit
  -h, --help         this text

subdirs default to: src bench tools tests
)";

struct Options {
    std::string root = ".";
    std::string baseline_path;
    std::string graph_dot_path;
    std::string format = "human";
    bool error_on_new = false;
    bool write_baseline = false;
    bool list_checks = false;
    bool project = false;
    bool changed = false;
    std::vector<std::string> subdirs;
};

[[nodiscard]] bool parse_args(int argc, char** argv, Options& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "zerodeg_lint: " << flag << " requires a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--root") {
            const char* v = need_value("--root");
            if (v == nullptr) return false;
            opt.root = v;
        } else if (arg == "--baseline") {
            const char* v = need_value("--baseline");
            if (v == nullptr) return false;
            opt.baseline_path = v;
        } else if (arg == "--error-on-new") {
            opt.error_on_new = true;
        } else if (arg == "--write-baseline") {
            opt.write_baseline = true;
        } else if (arg == "--list-checks") {
            opt.list_checks = true;
        } else if (arg == "--project") {
            opt.project = true;
        } else if (arg == "--graph-dot") {
            const char* v = need_value("--graph-dot");
            if (v == nullptr) return false;
            opt.graph_dot_path = v;
            opt.project = true;
        } else if (arg == "--changed") {
            opt.changed = true;
        } else if (arg.rfind("--format=", 0) == 0) {
            opt.format = arg.substr(9);
            if (opt.format != "human" && opt.format != "json") {
                std::cerr << "zerodeg_lint: unknown format '" << opt.format
                          << "' (expected human or json)\n";
                return false;
            }
        } else if (arg == "-h" || arg == "--help") {
            std::cout << kUsage;
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "zerodeg_lint: unknown option '" << arg << "'\n" << kUsage;
            return false;
        } else {
            opt.subdirs.push_back(arg);
        }
    }
    if (opt.project && opt.changed) {
        std::cerr << "zerodeg_lint: --changed is a per-file fast path; the project-mode "
                     "checks only make sense over the full tree (drop one of the two)\n";
        return false;
    }
    if (opt.subdirs.empty()) opt.subdirs = {"src", "bench", "tools", "tests"};
    return true;
}

[[nodiscard]] bool lintable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

/// Repo-relative paths of every lintable file under the requested subdirs,
/// sorted so output (and therefore the CTest gate's log) is reproducible.
[[nodiscard]] std::vector<std::string> collect_files(const Options& opt) {
    std::vector<std::string> files;
    for (const std::string& sub : opt.subdirs) {
        const fs::path dir = fs::path(opt.root) / sub;
        if (!fs::is_directory(dir)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file() || !lintable(entry.path())) continue;
            files.push_back(fs::relative(entry.path(), opt.root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

/// --changed: paths read from stdin (one per line, as printed by
/// `git diff --name-only`), filtered to lintable files that exist under the
/// root.  Vanished files (deletions in the diff) are skipped silently.
[[nodiscard]] std::vector<std::string> collect_changed_files(const Options& opt) {
    std::vector<std::string> files;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty() || !lintable(line)) continue;
        const std::string normal = fs::path(line).lexically_normal().generic_string();
        if (!fs::is_regular_file(fs::path(opt.root) / normal)) continue;
        files.push_back(normal);
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

[[nodiscard]] std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw zerodeg::IoError("cannot open " + p.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (!parse_args(argc, argv, opt)) return 2;

    if (opt.list_checks) {
        for (const auto& check : zerodeg::lint::known_checks()) {
            std::cout << check.id << "  [" << to_string(check.severity) << "]  " << check.summary
                      << "\n";
        }
        return 0;
    }

    try {
        Baseline baseline;
        if (!opt.baseline_path.empty() && !opt.write_baseline) {
            if (fs::exists(opt.baseline_path)) {
                baseline = zerodeg::core::with_context(
                    "loading baseline '" + opt.baseline_path + "'",
                    [&] { return Baseline::parse(read_file(opt.baseline_path)); });
            }
        }

        std::vector<Diagnostic> fresh;  // not covered by the baseline
        std::size_t baselined = 0;
        std::size_t files_scanned = 0;
        const auto gate = [&](Diagnostic& d) {
            // Meta findings (rotten suppressions) are never baselined: an
            // unexplained, unknown-id or stale allowance must always fail.
            if (zerodeg::lint::is_baselinable_check(d.id) && baseline.contains(d)) {
                ++baselined;
                return;
            }
            fresh.push_back(std::move(d));
        };

        const std::vector<std::string> files =
            opt.changed ? collect_changed_files(opt) : collect_files(opt);
        for (const std::string& file : files) {
            ++files_scanned;
            const std::string content =
                zerodeg::core::with_context("reading " + file,
                                            [&] { return read_file(fs::path(opt.root) / file); });
            for (Diagnostic& d : zerodeg::lint::lint_source(file, content)) gate(d);
        }

        std::string architecture_report;
        if (opt.project) {
            const zerodeg::lint::ProjectModel model = zerodeg::lint::build_project_model(
                fs::path(opt.root), {"src", "tools", "bench", "tests"});
            zerodeg::lint::ProjectReport report = zerodeg::lint::analyze_project(model);
            for (Diagnostic& d : report.diagnostics) gate(d);
            architecture_report = render_architecture_report(report.graph);
            if (!opt.graph_dot_path.empty()) {
                std::ofstream dot(opt.graph_dot_path, std::ios::binary | std::ios::trunc);
                if (!dot) throw zerodeg::IoError("cannot write " + opt.graph_dot_path);
                dot << render_dot(report.graph);
            }
        }
        std::sort(fresh.begin(), fresh.end(), [](const Diagnostic& a, const Diagnostic& b) {
            if (a.file != b.file) return a.file < b.file;
            if (a.line != b.line) return a.line < b.line;
            return a.id < b.id;
        });

        if (opt.write_baseline) {
            if (opt.baseline_path.empty()) {
                std::cerr << "zerodeg_lint: --write-baseline requires --baseline FILE\n";
                return 2;
            }
            Baseline rewritten;
            for (const Diagnostic& d : fresh) {
                if (zerodeg::lint::is_baselinable_check(d.id)) rewritten.add(d);
            }
            std::ofstream out(opt.baseline_path, std::ios::binary | std::ios::trunc);
            if (!out) throw zerodeg::IoError("cannot write " + opt.baseline_path);
            out << rewritten.serialize();
            std::cout << "zerodeg_lint: wrote " << rewritten.size() << " baseline entr"
                      << (rewritten.size() == 1 ? "y" : "ies") << " to " << opt.baseline_path
                      << "\n";
            return 0;
        }

        std::size_t errors = 0;
        std::size_t warnings = 0;
        for (const Diagnostic& d : fresh) (d.severity == Severity::kError ? errors : warnings) += 1;

        if (opt.format == "json") {
            std::cout << "{\"files_scanned\":" << files_scanned << ",\"errors\":" << errors
                      << ",\"warnings\":" << warnings << ",\"baselined\":" << baselined
                      << ",\"findings\":[";
            for (std::size_t i = 0; i < fresh.size(); ++i) {
                if (i != 0) std::cout << ",";
                std::cout << "\n  " << format_diagnostic_json(fresh[i]);
            }
            std::cout << (fresh.empty() ? "" : "\n") << "]}\n";
        } else {
            for (const Diagnostic& d : fresh) std::cout << format_diagnostic(d) << "\n";
            if (!architecture_report.empty()) std::cout << architecture_report;
            std::cout << "zerodeg_lint: " << files_scanned << " files, " << errors << " error(s), "
                      << warnings << " warning(s), " << baselined << " baselined\n";
        }
        return (opt.error_on_new && errors > 0) ? 1 : 0;
    } catch (const zerodeg::Error& e) {
        std::cerr << "zerodeg_lint: [" << to_string(e.code()) << "] " << e.what() << "\n";
        return 2;
    }
}
