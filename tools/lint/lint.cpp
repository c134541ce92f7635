#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>

#include "core/error.hpp"
#include "core/rng.hpp"  // fnv1a — same fingerprint primitive the RNG streams use
#include "lint/scan.hpp"

namespace zerodeg::lint {
namespace {

// ---------------------------------------------------------------------------
// Check table
// ---------------------------------------------------------------------------

constexpr std::array<CheckInfo, 22> kChecks{{
    {"ZD001", Severity::kError,
     "banned C RNG (rand/srand): unseeded, platform-varying, not stream-isolated"},
    {"ZD002", Severity::kError,
     "std::random_device: nondeterministic entropy breaks byte-identical replays"},
    {"ZD003", Severity::kError,
     "wall-clock read (system/steady clock, time()) outside src/monitoring/ or the "
     "core::bench_clock seam"},
    {"ZD004", Severity::kError, "getenv outside tools/: hidden environment input to a sweep"},
    {"ZD005", Severity::kError,
     "unordered container iteration in a function that writes CSV/report/journal bytes"},
    {"ZD006", Severity::kError,
     "unordered reduction (std::reduce / std::execution::par / omp reduction) in float paths"},
    {"ZD007", Severity::kError,
     "raw <random> engine or distribution outside src/core/ (platform-unstable draws)"},
    {"ZD008", Severity::kError, "header missing #pragma once as its first code line"},
    {"ZD009", Severity::kError, "using namespace in a header"},
    {"ZD010", Severity::kWarning, "ErrorCode-returning function not marked [[nodiscard]]"},
    {"ZD011", Severity::kWarning,
     "value-returning arithmetic operator in a header not marked [[nodiscard]]"},
    {"ZD012", Severity::kError,
     "direct std::ofstream/fopen in a durable-writer module (src/experiment/, "
     "src/monitoring/): bypasses the core::io fault-injection seam"},
    {"ZD013", Severity::kError,
     "core::bench_clock used outside bench/ or tools/: the wall-clock timing seam is "
     "benchmark-only"},
    {"ZD014", Severity::kError,
     "raw socket/pipe/process primitive outside src/core/transport*: cross-process I/O "
     "must ride the core::Transport seam so FaultyTransport and the torture cover it"},
    {"ZD015", Severity::kError,
     "[project] include edge violates the layer DAG, or an include cycle exists"},
    {"ZD016", Severity::kError,
     "[project] RNG stream-name literal reused across files: correlated randomness"},
    {"ZD017", Severity::kError,
     "[project] bare-statement call discards a known ErrorCode-returning function"},
    {"ZD018", Severity::kError,
     "[project] non-associative float reduction (std::accumulate/std::reduce over "
     "floating accumulators) outside the core/parallel.hpp ordered-reduce seam"},
    {"ZD019", Severity::kError,
     "[project] two draws from one RngStream in one unsequenced expression (operands of "
     "+/arithmetic or arguments of one call): the draw order is up to the compiler"},
    {"ZD097", Severity::kError,
     "zerodeg-lint suppression whose line no longer triggers the allowed check"},
    {"ZD098", Severity::kError, "zerodeg-lint suppression without a reason string"},
    {"ZD099", Severity::kError, "zerodeg-lint suppression naming an unknown check id"},
}};

// ---------------------------------------------------------------------------
// ZD005 support: function regions and unordered-container tracking
// ---------------------------------------------------------------------------

struct FunctionRegion {
    std::size_t first_line = 0;  // 1-based, inclusive
    std::size_t last_line = 0;
};

/// Best-effort segmentation of a file into maximal function bodies: a `{`
/// whose preceding non-space character is `)` opens a function body unless
/// the matching `(` is preceded by a control keyword (if/for/while/switch/
/// catch).  Nested blocks and lambdas stay inside the enclosing region.
[[nodiscard]] std::vector<FunctionRegion> find_function_regions(const std::vector<Line>& lines) {
    std::string flat;
    std::vector<std::size_t> line_of;  // flat index -> 1-based line
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const char c : lines[i].code) {
            flat += c;
            line_of.push_back(i + 1);
        }
        flat += '\n';
        line_of.push_back(i + 1);
    }

    const auto prev_word = [&](std::size_t pos) -> std::string {
        // Word ending at the last non-space char before `pos`.
        std::size_t j = pos;
        while (j > 0 && std::isspace(static_cast<unsigned char>(flat[j - 1])) != 0) --j;
        std::size_t end = j;
        while (j > 0 && is_ident_char(flat[j - 1])) --j;
        return flat.substr(j, end - j);
    };

    std::vector<FunctionRegion> regions;
    int depth = 0;
    int region_open_depth = -1;
    std::size_t region_start = 0;
    for (std::size_t i = 0; i < flat.size(); ++i) {
        const char c = flat[i];
        if (c == '{') {
            if (region_open_depth < 0) {
                std::size_t j = i;
                while (j > 0 && std::isspace(static_cast<unsigned char>(flat[j - 1])) != 0) --j;
                if (j > 0 && flat[j - 1] == ')') {
                    // Walk back over the balanced parens to the word before.
                    int pdepth = 0;
                    std::size_t k = j - 1;
                    while (true) {
                        if (flat[k] == ')') ++pdepth;
                        if (flat[k] == '(' && --pdepth == 0) break;
                        if (k == 0) break;
                        --k;
                    }
                    const std::string word = prev_word(k);
                    if (word != "if" && word != "for" && word != "while" && word != "switch" &&
                        word != "catch") {
                        region_open_depth = depth;
                        region_start = line_of[i];
                    }
                }
            }
            ++depth;
        } else if (c == '}') {
            --depth;
            if (region_open_depth >= 0 && depth == region_open_depth) {
                regions.push_back({region_start, line_of[i]});
                region_open_depth = -1;
            }
        }
    }
    return regions;
}

/// Names of variables declared as std::unordered_map/std::unordered_set
/// anywhere in the file (declaration granularity is file-wide on purpose:
/// members declared in a header and iterated in the matching .cpp are the
/// common case this misses, so .cpp-local members are tracked permissively).
[[nodiscard]] std::vector<std::string> unordered_variable_names(const std::vector<Line>& lines) {
    std::vector<std::string> names;
    for (const Line& line : lines) {
        const std::string& code = line.code;
        for (const std::string_view type : {"unordered_map", "unordered_set"}) {
            for (std::size_t pos = find_token(code, type); pos != std::string_view::npos;
                 pos = find_token(code, type, pos + 1)) {
                std::size_t i = pos + type.size();
                if (i >= code.size() || code[i] != '<') continue;
                int adepth = 0;
                for (; i < code.size(); ++i) {
                    if (code[i] == '<') ++adepth;
                    if (code[i] == '>' && --adepth == 0) {
                        ++i;
                        break;
                    }
                }
                while (i < code.size() && (std::isspace(static_cast<unsigned char>(code[i])) != 0 ||
                                           code[i] == '&' || code[i] == '*'))
                    ++i;
                std::size_t start = i;
                while (i < code.size() && is_ident_char(code[i])) ++i;
                if (i > start) names.push_back(code.substr(start, i - start));
            }
        }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

/// Range-for over `var`: a `for` with a single `:` (not `::`) followed by the
/// variable token.  Counting loops whose condition mentions `var.size()` and
/// qualified names like std::size_t do not match.
[[nodiscard]] bool is_range_for_over(std::string_view code, const std::string& var) {
    const std::size_t f = find_token(code, "for");
    if (f == std::string_view::npos) return false;
    for (std::size_t i = f; i < code.size(); ++i) {
        if (code[i] != ':') continue;
        if ((i > 0 && code[i - 1] == ':') || (i + 1 < code.size() && code[i + 1] == ':')) {
            ++i;  // skip both halves of '::'
            continue;
        }
        return find_token(code.substr(i + 1), var) != std::string_view::npos;
    }
    return false;
}

/// `var.begin()` / `var.cbegin()` with a proper token boundary on `var`
/// (so `item.begin()` does not count as `m.begin()`).
[[nodiscard]] bool is_iterator_walk_over(std::string_view code, const std::string& var) {
    for (std::size_t p = find_token(code, var); p != std::string_view::npos;
         p = find_token(code, var, p + 1)) {
        const std::string_view rest = code.substr(p + var.size());
        if (rest.rfind(".begin()", 0) == 0 || rest.rfind(".cbegin()", 0) == 0) return true;
    }
    return false;
}

/// Tokens whose presence marks a function as producing output bytes that
/// must be deterministic (CSV rows, report text, journal records).
[[nodiscard]] bool is_writer_line(std::string_view code) {
    for (const std::string_view t :
         {"write_row", "write_series_csv", "CsvWriter", "ofstream", "ostream", "fprintf", "fputs",
          "journal", "Journal", "csv", "Csv", "report", "Report"}) {
        if (has_token(code, t)) return true;
    }
    return code.find(".write(") != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

struct PathTraits {
    bool is_header = false;
    bool in_monitoring = false;  // src/monitoring/: owns real-telemetry timestamps
    bool in_tools = false;       // the CLI layer: the one place getenv is policy
    bool in_core = false;        // src/core/: owns the RNG engines
    bool in_durable_module = false;  // src/experiment/ + src/monitoring/: every
                                     // durable write must use the core::io seam
    bool in_bench = false;           // bench/: the one consumer of bench_clock
    bool is_bench_clock_impl = false;  // src/core/bench_clock.*: the seam itself
    bool is_transport_impl = false;    // src/core/transport*: the one place raw
                                       // sockets/pipes are legal (ZD014)
};

[[nodiscard]] PathTraits classify(std::string_view path) {
    PathTraits t;
    t.is_header = path.ends_with(".hpp") || path.ends_with(".h");
    t.in_monitoring = path.find("src/monitoring/") != std::string_view::npos;
    t.in_tools = path.rfind("tools/", 0) == 0 || path.find("/tools/") != std::string_view::npos;
    t.in_core = path.find("src/core/") != std::string_view::npos;
    t.in_durable_module =
        t.in_monitoring || path.find("src/experiment/") != std::string_view::npos;
    t.in_bench = path.rfind("bench/", 0) == 0 || path.find("/bench/") != std::string_view::npos;
    t.is_bench_clock_impl = path.find("src/core/bench_clock.") != std::string_view::npos;
    t.is_transport_impl = path.find("src/core/transport") != std::string_view::npos;
    return t;
}

void emit(std::vector<Diagnostic>& out, std::string_view path, std::size_t line,
          std::string_view id, std::string message, std::string hint,
          const std::vector<Line>& lines) {
    Diagnostic d;
    d.file = std::string(path);
    d.line = line;
    d.id = std::string(id);
    for (const CheckInfo& c : kChecks)
        if (c.id == id) d.severity = c.severity;
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.fingerprint = line_fingerprint(lines, line);
    out.push_back(std::move(d));
}

void check_banned_tokens(std::vector<Diagnostic>& out, std::string_view path,
                         const std::vector<Line>& lines, const PathTraits& traits) {
    struct Rule {
        std::string_view token;
        std::string_view id;
        std::string_view what;
        std::string_view hint;
    };
    static const std::vector<Rule> rules = {
        {"rand", "ZD001", "C rand()", "draw from a named core::rng stream instead"},
        {"srand", "ZD001", "C srand()", "seeding is owned by the experiment config base seed"},
        {"random_device", "ZD002", "std::random_device",
         "derive seeds from the campaign base seed via core::RngStream(seed, name)"},
        {"system_clock", "ZD003", "std::chrono::system_clock",
         "simulation time comes from core::SimTime; wall clocks live in src/monitoring/ only"},
        {"steady_clock", "ZD003", "std::chrono::steady_clock",
         "simulation time comes from core::SimTime; wall clocks live in src/monitoring/ only"},
        {"high_resolution_clock", "ZD003", "std::chrono::high_resolution_clock",
         "simulation time comes from core::SimTime; wall clocks live in src/monitoring/ only"},
        {"clock_gettime", "ZD003", "clock_gettime()",
         "simulation time comes from core::SimTime; wall clocks live in src/monitoring/ only"},
        {"gettimeofday", "ZD003", "gettimeofday()",
         "simulation time comes from core::SimTime; wall clocks live in src/monitoring/ only"},
        {"localtime", "ZD003", "localtime()",
         "timestamps must be derived from core::SimTime, not the host clock/timezone"},
        {"gmtime", "ZD003", "gmtime()",
         "timestamps must be derived from core::SimTime, not the host clock/timezone"},
        {"getenv", "ZD004", "getenv()",
         "environment input is only read by the CLI layer (tools/), then passed down explicitly"},
        {"mt19937", "ZD007", "std::mt19937", "all draws go through named core::rng streams"},
        {"mt19937_64", "ZD007", "std::mt19937_64", "all draws go through named core::rng streams"},
        {"minstd_rand", "ZD007", "std::minstd_rand", "all draws go through named core::rng streams"},
        {"minstd_rand0", "ZD007", "std::minstd_rand0",
         "all draws go through named core::rng streams"},
        {"default_random_engine", "ZD007", "std::default_random_engine",
         "all draws go through named core::rng streams"},
        {"uniform_int_distribution", "ZD007", "std::uniform_int_distribution",
         "libstdc++ distributions are platform-unstable; use RngStream::uniform_int"},
        {"uniform_real_distribution", "ZD007", "std::uniform_real_distribution",
         "libstdc++ distributions are platform-unstable; use RngStream::uniform"},
        {"normal_distribution", "ZD007", "std::normal_distribution",
         "libstdc++ distributions are platform-unstable; use RngStream::normal"},
        {"poisson_distribution", "ZD007", "std::poisson_distribution",
         "libstdc++ distributions are platform-unstable; use RngStream::poisson"},
        {"exponential_distribution", "ZD007", "std::exponential_distribution",
         "libstdc++ distributions are platform-unstable; use RngStream::exponential"},
        {"std::reduce", "ZD006", "std::reduce",
         "reduction order must be fixed: use the ordered reduce in core/parallel.hpp"},
        {"std::transform_reduce", "ZD006", "std::transform_reduce",
         "reduction order must be fixed: use the ordered reduce in core/parallel.hpp"},
        {"std::execution::par", "ZD006", "std::execution::par",
         "parallelism goes through core::TaskPool with seed-sharded cells and ordered reduce"},
        {"bench_clock", "ZD013", "core::bench_clock",
         "benchmark timing lives under bench/ and tools/ only; simulation code must stay "
         "wall-clock free"},
        {"std::execution::par_unseq", "ZD006", "std::execution::par_unseq",
         "parallelism goes through core::TaskPool with seed-sharded cells and ordered reduce"},
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        std::vector<std::string_view> hit_ids;  // one diagnostic per id per line
        for (const Rule& r : rules) {
            if (r.id == "ZD003" && (traits.in_monitoring || traits.is_bench_clock_impl)) {
                continue;  // bench_clock.cpp IS the sanctioned steady_clock read
            }
            if (r.id == "ZD004" && traits.in_tools) continue;
            if (r.id == "ZD007" && traits.in_core) continue;
            if (r.id == "ZD013" &&
                (traits.in_bench || traits.in_tools || traits.is_bench_clock_impl)) {
                continue;  // the seam and its sanctioned consumers
            }
            std::size_t pos;
            if (r.token.find("::") != std::string_view::npos) {
                pos = code.find(r.token);
                if (pos != std::string::npos && pos + r.token.size() < code.size() &&
                    is_ident_char(code[pos + r.token.size()]))
                    pos = std::string::npos;  // e.g. std::execution::par vs ..::par_unseq
            } else {
                pos = find_token(code, r.token);
            }
            if (pos == std::string::npos) continue;
            // Bare C `time(...)`: only the unmistakable spellings.
            if (std::find(hit_ids.begin(), hit_ids.end(), r.id) != hit_ids.end()) continue;
            hit_ids.push_back(r.id);
            emit(out, path, i + 1, r.id, std::string(r.what) + " is banned here",
                 std::string(r.hint), lines);
        }
        // `time(0)` / `time(NULL)` / `time(nullptr)` / `::time(` — too easy to
        // confuse with project methods named time() to ban the bare token.
        if (!traits.in_monitoring &&
            std::find(hit_ids.begin(), hit_ids.end(), "ZD003") == hit_ids.end()) {
            for (const std::string_view spelling :
                 {"time(0)", "time(NULL)", "time(nullptr)", "::time("}) {
                const std::size_t pos = code.find(spelling);
                if (pos == std::string::npos) continue;
                if (spelling[0] != ':' && pos > 0 &&
                    (is_ident_char(code[pos - 1]) || code[pos - 1] == '.')) {
                    continue;  // foo.time(0) / sim_time(0) are project API calls
                }
                emit(out, path, i + 1, "ZD003", "C time() is banned here",
                     "simulation time comes from core::SimTime; wall clocks live in "
                     "src/monitoring/ only",
                     lines);
                break;
            }
        }
        // `#pragma omp ... reduction(...)` — unordered float reduction.
        if (code.find("#pragma") != std::string::npos && has_token(code, "omp") &&
            code.find("reduction(") != std::string::npos) {
            emit(out, path, i + 1, "ZD006", "OpenMP reduction is banned here",
                 "reduction order must be fixed: use the ordered reduce in core/parallel.hpp",
                 lines);
        }
    }
}

/// ZD014: raw cross-process primitives — BSD sockets, pipes, popen, fork/exec
/// — are legal only inside src/core/transport* (the seam's own
/// implementation).  Everywhere else they escape FaultyTransport's fault
/// schedules and the cross-process torture, exactly as a raw ofstream
/// escapes the core::io seam (ZD012).  Call-spelling matching (`socket(`,
/// `pipe(`, ...) keeps variables like `socket_path` and flags like
/// `--socket` (a string literal, blanked by the lexer) out of scope.
void check_raw_ipc(std::vector<Diagnostic>& out, std::string_view path,
                   const std::vector<Line>& lines, const PathTraits& traits) {
    if (traits.is_transport_impl) return;
    // Functions: the token must be followed directly by '('.
    static constexpr std::array<std::string_view, 15> kCalls{
        "socket",  "socketpair", "pipe",  "pipe2", "mkfifo", "popen",  "pclose", "fork",
        "vfork",   "execv",      "execve", "execvp", "execl",  "execlp", "execle",
    };
    // Types/constants: any token-boundary use counts.
    static constexpr std::array<std::string_view, 5> kNames{
        "AF_UNIX", "AF_INET", "SOCK_STREAM", "sockaddr_un", "sockaddr_in",
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        bool hit = false;
        for (const std::string_view fn : kCalls) {
            for (std::size_t pos = find_token(code, fn); pos != std::string_view::npos;
                 pos = find_token(code, fn, pos + 1)) {
                if (pos + fn.size() < code.size() && code[pos + fn.size()] == '(') {
                    emit(out, path, i + 1, "ZD014",
                         "raw " + std::string(fn) + "() outside the transport seam",
                         "open links via core::transport (connect_unix / listen_unix / "
                         "make_loopback_pair) so fault injection and the cross-process "
                         "torture cover this I/O",
                         lines);
                    hit = true;
                    break;
                }
            }
            if (hit) break;
        }
        if (hit) continue;
        for (const std::string_view name : kNames) {
            if (!has_token(code, name)) continue;
            emit(out, path, i + 1, "ZD014",
                 "raw socket identifier '" + std::string(name) + "' outside the transport seam",
                 "socket-level details belong to src/core/transport_unix.cpp; talk to peers "
                 "through the core::Transport interface",
                 lines);
            break;
        }
    }
}

/// ZD012: writers in src/experiment/ and src/monitoring/ produce the files
/// that must survive crashes (journals, figure CSVs, telemetry dumps), so a
/// direct std::ofstream or fopen there silently escapes fault injection and
/// the crash-consistency torture.  Route writes through core::FileSystem
/// (write_file_durable / replace_file_atomic) instead; reads may use
/// ifstream, which stays legal.
void check_durable_writer_seam(std::vector<Diagnostic>& out, std::string_view path,
                               const std::vector<Line>& lines, const PathTraits& traits) {
    if (!traits.in_durable_module) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        for (const std::string_view token : {"ofstream", "fopen"}) {
            if (!has_token(code, token)) continue;
            emit(out, path, i + 1, "ZD012",
                 "direct " + std::string(token) + " in a durable-writer module",
                 "write through core::FileSystem (write_file_durable / replace_file_atomic) "
                 "so fault injection and the torture harness cover this file",
                 lines);
            break;  // one diagnostic per line is enough
        }
    }
}

void check_unordered_iteration(std::vector<Diagnostic>& out, std::string_view path,
                               const std::vector<Line>& lines) {
    const std::vector<std::string> vars = unordered_variable_names(lines);
    if (vars.empty()) return;
    const std::vector<FunctionRegion> regions = find_function_regions(lines);
    for (const FunctionRegion& region : regions) {
        bool writer = false;
        for (std::size_t l = region.first_line; l <= region.last_line; ++l)
            if (is_writer_line(lines[l - 1].code)) writer = true;
        for (std::size_t l = region.first_line; l <= region.last_line; ++l) {
            const std::string& code = lines[l - 1].code;
            for (const std::string& var : vars) {
                if (!is_range_for_over(code, var) && !is_iterator_walk_over(code, var)) continue;
                if (writer) {
                    emit(out, path, l, "ZD005",
                         "iterating unordered container '" + var +
                             "' in a function that writes output bytes",
                         "copy keys into a sorted vector (or use std::map) before emitting "
                         "CSV/report/journal rows — hash order is not stable",
                         lines);
                } else {
                    emit(out, path, l, "ZD005",
                         "iterating unordered container '" + var + "' (hash order)",
                         "no output write detected in this function, but hash-order iteration "
                         "is still nondeterministic across libstdc++ versions",
                         lines);
                    out.back().severity = Severity::kWarning;
                }
                break;  // one diagnostic per line is enough
            }
        }
    }
}

void check_header_hygiene(std::vector<Diagnostic>& out, std::string_view path,
                          const std::vector<Line>& lines, const PathTraits& traits) {
    if (!traits.is_header) return;
    bool saw_code = false;
    bool pragma_first = false;
    std::size_t first_code_line = 1;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string trimmed = strip_ws(lines[i].code);
        if (trimmed.empty()) continue;
        saw_code = true;
        first_code_line = i + 1;
        pragma_first = trimmed == "#pragmaonce";
        break;
    }
    if (saw_code && !pragma_first) {
        emit(out, path, first_code_line, "ZD008",
             "header does not start with #pragma once",
             "make #pragma once the first code line (comments above it are fine)", lines);
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (has_token(lines[i].code, "using") && has_token(lines[i].code, "namespace") &&
            lines[i].code.find("using") < lines[i].code.find("namespace")) {
            emit(out, path, i + 1, "ZD009", "using namespace in a header leaks into every includer",
                 "qualify names or scope the using-declaration inside a function body", lines);
        }
    }
}

void check_nodiscard_error_code(std::vector<Diagnostic>& out, std::string_view path,
                                const std::vector<Line>& lines) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        for (std::size_t pos = find_token(code, "ErrorCode"); pos != std::string::npos;
             pos = find_token(code, "ErrorCode", pos + 1)) {
            // Must look like a return type: `ErrorCode name(`.
            std::size_t j = pos + 9;
            while (j < code.size() && std::isspace(static_cast<unsigned char>(code[j])) != 0) ++j;
            std::size_t name_start = j;
            while (j < code.size() && is_ident_char(code[j])) ++j;
            if (j == name_start) continue;
            std::size_t k = j;
            while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k])) != 0) ++k;
            if (k >= code.size() || code[k] != '(') continue;
            // Exclude parameters/templates: previous meaningful char of `(,<`
            // and the `enum class ErrorCode` declaration itself.
            std::size_t b = pos;
            while (b > 0 && (std::isspace(static_cast<unsigned char>(code[b - 1])) != 0 ||
                             code[b - 1] == ':'))
                --b;
            if (b > 0 && (code[b - 1] == '(' || code[b - 1] == ',' || code[b - 1] == '<')) continue;
            const std::string before = code.substr(0, pos);
            const std::string prev = i > 0 ? lines[i - 1].code : std::string();
            if (before.find("[[nodiscard]]") != std::string::npos ||
                prev.find("[[nodiscard]]") != std::string::npos)
                continue;
            if (has_token(before, "enum") || has_token(before, "class")) continue;
            emit(out, path, i + 1, "ZD010",
                 "function returning ErrorCode should be [[nodiscard]]",
                 "a dropped ErrorCode silently swallows a failure; mark the declaration "
                 "[[nodiscard]]",
                 lines);
        }
    }
}

/// ZD011: `Derived operator+(...)` and friends in headers.  Dropping the
/// result of unit/time arithmetic is always a bug (the operand is untouched),
/// so the whole strong-types layer marks these [[nodiscard]]; this keeps new
/// operators honest.  Reference-returning operators (compound assignment,
/// dereference) are exempt.
void check_nodiscard_operators(std::vector<Diagnostic>& out, std::string_view path,
                               const std::vector<Line>& lines, const PathTraits& traits) {
    if (!traits.is_header) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        const std::size_t pos = find_token(code, "operator");
        if (pos == std::string::npos) continue;
        const std::size_t j = pos + 8;
        if (j + 1 >= code.size()) continue;
        const char op = code[j];
        if (op != '+' && op != '-' && op != '*' && op != '/') continue;
        if (code[j + 1] != '(') continue;  // skips +=, ->, <=>, etc.
        const std::string before = code.substr(0, pos);
        if (before.find('&') != std::string::npos) continue;  // returns a reference
        const std::string prev = i > 0 ? lines[i - 1].code : std::string();
        if (before.find("[[nodiscard]]") != std::string::npos ||
            prev.find("[[nodiscard]]") != std::string::npos)
            continue;
        emit(out, path, i + 1, "ZD011",
             "value-returning operator" + std::string(1, op) + " should be [[nodiscard]]",
             "discarding the result of unit/time arithmetic is always a bug; mark the "
             "operator [[nodiscard]]",
             lines);
    }
}

}  // namespace

const std::vector<CheckInfo>& known_checks() {
    static const std::vector<CheckInfo> checks(kChecks.begin(), kChecks.end());
    return checks;
}

bool is_known_check(std::string_view id) {
    for (const CheckInfo& c : kChecks)
        if (c.id == id) return true;
    return false;
}

bool is_project_check(std::string_view id) {
    return id == "ZD015" || id == "ZD016" || id == "ZD017" || id == "ZD018" || id == "ZD019";
}

bool is_baselinable_check(std::string_view id) {
    return id != "ZD097" && id != "ZD098" && id != "ZD099";
}

std::vector<Diagnostic> lint_source(std::string_view path, std::string_view content) {
    const std::vector<Line> lines = lex(content).lines;
    const PathTraits traits = classify(path);

    std::vector<Diagnostic> all;
    check_banned_tokens(all, path, lines, traits);
    check_raw_ipc(all, path, lines, traits);
    check_durable_writer_seam(all, path, lines, traits);
    check_unordered_iteration(all, path, lines);
    check_header_hygiene(all, path, lines, traits);
    check_nodiscard_error_code(all, path, lines);
    check_nodiscard_operators(all, path, lines, traits);

    // Apply suppressions, and lint the suppressions themselves.
    const std::vector<Suppression> sups = parse_suppressions(lines);
    std::vector<Diagnostic> out;
    for (Diagnostic& d : all) {
        bool suppressed = false;
        for (const Suppression& s : sups) {
            if (s.target_line != d.line || !s.has_reason) continue;
            if (std::find(s.ids.begin(), s.ids.end(), d.id) != s.ids.end()) suppressed = true;
        }
        if (!suppressed) out.push_back(std::move(d));
    }
    for (const Suppression& s : sups) {
        if (!s.has_reason) {
            emit(out, path, s.comment_line, "ZD098",
                 "suppression has no reason text",
                 "write `// zerodeg-lint: allow(ZDxxx): <why this site is safe>`", lines);
        }
        for (const std::string& id : s.ids) {
            if (!is_known_check(id)) {
                emit(out, path, s.comment_line, "ZD099",
                     "suppression names unknown check id '" + id + "'",
                     "run zerodeg_lint --list-checks for the valid ids", lines);
                continue;
            }
            // ZD097: a reasoned allowance for a per-file check that its
            // target line no longer triggers is a stale waiver.  Project-mode
            // ids (ZD015-ZD019) are judged by the project analyzer, which is
            // the only pass that can see whether they fire.
            if (!s.has_reason || is_project_check(id)) continue;
            const bool used = std::any_of(all.begin(), all.end(), [&](const Diagnostic& d) {
                return d.line == s.target_line && d.id == id;
            });
            if (!used) {
                emit(out, path, s.comment_line, "ZD097",
                     "suppression allows " + id + " but its line no longer triggers that check",
                     "delete the stale `allow(" + id + ")` (or re-point it at the offending "
                     "line) so waivers cannot outlive the code they excused",
                     lines);
            }
        }
    }
    std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
        if (a.line != b.line) return a.line < b.line;
        return a.id < b.id;
    });
    return out;
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

namespace {
[[nodiscard]] std::string hex16(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return s;
}

[[nodiscard]] std::string baseline_key(const Diagnostic& d) {
    return d.id + " " + hex16(d.fingerprint) + " " + d.file;
}
}  // namespace

Baseline Baseline::parse(std::string_view text) {
    Baseline b;
    std::size_t line_no = 0;
    std::stringstream ss{std::string(text)};
    std::string line;
    while (std::getline(ss, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty() || line[0] == '#') continue;
        std::stringstream fields(line);
        std::string id, fp, file;
        if (!(fields >> id >> fp >> file) || !is_known_check(id) || fp.size() != 16) {
            throw core::ParseError("malformed baseline entry '" + line + "'", line_no);
        }
        b.entries_.push_back(id + " " + fp + " " + file);
    }
    std::sort(b.entries_.begin(), b.entries_.end());
    b.entries_.erase(std::unique(b.entries_.begin(), b.entries_.end()), b.entries_.end());
    return b;
}

void Baseline::add(const Diagnostic& d) {
    const std::string key = baseline_key(d);
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), key);
    if (it == entries_.end() || *it != key) entries_.insert(it, key);
}

bool Baseline::contains(const Diagnostic& d) const {
    return std::binary_search(entries_.begin(), entries_.end(), baseline_key(d));
}

std::string Baseline::serialize() const {
    std::string out =
        "# zerodeg_lint baseline: accepted pre-existing findings.\n"
        "# Format: <check-id> <line-fingerprint> <file>.  Regenerate with\n"
        "# `zerodeg_lint --write-baseline` after deliberate, reviewed changes.\n";
    for (const std::string& e : entries_) {
        out += e;
        out += '\n';
    }
    return out;
}

std::string format_diagnostic(const Diagnostic& d) {
    std::string out = d.file + ":" + std::to_string(d.line) + ": [" + d.id + "][" +
                      to_string(d.severity) + "] " + d.message;
    if (!d.hint.empty()) out += "\n    hint: " + d.hint;
    return out;
}

namespace {
[[nodiscard]] std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static const char* digits = "0123456789abcdef";
                    out += "\\u00";
                    out += digits[(c >> 4) & 0xF];
                    out += digits[c & 0xF];
                } else {
                    out += c;
                }
        }
    }
    return out;
}
}  // namespace

std::string format_diagnostic_json(const Diagnostic& d) {
    std::string out = "{\"file\":\"" + json_escape(d.file) + "\",";
    out += "\"line\":" + std::to_string(d.line) + ",";
    out += "\"id\":\"" + json_escape(d.id) + "\",";
    out += "\"severity\":\"" + std::string(to_string(d.severity)) + "\",";
    out += "\"message\":\"" + json_escape(d.message) + "\"";
    if (!d.hint.empty()) out += ",\"hint\":\"" + json_escape(d.hint) + "\"";
    out += "}";
    return out;
}

}  // namespace zerodeg::lint
