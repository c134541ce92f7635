#include "lint/project.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/error.hpp"

namespace fs = std::filesystem;

namespace zerodeg::lint {
namespace {

// ---------------------------------------------------------------------------
// Flattened code view: the code channels joined by '\n', with a map back to
// 1-based line numbers.  Multi-line constructs (a RngStream{...} spanning two
// lines, a statement wrapped by clang-format) become contiguous text.
// ---------------------------------------------------------------------------

struct FlatCode {
    std::string text;
    std::vector<std::size_t> line_of;      ///< text index -> 1-based line
    std::vector<std::size_t> line_start;   ///< 1-based line -> text index of col 0
};

[[nodiscard]] FlatCode flatten(const std::vector<Line>& lines) {
    FlatCode flat;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        flat.line_start.push_back(flat.text.size());
        for (const char c : lines[i].code) {
            flat.text += c;
            flat.line_of.push_back(i + 1);
        }
        flat.text += '\n';
        flat.line_of.push_back(i + 1);
    }
    return flat;
}

[[nodiscard]] std::size_t skip_ws(std::string_view s, std::size_t i) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) ++i;
    return i;
}

/// End index (exclusive) of the balanced (paren + brace) span opened at
/// `open` (s[open] must be '(' or '{').  Returns npos if unbalanced.
[[nodiscard]] std::size_t balanced_end(std::string_view s, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(' || c == '{') ++depth;
        if (c == ')' || c == '}') {
            if (--depth == 0) return i + 1;
        }
    }
    return std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Pass-1 extractors
// ---------------------------------------------------------------------------

void extract_includes(FileScan& out, const std::vector<Line>& lines,
                      const std::vector<StringLiteral>& literals) {
    // The lexer blanks literal interiors out of the code channel, so the
    // include target is read back from the recorded literal on that line.
    // Angle-bracket includes carry no literal and are deliberately skipped:
    // the DAG constrains the project's own headers, not the standard library.
    std::map<std::size_t, const StringLiteral*> first_literal_on_line;
    for (const StringLiteral& lit : literals) first_literal_on_line.try_emplace(lit.line, &lit);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string stripped = strip_ws(lines[i].code);
        if (stripped.rfind("#include", 0) != 0) continue;
        const auto it = first_literal_on_line.find(i + 1);
        if (it == first_literal_on_line.end() || it->second->text.empty()) continue;
        out.includes.push_back({i + 1, it->second->text, std::string()});
    }
}

void extract_streams(FileScan& out, const FlatCode& flat,
                     const std::vector<StringLiteral>& literals) {
    // core::RngStream{seed, "name"} / RngStream(seed, "name") /
    // RngStream var(seed, "name") — any construction whose balanced argument
    // span contains a string literal keys that stream name.  Constructions
    // fed a variable name carry no literal and are invisible here, which is
    // why helpers that forward a name parameter must be inlined (the literal
    // has to be spelled at the construction site to be auditable).
    std::vector<std::size_t> literal_pos;  // flat index of each literal's body
    for (const StringLiteral& lit : literals) {
        literal_pos.push_back(flat.line_start[lit.line - 1] + lit.col);
    }
    const std::string_view text = flat.text;
    for (std::size_t pos = find_token(text, "RngStream"); pos != std::string_view::npos;
         pos = find_token(text, "RngStream", pos + 1)) {
        std::size_t i = skip_ws(text, pos + 9);
        if (i < text.size() && is_ident_char(text[i])) {
            // `RngStream var(seed, "name")` declarator form: skip the name.
            while (i < text.size() && is_ident_char(text[i])) ++i;
            i = skip_ws(text, i);
        }
        if (i >= text.size() || (text[i] != '(' && text[i] != '{')) continue;
        const std::size_t end = balanced_end(text, i);
        if (end == std::string_view::npos) continue;
        for (std::size_t k = 0; k < literal_pos.size(); ++k) {
            if (literal_pos[k] > i && literal_pos[k] < end) {
                out.streams.push_back({literals[k].line, literals[k].text});
                break;  // the first literal in the span is the stream name
            }
        }
    }
}

void extract_error_fns(FileScan& out, const std::vector<Line>& lines) {
    // `ErrorCode name(` at declaration position — same shape test as the
    // per-file ZD010 check, but collecting names instead of judging
    // [[nodiscard]].
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        for (std::size_t pos = find_token(code, "ErrorCode"); pos != std::string::npos;
             pos = find_token(code, "ErrorCode", pos + 1)) {
            std::size_t j = pos + 9;
            while (j < code.size() && std::isspace(static_cast<unsigned char>(code[j])) != 0) ++j;
            const std::size_t name_start = j;
            while (j < code.size() && is_ident_char(code[j])) ++j;
            if (j == name_start) continue;
            std::size_t k = j;
            while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k])) != 0) ++k;
            if (k >= code.size() || code[k] != '(') continue;
            std::size_t b = pos;
            while (b > 0 && (std::isspace(static_cast<unsigned char>(code[b - 1])) != 0 ||
                             code[b - 1] == ':'))
                --b;
            if (b > 0 && (code[b - 1] == '(' || code[b - 1] == ',' || code[b - 1] == '<')) continue;
            const std::string before = code.substr(0, pos);
            if (has_token(before, "enum") || has_token(before, "class")) continue;
            out.error_fns.push_back({i + 1, code.substr(name_start, j - name_start)});
        }
    }
}

void extract_bare_calls(FileScan& out, const FlatCode& flat) {
    // Statements are the maximal spans between `;`/`{`/`}` at paren depth 0;
    // only the `;`-terminated ones can be expression statements.  A statement
    // that is exactly `ident((::|.|->)ident)* ( args )` is a call whose value
    // hits the floor — `return f()`, `x = f()`, `(void)f()` and `if (...)`
    // all fail the shape test by construction.
    const std::string_view text = flat.text;
    const auto analyze = [&](std::size_t begin, std::size_t stmt_end) {
        std::size_t i = skip_ws(text, begin);
        // Preprocessor directives are not statements; drop any leading ones
        // so `#endif` glued to the next real statement doesn't mask it.
        while (i < stmt_end && text[i] == '#') {
            while (i < stmt_end && text[i] != '\n') ++i;
            i = skip_ws(text, i);
        }
        std::size_t ident_start = i;
        while (i < stmt_end && is_ident_char(text[i])) ++i;
        if (i == ident_start) return;
        std::string callee(text.substr(ident_start, i - ident_start));
        while (true) {
            i = skip_ws(text, i);
            if (i >= stmt_end) return;
            if (text.compare(i, 2, "::") == 0 || text.compare(i, 2, "->") == 0) {
                i += 2;
            } else if (text[i] == '.') {
                i += 1;
            } else if (text[i] == '(') {
                const std::size_t end = balanced_end(text, i);
                if (end == std::string_view::npos || end > stmt_end) return;
                if (skip_ws(text, end) != stmt_end) return;  // trailing tokens
                out.bare_calls.push_back({flat.line_of[ident_start], std::move(callee)});
                return;
            } else {
                return;
            }
            i = skip_ws(text, i);
            ident_start = i;
            while (i < stmt_end && is_ident_char(text[i])) ++i;
            if (i == ident_start) return;
            callee.assign(text.substr(ident_start, i - ident_start));
        }
    };
    std::size_t stmt_start = 0;
    int pdepth = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '(') ++pdepth;
        if (c == ')') --pdepth;
        if (pdepth != 0 || (c != ';' && c != '{' && c != '}')) continue;
        if (c == ';') analyze(stmt_start, i);
        stmt_start = i + 1;
    }
}

void extract_reductions(FileScan& out, const FlatCode& flat) {
    const std::string_view text = flat.text;
    for (const std::string_view spelling : {"std::accumulate", "std::reduce"}) {
        for (std::size_t pos = text.find(spelling); pos != std::string_view::npos;
             pos = text.find(spelling, pos + 1)) {
            if (pos > 0 && (is_ident_char(text[pos - 1]) || text[pos - 1] == ':')) continue;
            const std::size_t after = pos + spelling.size();
            if (after < text.size() && is_ident_char(text[after])) continue;
            const std::size_t open = skip_ws(text, after);
            if (open >= text.size() || text[open] != '(') continue;
            const std::size_t end = balanced_end(text, open);
            if (end == std::string_view::npos) continue;
            const std::string_view span = text.substr(open, end - open);
            bool floaty = has_token(span, "float") || has_token(span, "double");
            for (std::size_t k = 0; !floaty && k + 1 < span.size(); ++k) {
                floaty = std::isdigit(static_cast<unsigned char>(span[k])) != 0 &&
                         span[k + 1] == '.';
            }
            if (!floaty) continue;
            out.reductions.push_back({flat.line_of[pos], std::string(spelling)});
        }
    }
    std::sort(out.reductions.begin(), out.reductions.end(),
              [](const FloatReduction& a, const FloatReduction& b) { return a.line < b.line; });
}

void extract_rng_names(FileScan& out, const FlatCode& flat) {
    // `RngStream name`, `RngStream& name`, `const RngStream* name`: members,
    // locals and parameters alike.  A function returning a stream is recorded
    // too; it is never drawn from by name, so it is harmless.
    const std::string_view text = flat.text;
    for (std::size_t pos = find_token(text, "RngStream"); pos != std::string_view::npos;
         pos = find_token(text, "RngStream", pos + 1)) {
        std::size_t i = pos + 9;
        while (true) {
            i = skip_ws(text, i);
            if (i < text.size() && (text[i] == '&' || text[i] == '*')) {
                ++i;
            } else if (text.compare(i, 5, "const") == 0 && i + 5 < text.size() &&
                       !is_ident_char(text[i + 5])) {
                i += 5;
            } else {
                break;
            }
        }
        const std::size_t start = i;
        while (i < text.size() && is_ident_char(text[i])) ++i;
        if (i > start) out.rng_names.emplace_back(text.substr(start, i - start));
    }
    std::sort(out.rng_names.begin(), out.rng_names.end());
    out.rng_names.erase(std::unique(out.rng_names.begin(), out.rng_names.end()),
                        out.rng_names.end());
}

/// Bracket structure of one full-expression: for every position, the
/// innermost open bracket strictly enclosing it, and its nesting depth.
struct Brackets {
    static constexpr std::size_t kNone = std::string_view::npos;
    std::vector<std::size_t> enclosing;  ///< innermost open bracket, or kNone
    std::vector<int> depth;
    std::vector<std::size_t> close;      ///< for an open bracket: its match
};

[[nodiscard]] Brackets scan_brackets(std::string_view expr) {
    Brackets b;
    b.enclosing.assign(expr.size(), Brackets::kNone);
    b.depth.assign(expr.size(), 0);
    b.close.assign(expr.size(), expr.size());
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < expr.size(); ++i) {
        const char c = expr[i];
        if ((c == ')' || c == ']' || c == '}') && !open.empty()) {
            b.close[open.back()] = i;
            open.pop_back();
        }
        b.enclosing[i] = open.empty() ? Brackets::kNone : open.back();
        b.depth[i] = static_cast<int>(open.size());
        if (c == '(' || c == '[' || c == '{') open.push_back(i);
    }
    return b;
}

[[nodiscard]] std::size_t prev_significant(std::string_view s, std::size_t i) {
    while (i > 0) {
        --i;
        if (std::isspace(static_cast<unsigned char>(s[i])) == 0) return i;
    }
    return std::string_view::npos;
}

/// True when the `(` at `open` starts a call's argument list rather than a
/// parenthesised expression or a control statement's condition.
[[nodiscard]] bool is_call_paren(std::string_view expr, std::size_t open) {
    const std::size_t p = prev_significant(expr, open);
    if (p == std::string_view::npos) return false;
    const char c = expr[p];
    if (c == ')' || c == ']' || c == '>') return true;
    if (!is_ident_char(c)) return false;
    std::size_t start = p;
    while (start > 0 && is_ident_char(expr[start - 1])) --start;
    const std::string_view word = expr.substr(start, p + 1 - start);
    for (const std::string_view keyword :
         {"if", "while", "for", "switch", "return", "catch", "sizeof", "decltype", "case",
          "throw", "and", "or", "not"}) {
        if (word == keyword) return false;
    }
    return std::isdigit(static_cast<unsigned char>(expr[start])) == 0;
}

struct DrawSpan {
    std::size_t begin = 0;  ///< inclusive
    std::size_t end = 0;    ///< exclusive
    bool operator==(const DrawSpan&) const = default;
};

/// Binding strength of a binary operator (higher binds tighter), or -1 for
/// a token that is not one.  `sequenced` is set for the operators whose left
/// operand is evaluated before their right one: `,` `;` `=` (and compound
/// assignment) `?:` `&&` `||` `<<` `>>`.
[[nodiscard]] int binary_precedence(std::string_view op, bool& sequenced) {
    struct Entry {
        std::string_view op;
        int precedence;
        bool sequenced;
    };
    static constexpr Entry kTable[] = {
        {";", 0, true},   {",", 1, true},   {"=", 2, true},   {"+=", 2, true},
        {"-=", 2, true},  {"*=", 2, true},  {"/=", 2, true},  {"%=", 2, true},
        {"&=", 2, true},  {"|=", 2, true},  {"^=", 2, true},  {"<<=", 2, true},
        {">>=", 2, true}, {"?", 2, true},   {":", 2, true},   {"||", 3, true},
        {"&&", 4, true},  {"|", 5, false},  {"^", 6, false},  {"&", 7, false},
        {"==", 8, false}, {"!=", 8, false}, {"<", 9, false},  {">", 9, false},
        {"<=", 9, false}, {">=", 9, false}, {"<=>", 9, false}, {"<<", 10, true},
        {">>", 10, true}, {"+", 11, false}, {"-", 11, false}, {"*", 12, false},
        {"/", 12, false}, {"%", 12, false},
    };
    for (const Entry& e : kTable) {
        if (e.op == op) {
            sequenced = e.sequenced;
            return e.precedence;
        }
    }
    return -1;
}

/// The operator spelled at `i` (longest match), or an empty view.
[[nodiscard]] std::string_view operator_at(std::string_view s, std::size_t i) {
    static constexpr std::string_view kOps[] = {
        "<<=", ">>=", "<=>", "->*", "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
        "!=",  "&&",  "||",  "+=",  "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*", "+",
        "-",   "*",   "/",   "%",   "<",  ">",  "&",  "|",  "^",  "=",  "?",  ":",  ",",
        ";",   "!",   "~",   ".",
    };
    for (const std::string_view op : kOps) {
        if (s.compare(i, op.size(), op) == 0) return op;
    }
    return {};
}

/// Whether the draws `a` and `b` (a before b, disjoint) in `expr` may be
/// evaluated in either order.
[[nodiscard]] bool draws_unsequenced(std::string_view expr, const Brackets& br, DrawSpan a,
                                     DrawSpan b) {
    // The innermost bracket enclosing both draws.
    std::vector<std::size_t> a_chain;
    for (std::size_t o = br.enclosing[a.begin]; o != Brackets::kNone; o = br.enclosing[o]) {
        a_chain.push_back(o);
    }
    std::size_t common = Brackets::kNone;
    for (std::size_t o = br.enclosing[b.begin]; o != Brackets::kNone; o = br.enclosing[o]) {
        if (std::find(a_chain.begin(), a_chain.end(), o) != a_chain.end()) {
            common = o;
            break;
        }
    }
    if (common != Brackets::kNone && expr[common] == '{') return false;  // init list
    const int region_depth = common == Brackets::kNone ? 0 : br.depth[common] + 1;
    if (common != Brackets::kNone && expr[common] == '(' && is_call_paren(expr, common)) {
        for (std::size_t i = a.end; i < b.begin; ++i) {
            if (br.depth[i] == region_depth && expr[i] == ',') return true;  // two arguments
        }
    }
    // One operand chain: the loosest-binding binary operator between the two
    // draws is the one whose operands they are.
    int loosest = 100;
    bool loosest_sequenced = true;
    bool after_operand = true;  // the operand holding `a`
    for (std::size_t i = a.end; i < b.begin;) {
        const char c = expr[i];
        if (br.depth[i] != region_depth || std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        if (c == '(' || c == '[' || c == '{') {
            i = br.close[i] + 1;
            after_operand = true;
            continue;
        }
        if (is_ident_char(c)) {
            while (i < b.begin && is_ident_char(expr[i])) ++i;
            // Template arguments: `name<...>` straight before `(`, `{` or `::`.
            if (i < b.begin && expr[i] == '<') {
                std::size_t k = i;
                int angle = 0;
                for (; k < b.begin; ++k) {
                    if (expr[k] == '<') ++angle;
                    if (expr[k] == '>' && --angle == 0) break;
                    if (expr[k] == ';' || expr[k] == '{' || expr[k] == '&' || expr[k] == '|') {
                        k = b.begin;
                    }
                }
                const std::size_t next = k < b.begin ? skip_ws(expr, k + 1) : b.begin;
                if (next < b.begin && (expr[next] == '(' || expr[next] == '{' ||
                                       expr.compare(next, 2, "::") == 0)) {
                    i = k + 1;
                }
            }
            after_operand = true;
            continue;
        }
        const std::string_view op = operator_at(expr, i);
        if (op.empty()) {
            ++i;
            continue;
        }
        i += op.size();
        if (op == "::" || op == "." || op == "->" || op == ".*" || op == "->*") {
            after_operand = false;  // a member name follows
            continue;
        }
        if (op == "++" || op == "--" || op == "!" || op == "~" || !after_operand) continue;
        bool sequenced = false;
        const int precedence = binary_precedence(op, sequenced);
        if (precedence < 0) continue;
        after_operand = false;
        if (precedence < loosest) {
            loosest = precedence;
            loosest_sequenced = sequenced;
        }
    }
    return loosest < 100 && !loosest_sequenced;
}

void extract_unsequenced_draws(FileScan& out, const FlatCode& flat) {
    // Full-expressions are the spans between `;`/`{`/`}` at paren depth 0,
    // as for ZD017.  A draw is a call on an identifier (`x.f(...)`,
    // `x->f(...)`) or a call that is passed it as a whole argument
    // (`g(..., x, ...)`), and covers that call's argument list: a draw
    // nested inside another's arguments runs first.  Draws in a lambda body
    // run when the lambda does, so they are left out.
    const std::string_view text = flat.text;
    const auto analyze = [&](std::size_t begin, std::size_t end) {
        const std::string_view expr = text.substr(begin, end - begin);
        const Brackets br = scan_brackets(expr);
        std::map<std::string, std::vector<DrawSpan>> draws;
        for (std::size_t i = 0; i < expr.size();) {
            if (!is_ident_char(expr[i]) || (i > 0 && is_ident_char(expr[i - 1]))) {
                ++i;
                continue;
            }
            const std::size_t start = i;
            while (i < expr.size() && is_ident_char(expr[i])) ++i;
            if (std::isdigit(static_cast<unsigned char>(expr[start])) != 0) continue;
            bool in_lambda = false;
            for (std::size_t o = br.enclosing[start]; o != Brackets::kNone; o = br.enclosing[o]) {
                if (expr[o] != '{') continue;
                const std::size_t p = prev_significant(expr, o);
                if (p != std::string_view::npos && (expr[p] == ')' || expr[p] == ']')) {
                    in_lambda = true;
                }
            }
            if (in_lambda) continue;
            std::size_t j = skip_ws(expr, i);
            const bool member = j < expr.size() && expr[j] == '.';
            const bool arrow = expr.compare(j, 2, "->") == 0;
            if (member || arrow) {
                j = skip_ws(expr, j + (arrow ? 2 : 1));
                const std::size_t method = j;
                while (j < expr.size() && is_ident_char(expr[j])) ++j;
                j = skip_ws(expr, j);
                if (j > method && j < expr.size() && expr[j] == '(') {
                    draws[std::string(expr.substr(start, i - start))].push_back(
                        {start, br.close[j] + 1});
                }
                continue;
            }
            const std::size_t before = prev_significant(expr, start);
            const std::size_t open = br.enclosing[start];
            if (before == std::string_view::npos || (expr[before] != '(' && expr[before] != ',') ||
                j >= expr.size() || (expr[j] != ')' && expr[j] != ',') ||
                open == Brackets::kNone || expr[open] != '(' || !is_call_paren(expr, open)) {
                continue;
            }
            draws[std::string(expr.substr(start, i - start))].push_back({open, br.close[open] + 1});
        }
        for (auto& [name, spans] : draws) {
            std::sort(spans.begin(), spans.end(), [](const DrawSpan& x, const DrawSpan& y) {
                return x.begin != y.begin ? x.begin < y.begin : x.end > y.end;
            });
            spans.erase(std::unique(spans.begin(), spans.end()), spans.end());
            bool found = false;
            for (std::size_t x = 0; x < spans.size() && !found; ++x) {
                for (std::size_t y = x + 1; y < spans.size() && !found; ++y) {
                    if (spans[y].begin < spans[x].end) continue;  // nested: runs first
                    if (!draws_unsequenced(expr, br, spans[x], spans[y])) continue;
                    out.unsequenced_draws.push_back({flat.line_of[begin + spans[x].begin], name});
                    found = true;
                }
            }
        }
    };
    std::size_t stmt_start = 0;
    int pdepth = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '(') ++pdepth;
        if (c == ')') --pdepth;
        if (pdepth != 0 || (c != ';' && c != '{' && c != '}')) continue;
        analyze(stmt_start, i);
        stmt_start = i + 1;
    }
    std::sort(out.unsequenced_draws.begin(), out.unsequenced_draws.end(),
              [](const UnsequencedDraws& a, const UnsequencedDraws& b) {
                  return a.line != b.line ? a.line < b.line : a.name < b.name;
              });
}

// ---------------------------------------------------------------------------
// Pass 2 helpers
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_src_module(const std::string& module) {
    return !module.empty() && module != "tools" && module != "bench" && module != "tests";
}

void emit(std::vector<Diagnostic>& out, const FileScan& file, std::size_t line,
          std::string_view id, std::string message, std::string hint) {
    Diagnostic d;
    d.file = file.path;
    d.line = line;
    d.id = std::string(id);
    for (const CheckInfo& c : known_checks())
        if (c.id == id) d.severity = c.severity;
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.fingerprint =
        line >= 1 && line <= file.fingerprints.size() ? file.fingerprints[line - 1] : 0;
    out.push_back(std::move(d));
}

[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (const std::string& p : parts) {
        if (!out.empty()) out += sep;
        out += p;
    }
    return out;
}

/// All elementary include cycles reachable in the file graph, found by DFS
/// back-edge extraction and deduplicated after rotating each cycle so its
/// lexicographically smallest file comes first.
[[nodiscard]] std::vector<std::vector<std::string>> find_cycles(
    const std::map<std::string, std::vector<std::string>>& graph) {
    std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
    std::vector<std::string> stack;
    std::set<std::string> seen_keys;
    std::vector<std::vector<std::string>> cycles;

    const std::function<void(const std::string&)> dfs = [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        const auto it = graph.find(node);
        if (it != graph.end()) {
            for (const std::string& next : it->second) {
                const int c = color[next];
                if (c == 1) {
                    const auto first = std::find(stack.begin(), stack.end(), next);
                    std::vector<std::string> cycle(first, stack.end());
                    const auto smallest = std::min_element(cycle.begin(), cycle.end());
                    std::rotate(cycle.begin(), smallest, cycle.end());
                    if (seen_keys.insert(join(cycle, "\n")).second) cycles.push_back(cycle);
                } else if (c == 0) {
                    dfs(next);
                }
            }
        }
        stack.pop_back();
        color[node] = 2;
    };
    for (const auto& [node, targets] : graph) {
        (void)targets;
        if (color[node] == 0) dfs(node);
    }
    return cycles;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1
// ---------------------------------------------------------------------------

std::string module_of(std::string_view path) {
    if (path.rfind("src/", 0) == 0) {
        const std::size_t slash = path.find('/', 4);
        if (slash != std::string_view::npos) return std::string(path.substr(4, slash - 4));
        return std::string();
    }
    for (const std::string_view top : {"tools", "bench", "tests"}) {
        if (path.rfind(std::string(top) + "/", 0) == 0) return std::string(top);
    }
    return std::string();
}

FileScan scan_file(std::string path, std::string_view content) {
    FileScan out;
    out.path = std::move(path);
    out.module = module_of(out.path);
    const LexedSource lexed = lex(content);
    const FlatCode flat = flatten(lexed.lines);
    out.fingerprints.reserve(lexed.lines.size());
    for (std::size_t i = 0; i < lexed.lines.size(); ++i) {
        out.fingerprints.push_back(line_fingerprint(lexed.lines, i + 1));
    }
    extract_includes(out, lexed.lines, lexed.literals);
    extract_streams(out, flat, lexed.literals);
    const bool is_header = out.path.ends_with(".hpp") || out.path.ends_with(".h");
    if (is_header) extract_error_fns(out, lexed.lines);
    extract_bare_calls(out, flat);
    extract_reductions(out, flat);
    extract_rng_names(out, flat);
    extract_unsequenced_draws(out, flat);
    out.suppressions = parse_suppressions(lexed.lines);
    return out;
}

void resolve_includes(ProjectModel& model) {
    std::set<std::string> paths;
    for (const FileScan& f : model.files) paths.insert(f.path);
    for (FileScan& f : model.files) {
        const fs::path dir = fs::path(f.path).parent_path();
        for (IncludeEdge& inc : f.includes) {
            const std::vector<fs::path> candidates = {
                dir / inc.target,          fs::path("src") / inc.target,
                fs::path("tools") / inc.target, fs::path("bench") / inc.target,
                fs::path("tests") / inc.target, fs::path(inc.target),
            };
            for (const fs::path& cand : candidates) {
                const std::string normal = cand.lexically_normal().generic_string();
                if (paths.count(normal) != 0) {
                    inc.resolved = normal;
                    break;
                }
            }
        }
    }
}

ProjectModel build_project_model(const fs::path& root, const std::vector<std::string>& scan_roots) {
    std::vector<std::string> files;
    for (const std::string& sub : scan_roots) {
        const fs::path dir = root / sub;
        if (!fs::is_directory(dir)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file()) continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".cpp" && ext != ".cc" && ext != ".hpp" && ext != ".h") continue;
            files.push_back(fs::relative(entry.path(), root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());

    ProjectModel model;
    for (const std::string& file : files) {
        std::ifstream in(root / file, std::ios::binary);
        if (!in) throw zerodeg::IoError("cannot open " + (root / file).string());
        std::ostringstream ss;
        ss << in.rdbuf();
        model.files.push_back(scan_file(file, ss.str()));
    }
    resolve_includes(model);
    return model;
}

// ---------------------------------------------------------------------------
// Pass 2
// ---------------------------------------------------------------------------

const std::map<std::string, std::set<std::string>>& layer_dag() {
    static const std::map<std::string, std::set<std::string>> dag = {
        {"core", {}},
        {"weather", {"core"}},
        {"faults", {"core"}},
        {"thermal", {"core", "weather"}},
        {"energy", {"core", "weather"}},
        {"hardware", {"core", "thermal", "weather"}},
        {"workload", {"core", "faults"}},
        {"monitoring",
         {"core", "weather", "faults", "thermal", "energy", "hardware", "workload"}},
        {"experiment",
         {"core", "weather", "faults", "thermal", "energy", "hardware", "workload",
          "monitoring"}},
    };
    return dag;
}

ProjectReport analyze_project(const ProjectModel& model) {
    ProjectReport report;
    report.files_scanned = model.files.size();

    const auto& dag = layer_dag();
    std::map<std::string, const FileScan*> by_path;
    for (const FileScan& f : model.files) by_path.emplace(f.path, &f);

    std::vector<Diagnostic> found;  // pre-suppression, so ZD097 can see usage

    // --- ZD015: layer DAG + module graph ---------------------------------
    std::map<std::string, std::vector<std::string>> file_graph;
    for (const FileScan& f : model.files) {
        auto& targets = file_graph[f.path];
        for (const IncludeEdge& inc : f.includes) {
            if (inc.resolved.empty()) continue;
            targets.push_back(inc.resolved);
            const std::string target_module = module_of(inc.resolved);
            if (target_module.empty() || target_module == f.module) continue;
            report.graph.edges[f.module].insert(target_module);
            if (!is_src_module(f.module)) continue;  // tools/bench/tests see all
            const auto layer = dag.find(f.module);
            const bool module_known = layer != dag.end();
            const bool edge_allowed =
                module_known && layer->second.count(target_module) != 0;
            if (module_known && edge_allowed) continue;
            report.graph.illegal[f.module].insert(target_module);
            if (!module_known) {
                emit(found, f, inc.line, "ZD015",
                     "module '" + f.module + "' is not declared in the layer DAG",
                     "new src/ subsystems are added to the allowed-edge table in "
                     "tools/lint/project.cpp (and DESIGN.md) deliberately, not by accretion");
            } else {
                emit(found, f, inc.line, "ZD015",
                     "include of '" + inc.resolved + "' crosses a layer boundary: '" +
                         f.module + "' may not depend on '" + target_module + "'",
                     "allowed deps of '" + f.module + "': {" +
                         join(std::vector<std::string>(layer->second.begin(),
                                                       layer->second.end()),
                              ", ") +
                         "} — move the shared piece down a layer or route through an "
                         "allowed one");
            }
        }
    }
    report.graph.cycles = find_cycles(file_graph);
    for (const std::vector<std::string>& cycle : report.graph.cycles) {
        const FileScan& f = *by_path.at(cycle.front());
        const std::string& next = cycle.size() > 1 ? cycle[1] : cycle[0];
        std::size_t line = 1;
        for (const IncludeEdge& inc : f.includes) {
            if (inc.resolved == next) line = inc.line;
        }
        emit(found, f, line, "ZD015",
             "include cycle: " + join(cycle, " -> ") + " -> " + cycle.front(),
             "break the cycle with a forward declaration or by extracting the shared "
             "piece into a lower layer");
    }

    // --- ZD016: RNG stream-name collisions across src/ files -------------
    // Key: the literal spelled at the construction site.  tests/ and tools/
    // deliberately reuse short names ("m", "p") for throwaway local streams,
    // so only simulation code (src/) participates.
    std::map<std::string, std::vector<std::pair<std::string, std::size_t>>> streams;
    for (const FileScan& f : model.files) {
        if (!is_src_module(f.module)) continue;
        std::set<std::string> seen_here;  // first use per file is the anchor
        for (const StreamUse& s : f.streams) {
            if (s.name.empty() || !seen_here.insert(s.name).second) continue;
            streams[s.name].emplace_back(f.path, s.line);
        }
    }
    for (const auto& [name, uses] : streams) {
        if (uses.size() < 2) continue;
        for (const auto& [path, line] : uses) {
            std::vector<std::string> others;
            for (const auto& [other_path, other_line] : uses) {
                (void)other_line;
                if (other_path != path) others.push_back(other_path);
            }
            emit(found, *by_path.at(path), line, "ZD016",
                 "RNG stream name \"" + name + "\" is also constructed in " +
                     join(others, ", ") + " — the streams are byte-identical",
                 "stream names are global: two models drawing from the same name see "
                 "correlated randomness; rename one (e.g. prefix with the subsystem)");
        }
    }

    // --- ZD017: discarded ErrorCode calls ---------------------------------
    std::map<std::string, std::string> error_fn_origin;  // name -> declaring file
    for (const FileScan& f : model.files) {
        for (const ErrorFn& fn : f.error_fns) {
            error_fn_origin.try_emplace(fn.name, f.path + ":" + std::to_string(fn.line));
        }
    }
    for (const FileScan& f : model.files) {
        for (const BareCall& call : f.bare_calls) {
            const auto it = error_fn_origin.find(call.callee);
            if (it == error_fn_origin.end()) continue;
            emit(found, f, call.line, "ZD017",
                 "bare statement discards the ErrorCode returned by '" + call.callee +
                     "' (declared at " + it->second + ")",
                 "check the result (or cast through a named handler) — a dropped "
                 "ErrorCode silently swallows a failure");
        }
    }

    // --- ZD018: non-associative float reductions --------------------------
    for (const FileScan& f : model.files) {
        if (f.path.ends_with("core/parallel.hpp")) continue;  // the ordered seam
        for (const FloatReduction& r : f.reductions) {
            emit(found, f, r.line, "ZD018",
                 r.what + " over a floating accumulator is order-sensitive",
                 "float addition is not associative; use the ordered reduce in "
                 "core/parallel.hpp so results are byte-identical for any --jobs");
        }
    }

    // --- ZD019: two draws from one RngStream in one unsequenced expression
    // A stream member is declared in a header and drawn from in the .cpp, so
    // a name counts when the file itself or a project header it includes
    // declares it as a RngStream.
    for (const FileScan& f : model.files) {
        if (f.unsequenced_draws.empty()) continue;
        std::set<std::string> rng_names(f.rng_names.begin(), f.rng_names.end());
        for (const IncludeEdge& inc : f.includes) {
            if (inc.resolved.empty()) continue;
            const FileScan& header = *by_path.at(inc.resolved);
            rng_names.insert(header.rng_names.begin(), header.rng_names.end());
        }
        for (const UnsequencedDraws& u : f.unsequenced_draws) {
            if (rng_names.count(u.name) == 0) continue;
            emit(found, f, u.line, "ZD019",
                 "two draws from RngStream '" + u.name +
                     "' in one expression: their order is unspecified",
                 "operands of + (or any arithmetic) and the arguments of one call may be "
                 "evaluated in any order, so the values depend on the compiler; take each "
                 "draw into a named local, in the intended order");
        }
    }

    // --- suppressions + ZD097 ---------------------------------------------
    std::vector<Diagnostic> kept;
    for (Diagnostic& d : found) {
        const FileScan& f = *by_path.at(d.file);
        bool suppressed = false;
        for (const Suppression& s : f.suppressions) {
            if (s.target_line != d.line || !s.has_reason) continue;
            if (std::find(s.ids.begin(), s.ids.end(), d.id) != s.ids.end()) suppressed = true;
        }
        if (!suppressed) kept.push_back(std::move(d));
    }
    for (const FileScan& f : model.files) {
        for (const Suppression& s : f.suppressions) {
            if (!s.has_reason) continue;  // already ZD098 in the per-file pass
            for (const std::string& id : s.ids) {
                if (!is_project_check(id)) continue;
                const bool used =
                    std::any_of(found.begin(), found.end(), [&](const Diagnostic& d) {
                        return d.file == f.path && d.line == s.target_line && d.id == id;
                    });
                if (used) continue;
                emit(kept, f, s.comment_line, "ZD097",
                     "suppression allows " + id +
                         " but its line no longer triggers that check",
                     "delete the stale `allow(" + id + ")` so waivers cannot outlive "
                     "the code they excused");
            }
        }
    }
    std::sort(kept.begin(), kept.end(), [](const Diagnostic& a, const Diagnostic& b) {
        if (a.file != b.file) return a.file < b.file;
        if (a.line != b.line) return a.line < b.line;
        return a.id < b.id;
    });
    report.diagnostics = std::move(kept);
    return report;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string render_dot(const ModuleGraph& graph) {
    std::string out = "digraph zerodeg_layers {\n";
    out += "  rankdir=BT;\n";
    out += "  node [shape=box, fontname=\"Helvetica\"];\n";
    std::set<std::string> nodes;
    for (const auto& [from, targets] : graph.edges) {
        nodes.insert(from);
        nodes.insert(targets.begin(), targets.end());
    }
    for (const std::string& n : nodes) out += "  \"" + n + "\";\n";
    for (const auto& [from, targets] : graph.edges) {
        const auto bad = graph.illegal.find(from);
        for (const std::string& to : targets) {
            out += "  \"" + from + "\" -> \"" + to + "\"";
            if (bad != graph.illegal.end() && bad->second.count(to) != 0) {
                out += " [color=red, penwidth=2.0]";
            }
            out += ";\n";
        }
    }
    out += "}\n";
    return out;
}

std::string render_architecture_report(const ModuleGraph& graph) {
    std::map<std::string, std::size_t> fan_in;
    std::set<std::string> nodes;
    for (const auto& [from, targets] : graph.edges) {
        nodes.insert(from);
        for (const std::string& to : targets) {
            nodes.insert(to);
            fan_in[to] += 1;
        }
    }
    std::string out = "module graph (" + std::to_string(nodes.size()) + " modules):\n";
    for (const std::string& n : nodes) {
        const auto it = graph.edges.find(n);
        const std::size_t fan_out = it == graph.edges.end() ? 0 : it->second.size();
        out += "  " + n + ": fan-out=" + std::to_string(fan_out) +
               " fan-in=" + std::to_string(fan_in[n]);
        if (it != graph.edges.end() && !it->second.empty()) {
            out += " -> {" +
                   join(std::vector<std::string>(it->second.begin(), it->second.end()), ", ") +
                   "}";
        }
        out += "\n";
    }
    out += "include cycles: " + std::to_string(graph.cycles.size()) + "\n";
    for (const std::vector<std::string>& cycle : graph.cycles) {
        out += "  " + join(cycle, " -> ") + " -> " + cycle.front() + "\n";
    }
    return out;
}

}  // namespace zerodeg::lint
