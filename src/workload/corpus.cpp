#include "workload/corpus.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/archive.hpp"

namespace zerodeg::workload {

namespace {

/// A table word in a fixed 16-byte slot, so a line copies it as one
/// fixed-size block: the slot's bytes past the word land in reserved
/// scratch, which the next part overwrites.
struct Word {
    template <std::size_t N>
    consteval Word(const char (&s)[N]) : size(N - 1) {
        static_assert(N - 1 <= sizeof text, "a word must fit its slot");
        std::copy(s, s + size, text);
    }

    char text[16] = {};
    std::size_t size;
};

constexpr Word kDirs[] = {"arch", "block", "crypto", "drivers", "fs",   "kernel",
                          "lib",  "mm",    "net",    "sound",   "init", "ipc"};

constexpr Word kTypes[] = {"int", "long", "void", "char *", "size_t", "u32", "u64",
                           "struct page *", "struct inode *", "unsigned int"};

constexpr Word kIdents[] = {
    "buf",   "len",    "ret",   "err",   "flags", "offset", "page",  "inode", "dev",
    "state", "lock",   "count", "index", "entry", "head",   "queue", "mask",  "addr",
    "size",  "status", "ctx",   "req",   "tmp",   "node",   "data",  "pos"};

constexpr Word kCalls[] = {"kmalloc",  "kfree",      "spin_lock",    "spin_unlock", "memcpy",
                           "memset",   "printk",     "list_add",     "list_del",    "wait_event",
                           "schedule", "mutex_lock", "mutex_unlock", "atomic_inc"};

const Word& pick(core::RngStream& rng, const Word* list, std::size_t n) {
    return list[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
}

template <std::size_t N>
const Word& pick(core::RngStream& rng, const Word (&list)[N]) {
    return pick(rng, list, N);
}

std::string_view decimal(char (&buf)[24], std::int64_t value) {
    return {buf, static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, value).ptr - buf)};
}

// A part of a line is a word, a string literal or a string_view.  room()
// is the most bytes put() may write for it: a word writes its whole slot.
constexpr std::size_t room(const Word& w) { return sizeof w.text; }
template <std::size_t N>
constexpr std::size_t room(const char (&)[N]) { return N - 1; }
constexpr std::size_t room(std::string_view s) { return s.size(); }

std::uint8_t* put(std::uint8_t* p, const Word& w) {
    std::memcpy(p, w.text, sizeof w.text);
    return p + w.size;
}
template <std::size_t N>
std::uint8_t* put(std::uint8_t* p, const char (&literal)[N]) {
    std::memcpy(p, literal, N - 1);
    return p + (N - 1);
}
std::uint8_t* put(std::uint8_t* p, std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    return p + s.size();
}

/// Appends the parts to the open file, in room reserved for all of them.
template <typename... Parts>
void append(ArchiveWriter& out, const Parts&... parts) {
    std::uint8_t* const start = out.reserve((room(parts) + ...));
    std::uint8_t* p = start;
    ((p = put(p, parts)), ...);
    out.commit(static_cast<std::size_t>(p - start));
}

void emit_function(core::RngStream& rng, ArchiveWriter& out, int index) {
    // Every draw is a named local, taken in the order corpus.hpp documents.
    const Word& fn_call = pick(rng, kCalls);
    const Word& fn_ident = pick(rng, kIdents);
    const Word& ret = pick(rng, kTypes);
    char digits[24];
    append(out, "static ", ret, " ", fn_ident, "_", fn_call, "_", decimal(digits, index), "(");
    const int args = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < args; ++i) {
        const Word& arg = pick(rng, kIdents);
        const Word& type = pick(rng, kTypes);
        if (i) append(out, ", ");
        append(out, type, " ", arg);
    }
    append(out, ")\n{\n");
    const int stmts = static_cast<int>(rng.uniform_int(3, 18));
    for (int i = 0; i < stmts; ++i) {
        const int kind = static_cast<int>(rng.uniform_int(0, 4));
        switch (kind) {
            case 0: {
                const std::int64_t value = rng.uniform_int(0, 4096);
                const Word& var = pick(rng, kIdents);
                const Word& type = pick(rng, kTypes);
                append(out, "\t", type, " ", var, " = ", decimal(digits, value), ";\n");
                break;
            }
            case 1: {
                const Word& arg = pick(rng, kIdents);
                const Word& call = pick(rng, kCalls);
                const Word& var = pick(rng, kIdents);
                append(out, "\t", var, " = ", call, "(", arg, ");\n");
                break;
            }
            case 2: {
                const Word& rhs = pick(rng, kIdents);
                const Word& lhs = pick(rng, kIdents);
                append(out, "\tif (", lhs, " < ", rhs, ")\n\t\treturn -EINVAL;\n");
                break;
            }
            case 3: {
                const Word& held = pick(rng, kIdents);
                const Word& lock = pick(rng, kIdents);
                append(out, "\t/* ", lock, " must hold ", held, " across this call */\n");
                break;
            }
            default: {
                const Word& arg = pick(rng, kIdents);
                const Word& call = pick(rng, kCalls);
                const Word& step = pick(rng, kIdents);
                const Word& bound = pick(rng, kIdents);
                const Word& cond = pick(rng, kIdents);
                const Word& init = pick(rng, kIdents);
                append(out, "\tfor (", init, " = 0; ", cond, " < ", bound, "; ++", step,
                       ")\n\t\t", call, "(", arg, ");\n");
                break;
            }
        }
    }
    append(out, "\treturn 0;\n}\n\n");
}

}  // namespace

std::vector<std::uint8_t> corpus_archive(const CorpusConfig& config, std::uint64_t seed) {
    if (config.total_bytes == 0 || config.mean_file_bytes == 0) {
        throw core::InvalidArgument("corpus_archive: sizes must be positive");
    }
    if (config.top_level_dirs == 0) {
        throw core::InvalidArgument("corpus_archive: top_level_dirs must be positive");
    }
    core::RngStream rng{seed, "corpus"};
    const std::size_t dir_count = std::min(config.top_level_dirs, std::size(kDirs));

    // The text overshoots total_bytes by at most one file (1.5 means plus a
    // function); each file adds a header record and under one of padding.
    const std::size_t files = config.total_bytes / config.mean_file_bytes + 4;
    ArchiveWriter out(config.total_bytes + 2 * config.mean_file_bytes + files * 2 * kRecordSize);

    std::size_t text_bytes = 0;
    for (int file_index = 0; text_bytes < config.total_bytes; ++file_index) {
        const Word& dir = pick(rng, kDirs, dir_count);
        const Word& stem = pick(rng, kIdents);
        char path[64];
        const int path_len = std::snprintf(path, sizeof path, "%.*s/%.*s_%04d.c",
                                           static_cast<int>(dir.size), dir.text,
                                           static_cast<int>(stem.size), stem.text, file_index);
        const std::string_view name(path, static_cast<std::size_t>(path_len));

        // Target size jitters around the mean by +/- 50%.
        const double jitter = rng.uniform(0.5, 1.5);
        const auto target =
            static_cast<std::size_t>(static_cast<double>(config.mean_file_bytes) * jitter);
        out.begin_file(name);
        append(out, "/* auto-generated corpus file: ", name, " */\n",
               "#include <linux/kernel.h>\n#include <linux/module.h>\n\n");
        int fn = 0;
        while (out.file_bytes() < target) emit_function(rng, out, fn++);
        text_bytes += out.file_bytes();
        out.end_file();
    }
    return std::move(out).finish();
}

}  // namespace zerodeg::workload
