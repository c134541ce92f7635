#include "workload/corpus.hpp"

#include <charconv>
#include <cstdio>
#include <string_view>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

const char* const kDirs[] = {"arch",  "block", "crypto", "drivers", "fs",    "kernel",
                             "lib",   "mm",    "net",    "sound",   "init",  "ipc"};

const char* const kTypes[] = {"int", "long", "void", "char *", "size_t", "u32", "u64",
                              "struct page *", "struct inode *", "unsigned int"};

const char* const kIdents[] = {
    "buf",   "len",    "ret",   "err",   "flags", "offset", "page",  "inode", "dev",
    "state", "lock",   "count", "index", "entry", "head",   "queue", "mask",  "addr",
    "size",  "status", "ctx",   "req",   "tmp",   "node",   "data",  "pos"};

const char* const kCalls[] = {"kmalloc", "kfree",  "spin_lock",  "spin_unlock", "memcpy",
                              "memset",  "printk", "list_add",   "list_del",    "wait_event",
                              "schedule", "mutex_lock", "mutex_unlock", "atomic_inc"};

const char* pick(core::RngStream& rng, const char* const* list, std::size_t n) {
    return list[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
}

template <std::size_t N>
const char* pick(core::RngStream& rng, const char* const (&list)[N]) {
    return pick(rng, list, N);
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
    (out.append(parts), ...);
}

void emit_function(core::RngStream& rng, std::string& out, int index) {
    // Every draw is a named local, taken in the order corpus.hpp documents.
    const char* fn_call = pick(rng, kCalls);
    const char* fn_ident = pick(rng, kIdents);
    char name[64];
    std::snprintf(name, sizeof name, "%s_%s_%d", fn_ident, fn_call, index);
    const char* ret = pick(rng, kTypes);
    append(out, "static ", ret, " ", name, "(");
    const int args = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < args; ++i) {
        const char* arg = pick(rng, kIdents);
        const char* type = pick(rng, kTypes);
        if (i) out += ", ";
        append(out, type, " ", arg);
    }
    out += ")\n{\n";
    const int stmts = static_cast<int>(rng.uniform_int(3, 18));
    for (int i = 0; i < stmts; ++i) {
        const int kind = static_cast<int>(rng.uniform_int(0, 4));
        switch (kind) {
            case 0: {
                const std::int64_t value = rng.uniform_int(0, 4096);
                const char* var = pick(rng, kIdents);
                const char* type = pick(rng, kTypes);
                char digits[24];
                const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
                append(out, "\t", type, " ", var, " = ",
                       std::string_view(digits, static_cast<std::size_t>(end - digits)), ";\n");
                break;
            }
            case 1: {
                const char* arg = pick(rng, kIdents);
                const char* call = pick(rng, kCalls);
                const char* var = pick(rng, kIdents);
                append(out, "\t", var, " = ", call, "(", arg, ");\n");
                break;
            }
            case 2: {
                const char* rhs = pick(rng, kIdents);
                const char* lhs = pick(rng, kIdents);
                append(out, "\tif (", lhs, " < ", rhs, ")\n\t\treturn -EINVAL;\n");
                break;
            }
            case 3: {
                const char* held = pick(rng, kIdents);
                const char* lock = pick(rng, kIdents);
                append(out, "\t/* ", lock, " must hold ", held, " across this call */\n");
                break;
            }
            default: {
                const char* arg = pick(rng, kIdents);
                const char* call = pick(rng, kCalls);
                const char* step = pick(rng, kIdents);
                const char* bound = pick(rng, kIdents);
                const char* cond = pick(rng, kIdents);
                const char* init = pick(rng, kIdents);
                append(out, "\tfor (", init, " = 0; ", cond, " < ", bound, "; ++", step,
                       ")\n\t\t", call, "(", arg, ");\n");
                break;
            }
        }
    }
    out += "\treturn 0;\n}\n\n";
}

}  // namespace

SyntheticCorpus::SyntheticCorpus(CorpusConfig config, std::uint64_t seed) {
    if (config.total_bytes == 0 || config.mean_file_bytes == 0) {
        throw core::InvalidArgument("SyntheticCorpus: sizes must be positive");
    }
    core::RngStream rng{seed, "corpus"};
    const std::size_t dir_count =
        std::min(config.top_level_dirs, sizeof(kDirs) / sizeof(kDirs[0]));

    int file_index = 0;
    while (total_bytes_ < config.total_bytes) {
        CorpusFile f;
        const char* dir = pick(rng, kDirs, dir_count);
        const char* stem = pick(rng, kIdents);
        char path[128];
        std::snprintf(path, sizeof path, "%s/%s_%04d.c", dir, stem, file_index++);
        f.path = path;

        // Target size jitters around the mean by +/- 50%.
        const auto target = static_cast<std::size_t>(
            static_cast<double>(config.mean_file_bytes) * rng.uniform(0.5, 1.5));
        // One function is at most a few kB, so this is the one allocation.
        std::string text;
        text.reserve(target + 4096);
        append(text, "/* auto-generated corpus file: ", f.path, " */\n",
               "#include <linux/kernel.h>\n#include <linux/module.h>\n\n");
        int fn = 0;
        while (text.size() < target) emit_function(rng, text, fn++);

        f.contents.assign(text.begin(), text.end());
        total_bytes_ += f.contents.size();
        files_.push_back(std::move(f));
    }
}

}  // namespace zerodeg::workload
