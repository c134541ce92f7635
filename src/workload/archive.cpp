#include "workload/archive.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

// Header layout (offsets into the 512-byte record), ustar-flavored:
//   0   name      100 bytes, NUL-terminated
//   124 size      12 bytes, octal ASCII
//   148 checksum  8 bytes, octal ASCII (computed with the field spaces)
//   257 magic     6 bytes "frost\0"
constexpr std::size_t kNameOff = 0;
constexpr std::size_t kNameLen = 100;
constexpr std::size_t kSizeOff = 124;
constexpr std::size_t kSizeLen = 12;
constexpr std::size_t kChkOff = 148;
constexpr std::size_t kChkLen = 8;
constexpr std::size_t kMagicOff = 257;
constexpr char kMagic[6] = {'f', 'r', 'o', 's', 't', '\0'};

std::uint32_t header_checksum(const std::uint8_t* rec) {
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < kRecordSize; ++i) {
        // The checksum field itself counts as spaces.
        sum += (i >= kChkOff && i < kChkOff + kChkLen) ? ' ' : rec[i];
    }
    return sum;
}

bool is_zero_record(const std::uint8_t* rec) {
    for (std::size_t i = 0; i < kRecordSize; ++i) {
        if (rec[i] != 0) return false;
    }
    return true;
}

constexpr std::size_t padded(std::size_t n) {
    return (n + kRecordSize - 1) / kRecordSize * kRecordSize;
}

}  // namespace

ArchiveWriter::ArchiveWriter(std::size_t expected_bytes) : out_(expected_bytes) {}

void ArchiveWriter::grow(std::size_t n) {
    out_.resize(std::max(2 * out_.size(), used_ + n), 0);
}

void ArchiveWriter::begin_file(std::string_view path) {
    if (path.size() >= kNameLen) {
        throw core::InvalidArgument("archive: path too long: " + std::string(path));
    }
    std::uint8_t* rec = reserve(kRecordSize);
    std::memset(rec, 0, kRecordSize);
    std::memcpy(rec + kNameOff, path.data(), path.size());
    commit(kRecordSize);
    contents_ = used_;
}

void ArchiveWriter::end_file() {
    const std::size_t size = file_bytes();
    std::uint8_t* rec = out_.data() + contents_ - kRecordSize;
    char size_field[kSizeLen + 1];
    std::snprintf(size_field, sizeof size_field, "%011zo", size);
    std::memcpy(rec + kSizeOff, size_field, kSizeLen);
    std::memcpy(rec + kMagicOff, kMagic, sizeof kMagic);
    char chk_field[kChkLen + 1] = {};
    std::snprintf(chk_field, sizeof chk_field, "%06o", header_checksum(rec));
    chk_field[7] = ' ';  // tar convention: NUL then space
    std::memcpy(rec + kChkOff, chk_field, kChkLen);
    const std::size_t pad = padded(size) - size;
    std::memset(reserve(pad), 0, pad);
    commit(pad);
}

std::vector<std::uint8_t> ArchiveWriter::finish() && {
    // End-of-archive: two zero records.
    std::memset(reserve(2 * kRecordSize), 0, 2 * kRecordSize);
    commit(2 * kRecordSize);
    out_.resize(used_);
    return std::move(out_);
}

std::vector<std::uint8_t> write_archive(const std::vector<CorpusFile>& files) {
    std::size_t total = 2 * kRecordSize;
    for (const CorpusFile& f : files) total += kRecordSize + padded(f.contents.size());
    ArchiveWriter out(total);
    for (const CorpusFile& f : files) {
        out.begin_file(f.path);
        out.append(f.contents);
        out.end_file();
    }
    return std::move(out).finish();
}

namespace {

struct HeaderView {
    std::string path;
    std::size_t size = 0;
};

HeaderView parse_header(const std::uint8_t* rec) {
    if (std::memcmp(rec + kMagicOff, kMagic, sizeof kMagic) != 0) {
        throw core::CorruptData("archive: bad magic in header");
    }
    char chk_text[kChkLen + 1] = {};
    std::memcpy(chk_text, rec + kChkOff, kChkLen);
    unsigned stored = 0;
    if (std::sscanf(chk_text, "%o", &stored) != 1 || stored != header_checksum(rec)) {
        throw core::CorruptData("archive: header checksum mismatch");
    }
    HeaderView h;
    const auto* name = reinterpret_cast<const char*>(rec + kNameOff);
    h.path.assign(name, strnlen(name, kNameLen));
    char size_text[kSizeLen + 1] = {};
    std::memcpy(size_text, rec + kSizeOff, kSizeLen);
    unsigned long long size = 0;
    if (std::sscanf(size_text, "%llo", &size) != 1) {
        throw core::CorruptData("archive: malformed size field");
    }
    h.size = static_cast<std::size_t>(size);
    return h;
}

}  // namespace

std::vector<CorpusFile> read_archive(std::span<const std::uint8_t> bytes) {
    std::vector<CorpusFile> files;
    std::size_t off = 0;
    while (off + kRecordSize <= bytes.size()) {
        const std::uint8_t* rec = bytes.data() + off;
        if (is_zero_record(rec)) return files;  // end marker
        const HeaderView h = parse_header(rec);
        off += kRecordSize;
        if (off + h.size > bytes.size()) throw core::CorruptData("archive: truncated contents");
        CorpusFile f;
        f.path = h.path;
        f.contents.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                          bytes.begin() + static_cast<std::ptrdiff_t>(off + h.size));
        files.push_back(std::move(f));
        off += h.size;
        off += (kRecordSize - h.size % kRecordSize) % kRecordSize;
    }
    throw core::CorruptData("archive: missing end-of-archive marker");
}

bool archive_intact(std::span<const std::uint8_t> bytes) {
    try {
        std::size_t off = 0;
        while (off + kRecordSize <= bytes.size()) {
            const std::uint8_t* rec = bytes.data() + off;
            if (is_zero_record(rec)) return true;
            const HeaderView h = parse_header(rec);
            off += kRecordSize + h.size;
            off += (kRecordSize - h.size % kRecordSize) % kRecordSize;
            if (off > bytes.size()) return false;
        }
        return false;
    } catch (const core::CorruptData&) {
        return false;
    }
}

}  // namespace zerodeg::workload
