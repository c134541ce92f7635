// frost::Archive — the tar stand-in.
//
// The same record structure as ustar at the fidelity the workload needs:
// 512-byte headers carrying path, size and a header checksum, file contents
// padded to 512-byte records, and two zero records as the end marker.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zerodeg::workload {

constexpr std::size_t kRecordSize = 512;

struct CorpusFile {
    std::string path;
    std::vector<std::uint8_t> contents;
};

/// Writes an archive stream into one buffer, a file at a time, with no copy
/// of any file's contents: begin_file() reserves the header record, the
/// contents are written after it in place, and end_file() fills the header
/// in (name, octal size, checksum) and pads to a record.  finish() appends
/// the end marker and hands the buffer over.  The one header writer:
/// write_archive and the corpus generator both drive it.
class ArchiveWriter {
public:
    /// Sizes the buffer for `expected_bytes`; past that it grows
    /// geometrically.
    explicit ArchiveWriter(std::size_t expected_bytes);

    /// Opens a file.  Throws InvalidArgument when `path` does not fit the
    /// header's name field.
    void begin_file(std::string_view path);

    /// Room for `n` more bytes of the open file.  Any of them may be
    /// written; commit(k), k <= n, then keeps the first k, and the rest stay
    /// scratch.  The pointer is valid until the next call that writes.
    [[nodiscard]] std::uint8_t* reserve(std::size_t n) {
        if (n > out_.size() - used_) [[unlikely]] grow(n);
        return out_.data() + used_;
    }
    void commit(std::size_t k) { used_ += k; }

    void append(std::span<const std::uint8_t> bytes) {
        if (bytes.empty()) return;  // data() may be null, which memcpy must not see
        std::memcpy(reserve(bytes.size()), bytes.data(), bytes.size());
        commit(bytes.size());
    }

    /// Bytes committed to the open file so far.
    [[nodiscard]] std::size_t file_bytes() const { return used_ - contents_; }

    /// Closes the open file: fills in its header and pads it to a record.
    void end_file();

    /// The finished archive, end marker included.
    [[nodiscard]] std::vector<std::uint8_t> finish() &&;

private:
    void grow(std::size_t n);

    /// Bytes [0, used_) are the archive so far; past them is scratch, so
    /// headers, padding and the end marker are zeroed as they are written.
    std::vector<std::uint8_t> out_;
    std::size_t used_ = 0;
    std::size_t contents_ = 0;  ///< offset of the open file's first content byte
};

/// Serialize files into a single archive byte stream.
[[nodiscard]] std::vector<std::uint8_t> write_archive(const std::vector<CorpusFile>& files);

/// Parse an archive back into files.  Throws CorruptData on a bad header
/// checksum, truncated stream, or malformed size field.
[[nodiscard]] std::vector<CorpusFile> read_archive(std::span<const std::uint8_t> bytes);

/// Cheap structural validation (header checksums only, no content copy).
[[nodiscard]] bool archive_intact(std::span<const std::uint8_t> bytes);

}  // namespace zerodeg::workload
