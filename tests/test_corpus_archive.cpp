#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/archive.hpp"
#include "workload/corpus.hpp"

namespace zerodeg::workload {
namespace {

std::uint64_t fnv_of(std::span<const std::uint8_t> bytes) {
    return core::fnv1a(
        std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

/// The corpus as files, read back from its archive.
std::vector<CorpusFile> corpus_files(const CorpusConfig& cfg, std::uint64_t seed) {
    return read_archive(corpus_archive(cfg, seed));
}

std::size_t text_bytes(const std::vector<CorpusFile>& files) {
    std::size_t n = 0;
    for (const CorpusFile& f : files) n += f.contents.size();
    return n;
}

TEST(Corpus, DeterministicForSeed) {
    EXPECT_EQ(corpus_archive(CorpusConfig{}, 2010), corpus_archive(CorpusConfig{}, 2010));
}

TEST(Corpus, DifferentSeedsDiffer) {
    const auto a = corpus_files(CorpusConfig{}, 1);
    const auto b = corpus_files(CorpusConfig{}, 2);
    EXPECT_NE(a[0].contents, b[0].contents);
}

TEST(Corpus, MeetsSizeTarget) {
    CorpusConfig cfg;
    cfg.total_bytes = 512 * 1024;
    const auto files = corpus_files(cfg, 7);
    EXPECT_GE(text_bytes(files), cfg.total_bytes);
    EXPECT_LT(text_bytes(files), cfg.total_bytes + 2 * cfg.mean_file_bytes);
    EXPECT_GT(files.size(), 10u);
}

TEST(Corpus, PathsAreUnique) {
    const auto files = corpus_files(CorpusConfig{}, 3);
    std::set<std::string> paths;
    for (const CorpusFile& f : files) paths.insert(f.path);
    EXPECT_EQ(paths.size(), files.size());
}

TEST(Corpus, LooksLikeSource) {
    const auto files = corpus_files(CorpusConfig{}, 3);
    const std::string text(files[0].contents.begin(), files[0].contents.end());
    EXPECT_NE(text.find("#include"), std::string::npos);
    EXPECT_NE(text.find("static"), std::string::npos);
    EXPECT_NE(text.find("return"), std::string::npos);
    EXPECT_EQ(text.find("/* auto-generated corpus file: " + files[0].path + " */\n"), 0u);
}

TEST(Corpus, Validation) {
    CorpusConfig cfg;
    cfg.total_bytes = 0;
    EXPECT_THROW((void)corpus_archive(cfg, 1), core::InvalidArgument);
    cfg = CorpusConfig{};
    cfg.mean_file_bytes = 0;
    EXPECT_THROW((void)corpus_archive(cfg, 1), core::InvalidArgument);
    cfg = CorpusConfig{};
    cfg.top_level_dirs = 0;
    EXPECT_THROW((void)corpus_archive(cfg, 1), core::InvalidArgument);
}

// Edge configs at seed 7, pinned by the FNV of write_archive over the files
// of the per-file generator that corpus_archive replaced: the one-pass
// generator must write the very same bytes.
struct EdgePin {
    const char* name;
    CorpusConfig config;
    std::uint64_t archive_fnv;
    std::size_t archive_bytes;
};

void PrintTo(const EdgePin& p, std::ostream* os) { *os << p.name; }

class CorpusEdges : public ::testing::TestWithParam<EdgePin> {};

TEST_P(CorpusEdges, ArchiveIsPinnedAndRoundTrips) {
    const EdgePin& pin = GetParam();
    const std::vector<std::uint8_t> bytes = corpus_archive(pin.config, 7);
    EXPECT_EQ(fnv_of(bytes), pin.archive_fnv);
    EXPECT_EQ(bytes.size(), pin.archive_bytes);
    const std::vector<CorpusFile> files = read_archive(bytes);
    ASSERT_FALSE(files.empty());
    EXPECT_GE(text_bytes(files), pin.config.total_bytes);
    EXPECT_EQ(write_archive(files), bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CorpusEdges,
    ::testing::Values(EdgePin{"tiny", {1, 1, 8}, 0x56608e16bcf5f697ULL, 2048},
                      EdgePin{"small_files", {300000, 512, 8}, 0x755e2dc52a007009ULL, 603648},
                      EdgePin{"dirs64", {256 * 1024, 16 * 1024, 64}, 0x2a04cafe4347f4c2ULL,
                              275456},
                      EdgePin{"mean_above_total", {100000, 400000, 8}, 0xc55f964af8b9094eULL,
                              585216}),
    [](const ::testing::TestParamInfo<EdgePin>& pin) { return std::string(pin.param.name); });

TEST(Corpus, DirectoryCountIsCappedAtTwelve) {
    const CorpusConfig twelve{256 * 1024, 16 * 1024, 12};
    CorpusConfig many = twelve;
    many.top_level_dirs = 64;
    EXPECT_EQ(corpus_archive(many, 7), corpus_archive(twelve, 7));
}

CorpusConfig small_config() {
    CorpusConfig cfg;
    cfg.total_bytes = 64 * 1024;
    cfg.mean_file_bytes = 8 * 1024;
    return cfg;
}

TEST(Archive, RoundTrip) {
    const auto bytes = corpus_archive(small_config(), 5);
    // Structure: multiple of the record size.
    EXPECT_EQ(bytes.size() % kRecordSize, 0u);
    EXPECT_TRUE(archive_intact(bytes));
    const auto files = read_archive(bytes);
    ASSERT_GT(files.size(), 1u);
    EXPECT_EQ(write_archive(files), bytes);
}

TEST(Archive, WriterZeroesScratchAndGrowsPastItsEstimate) {
    // Scribbled room past a commit must not leak into the padding, and a
    // writer sized for nothing must still write the same stream.
    ArchiveWriter out(0);
    out.begin_file("a.c");
    std::uint8_t* room = out.reserve(3 * kRecordSize);
    std::memset(room, 0xab, 3 * kRecordSize);
    room[0] = 'x';
    out.commit(1);
    out.end_file();
    const std::vector<std::uint8_t> files_bytes = corpus_archive(small_config(), 5);
    const std::vector<CorpusFile> files = read_archive(files_bytes);
    for (const CorpusFile& f : files) {
        out.begin_file(f.path);
        out.append(f.contents);
        out.end_file();
    }
    const std::vector<std::uint8_t> bytes = std::move(out).finish();
    EXPECT_EQ(bytes[kRecordSize], 'x');
    EXPECT_TRUE(std::all_of(bytes.begin() + kRecordSize + 1, bytes.begin() + 2 * kRecordSize,
                            [](std::uint8_t b) { return b == 0; }));
    std::vector<CorpusFile> expected{{"a.c", {'x'}}};
    expected.insert(expected.end(), files.begin(), files.end());
    EXPECT_EQ(bytes, write_archive(expected));
}

TEST(Archive, EmptyFileList) {
    const auto bytes = write_archive({});
    EXPECT_EQ(bytes.size(), 2 * kRecordSize);  // just the end marker
    EXPECT_TRUE(read_archive(bytes).empty());
    EXPECT_TRUE(archive_intact(bytes));
}

TEST(Archive, EmptyFileContents) {
    std::vector<CorpusFile> files{{"empty.c", {}}};
    const auto bytes = write_archive(files);
    const auto back = read_archive(bytes);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(back[0].contents.empty());
}

TEST(Archive, HeaderCorruptionDetected) {
    auto bytes = corpus_archive(small_config(), 5);
    bytes[5] ^= 0xff;  // inside the first header's name field
    EXPECT_THROW((void)read_archive(bytes), core::CorruptData);
    EXPECT_FALSE(archive_intact(bytes));
}

TEST(Archive, ContentCorruptionInvisibleToHeaders) {
    // A flipped content byte does NOT trip the header checksums — that is
    // exactly why the paper's md5sum step exists.
    auto bytes = corpus_archive(small_config(), 5);
    bytes[kRecordSize + 10] ^= 0x01;  // first file's contents
    EXPECT_TRUE(archive_intact(bytes));
    EXPECT_NO_THROW((void)read_archive(bytes));
}

TEST(Archive, TruncationDetected) {
    auto bytes = corpus_archive(small_config(), 5);
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW((void)read_archive(bytes), core::CorruptData);
}

TEST(Archive, MissingEndMarker) {
    auto bytes = corpus_archive(small_config(), 5);
    bytes.resize(bytes.size() - 2 * kRecordSize);
    EXPECT_THROW((void)read_archive(bytes), core::CorruptData);
}

TEST(Archive, OverlongPathRejected) {
    std::vector<CorpusFile> files{{std::string(150, 'p'), {1, 2, 3}}};
    EXPECT_THROW((void)write_archive(files), core::InvalidArgument);
}

}  // namespace
}  // namespace zerodeg::workload
