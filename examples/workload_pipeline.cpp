// The synthetic load end-to-end on real bytes: build a source-tree corpus,
// pack it (frost::Archive), compress it (frost), hash it (MD5), then flip a
// single bit the way a DRAM soft error would and watch the verify step catch
// it and the recovery utility pin down the one damaged block out of ~396.
//
//   ./build/examples/workload_pipeline
#include <iostream>

#include "core/rng.hpp"
#include "experiment/report.hpp"
#include "workload/archive.hpp"
#include "workload/compressor.hpp"
#include "workload/corpus.hpp"
#include "workload/md5.hpp"
#include "workload/recover.hpp"

int main() {
    using namespace zerodeg;
    using namespace zerodeg::workload;

    // 1+2. A deterministic kernel-source-like tree, generated straight into
    // its tar stream.
    const std::vector<std::uint8_t> tarball = corpus_archive(CorpusConfig{}, /*seed=*/2010);
    const std::vector<CorpusFile> corpus = read_archive(tarball);
    std::size_t corpus_bytes = 0;
    for (const CorpusFile& f : corpus) corpus_bytes += f.contents.size();
    std::cout << "corpus: " << corpus.size() << " files, " << corpus_bytes << " bytes\n";
    std::cout << "archive: " << tarball.size() << " bytes\n";

    // 3. bzip2 (frost), sized for the paper's ~396 blocks
    CompressorConfig cc;
    cc.block_size = std::max<std::size_t>(1024, tarball.size() / 396);
    const std::vector<std::uint8_t> packed = frost_compress(tarball, cc);
    const std::size_t blocks = frost_block_directory(packed).size();
    std::cout << "compressed: " << packed.size() << " bytes in " << blocks << " blocks ("
              << experiment::fmt(100.0 * static_cast<double>(packed.size()) /
                                     static_cast<double>(tarball.size()),
                                 1)
              << "% of input)\n";

    // 4. md5sum reference
    const Md5Digest reference = md5(packed);
    std::cout << "reference md5: " << to_hex(reference) << "\n\n";

    // 5. a single DRAM bit flips mid-run
    std::vector<std::uint8_t> damaged = packed;
    core::RngStream rng(424242, "example.flip");
    const auto byte = static_cast<std::size_t>(
        rng.uniform_int(12, static_cast<std::int64_t>(damaged.size()) - 1));
    damaged[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    std::cout << "flipped one bit at byte offset " << byte << '\n';

    // 6. the verify step catches it
    const Md5Digest actual = md5(damaged);
    std::cout << "damaged md5:   " << to_hex(actual)
              << (actual == reference ? "  (MATCH?!)" : "  -> MISMATCH, tarball stored") << '\n';

    // 7. bzip2recover-style forensics
    const RecoveryReport report = frost_recover(damaged);
    std::cout << "recovery: " << report.total_blocks << " blocks scanned, "
              << report.corrupt_blocks.size() << " corrupted";
    for (const std::size_t idx : report.corrupt_blocks) std::cout << " (block #" << idx << ")";
    std::cout << "\n          " << report.salvaged_bytes << " bytes salvaged, "
              << report.lost_bytes << " bytes lost\n";
    std::cout << "\n-> the paper's Section 4.2.2 forensics, on live bytes: one flip, one\n"
                 "   bad block out of ~396, everything else recoverable.\n";

    // 8. round-trip sanity on the pristine container
    const std::vector<std::uint8_t> unpacked = frost_decompress(packed);
    const std::vector<CorpusFile> files = read_archive(unpacked);
    std::cout << "\nround-trip: " << files.size() << " files restored, "
              << (unpacked == tarball ? "OK" : "MISMATCH") << '\n';
    return 0;
}
