// Season performance benchmark: the number the perf gate watches.
//
// Two measurements, both timed with core::bench_clock (the lint-sanctioned
// seam — no google-benchmark, no per-line suppressions):
//
//   1. Season sweep: run a `--seeds N` census (the default paper season,
//      5184 ticks each) `--repeat R` times and keep the best wall time.
//      Reported as cells/sec (census cells, i.e. seasons) and ticks/sec
//      (seeds x ticks-per-season / best wall).
//   2. Traffic sweep: the same census under the request-serving workload
//      (`--workload traffic` in the CLI) — the continuous-time PS queues,
//      JSQ dispatch and SLO accounting dominate instead of the archive
//      scheduler.  Reported as requests/sec (completed requests across all
//      seeds / best wall).
//   3. Hazard kernel microbench: HostHazardModel::hazard_per_hour over
//      4096 deterministic stress slots, reported as hazard-evals/sec.
//   4. Frost codec microbench: compressing a deterministic 1 MiB corpus
//      through the bzip2 stand-in (the load-generation hot loop), reported
//      as MB/s of input compressed, with a roundtrip sanity check.
//
// Results go to stdout for humans and to `--out FILE` (default
// BENCH_tick.json) as zerodeg-bench-tick/1 JSON for scripts/compare_bench.py,
// which gates scripts/check.sh against the checked-in BENCH_baseline.json.
//
// The census output itself is byte-identical across jobs values (pinned by
// tests/test_parallel_determinism.cpp); this binary only measures speed,
// but it still prints the summary fingerprint fields so a perf run that
// silently changed *results* is visible in the JSON diff.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bench_clock.hpp"
#include "experiment/parallel_census.hpp"
#include "faults/hazard.hpp"
#include "workload/compressor.hpp"

namespace {

using zerodeg::core::bench_clock;

struct Options {
    std::size_t seeds = 4;
    int repeat = 3;
    std::size_t jobs = 1;
    std::string out = "BENCH_tick.json";
};

[[noreturn]] void usage_error(const std::string& message) {
    std::cerr << "error: " << message << "\n"
              << "usage: bench_perf_tick [--seeds N] [--repeat N] [--jobs N] [--out FILE]\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "--seeds") {
            opt.seeds = static_cast<std::size_t>(std::strtoull(value("--seeds").c_str(), nullptr, 10));
            if (opt.seeds == 0) usage_error("--seeds must be >= 1");
        } else if (arg == "--repeat") {
            opt.repeat = std::atoi(value("--repeat").c_str());
            if (opt.repeat < 1) usage_error("--repeat must be >= 1");
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<std::size_t>(std::strtoull(value("--jobs").c_str(), nullptr, 10));
        } else if (arg == "--out") {
            opt.out = value("--out");
        } else {
            usage_error("unknown flag " + arg);
        }
    }
    return opt;
}

/// Fixed-point-free JSON number formatting: full double precision, no
/// locale surprises.
std::string num(double v) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(17);
    os << v;
    return os.str();
}

/// Hazard-kernel microbench: 4096 deterministic stress slots spanning the
/// tent's operating envelope, evaluated until the repeat budget is spent.
/// Returns evals/sec from the best repeat.
double hazard_kernel_evals_per_sec(int repeat) {
    using zerodeg::core::Celsius;
    using zerodeg::core::RelHumidity;
    constexpr std::size_t kSlots = 4096;
    constexpr int kItersPerRepeat = 500;
    std::vector<zerodeg::faults::StressState> slots(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
        // Deterministic coverage of the envelope: -25..+35 C, 30..95 %RH,
        // 0..40k hours, 0..6 K/h, every 7th host flaky.
        zerodeg::faults::StressState& s = slots[i];
        s.intake = Celsius{-25.0 + 60.0 * static_cast<double>(i) / kSlots};
        s.humidity = RelHumidity{30.0 + 65.0 * static_cast<double>((i * 37) % kSlots) / kSlots};
        s.age_hours = 40000.0 * static_cast<double>((i * 101) % kSlots) / kSlots;
        s.cycling_rate_k_per_h = 6.0 * static_cast<double>((i * 13) % kSlots) / kSlots;
        s.known_unreliable = (i % 7) == 0;
    }
    const zerodeg::faults::HostHazardModel model;
    double sink = 0.0;
    double best = 0.0;
    for (int r = 0; r < repeat; ++r) {
        const auto t0 = bench_clock::now();
        for (int it = 0; it < kItersPerRepeat; ++it) {
            for (const zerodeg::faults::StressState& s : slots) {
                sink += model.hazard_per_hour(s);  // keep the evaluation observable
            }
        }
        const double secs = bench_clock::seconds_between(t0, bench_clock::now());
        const double rate = static_cast<double>(kSlots) * kItersPerRepeat / secs;
        if (rate > best) best = rate;
    }
    if (sink == -1.0) std::cerr << "";  // defeat dead-code elimination
    return best;
}

/// Frost-codec microbench: a deterministic, realistically compressible
/// 1 MiB corpus (text-like alphabet with interspersed zero runs, the same
/// flavour the load jobs archive) pushed through frost_compress.  Returns
/// MB of *input* per second from the best repeat; aborts if the container
/// stops roundtripping (a fast-but-wrong codec must fail the gate, not win
/// it).
double frost_codec_mb_per_sec(int repeat) {
    namespace workload = zerodeg::workload;
    constexpr std::size_t kCorpusBytes = 1 << 20;
    constexpr int kItersPerRepeat = 4;
    std::vector<std::uint8_t> corpus(kCorpusBytes);
    for (std::size_t i = 0; i < kCorpusBytes; ++i) {
        // Knuth-hash phase picks between a 19-letter alphabet and short
        // zero runs: ~2:1 compressible, never degenerate.
        const std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u;
        corpus[i] = (h >> 13) % 5 == 0 ? 0 : static_cast<std::uint8_t>('a' + (h >> 21) % 19);
    }
    const workload::CompressorConfig config;  // the load jobs' 16 KiB blocks
    const std::vector<std::uint8_t> check = workload::frost_decompress(
        workload::frost_compress(corpus, config));
    if (check != corpus) {
        std::cerr << "error: frost codec roundtrip failed on the bench corpus\n";
        std::exit(1);
    }
    std::size_t sink = 0;
    double best = 0.0;
    for (int r = 0; r < repeat; ++r) {
        const auto t0 = bench_clock::now();
        for (int it = 0; it < kItersPerRepeat; ++it) {
            sink += workload::frost_compress(corpus, config).size();
        }
        const double secs = bench_clock::seconds_between(t0, bench_clock::now());
        const double rate = static_cast<double>(kCorpusBytes) * kItersPerRepeat / secs / 1e6;
        if (rate > best) best = rate;
    }
    if (sink == 0) std::cerr << "";  // defeat dead-code elimination
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    namespace experiment = zerodeg::experiment;

    experiment::CensusPlan plan;
    plan.seeds = opt.seeds;

    const experiment::ExperimentConfig defaults;
    const std::size_t ticks_per_season = static_cast<std::size_t>(
        (defaults.end - defaults.start).count() / defaults.tick.count());

    std::cout << "bench_perf_tick: seeds=" << opt.seeds << " repeat=" << opt.repeat
              << " jobs=" << opt.jobs << " (" << ticks_per_season << " ticks/season)\n";

    double best_wall = 0.0;
    experiment::CensusResult result;
    for (int r = 0; r < opt.repeat; ++r) {
        const auto t0 = bench_clock::now();
        result = experiment::run_census(plan, opt.jobs);
        const double secs = bench_clock::seconds_between(t0, bench_clock::now());
        std::cout << "  repeat " << (r + 1) << "/" << opt.repeat << ": " << num(secs)
                  << " s\n";
        if (r == 0 || secs < best_wall) best_wall = secs;
    }

    const double cells_per_sec = static_cast<double>(opt.seeds) / best_wall;
    const double ticks_per_sec =
        static_cast<double>(opt.seeds) * static_cast<double>(ticks_per_season) / best_wall;

    // The same sweep under the traffic workload: how fast the PS-queue
    // event loop serves requests, end to end through the season coupling.
    experiment::CensusPlan traffic_plan = plan;
    traffic_plan.make_config = [&](std::size_t, std::uint64_t seed) {
        experiment::ExperimentConfig config;
        config.master_seed = seed;
        config.workload = experiment::WorkloadKind::kTraffic;
        return config;
    };
    double traffic_best_wall = 0.0;
    experiment::CensusResult traffic_result;
    for (int r = 0; r < opt.repeat; ++r) {
        const auto t0 = bench_clock::now();
        traffic_result = experiment::run_census(traffic_plan, opt.jobs);
        const double secs = bench_clock::seconds_between(t0, bench_clock::now());
        std::cout << "  traffic repeat " << (r + 1) << "/" << opt.repeat << ": " << num(secs)
                  << " s\n";
        if (r == 0 || secs < traffic_best_wall) traffic_best_wall = secs;
    }
    double requests_completed = 0.0;
    for (const experiment::FaultCensus& c : traffic_result.censuses) {
        requests_completed += static_cast<double>(c.requests_completed);
    }
    const double requests_per_sec = requests_completed / traffic_best_wall;

    const double hazard_rate = hazard_kernel_evals_per_sec(opt.repeat);
    const double frost_rate = frost_codec_mb_per_sec(opt.repeat);

    std::cout << "  best wall:        " << num(best_wall) << " s\n"
              << "  cells/sec:        " << num(cells_per_sec) << "\n"
              << "  ticks/sec:        " << num(ticks_per_sec) << "\n"
              << "  traffic requests/sec: " << num(requests_per_sec) << "\n"
              << "  hazard evals/sec: " << num(hazard_rate) << "\n"
              << "  frost codec MB/s: " << num(frost_rate) << "\n"
              << "  mean system failures (sanity): "
              << num(result.summary.mean_system_failures) << "\n"
              << "  mean requests completed (sanity): "
              << num(traffic_result.summary.mean_requests_completed) << "\n";

    // bench output is a scratch artifact, not simulation state, so a plain
    // ofstream (not the core::io durable seam) is appropriate here.
    std::ofstream json(opt.out, std::ios::trunc);
    if (!json) {
        std::cerr << "error: cannot write " << opt.out << "\n";
        return 1;
    }
    json << "{\n"
         << "  \"schema\": \"zerodeg-bench-tick/1\",\n"
         << "  \"config\": {\n"
         << "    \"seeds\": " << opt.seeds << ",\n"
         << "    \"repeat\": " << opt.repeat << ",\n"
         << "    \"jobs\": " << opt.jobs << ",\n"
         << "    \"ticks_per_season\": " << ticks_per_season << ",\n"
         << "    \"mean_system_failures\": " << num(result.summary.mean_system_failures)
         << ",\n"
         << "    \"mean_requests_completed\": "
         << num(traffic_result.summary.mean_requests_completed) << "\n"
         << "  },\n"
         << "  \"metrics\": {\n"
         << "    \"cells_per_sec\": " << num(cells_per_sec) << ",\n"
         << "    \"ticks_per_sec\": " << num(ticks_per_sec) << ",\n"
         << "    \"traffic_requests_per_sec\": " << num(requests_per_sec) << ",\n"
         << "    \"hazard_evals_per_sec\": " << num(hazard_rate) << ",\n"
         << "    \"frost_codec_mb_per_sec\": " << num(frost_rate) << "\n"
         << "  },\n"
         << "  \"wall_seconds_best\": " << num(best_wall) << ",\n"
         << "  \"traffic_wall_seconds_best\": " << num(traffic_best_wall) << "\n"
         << "}\n";
    json.close();
    std::cout << "wrote " << opt.out << "\n";
    return 0;
}
