// zerodeg_bench — the repository benchmark.
//
//   zerodeg_bench --workload archive|traffic|campaign --seed N --seconds S
//                 --trace 0|1 --pins DIR --work-dir DIR [--base-seed B]
//   zerodeg_bench --workload W --capture-pins FILE
//
// With --trace 0 it measures the end-to-end metrics of one workload for S
// seconds; with --trace 1 it measures the per-layer metrics instead.  The
// last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Every cell's census is checked against the pins
// (base seed 20100219) or, for any other --base-seed, against a local
// reference run; a mismatch makes the exit code non-zero.  See README.md
// beside this file for the workloads and metrics.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "campaign.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep_journal.hpp"

namespace {

using namespace zdbench;
namespace core = zerodeg::core;
namespace ex = zerodeg::experiment;
namespace fs = std::filesystem;

/// Census workloads run their cells on a pool of two workers.
constexpr std::size_t kCensusJobs = 2;
/// set-up is repeated this many times and its median reported.
constexpr int kSetupRepeats = 15;
/// A campaign still running after this long is stopped and failed.
constexpr double kCampaignDeadlineS = 60.0;
/// Pin capture runs its censuses on this many workers.
constexpr std::size_t kCaptureJobs = 3;
/// glibc's largest mmap threshold on 64-bit hosts (HEAP_MAX_SIZE / 2).
constexpr int kMmapThresholdBytes = 32 * 1024 * 1024;

struct Options {
    Workload workload = Workload::kArchive;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t base_seed = kPinnedBaseSeed;
    fs::path pins_dir;
    fs::path work_dir;
    fs::path capture;
};

[[noreturn]] void usage(const std::string& message) {
    std::cerr << "zerodeg_bench: " << message << "\n"
              << "usage: zerodeg_bench --workload archive|traffic|campaign --seed N --seconds S\n"
              << "                     --trace 0|1 --pins DIR --work-dir DIR [--base-seed B]\n"
              << "       zerodeg_bench --workload W --capture-pins FILE\n";
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end == nullptr || *end != '\0') usage(flag + " wants a number");
    return v;
}

Options parse(int argc, char** argv) {
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            have_workload = true;
            if (value == "archive") {
                opt.workload = Workload::kArchive;
            } else if (value == "traffic") {
                opt.workload = Workload::kTraffic;
            } else if (value == "campaign") {
                opt.workload = Workload::kCampaign;
            } else {
                usage("unknown workload '" + value + "'");
            }
        } else if (arg == "--seed") {
            opt.seed = parse_u64(arg, value);
        } else if (arg == "--seconds") {
            opt.seconds = static_cast<double>(parse_u64(arg, value));
            if (opt.seconds < 1) usage("--seconds must be at least 1");
        } else if (arg == "--trace") {
            opt.trace = parse_u64(arg, value) != 0;
        } else if (arg == "--base-seed") {
            opt.base_seed = parse_u64(arg, value);
        } else if (arg == "--pins") {
            opt.pins_dir = value;
        } else if (arg == "--work-dir") {
            opt.work_dir = value;
        } else if (arg == "--capture-pins") {
            opt.capture = value;
        } else {
            usage("unknown flag " + arg);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (opt.capture.empty() && (opt.pins_dir.empty() || opt.work_dir.empty())) {
        usage("--pins and --work-dir are required");
    }
    return opt;
}

/// The q-quantile, interpolating between order statistics.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Returns the allocator's free memory to the kernel, then resets the
/// process's peak resident set to its current size (Linux 4.0 and later).
/// Where that is refused, peak_rss_mb() keeps reading the peak since the
/// process started.
void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    if (!clear) std::cerr << "could not reset the peak resident set\n";
}

/// The process's peak resident set since the last reset, in MB.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
    }
    throw core::Error("no VmHWM in /proc/self/status");
}

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// --- cells, batches and the output check ------------------------------------

/// The cells one run works through: batch b is pool batch (offset + b) mod
/// the number of pool batches, with `offset` drawn from --seed.
struct Run {
    Workload workload;
    Shape shape;
    std::uint64_t base_seed;
    std::size_t offset;

    [[nodiscard]] std::size_t pool_batches() const { return shape.pool / shape.batch; }
    [[nodiscard]] std::size_t pool_batch(std::size_t b) const {
        return (offset + b) % pool_batches();
    }
    /// The plan of pool batch `pb`: cell i has master seed base_seed + i.
    [[nodiscard]] ex::CensusPlan plan(std::size_t pb) const {
        ex::CensusPlan p;
        p.base_seed = base_seed + pb * shape.batch;
        p.seeds = shape.batch;
        const Workload w = workload;
        p.make_config = [w](std::size_t, std::uint64_t seed) { return cell_season(w, seed); };
        return p;
    }
};

/// One cell's output as run: its pool index and journal record ("" if the
/// cell failed to produce one).
struct Produced {
    std::size_t pool_index = 0;
    std::string record;
};

fs::path pins_file(const fs::path& dir, Workload w) {
    return dir / (std::string(to_string(w)) + ".pins");
}

std::vector<std::string> load_pins(const fs::path& dir, Workload w, const Shape& shape) {
    const fs::path path = pins_file(dir, w);
    std::istringstream in(core::real_fs().read_file(path));
    std::vector<std::string> pins;
    std::string line;
    std::string header;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line[0] == '#') {
            if (header.empty()) header = line;
            continue;
        }
        const ex::CellRecord rec = ex::decode_cell_record(line, shape.pool);
        if (rec.index != pins.size()) throw core::CorruptData(path.string() + ": records out of order");
        pins.push_back(line);
    }
    if (pins.size() != shape.pool ||
        header.find("base seed " + std::to_string(kPinnedBaseSeed)) == std::string::npos) {
        throw core::CorruptData(path.string() + ": expected " + std::to_string(shape.pool) +
                                " cells pinned at base seed " + std::to_string(kPinnedBaseSeed));
    }
    if (w == Workload::kTraffic) {
        // The golden traffic season of the base seed: 787661 completed.
        const FaultCensus golden = ex::decode_cell_record(pins.front()).census;
        if (golden.requests_completed != 787661 || golden.deadline_misses != 18625) {
            throw core::CorruptData(path.string() + ": cell 0 is not the golden traffic season");
        }
    }
    return pins;
}

/// Counts the produced cells whose record differs from the expected one:
/// the pins at the pinned base seed, else a local reference run of plain
/// run_season_census cells.
std::size_t count_failed(const Options& opt, const Run& run, const std::vector<Produced>& produced) {
    std::vector<std::string> expected(run.shape.pool);
    if (run.base_seed == kPinnedBaseSeed) {
        expected = load_pins(opt.pins_dir, run.workload, run.shape);
    } else {
        std::vector<bool> done(run.pool_batches(), false);
        for (const Produced& p : produced) {
            const std::size_t pb = p.pool_index / run.shape.batch;
            if (done[pb]) continue;
            done[pb] = true;
            const ex::CensusResult ref = ex::run_census(run.plan(pb), kCensusJobs);
            for (std::size_t i = 0; i < ref.censuses.size(); ++i) {
                const std::size_t k = pb * run.shape.batch + i;
                expected[k] = ex::encode_cell_record(k, ref.censuses[i]);
            }
        }
    }
    std::size_t failed = 0;
    for (const Produced& p : produced) {
        if (p.record.empty() || p.record != expected[p.pool_index]) {
            ++failed;
            std::cerr << "cell " << p.pool_index << " (seed " << run.base_seed + p.pool_index
                      << ") does not match: got '" << p.record << "'\n";
        }
    }
    return failed;
}

// --- reporting ----------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
    /// Printed for people but left out of the JSON result, which holds
    /// exactly the metrics BENCHMARK.json declares.
    bool info = false;
};

struct Report {
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool self_checks_ok = true;

    void add(std::string name, double value, std::string unit, std::string note = {}) {
        metrics.push_back({std::move(name), value, std::move(unit), std::move(note), false});
    }
    void info(std::string name, double value, std::string unit, std::string note = {}) {
        metrics.push_back({std::move(name), value, std::move(unit), std::move(note), true});
    }
};

int emit(const Options& opt, const Report& report) {
    const bool correct = report.failed == 0 && report.self_checks_ok;
    std::cout << "zerodeg benchmark: workload " << to_string(opt.workload) << ", seed "
              << opt.seed << ", base seed " << opt.base_seed << ", "
              << (opt.trace ? "traced" : "untraced") << " run\n";
    const auto print = [](const Metric& m) {
        char line[256];
        std::snprintf(line, sizeof line, "  %-28s %16.6f %-6s %s%s", m.name.c_str(), m.value,
                      m.unit.c_str(), m.info ? "[info] " : "", m.note.c_str());
        std::cout << line << '\n';
    };
    for (const Metric& m : report.metrics) print(m);
    const double failed_frac = report.attempted == 0 ? 0.0
                                                     : static_cast<double>(report.failed) /
                                                           static_cast<double>(report.attempted);
    print({"cells_failed_frac", failed_frac, "ratio",
           std::to_string(report.failed) + " of " + std::to_string(report.attempted) +
               " cells; the JSON carries them as failed/attempted",
           true});
    if (!report.self_checks_ok) std::cout << "  SELF-CHECK FAILED\n";

    std::ostringstream json;
    json.precision(12);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
         << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : report.metrics) {
        if (m.info) continue;
        json << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << m.value
             << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
}

/// Per-cell times from the run_cell wrapper, across worker threads.
class CellClock {
public:
    void add(double s) {
        const std::scoped_lock lock(mutex_);
        cells_.push_back(s);
    }
    [[nodiscard]] std::vector<double> take() {
        const std::scoped_lock lock(mutex_);
        return std::exchange(cells_, {});
    }

private:
    std::mutex mutex_;
    std::vector<double> cells_;
};

/// Times each cell by the CPU time of the thread that runs it: a season runs
/// on one thread, so this is its cost without the waits a shared host adds.
void time_cells(ex::CensusPlan& plan, CellClock& clock) {
    plan.run_cell = [&clock](const ExperimentConfig& config) {
        const double t0 = thread_cpu_seconds();
        FaultCensus census = ex::run_season_census(config);
        clock.add(thread_cpu_seconds() - t0);
        return census;
    };
}

void fresh_dir(const fs::path& dir) {
    fs::remove_all(dir);
    fs::create_directories(dir);
}

/// set-up: build and validate the first batch's configs and construct one
/// ExperimentRunner for cell 0 (which also warms caches); for the campaign
/// also open the coordinator's merged journal and bind the listener.  Timed
/// in CPU time of the one thread that does it, like the cells.
double measure_setup(const Options& opt, const Run& run) {
    std::vector<double> samples;
    const ex::CensusPlan plan = run.plan(run.pool_batch(0));
    for (int r = 0; r < kSetupRepeats; ++r) {
        const fs::path dir = opt.work_dir / ("setup" + std::to_string(r));
        if (run.workload == Workload::kCampaign) fresh_dir(dir);
        OpenCampaign open;
        const double t0 = thread_cpu_seconds();
        std::vector<ExperimentConfig> configs;
        for (std::size_t i = 0; i < plan.seeds; ++i) configs.push_back(ex::cell_config(plan, i));
        const auto runner = std::make_unique<ex::ExperimentRunner>(configs.front());
        if (run.workload == Workload::kCampaign) open = open_campaign(plan, dir, nullptr);
        samples.push_back(thread_cpu_seconds() - t0);
    }
    return median(samples);
}

void add_cell_metrics(Report& report, std::vector<double> cells) {
    std::sort(cells.begin(), cells.end());
    const std::size_t n = cells.size();
    report.add("cell_p50_s", median(cells), "s",
               "median of the " + std::to_string(n) + " cells of those batches");
    if (n == 0) return;
    // The highest percentile with at least ten cells beyond it.  A short run
    // has too few cells for that to lie above the median; it reports the
    // costliest cell instead.
    const std::size_t k = n > 21 ? n - 11 : n - 1;
    char note[96];
    std::snprintf(note, sizeof note, "p%.1f of %zu cells (%zu beyond)",
                  100.0 * static_cast<double>(k + 1) / static_cast<double>(n), n, n - k - 1);
    report.add("cell_tail_s", cells[k], "s", note);
}

/// One batch run the workload's way: its timed window and its cells'
/// records under their pool indices ("" for a cell that failed).
struct Batch {
    double window_s = 0.0;
    std::vector<std::string> records;
    std::uint64_t requests = 0;  ///< traffic requests completed
};

/// Campaign-layer figures summed over traced campaigns.
struct CampaignTotals {
    FsStats merged;
    FsStats worker;
    NetStats net;
    double coordinator_frames = 0.0;
    double duplicates = 0.0;
    double heartbeats = 0.0;
    double resends = 0.0;
};

/// Runs `plan`, whose cells are pool cells first, first + 1, ..., as the
/// workload does: a census on a two-worker pool, or a campaign in the fresh
/// directory `dir` (its sockets; the journals stay in memory).  With
/// `spans`, a campaign's journals and sockets are decorated and their
/// figures added to `totals`.
Batch run_batch(const Run& run, const ex::CensusPlan& plan, std::size_t first,
                const fs::path& dir, SpanLog* spans, CampaignTotals* totals) {
    Batch batch;
    batch.records.assign(plan.seeds, "");
    if (run.workload != Workload::kCampaign) {
        const auto t0 = Clock::now();
        try {
            const ex::CensusResult result = ex::run_census(plan, kCensusJobs);
            batch.window_s = seconds_since(t0);
            for (std::size_t i = 0; i < plan.seeds; ++i) {
                batch.records[i] = ex::encode_cell_record(first + i, result.censuses[i]);
                batch.requests += result.censuses[i].requests_completed;
            }
        } catch (const std::exception& e) {
            batch.window_s = seconds_since(t0);
            std::cerr << "census from cell " << first << ": " << e.what() << '\n';
        }
        return batch;
    }

    fresh_dir(dir);
    OpenCampaign open = open_campaign(plan, dir, spans);
    const CampaignOutcome out = serve_campaign(plan, open, kCampaignDeadlineS);
    batch.window_s = out.window_s;
    if (!out.error.empty()) std::cerr << "campaign from cell " << first << ": " << out.error << '\n';
    for (std::size_t i = 0; i < plan.seeds; ++i) {
        if (out.error.empty() && out.censuses[i]) {
            batch.records[i] = ex::encode_cell_record(first + i, *out.censuses[i]);
        }
    }
    if (open.meters && totals != nullptr) {
        totals->merged += open.meters->merged.stats();
        totals->worker += open.meters->worker.stats();
        totals->net += open.meters->net.stats();
        totals->coordinator_frames += static_cast<double>(out.coordinator.frames);
        totals->duplicates += static_cast<double>(out.coordinator.duplicates);
        for (const ex::WorkerReport& r : out.workers) {
            totals->heartbeats += static_cast<double>(r.heartbeats_sent);
            totals->resends += static_cast<double>(r.resends);
        }
    }
    open = {};
    fs::remove_all(dir);
    return batch;
}

void add_records(std::vector<Produced>& produced, std::size_t first, const Batch& batch) {
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
        produced.push_back({first + i, batch.records[i]});
    }
}

// --- untraced runs: end-to-end metrics ------------------------------------------

int run_end_to_end(const Options& opt, const Run& run) {
    Report report;
    const double setup_s = measure_setup(opt, run);
    fs::remove_all(opt.work_dir);

    CellClock clock;
    std::vector<Produced> produced;
    std::vector<double> batch_rates;
    std::vector<std::vector<double>> batch_cells;
    std::vector<double> batch_rss_mb;
    double window_s = 0.0;
    std::uint64_t requests = 0;
    for (std::size_t b = 0; b == 0 || window_s < opt.seconds; ++b) {
        const std::size_t pb = run.pool_batch(b);
        ex::CensusPlan plan = run.plan(pb);
        time_cells(plan, clock);
        const std::size_t first = pb * run.shape.batch;
        reset_peak_rss();
        const Batch batch =
            run_batch(run, plan, first, opt.work_dir / ("c" + std::to_string(b)), nullptr, nullptr);
        batch_rss_mb.push_back(peak_rss_mb());
        window_s += batch.window_s;
        requests += batch.requests;
        batch_rates.push_back(static_cast<double>(plan.seeds) / batch.window_s);
        batch_cells.push_back(clock.take());
        add_records(produced, first, batch);
    }
    fs::remove_all(opt.work_dir);

    report.attempted = produced.size();
    report.failed = count_failed(opt, run, produced);
    // Load from outside the process only ever slows a batch down, so speed
    // is read from the faster half of the run's batches: those whose rate is
    // at or above the median rate.
    const double median_rate = median(batch_rates);
    std::vector<double> fast_rates;
    std::vector<double> fast_cells;
    for (std::size_t b = 0; b < batch_rates.size(); ++b) {
        if (batch_rates[b] < median_rate) continue;
        fast_rates.push_back(batch_rates[b]);
        fast_cells.insert(fast_cells.end(), batch_cells[b].begin(), batch_cells[b].end());
    }
    report.add("cells_per_s", median(fast_rates), "1/s",
               "median of the faster " + std::to_string(fast_rates.size()) + " of " +
                   std::to_string(batch_rates.size()) + " batches; " +
                   std::to_string(produced.size()) + " cells in " + std::to_string(window_s) +
                   " s");
    add_cell_metrics(report, fast_cells);
    report.add("setup_s", setup_s, "s", "median of " + std::to_string(kSetupRepeats));
    // What stays mapped around live blocks after a trim grows over a run, in
    // steps whose timing varies from run to run; the lower quartile of the
    // batches' peaks reads the batches before such a step.
    report.add("peak_rss_mb", quantile(batch_rss_mb, 0.25), "MB",
               "lower quartile of " + std::to_string(batch_rss_mb.size()) + " batches' peaks");
    if (run.workload == Workload::kTraffic) {
        report.info("requests_per_s", static_cast<double>(requests) / window_s, "1/s",
                    std::to_string(requests) + " requests completed");
    }
    return emit(opt, report);
}

// --- traced runs: per-layer metrics -----------------------------------------------

/// Installs the stepped, classified season as the plan's run_cell.
void trace_cells(ex::CensusPlan& plan, TraceSlots& slots, SpanLog& spans) {
    plan.run_cell = [&slots, &spans](const ExperimentConfig& config) {
        return traced_season(config, slots.cell_of(config.master_seed), spans,
                             slots.slot(config.master_seed));
    };
}

/// The workload probes and the traffic replay over the traced cells, run
/// serially outside both timed walls.
void add_probe_metrics(const Run& run, const TraceSlots& slots, SpanLog& spans, Report& report) {
    std::vector<double> build_s;
    std::vector<double> recover_ms;
    std::vector<double> md5_ms;
    std::uint64_t replayed = 0;
    std::uint64_t completed = 0;
    double advance_s = 0.0;
    for (const auto& [seed, trace] : slots.all()) {
        const ExperimentConfig config = cell_season(run.workload, seed);
        const ProbeTimes probe = probe_workload(config, slots.cell_of(seed), spans);
        build_s.push_back(probe.loadjob_build_s);
        recover_ms.push_back(probe.recover_s * 1e3);
        md5_ms.push_back(probe.md5_s * 1e3);
        if (run.workload == Workload::kTraffic) {
            const ReplayResult replay = replay_traffic(config, trace, slots.cell_of(seed), spans);
            replayed += replay.completed;
            advance_s += replay.advance_s;
            completed += trace.census.requests_completed;
        }
    }
    report.add("archive.loadjob_build_s", median(build_s), "s", "median per build");
    report.add("archive.recover_ms", median(recover_ms), "ms", "median per call");
    report.add("archive.md5_ms", median(md5_ms), "ms", "median per call");
    report.add("traffic.requests", static_cast<double>(completed), "count", "exact");
    if (replayed != completed) {
        // The replay did not reproduce the seasons: report no estimate.
        std::cerr << "self-check: the traffic replay completed " << replayed
                  << " requests, the seasons " << completed << '\n';
        report.self_checks_ok = false;
        report.add("traffic.advance_s", 0.0, "s", "unresolved");
        report.add("traffic.us_per_request", 0.0, "us", "unresolved");
        return;
    }
    report.add("traffic.advance_s", advance_s, "s");
    report.add("traffic.us_per_request",
               completed == 0 ? 0.0 : advance_s * 1e6 / static_cast<double>(completed), "us");
}

int run_traced(const Options& opt, const Run& run) {
    Report report;
    SpanLog spans;
    const std::size_t pb = run.pool_batch(0);
    const std::size_t first = pb * run.shape.batch;
    const bool campaign = run.workload == Workload::kCampaign;

    std::vector<Produced> produced;
    CellClock clock;
    SeasonCounters season;        // summed over traced passes
    SeasonCounters first_counts;  // the first traced pass, for the repeat check
    CampaignTotals totals;
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    double cell_s = 0.0;
    int passes = 0;
    bool counts_repeat = true;
    bool stepped_identical = true;

    // Untraced and traced passes over the run's first batch alternate, so
    // their walls see the same host conditions.
    const auto t_start = Clock::now();
    while (passes == 0 || seconds_since(t_start) < opt.seconds) {
        const std::string tag = std::to_string(passes);
        ex::CensusPlan plain = run.plan(pb);
        time_cells(plain, clock);
        const Batch untraced =
            run_batch(run, plain, first, opt.work_dir / ("u" + tag), nullptr, nullptr);
        untraced_wall += untraced.window_s;
        for (const double s : clock.take()) cell_s += s;

        ex::CensusPlan stepped = run.plan(pb);
        TraceSlots slots(run.base_seed, first, stepped.seeds);
        trace_cells(stepped, slots, spans);
        const Batch traced =
            run_batch(run, stepped, first, opt.work_dir / ("t" + tag), &spans, &totals);
        traced_wall += traced.window_s;

        SeasonCounters pass;
        for (const auto& [seed, trace] : slots.all()) pass += trace.counters;
        season += pass;
        if (passes == 0) {
            first_counts = pass;
            add_probe_metrics(run, slots, spans, report);
        } else if (!pass.same_counts(first_counts)) {
            counts_repeat = false;
        }
        if (traced.records != untraced.records) stepped_identical = false;
        add_records(produced, first, untraced);
        add_records(produced, first, traced);
        ++passes;
    }
    fs::remove_all(opt.work_dir);

    if (!stepped_identical) std::cerr << "self-check: stepped census differs from run()\n";
    if (!counts_repeat) std::cerr << "self-check: exact counts differ between traced passes\n";
    report.self_checks_ok = report.self_checks_ok && stepped_identical && counts_repeat;
    report.attempted = produced.size();
    report.failed = count_failed(opt, run, produced);

    const double p = static_cast<double>(passes);
    double step_total = 0.0;
    report.add("season.setup_s", season.setup_s / p, "s");
    report.add("event_queue.events", static_cast<double>(first_counts.events), "count", "exact");
    for (std::size_t c = 0; c < kStepClasses; ++c) {
        const std::string name = std::string("season.") + to_string(static_cast<StepClass>(c));
        report.add(name + ".n", static_cast<double>(first_counts.steps[c]), "count", "exact");
        report.add(name + ".s", season.step_s[c] / p, "s");
        step_total += season.step_s[c];
    }
    report.add("season.coverage", season.loop_s > 0 ? step_total / season.loop_s : 0.0, "ratio");
    report.add("archive.blocks_decoded", static_cast<double>(first_counts.blocks_decoded), "count",
               "exact");
    report.add("archive.md5_bytes", static_cast<double>(first_counts.md5_bytes), "bytes",
               "exact");
    // Each workload reports every per-layer metric; the layers it does not
    // run read 0.  A census runs its cells on a task pool, a campaign on
    // two lease workers.
    const double workers = static_cast<double>(campaign ? kCampaignWorkers : kCensusJobs);
    const double busy = untraced_wall > 0 ? cell_s / (untraced_wall * workers) : 0.0;
    report.add("pool.cell_s", campaign ? 0.0 : cell_s / p, "s");
    report.add("pool.efficiency", campaign ? 0.0 : busy, "ratio");
    report.add("campaign.compute_share", campaign ? busy : 0.0, "ratio");
    const CampaignTotals& t = totals;
    report.add("journal.merged.writes", static_cast<double>(t.merged.writes) / p, "count",
               "exact");
    report.add("journal.merged.bytes", static_cast<double>(t.merged.bytes) / p, "bytes",
               "varying");
    report.add("journal.merged.write_s", t.merged.write_s / p, "s");
    report.add("journal.worker.writes", static_cast<double>(t.worker.writes) / p, "count",
               "exact");
    report.add("journal.worker.bytes", static_cast<double>(t.worker.bytes) / p, "bytes",
               "varying");
    report.add("journal.worker.write_s", t.worker.write_s / p, "s");
    report.add("transport.frames", static_cast<double>(t.net.frames) / p, "count", "varying");
    report.add("transport.bytes", static_cast<double>(t.net.bytes) / p, "bytes", "varying");
    report.add("transport.send_s", t.net.send_s / p, "s");
    report.add("transport.wait_s", t.net.wait_s / p, "s");
    report.add("coordinator.frames", t.coordinator_frames / p, "count", "varying");
    report.add("coordinator.duplicates", t.duplicates / p, "count", "varying");
    report.add("worker.heartbeats", t.heartbeats / p, "count", "varying");
    report.add("worker.resends", t.resends / p, "count", "varying");
    report.add("tracing.overhead", untraced_wall > 0 ? traced_wall / untraced_wall - 1.0 : 0.0,
               "ratio", std::to_string(passes) + " traced passes of " +
                            std::to_string(run.shape.batch) + " cells");

    const fs::path trace_file = opt.work_dir.parent_path() /
                                ("trace-" + std::string(to_string(run.workload)) + "-" +
                                 std::to_string(opt.seed) + ".jsonl");
    if (!spans.write_jsonl(trace_file)) std::cerr << "could not write " << trace_file << '\n';
    return emit(opt, report);
}

// --- pin capture ----------------------------------------------------------------

int capture_pins(const Options& opt) {
    const Shape shape = shape_of(opt.workload);
    const Run run{opt.workload, shape, kPinnedBaseSeed, 0};
    std::ostringstream out;
    out << "# zerodeg benchmark pins: workload " << to_string(opt.workload) << ", base seed "
        << kPinnedBaseSeed << ", " << shape.pool << " cells; cell k is master seed "
        << kPinnedBaseSeed << " + k\n";
    for (std::size_t pb = 0; pb < run.pool_batches(); ++pb) {
        const ex::CensusResult result = ex::run_census(run.plan(pb), kCaptureJobs);
        for (std::size_t i = 0; i < result.censuses.size(); ++i) {
            out << ex::encode_cell_record(pb * shape.batch + i, result.censuses[i]) << '\n';
        }
    }
    core::real_fs().write_file(opt.capture, out.str());
    std::cout << "wrote " << shape.pool << " pinned cells to " << opt.capture << '\n';
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // glibc raises its mmap threshold the first time it frees a large mapped
    // block, at a moment that varies from run to run, and every batch after
    // that peaks about 5 MB higher.  Fixing the threshold at its ceiling
    // starts the run in the state that adaptation converges to.
    if (mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes) != 1) {
        std::cerr << "zerodeg_bench: could not fix the mmap threshold\n";
        return 1;
    }
    try {
        const Options opt = parse(argc, argv);
        if (!opt.capture.empty()) return capture_pins(opt);
        const Shape shape = shape_of(opt.workload);
        const Run run{opt.workload, shape, opt.base_seed,
                      static_cast<std::size_t>(mix(opt.seed) % (shape.pool / shape.batch))};
        // Fail before any timing if the pins are unreadable.
        if (opt.base_seed == kPinnedBaseSeed) (void)load_pins(opt.pins_dir, opt.workload, shape);
        return opt.trace ? run_traced(opt, run) : run_end_to_end(opt, run);
    } catch (const std::exception& e) {
        std::cerr << "zerodeg_bench: " << e.what() << '\n';
        return 1;
    }
}
