// Shared pieces of the zerodeg benchmark: workload shapes, cell configs,
// span recording and the per-layer accumulators of a traced season.
//
// The benchmark reaches the simulator only through its public API and the
// seams that already exist (CensusPlan::run_cell, core::FileSystem,
// core::Listener/Transport, ExperimentRunner::simulator().step() and the
// runner's accessors), so src/ needs no instrumentation of its own.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/bench_clock.hpp"
#include "experiment/census.hpp"
#include "experiment/config.hpp"

namespace zdbench {

using Clock = zerodeg::core::bench_clock;
using zerodeg::experiment::ExperimentConfig;
using zerodeg::experiment::FaultCensus;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return Clock::seconds_between(t0, Clock::now());
}

/// CPU time of the calling thread.  Unlike wall time it leaves out the time
/// the thread waited for a processor: behind other threads, or, on a virtual
/// machine whose host reports steal time, behind other guests.
[[nodiscard]] inline double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The seed the checked-in pins belong to (the paper's golden seed).
inline constexpr std::uint64_t kPinnedBaseSeed = 20100219;

enum class Workload { kArchive, kTraffic, kCampaign };

[[nodiscard]] const char* to_string(Workload w);

/// How a workload's cells are grouped.  A run works through batches of
/// `batch` consecutive cells; batch k of the pool holds the cells with
/// master seeds base + k*batch ... base + k*batch + batch - 1.
struct Shape {
    std::size_t batch = 16;
    std::size_t pool = 512;  ///< pinned cells; a multiple of `batch`
};

[[nodiscard]] Shape shape_of(Workload w);

/// The season of one cell with master seed `seed`.
[[nodiscard]] ExperimentConfig cell_season(Workload w, std::uint64_t seed);

// --- spans ------------------------------------------------------------------

/// One traced interval.  `cell` is the pool index shared by every span of a
/// cell (-1 for spans outside any cell).  Step spans are folded per cell and
/// class: `count` steps whose durations sum to `self_s`, inside the stepping
/// loop's interval [start_s, end_s].
struct Span {
    std::string name;
    std::string parent;
    std::int64_t cell = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 1;
};

/// Spans kept in memory, written out once when the run ends.
class SpanLog {
public:
    SpanLog() : origin_(Clock::now()) {}

    [[nodiscard]] double at(Clock::time_point t) const {
        return Clock::seconds_between(origin_, t);
    }
    void add(Span span);
    /// Writes one JSON object per span.  Returns false if the file could
    /// not be written.
    bool write_jsonl(const std::filesystem::path& path) const;

private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// --- traced seasons ---------------------------------------------------------

/// Which public counter a simulator step moved.
enum StepClass : std::size_t { kTick, kLoad, kCorrupt, kMonitor, kStation, kOther, kStepClasses };

[[nodiscard]] const char* to_string(StepClass c);

/// The operational mask the traffic engine saw at one tick, in fleet order.
struct TickMask {
    zerodeg::core::TimePoint when;
    std::vector<std::uint8_t> up;
};

struct HostInfo {
    std::string name;
    bool in_tent = false;
};

/// Counters and self times of stepped seasons; sums over cells add up.
struct SeasonCounters {
    std::array<std::uint64_t, kStepClasses> steps{};
    std::array<double, kStepClasses> step_s{};
    double setup_s = 0.0;  ///< ExperimentRunner constructor
    double loop_s = 0.0;   ///< the whole stepping loop, classification included
    std::uint64_t events = 0;
    std::uint64_t blocks_decoded = 0;
    std::uint64_t md5_bytes = 0;

    SeasonCounters& operator+=(const SeasonCounters& o);
    /// The counts, not the times, are equal.
    [[nodiscard]] bool same_counts(const SeasonCounters& o) const {
        return steps == o.steps && events == o.events && blocks_decoded == o.blocks_decoded &&
               md5_bytes == o.md5_bytes;
    }
};

/// What one stepped season recorded.
struct SeasonTrace {
    SeasonCounters counters;
    FaultCensus census;
    // Traffic seasons only: the inputs of the standalone replay.
    std::vector<HostInfo> hosts;
    std::vector<TickMask> ticks;
};

/// Simulate `config` one event at a time, classifying and timing each step,
/// and return its census (identical to run_season_census by construction).
[[nodiscard]] FaultCensus traced_season(const ExperimentConfig& config, std::int64_t cell,
                                        SpanLog& spans, SeasonTrace& out);

/// Per-seed slots for traced seasons, so a CensusPlan::run_cell (which only
/// sees the config) can find where to record.  Slots are created before the
/// fan-out; workers only look them up.
class TraceSlots {
public:
    TraceSlots(std::uint64_t base_seed, std::size_t first_pool_index, std::size_t cells);
    [[nodiscard]] SeasonTrace& slot(std::uint64_t seed) { return slots_.at(seed); }
    [[nodiscard]] std::int64_t cell_of(std::uint64_t seed) const {
        return static_cast<std::int64_t>(seed - base_seed_ + first_);
    }
    [[nodiscard]] const std::map<std::uint64_t, SeasonTrace>& all() const { return slots_; }

private:
    std::uint64_t base_seed_;
    std::size_t first_;
    std::map<std::uint64_t, SeasonTrace> slots_;
};

/// Direct calls into the workload layer for one cell's config: the
/// LoadJob constructor, then frost_recover and md5 on the reference
/// container with one flipped bit.
struct ProbeTimes {
    double loadjob_build_s = 0.0;
    double recover_s = 0.0;
    double md5_s = 0.0;
};
[[nodiscard]] ProbeTimes probe_workload(const ExperimentConfig& config, std::int64_t cell,
                                        SpanLog& spans);

/// Replays a traffic season's engine standalone from the recorded masks.
struct ReplayResult {
    std::uint64_t completed = 0;
    double advance_s = 0.0;
};
[[nodiscard]] ReplayResult replay_traffic(const ExperimentConfig& config,
                                          const SeasonTrace& trace, std::int64_t cell,
                                          SpanLog& spans);

}  // namespace zdbench
