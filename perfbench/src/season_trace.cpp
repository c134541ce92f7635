// Traced seasons, workload probes and the standalone traffic replay.
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "experiment/runner.hpp"
#include "workload/load_job.hpp"
#include "workload/md5.hpp"
#include "workload/recover.hpp"
#include "workload/traffic.hpp"

namespace zdbench {

namespace ex = zerodeg::experiment;
namespace wl = zerodeg::workload;

const char* to_string(Workload w) {
    switch (w) {
        case Workload::kArchive: return "archive";
        case Workload::kTraffic: return "traffic";
        case Workload::kCampaign: return "campaign";
    }
    return "?";
}

Shape shape_of(Workload w) {
    // Pools are sized so that one run of up to ~60 s never wraps around.
    switch (w) {
        case Workload::kArchive: return {16, 512};
        case Workload::kTraffic: return {16, 320};
        case Workload::kCampaign: return {32, 2048};
    }
    return {};
}

ExperimentConfig cell_season(Workload w, std::uint64_t seed) {
    ExperimentConfig config;
    config.master_seed = seed;
    if (w == Workload::kTraffic) config.workload = ex::WorkloadKind::kTraffic;
    // Campaign cells are archive seasons cut to two days, as `--end` does.
    if (w == Workload::kCampaign) config.end = zerodeg::core::TimePoint::from_date(2010, 2, 21);
    return config;
}

const char* to_string(StepClass c) {
    switch (c) {
        case kTick: return "tick";
        case kLoad: return "load";
        case kCorrupt: return "corrupt";
        case kMonitor: return "monitor";
        case kStation: return "station";
        case kOther: return "other";
        case kStepClasses: break;
    }
    return "?";
}

void SpanLog::add(Span span) {
    const std::scoped_lock lock(mutex_);
    spans_.push_back(std::move(span));
}

bool SpanLog::write_jsonl(const std::filesystem::path& path) const {
    const std::scoped_lock lock(mutex_);
    std::FILE* f = std::fopen(path.string().c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"parent\":\"%s\",\"cell\":%lld,\"start_s\":%.9f,"
                     "\"end_s\":%.9f,\"self_s\":%.9f,\"count\":%llu}\n",
                     s.name.c_str(), s.parent.c_str(), static_cast<long long>(s.cell), s.start_s,
                     s.end_s, s.self_s, static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
}

SeasonCounters& SeasonCounters::operator+=(const SeasonCounters& o) {
    for (std::size_t c = 0; c < kStepClasses; ++c) {
        steps[c] += o.steps[c];
        step_s[c] += o.step_s[c];
    }
    setup_s += o.setup_s;
    loop_s += o.loop_s;
    events += o.events;
    blocks_decoded += o.blocks_decoded;
    md5_bytes += o.md5_bytes;
    return *this;
}

TraceSlots::TraceSlots(std::uint64_t base_seed, std::size_t first_pool_index, std::size_t cells)
    : base_seed_(base_seed), first_(first_pool_index) {
    for (std::size_t i = 0; i < cells; ++i) slots_[base_seed + first_pool_index + i];
}

FaultCensus traced_season(const ExperimentConfig& config, std::int64_t cell, SpanLog& spans,
                          SeasonTrace& out) {
    out = SeasonTrace{};
    SeasonCounters& n = out.counters;
    // The stepping loop runs until the tick at `end` has fired, which never
    // steps past `end`; run() then flushes whatever else is due at `end`.
    const std::int64_t span = (config.end - config.start).count();
    if (span <= 0 || span % config.tick.count() != 0) {
        throw std::invalid_argument("traced seasons need `end` on a tick boundary");
    }
    const auto ticks = static_cast<std::size_t>(span / config.tick.count()) + 1;

    const auto t_setup = Clock::now();
    const auto runner = std::make_unique<ex::ExperimentRunner>(config);
    const auto t_loop = Clock::now();
    n.setup_s = Clock::seconds_between(t_setup, t_loop);

    zerodeg::core::Simulator& sim = runner->simulator();
    const ex::ExperimentRunner& run = *runner;
    const bool traffic = run.has_traffic();
    const auto& fleet = run.fleet().hosts();
    std::vector<std::uint8_t> up;
    while (run.tent_truth_temperature().size() < ticks) {
        const std::size_t temps = run.tent_truth_temperature().size();
        const std::uint64_t runs = run.load().total_runs();
        const std::size_t incidents = run.load().incidents().size();
        const std::size_t collections = run.collector().log().size();
        const std::size_t samples = run.station().temperature_series().size();
        if (traffic) {
            while (out.hosts.size() < fleet.size()) {
                const zerodeg::hardware::HostRecord& rec = fleet[out.hosts.size()];
                out.hosts.push_back(
                    {rec.server->name(), rec.placement == zerodeg::hardware::Placement::kTent});
            }
            up.clear();
            for (const zerodeg::hardware::HostRecord& rec : fleet) {
                up.push_back(rec.server->operational() ? 1 : 0);
            }
        }

        const auto t0 = Clock::now();
        const bool stepped = sim.step();
        const double dt = seconds_since(t0);
        if (!stepped) break;

        StepClass c = kOther;
        if (run.tent_truth_temperature().size() > temps) {
            c = kTick;
        } else if (run.load().incidents().size() > incidents) {
            c = kCorrupt;
        } else if (run.load().total_runs() > runs) {
            c = kLoad;
        } else if (run.collector().log().size() > collections) {
            c = kMonitor;
        } else if (run.station().temperature_series().size() > samples) {
            c = kStation;
        }
        ++n.steps[c];
        n.step_s[c] += dt;
        if (c == kTick && traffic) out.ticks.push_back({sim.now(), up});
    }
    const auto t_flush = Clock::now();
    runner->run();
    const auto t_done = Clock::now();
    n.loop_s = Clock::seconds_between(t_loop, t_flush);

    out.census = ex::take_census(run);
    n.events = sim.events_executed();
    for (const wl::WrongHashIncident& incident : run.load().incidents()) {
        n.blocks_decoded += incident.total_blocks;
    }
    n.md5_bytes = run.load().incidents().size() * run.load().job().container_bytes();

    spans.add({"season.setup", "cell", cell, spans.at(t_setup), spans.at(t_loop), n.setup_s, 1});
    for (std::size_t c = 0; c < kStepClasses; ++c) {
        if (n.steps[c] == 0) continue;
        spans.add({std::string("season.") + to_string(static_cast<StepClass>(c)), "cell", cell,
                   spans.at(t_loop), spans.at(t_flush), n.step_s[c], n.steps[c]});
    }
    spans.add({"season.flush", "cell", cell, spans.at(t_flush), spans.at(t_done),
               Clock::seconds_between(t_flush, t_done), 1});
    spans.add({"cell", "", cell, spans.at(t_setup), spans.at(t_done),
               Clock::seconds_between(t_setup, t_done), 1});
    return out.census;
}

ProbeTimes probe_workload(const ExperimentConfig& config, std::int64_t cell, SpanLog& spans) {
    ProbeTimes times;
    const auto t_build = Clock::now();
    const wl::LoadJob job(config.load, config.master_seed);
    const auto t_built = Clock::now();
    times.loadjob_build_s = Clock::seconds_between(t_build, t_built);

    // One flipped bit in the middle half of the container, placed by seed,
    // is the damage a single corrupting DRAM flip leaves.
    std::vector<std::uint8_t> damaged = job.reference_container();
    const std::size_t quarter = damaged.size() / 4;
    const std::size_t at = quarter + (config.master_seed * 2654435761ULL) % (2 * quarter);
    damaged[at] ^= static_cast<std::uint8_t>(1U << (config.master_seed % 8));
    const std::span<const std::uint8_t> bytes(damaged);

    const auto t_recover = Clock::now();
    const wl::RecoveryReport report = wl::frost_recover(bytes);
    const auto t_md5 = Clock::now();
    const wl::Md5Digest digest = wl::md5(bytes);
    const auto t_done = Clock::now();
    times.recover_s = Clock::seconds_between(t_recover, t_md5);
    times.md5_s = Clock::seconds_between(t_md5, t_done);
    if (report.total_blocks == 0 || digest == job.reference_digest()) {
        throw std::runtime_error("probe: the flipped container went unnoticed");
    }

    spans.add({"workload.loadjob_build", "probe", cell, spans.at(t_build), spans.at(t_built),
               times.loadjob_build_s, 1});
    spans.add({"workload.recover", "probe", cell, spans.at(t_recover), spans.at(t_md5),
               times.recover_s, report.total_blocks});
    spans.add({"workload.md5", "probe", cell, spans.at(t_md5), spans.at(t_done), times.md5_s,
               damaged.size()});
    return times;
}

ReplayResult replay_traffic(const ExperimentConfig& config, const SeasonTrace& trace,
                            std::int64_t cell, SpanLog& spans) {
    ReplayResult result;
    wl::TrafficEngine engine(config.traffic, config.master_seed, config.start);
    const std::vector<std::uint8_t>* up = nullptr;
    const auto add_hosts = [&](std::size_t count) {
        while (engine.hosts() < count) {
            const std::size_t i = engine.hosts();
            wl::TrafficEngine::HostBinding binding;
            binding.host_id = trace.hosts.at(i).name;
            binding.in_tent = trace.hosts[i].in_tent;
            binding.operational = [&up, i] { return i < up->size() && (*up)[i] != 0; };
            binding.set_load = [](double) {};
            engine.add_host(std::move(binding));
        }
    };
    const auto t_start = Clock::now();
    for (const TickMask& tick : trace.ticks) {
        add_hosts(tick.up.size());
        up = &tick.up;
        // As in the runner, the first tick closes a zero-length interval.
        if (tick.when <= config.start) continue;
        const auto t0 = Clock::now();
        engine.advance(tick.when);
        result.advance_s += seconds_since(t0);
    }
    result.completed = engine.slo().completed();
    spans.add({"traffic.advance", "replay", cell, spans.at(t_start), spans.at(Clock::now()),
               result.advance_s, trace.ticks.size()});
    return result;
}

}  // namespace zdbench
