#include "experiment/config.hpp"

#include <bit>
#include <cstdint>
#include <string>

#include "core/error.hpp"

namespace zerodeg::experiment {

const char* to_string(TickEngine engine) {
    switch (engine) {
        case TickEngine::kPerObject: return "per-object";
        case TickEngine::kBatched: return "batched";
    }
    throw core::InvalidArgument("to_string(TickEngine): bad enum value");
}

const char* to_string(WorkloadKind kind) {
    switch (kind) {
        case WorkloadKind::kArchive: return "archive";
        case WorkloadKind::kTraffic: return "traffic";
    }
    throw core::InvalidArgument("to_string(WorkloadKind): bad enum value");
}

TimePoint next_operator_visit(TimePoint t, int operator_hour) {
    core::CivilDateTime c = t.to_civil();
    c.hour = operator_hour;
    c.minute = 0;
    c.second = 0;
    TimePoint visit = TimePoint::from_civil(c);
    if (visit <= t) visit += Duration::days(1);
    // Skip the weekend: Saturday -> Monday, Sunday -> Monday.
    while (visit.iso_weekday() > 5) visit += Duration::days(1);
    return visit;
}

void validate(const ExperimentConfig& config) {
    const auto fail = [](const std::string& why) {
        throw core::InvalidArgument("ExperimentConfig: " + why);
    };
    if (config.end <= config.start) {
        fail("end (" + config.end.to_string() + ") must be after start (" +
             config.start.to_string() + ")");
    }
    if (config.tick.count() <= 0) fail("tick must be positive");
    if (config.readout_interval.count() <= 0) fail("readout_interval must be positive");
    if (config.operator_hour < 0 || config.operator_hour > 23) {
        fail("operator_hour must be in [0, 23], got " + std::to_string(config.operator_hour));
    }
    if (config.replacement_lead.count() < 0) fail("replacement_lead must be nonnegative");
    if (config.switch_defect_mean_hours <= 0.0) {
        fail("switch_defect_mean_hours must be positive");
    }
    if (config.load.target_blocks == 0) fail("load.target_blocks must be nonzero");
    if (!workload::LoadJobConfig::valid_page_op_multiplier(config.load.page_op_multiplier)) {
        fail("load.page_op_multiplier must be finite and in [0, 1e6]");
    }
    if (config.load.corpus.total_bytes == 0) fail("load.corpus.total_bytes must be nonzero");
    if (config.load.corpus.mean_file_bytes == 0) {
        fail("load.corpus.mean_file_bytes must be nonzero");
    }
    if (config.load.corpus.top_level_dirs == 0) fail("load.corpus.top_level_dirs must be nonzero");
    for (std::size_t i = 1; i < config.tent_mods.size(); ++i) {
        if (config.tent_mods[i].when < config.tent_mods[i - 1].when) {
            fail("tent_mods must be in chronological order (event " + std::to_string(i) +
                 " precedes event " + std::to_string(i - 1) + ")");
        }
    }
    if (!config.weather_trace.empty() && config.weather_trace.size() < 2) {
        fail("weather_trace needs at least 2 samples to interpolate");
    }
    // Traffic knobs are validated even for archive seasons: the defaults are
    // valid, so a rejection always points at a knob someone actually set.
    if (config.traffic.service_rate <= 0.0) fail("traffic.service_rate must be positive");
    if (config.traffic.mean_demand_seconds <= 0.0) {
        fail("traffic.mean_demand_seconds must be positive");
    }
    if (config.traffic.deadline_seconds <= 0.0) fail("traffic.deadline_seconds must be positive");
    if (config.traffic.open.base_rps <= 0.0) fail("traffic.open.base_rps must be positive");
    if (config.traffic.open.diurnal_amplitude < 0.0 ||
        config.traffic.open.diurnal_amplitude >= 1.0) {
        fail("traffic.open.diurnal_amplitude must be in [0, 1)");
    }
    for (std::size_t i = 0; i < config.traffic.open.flash_crowds.size(); ++i) {
        const workload::FlashCrowd& c = config.traffic.open.flash_crowds[i];
        if (c.duration.count() <= 0 || c.multiplier < 1.0) {
            fail("traffic.open.flash_crowds[" + std::to_string(i) +
                 "] needs positive duration and multiplier >= 1");
        }
    }
    if (config.traffic.closed.users < 1) fail("traffic.closed.users must be >= 1");
    if (config.traffic.closed.think_seconds <= 0.0) {
        fail("traffic.closed.think_seconds must be positive");
    }
}

namespace {

// FNV-1a over the canonical byte stream of the mixed-in values.  Stable
// across runs and platforms with the same integer/double widths, which is
// all a journal resumed on the machine that wrote it needs.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffULL;
        h *= kFnvPrime;
    }
}

void mix(std::uint64_t& h, std::int64_t v) { mix(h, static_cast<std::uint64_t>(v)); }
void mix(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }
void mix(std::uint64_t& h, int v) { mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
void mix(std::uint64_t& h, bool v) { mix(h, static_cast<std::uint64_t>(v ? 1 : 0)); }

}  // namespace

std::uint64_t fingerprint(const ExperimentConfig& config) {
    std::uint64_t h = kFnvOffset;
    // config.engine is deliberately NOT mixed in: the per-object and batched
    // tick engines are byte-identical, so a journal written under either
    // resumes under the other.
    mix(h, config.master_seed);
    mix(h, config.start.seconds_since_epoch());
    mix(h, config.end.seconds_since_epoch());
    mix(h, config.tick.count());
    mix(h, config.logger_start.seconds_since_epoch());
    mix(h, config.readout_interval.count());
    mix(h, config.operator_hour);
    mix(h, config.replacement_lead.count());
    mix(h, config.switch_defect_mean_hours);

    mix(h, static_cast<std::uint64_t>(config.tent_mods.size()));
    for (const TentModEvent& e : config.tent_mods) {
        mix(h, e.when.seconds_since_epoch());
        mix(h, static_cast<int>(e.mod));
    }

    mix(h, static_cast<std::uint64_t>(config.load.corpus.total_bytes));
    mix(h, static_cast<std::uint64_t>(config.load.corpus.mean_file_bytes));
    mix(h, static_cast<std::uint64_t>(config.load.corpus.top_level_dirs));
    mix(h, static_cast<std::uint64_t>(config.load.target_blocks));
    mix(h, config.load.page_op_multiplier);
    mix(h, config.load.cache_clean_runs);

    // Traffic workload: the kind selects the engine, the knobs shape it.
    mix(h, static_cast<int>(config.workload));
    mix(h, static_cast<int>(config.traffic.mode));
    mix(h, config.traffic.open.base_rps);
    mix(h, config.traffic.open.diurnal_amplitude);
    mix(h, config.traffic.open.peak_hour);
    mix(h, static_cast<std::uint64_t>(config.traffic.open.flash_crowds.size()));
    for (const workload::FlashCrowd& c : config.traffic.open.flash_crowds) {
        mix(h, c.start.seconds_since_epoch());
        mix(h, c.duration.count());
        mix(h, c.multiplier);
    }
    mix(h, config.traffic.closed.users);
    mix(h, config.traffic.closed.think_seconds);
    mix(h, config.traffic.mean_demand_seconds);
    mix(h, config.traffic.service_rate);
    mix(h, config.traffic.deadline_seconds);
    mix(h, config.traffic.clone_across_split);

    // Weather script: the anchors/snaps define the campaign's climate; the
    // OU knobs shift every cell's sample path.
    mix(h, static_cast<std::uint64_t>(config.weather.anchors.size()));
    for (const auto& a : config.weather.anchors) {
        mix(h, a.date.seconds_since_epoch());
        mix(h, a.mean.value());
    }
    mix(h, static_cast<std::uint64_t>(config.weather.cold_snaps.size()));
    for (const auto& s : config.weather.cold_snaps) {
        mix(h, s.start.seconds_since_epoch());
        mix(h, s.duration.count());
        mix(h, s.ramp.count());
        mix(h, s.depth.value());
    }
    mix(h, config.weather.diurnal_amplitude_winter.value());
    mix(h, config.weather.diurnal_amplitude_spring.value());
    mix(h, config.weather.synoptic_sigma.value());
    mix(h, config.weather.synoptic_tau.count());
    mix(h, config.weather.jitter_sigma.value());
    mix(h, config.weather.jitter_tau.count());
    mix(h, config.weather.wind_mean);
    mix(h, config.weather.wind_sigma);
    mix(h, config.weather.cloud_mean);
    mix(h, config.weather.cloud_sigma);
    mix(h, config.weather.precip_cloud_threshold);
    mix(h, config.weather.precip_rate_mm_per_h);

    // A recorded trace replaces the synthetic model wholesale; hash its
    // shape and endpoints rather than every sample.
    mix(h, static_cast<std::uint64_t>(config.weather_trace.size()));
    if (!config.weather_trace.empty()) {
        mix(h, config.weather_trace.front().time.seconds_since_epoch());
        mix(h, config.weather_trace.front().temperature.value());
        mix(h, config.weather_trace.back().time.seconds_since_epoch());
        mix(h, config.weather_trace.back().temperature.value());
    }
    return h;
}

}  // namespace zerodeg::experiment
