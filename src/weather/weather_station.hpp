// The SMEAR III weather station stand-in.
//
// The station samples a WeatherSource on a fixed cadence (SMEAR III
// publishes minute-resolution data; we default to 10 minutes, plenty for the
// figures) and exposes the accumulated series that Figures 3 and 4 plot.
// The source is usually the synthetic WeatherModel, but a TraceSource
// carrying recorded data drops in unchanged.
#pragma once

#include <memory>

#include "core/event_queue.hpp"
#include "core/timeseries.hpp"
#include "weather/weather_model.hpp"

namespace zerodeg::weather {

class WeatherStation {
public:
    /// Convenience: wrap a synthetic model.
    WeatherStation(core::Simulator& sim, WeatherModel model, TimePoint first_sample,
                   core::Duration cadence = core::Duration::minutes(10));

    /// Generic: any weather source (e.g. a TraceSource of recorded data).
    WeatherStation(core::Simulator& sim, std::unique_ptr<WeatherSource> source,
                   TimePoint first_sample, core::Duration cadence = core::Duration::minutes(10));

    /// Most recent full sample (valid after the first sampling event).
    [[nodiscard]] const WeatherSample& current() const { return current_; }

    /// Sample the source *now* without recording (used by thermal stepping
    /// between station samples).
    WeatherSample observe_now();

    [[nodiscard]] const core::TimeSeries& temperature_series() const { return temperature_; }
    [[nodiscard]] const core::TimeSeries& humidity_series() const { return humidity_; }

    [[nodiscard]] WeatherSource& source() { return *source_; }

private:
    core::Simulator& sim_;
    std::unique_ptr<WeatherSource> source_;
    WeatherSample current_;
    core::TimeSeries temperature_{"outside_temp_degC"};
    core::TimeSeries humidity_{"outside_rh_pct"};

    void take_sample();
};

}  // namespace zerodeg::weather
