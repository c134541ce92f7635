// Weather-trace import/export.
//
// A run can be driven by a recorded trace instead of the synthetic model —
// this is the seam through which a real SMEAR III extract would be plugged
// in (the substitution DESIGN.md documents).  The format is CSV:
//   time,temp_degC,rh_pct,wind_mps,ghi_wm2,cloud,precip_mm_h
#pragma once

#include <iosfwd>
#include <vector>

#include "weather/weather_model.hpp"

namespace zerodeg::weather {

/// Write samples as CSV with a header row.
void write_trace(std::ostream& out, const std::vector<WeatherSample>& samples);

/// Parse a trace written by write_trace.  Throws CorruptData on malformed
/// input.  Derived fields (dew point, snow flag) are recomputed.
[[nodiscard]] std::vector<WeatherSample> read_trace(std::istream& in);

/// Generate a trace by running a model over [from, to] at `step`.
[[nodiscard]] std::vector<WeatherSample> generate_trace(WeatherModel& model, TimePoint from,
                                                        TimePoint to, core::Duration step);

/// A playback "model" driven by a recorded trace: linear interpolation of
/// temperature/humidity/wind, step interpolation of precipitation.
class TracePlayer {
public:
    explicit TracePlayer(std::vector<WeatherSample> samples);

    [[nodiscard]] WeatherSample at(TimePoint t) const;
    [[nodiscard]] std::size_t size() const { return samples_.size(); }

private:
    std::vector<WeatherSample> samples_;
};

/// A TracePlayer exposed through the WeatherSource interface, so a recorded
/// trace can drive the WeatherStation (and hence the whole experiment) in
/// place of the synthetic model.
class TraceSource final : public WeatherSource {
public:
    explicit TraceSource(TracePlayer player) : player_(std::move(player)) {}
    explicit TraceSource(std::vector<WeatherSample> samples)
        : player_(std::move(samples)) {}

    WeatherSample advance_to(TimePoint t) override { return player_.at(t); }

    [[nodiscard]] const TracePlayer& player() const { return player_; }

private:
    TracePlayer player_;
};

}  // namespace zerodeg::weather
