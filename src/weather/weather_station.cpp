#include "weather/weather_station.hpp"

#include "core/error.hpp"

namespace zerodeg::weather {

WeatherStation::WeatherStation(core::Simulator& sim, WeatherModel model, TimePoint first_sample,
                               core::Duration cadence)
    : WeatherStation(sim, std::make_unique<WeatherModel>(std::move(model)), first_sample,
                     cadence) {}

WeatherStation::WeatherStation(core::Simulator& sim, std::unique_ptr<WeatherSource> source,
                               TimePoint first_sample, core::Duration cadence)
    : sim_(sim), source_(std::move(source)) {
    if (!source_) throw core::InvalidArgument("WeatherStation: null source");
    const TimePoint start = first_sample < sim.now() ? sim.now() : first_sample;
    current_ = source_->advance_to(start);
    sim_.schedule_every(start, cadence, [this] { take_sample(); });
}

WeatherSample WeatherStation::observe_now() {
    current_ = source_->advance_to(sim_.now());
    return current_;
}

void WeatherStation::take_sample() {
    const WeatherSample s = observe_now();
    temperature_.append(s.time, s.temperature.value());
    humidity_.append(s.time, s.humidity.value());
}

}  // namespace zerodeg::weather
