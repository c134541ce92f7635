#include "monitoring/datalogger.hpp"

namespace zerodeg::monitoring {

LascarLogger::LascarLogger(core::Simulator& sim, const thermal::Enclosure& enclosure,
                           core::TimePoint first_sample, LascarConfig config,
                           core::RngStream rng)
    : sim_(sim),
      enclosure_(enclosure),
      config_(config),
      rng_(rng),
      first_sample_(first_sample < sim.now() ? sim.now() : first_sample) {
    sim_.schedule_every(first_sample_, config_.cadence, [this] { take_sample(); });
}

void LascarLogger::schedule_readout(ReadoutTrip trip) { readouts_.push_back(trip); }

void LascarLogger::take_sample() {
    const core::TimePoint now = sim_.now();

    core::Celsius true_temp;
    core::RelHumidity true_rh;
    bool indoors = false;
    for (const ReadoutTrip& trip : readouts_) {
        if (trip.covers(now)) {
            indoors = true;
            break;
        }
    }
    if (indoors) {
        true_temp = config_.indoor_temp;
        true_rh = config_.indoor_rh;
    } else {
        const thermal::EnclosureAir air = enclosure_.air();
        true_temp = air.temperature;
        true_rh = air.humidity;
    }

    const core::Celsius measured_t =
        true_temp + core::Celsius{config_.temp_sigma.value() * rng_.normal()};
    const core::RelHumidity measured_rh =
        core::RelHumidity{true_rh.value() + config_.rh_sigma * rng_.normal()}.clamped();

    temperature_.append(now, measured_t.value());
    humidity_.append(now, measured_rh.value());
}

}  // namespace zerodeg::monitoring
