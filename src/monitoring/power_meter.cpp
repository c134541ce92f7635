#include "monitoring/power_meter.hpp"

#include <cmath>

#include "core/error.hpp"

namespace zerodeg::monitoring {

TechnolineMeter::TechnolineMeter(core::Simulator& sim, std::function<core::Watts()> supply,
                                 core::TimePoint first_sample, PowerMeterConfig config,
                                 core::RngStream rng)
    : sim_(sim), supply_(std::move(supply)), config_(config) {
    if (!supply_) throw core::InvalidArgument("TechnolineMeter: missing supply callback");
    gain_ = 1.0 + config.gain_error_sigma * rng.normal();
    sim_.schedule_every(first_sample < sim.now() ? sim.now() : first_sample, config.cadence,
                        [this] { take_sample(); });
}

void TechnolineMeter::take_sample() {
    const core::TimePoint now = sim_.now();
    const core::Watts truth = supply_();

    const double raw = truth.value() * gain_;
    const double q = config_.quantization.value();
    const double displayed = q > 0.0 ? std::round(raw / q) * q : raw;
    power_.append(now, displayed);

    if (has_sample_) {
        const double dt = static_cast<double>((now - last_sample_).count());
        metered_energy_ += core::Joules{displayed * dt};
        true_energy_ += core::energy(truth, dt);
    }
    last_sample_ = now;
    has_sample_ = true;
}

}  // namespace zerodeg::monitoring
