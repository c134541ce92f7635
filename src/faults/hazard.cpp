#include "faults/hazard.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace zerodeg::faults {

namespace {
constexpr double kHoursPerYear = 8766.0;
constexpr double kBoltzmannEv = 8.617333262e-5;  // eV/K
}  // namespace

ArrheniusModel::ArrheniusModel(double activation_energy_ev, Celsius reference)
    : ea_over_k_(activation_energy_ev / kBoltzmannEv),
      t_ref_kelvin_(reference.to_kelvin().value()) {
    if (activation_energy_ev <= 0.0) {
        throw core::InvalidArgument("ArrheniusModel: activation energy must be positive");
    }
}

double ArrheniusModel::acceleration(Celsius t) const {
    const double t_kelvin = t.to_kelvin().value();
    if (t_kelvin <= 0.0) throw core::InvalidArgument("ArrheniusModel: below absolute zero");
    return std::exp(ea_over_k_ * (1.0 / t_ref_kelvin_ - 1.0 / t_kelvin));
}

PeckModel::PeckModel(double exponent, RelHumidity reference)
    : n_(exponent), rh_ref_(reference.value()) {
    if (exponent <= 0.0) throw core::InvalidArgument("PeckModel: exponent must be positive");
    if (reference.value() <= 0.0) {
        throw core::InvalidArgument("PeckModel: reference RH must be positive");
    }
}

double PeckModel::acceleration(RelHumidity rh) const {
    const double clamped = std::max(rh.value(), 1.0);
    return std::pow(clamped / rh_ref_, n_);
}

ColdStressModel::ColdStressModel(Celsius threshold, double coefficient_per_deg2)
    : threshold_(threshold.value()), coeff_(coefficient_per_deg2) {
    if (coefficient_per_deg2 < 0.0) {
        throw core::InvalidArgument("ColdStressModel: negative coefficient");
    }
}

double ColdStressModel::acceleration(Celsius t) const {
    if (t.value() >= threshold_) return 1.0;
    const double below = threshold_ - t.value();
    return 1.0 + coeff_ * below * below;
}

BathtubHazard::BathtubHazard(Params p) : p_(p) {
    if (p.floor_per_hour < 0.0 || p.infant_weight < 0.0 || p.infant_tau_hours <= 0.0 ||
        p.wearout_scale_hours <= 0.0) {
        throw core::InvalidArgument("BathtubHazard: bad parameters");
    }
}

double BathtubHazard::hazard_per_hour(double hours) const {
    if (hours < 0.0) throw core::InvalidArgument("BathtubHazard: negative age");
    const double infant =
        p_.floor_per_hour * p_.infant_weight * std::exp(-hours / p_.infant_tau_hours);
    double wearout = 0.0;
    if (hours > p_.wearout_onset_hours) {
        const double over = (hours - p_.wearout_onset_hours) / p_.wearout_scale_hours;
        wearout = p_.floor_per_hour * over * over;
    }
    return p_.floor_per_hour + infant + wearout;
}

HostHazardModel::HostHazardModel(HostHazardParams params)
    : params_(params),
      arrhenius_(params.arrhenius_ea_ev, params.arrhenius_reference),
      peck_(params.peck_exponent, params.peck_reference),
      cold_(params.cold_threshold, params.cold_coeff_per_deg2),
      bathtub_(params.bathtub),
      base_per_hour_(params.base_afr / kHoursPerYear),
      bathtub_mid_(bathtub_.hazard_per_hour(10000.0)) {}  // mid-life reference

double HostHazardModel::hazard_per_hour(const StressState& s) const {
    // Normalize the bathtub so a mid-life host matches base_afr at reference
    // conditions, then scale by the acceleration factors.  Kept as a divide
    // (not a cached reciprocal): the golden pins depend on its rounding.
    const double age_shape = bathtub_.hazard_per_hour(s.age_hours) / bathtub_mid_;

    // Arrhenius works on component temperature; approximate it as intake
    // plus the same rise assumed at reference (the reference is "component
    // temp when intake is office air").
    const Celsius component_temp = s.intake + Celsius{24.0};
    double accel = arrhenius_.acceleration(component_temp);
    if (s.humidity.value() > params_.humidity_knee.value()) {
        accel *= peck_.acceleration(s.humidity);
    }
    accel *= cold_.acceleration(s.intake);
    accel *= 1.0 + params_.cycling_coeff_per_k_per_h * std::max(0.0, s.cycling_rate_k_per_h);
    if (s.known_unreliable) accel *= params_.unreliable_multiplier;

    return base_per_hour_ * age_shape * accel;
}

}  // namespace zerodeg::faults
