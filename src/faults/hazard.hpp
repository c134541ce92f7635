// Environment-dependent hazard models.
//
// The paper's second research question is exactly this function: does the
// equipment failure rate rise when intake air is unconditioned?  We compose
// the standard reliability-physics acceleration models:
//   * Arrhenius       — thermal acceleration of chemical wear (hot side),
//   * Peck            — humidity acceleration (corrosion/electrochemistry),
//   * cold stress     — out-of-spec low-temperature operation and the
//                       mechanical stress of thermal cycling,
//   * bathtub         — infant mortality + useful life + wear-out over age,
// into a single failures-per-hour rate the injector integrates through time.
// HostHazardModel evaluates the closed forms directly, once per host per
// tick; at the paper's 19 hosts that is a small share of a season.
#pragma once

#include "core/units.hpp"

namespace zerodeg::faults {

using core::Celsius;
using core::RelHumidity;

/// Arrhenius acceleration factor relative to a reference temperature:
/// AF = exp(Ea/k * (1/T_ref - 1/T)).  Below T_ref the factor drops under 1 —
/// cold silicon wears *slower*, which is why the paper's outcome (no failure
/// wave) is physically plausible.
class ArrheniusModel {
public:
    ArrheniusModel(double activation_energy_ev, Celsius reference);

    /// Throws InvalidArgument at or below absolute zero.
    [[nodiscard]] double acceleration(Celsius t) const;

private:
    double ea_over_k_;  ///< Ea / Boltzmann-in-eV
    double t_ref_kelvin_;
};

/// Peck's humidity model: AF = (RH/RH_ref)^n, commonly n ~ 2.7-3.
/// Applies above a threshold where surface moisture films form.
class PeckModel {
public:
    PeckModel(double exponent, RelHumidity reference);

    /// RH is clamped at 1% so a bone-dry reading never yields zero.
    [[nodiscard]] double acceleration(RelHumidity rh) const;

private:
    double n_;
    double rh_ref_;
};

/// Excess hazard from operating below the characterized range: grows
/// quadratically below the threshold (condensed moisture, brittle solder,
/// out-of-spec timing).  Returns a multiplier >= 1.
class ColdStressModel {
public:
    ColdStressModel(Celsius threshold, double coefficient_per_deg2);

    [[nodiscard]] double acceleration(Celsius t) const;

private:
    double threshold_;
    double coeff_;
};

/// Bathtub hazard over component age (hours): Weibull infant mortality +
/// constant useful-life floor + Weibull wear-out.
class BathtubHazard {
public:
    struct Params {
        double infant_weight = 0.3;       ///< fraction of floor at t=0 decays away
        double infant_tau_hours = 500.0;  ///< decay constant of infant term
        double floor_per_hour = 1e-5;     ///< useful-life constant hazard
        double wearout_onset_hours = 30000.0;
        double wearout_scale_hours = 20000.0;
    };

    BathtubHazard() : BathtubHazard(Params()) {}
    explicit BathtubHazard(Params p);

    /// Hazard (per hour) at component age `hours`.
    [[nodiscard]] double hazard_per_hour(double hours) const;

private:
    Params p_;
};

/// Everything combined: the per-hour system-failure hazard of one host.
struct StressState {
    Celsius intake{20.0};
    RelHumidity humidity{40.0};
    double age_hours = 0.0;
    /// |d(intake)/dt| in K/h: thermal cycling works solder joints and
    /// connectors.  Zero in the air-conditioned basement; the tent swings.
    double cycling_rate_k_per_h = 0.0;
    bool known_unreliable = false;  ///< the vendor-B flaky series
};

struct HostHazardParams {
    /// Baseline annual failure rate (AFR) of a healthy host in spec.  The
    /// fleet is end-of-life hardware headed for recycling, so this sits
    /// well above a new machine's ~4-5%.
    double base_afr = 0.09;
    /// Multiplier for the known-defective series (Section 3's fourth
    /// research question: those machines did NOT improve outside).
    double unreliable_multiplier = 35.0;
    /// Thermal-cycling multiplier: 1 + coeff * |dT/dt| (K/h).
    double cycling_coeff_per_k_per_h = 1.8;
    double arrhenius_ea_ev = 0.5;
    Celsius arrhenius_reference{45.0};  ///< component temp at 21 degC intake
    double peck_exponent = 2.7;
    RelHumidity peck_reference{50.0};
    /// RH above which the Peck term engages (moisture films form).
    RelHumidity humidity_knee{80.0};
    Celsius cold_threshold{0.0};
    double cold_coeff_per_deg2 = 0.012;
    BathtubHazard::Params bathtub{};
};

class HostHazardModel {
public:
    explicit HostHazardModel(HostHazardParams params = {});

    /// Failures per hour under the given stress.
    [[nodiscard]] double hazard_per_hour(const StressState& s) const;

    [[nodiscard]] const HostHazardParams& params() const { return params_; }

private:
    HostHazardParams params_;
    ArrheniusModel arrhenius_;
    PeckModel peck_;
    ColdStressModel cold_;
    BathtubHazard bathtub_;
    double base_per_hour_;   ///< base_afr / hours-per-year, hoisted
    double bathtub_mid_;     ///< bathtub(10000 h) normalization denominator
};

}  // namespace zerodeg::faults
