// The fault injector: turns time-varying hazard into concrete fault events.
//
// Standard competing-risks machinery: for each host we draw a unit
// exponential threshold and integrate the hazard through (simulated) time;
// when the accumulated hazard crosses the threshold, a system failure fires
// and a fresh threshold is drawn.  Severity is sampled per event — most
// in-field failures present as transients (the paper's host #15 pattern:
// transient first, then a repeat that proves permanent).
//
// All hosts share one immutable HostHazardModel: the model depends only on
// the config, so the injector builds it once and every process evaluates
// against it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "faults/fault_log.hpp"
#include "faults/hazard.hpp"

namespace zerodeg::faults {

struct InjectorParams {
    HostHazardParams hazard{};
    /// Probability a system failure is transient (reset clears it).
    double transient_probability = 0.75;
    /// A host whose count of failures reaches this is deemed permanently
    /// defective (the operator criterion applied to host #15: second failure
    /// plus a Memtest86+ crash ended its tent career).
    int failures_to_permanent = 2;
};

/// One host's failure process.
class HostFaultProcess {
public:
    /// Convenience form: builds a private hazard model from `params`.
    HostFaultProcess(int host_id, bool known_unreliable, InjectorParams params,
                     core::RngStream rng);

    /// Fleet form: evaluates against a model shared across hosts.
    HostFaultProcess(int host_id, bool known_unreliable, InjectorParams params,
                     std::shared_ptr<const HostHazardModel> model, core::RngStream rng);

    /// Integrate hazard over `dt` at the given stress; returns true if a
    /// system failure fires within this interval.
    [[nodiscard]] bool advance(core::Duration dt, const StressState& stress);

    /// Classify the failure that just fired (call once per fired event).
    [[nodiscard]] FaultSeverity classify_failure();

    [[nodiscard]] int failures_so_far() const { return failures_; }
    [[nodiscard]] int host_id() const { return host_id_; }
    [[nodiscard]] bool known_unreliable() const { return known_unreliable_; }

private:
    int host_id_;
    bool known_unreliable_;
    InjectorParams params_;
    std::shared_ptr<const HostHazardModel> model_;
    core::RngStream rng_;
    double cumulative_ = 0.0;
    double threshold_;
    int failures_ = 0;
};

/// Fleet-level injector: owns one process per host plus the shared model.
class FaultInjector {
public:
    FaultInjector(InjectorParams params, std::uint64_t master_seed);

    /// Register a host (idempotent per id).
    void add_host(int host_id, bool known_unreliable);

    /// Advance one host; if a failure fires, appends to `log` and returns
    /// the severity.  `source`/`in_tent` annotate the record.
    [[nodiscard]] std::optional<FaultSeverity> advance_host(
        int host_id, core::Duration dt, const StressState& stress, core::TimePoint now,
        const std::string& source, bool in_tent, FaultLog& log);

    [[nodiscard]] const HostFaultProcess* process(int host_id) const;
    [[nodiscard]] const InjectorParams& params() const { return params_; }

private:
    InjectorParams params_;
    std::uint64_t master_seed_;
    std::shared_ptr<const HostHazardModel> model_;
    std::map<int, HostFaultProcess> processes_;
};

}  // namespace zerodeg::faults
