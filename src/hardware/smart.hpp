// S.M.A.R.T. attribute emulation for the simulated hard drives.
//
// Section 3.1 of the paper monitors drives through S.M.A.R.T. during the
// prototype, and Section 4.2.2 rules the drives out as the wrong-hash cause
// because they "passed their S.M.A.R.T. long test runs".  We model the
// attributes that matter for that argument: temperature, reallocated and
// pending sectors, power-on hours, and start/stop counts, plus the long
// self-test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sim_time.hpp"
#include "core/units.hpp"

namespace zerodeg::hardware {

/// Well-known attribute ids (the subset we emulate).
enum class SmartId : std::uint8_t {
    kReallocatedSectors = 5,
    kPowerOnHours = 9,
    kPowerCycles = 12,
    kAirflowTemperature = 190,
    kTemperature = 194,
    kPendingSectors = 197,
    kUncorrectableSectors = 198,
};

[[nodiscard]] const char* to_string(SmartId id);

struct SmartAttribute {
    SmartId id;
    /// Normalized value 1..253 (higher is healthier), vendor-style.
    int value = 100;
    int worst = 100;
    int threshold = 0;
    /// Raw counter (sectors, hours, degrees...).
    std::int64_t raw = 0;

    [[nodiscard]] bool failed_threshold() const { return threshold > 0 && value <= threshold; }
};

enum class SelfTestResult { kPassed, kFailedReadElement, kFailedServo, kAborted };

[[nodiscard]] const char* to_string(SelfTestResult r);

/// One drive's SMART state.
class SmartData {
public:
    SmartData();

    /// Account `dt` of spinning at drive temperature `t`.
    void accrue(core::Duration dt, core::Celsius t);

    /// Register a power cycle (start/stop).
    void power_cycle();

    /// Grow the defect lists (called by the fault engine on media wear).
    void add_reallocated_sectors(int n);
    void add_pending_sectors(int n);

    /// Run the SMART extended self-test: scans the media; pending sectors
    /// found unreadable become reallocated; fails if uncorrectables remain.
    SelfTestResult run_long_test();

    [[nodiscard]] const SmartAttribute& attribute(SmartId id) const;
    [[nodiscard]] bool overall_health_ok() const;
    [[nodiscard]] double power_on_hours() const { return poh_seconds_ / 3600.0; }
    [[nodiscard]] core::Celsius min_temperature_seen() const { return min_temp_; }
    [[nodiscard]] core::Celsius max_temperature_seen() const { return max_temp_; }

private:
    std::vector<SmartAttribute> attrs_;
    double poh_seconds_ = 0.0;
    core::Celsius min_temp_{1000.0};
    core::Celsius max_temp_{-1000.0};

    SmartAttribute& attr(SmartId id);
};

}  // namespace zerodeg::hardware
