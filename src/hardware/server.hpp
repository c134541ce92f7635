// A simulated machine: one of the 19 computers of Section 3.4.
//
// Three builds are modeled, matching the paper's vendors:
//   A - small local vendor, COTS "clone" desktops, medium tower, two-drive
//       Linux software mirror;
//   B - large vendor, mass-manufactured small-form-factor workstation,
//       single drive (the series with known airflow problems);
//   C - large vendor, heavy-duty 2U rack server, five drives (HW mirror +
//       parity stripe), ECC memory.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "core/units.hpp"
#include "hardware/components.hpp"
#include "hardware/sensor_chip.hpp"
#include "thermal/server_thermal.hpp"

namespace zerodeg::hardware {

enum class Vendor { kA, kB, kC };
enum class FormFactor { kMediumTower, kSmallFormFactor, kRack2U };

[[nodiscard]] const char* to_string(Vendor v);
[[nodiscard]] const char* to_string(FormFactor f);

struct ServerSpec {
    Vendor vendor = Vendor::kA;
    FormFactor form_factor = FormFactor::kMediumTower;
    std::string cpu_model = "COTS x86";
    core::Watts cpu_idle{12.0};
    core::Watts cpu_max{65.0};
    /// Chipset + mainboard + NIC floor, excluding CPU/drives/fans.
    core::Watts base_power{28.0};
    std::size_t memory_mb = 2048;
    bool ecc_memory = false;
    RaidLayout raid = RaidLayout::kSoftwareMirror;
    core::Watts psu_rating{350.0};
    double psu_efficiency = 0.82;
    int fans = 2;
    /// The vendor-B series the department already knew to be flaky.
    bool known_unreliable = false;
};

[[nodiscard]] ServerSpec vendor_a_spec();
[[nodiscard]] ServerSpec vendor_b_spec();
[[nodiscard]] ServerSpec vendor_c_spec();
[[nodiscard]] ServerSpec spec_for(Vendor v);

enum class RunState {
    kRunning,
    kCrashed,    ///< a system failure; needs an operator reset
    kPoweredOff, ///< not yet installed, or retired
};

[[nodiscard]] const char* to_string(RunState s);

class Server {
public:
    Server(int id, std::string name, ServerSpec spec, std::uint64_t master_seed);

    // --- identity ----------------------------------------------------------
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const ServerSpec& spec() const { return spec_; }

    // --- lifecycle ---------------------------------------------------------
    void power_on(core::Celsius intake);
    /// A transient or permanent system failure (from the fault engine).
    void crash(const std::string& reason);
    /// Operator reset after a crash; returns false if the machine is not in
    /// a resettable state.
    bool reset();
    [[nodiscard]] RunState state() const { return state_; }
    [[nodiscard]] bool operational() const { return state_ == RunState::kRunning; }
    [[nodiscard]] int crash_count() const { return crash_count_; }
    [[nodiscard]] const std::string& last_crash_reason() const { return last_crash_reason_; }

    // --- load & power ------------------------------------------------------
    void set_cpu_load(double load);
    /// DC power delivered by the PSU to all components right now.
    [[nodiscard]] core::Watts dc_power() const;
    /// Wall power (what the Technoline meter would see).
    [[nodiscard]] core::Watts wall_power() const;

    // --- simulation step ---------------------------------------------------
    /// Advance thermals and wear.  `airflow` is relative to nominal case
    /// airflow (wind through an opened tent raises it above 1).
    void step(core::Duration dt, core::Celsius intake, double airflow = 1.0);

    // --- sensors & components ----------------------------------------------
    /// lm-sensors CPU temperature read (may be garbage or absent; see
    /// SensorChip).
    [[nodiscard]] std::optional<core::Celsius> read_cpu_sensor();
    [[nodiscard]] SensorChip& sensor_chip() { return sensor_chip_; }
    [[nodiscard]] Cpu& cpu() { return cpu_; }
    [[nodiscard]] const Cpu& cpu() const { return cpu_; }
    [[nodiscard]] MemoryModule& memory() { return memory_; }
    [[nodiscard]] const MemoryModule& memory() const { return memory_; }
    [[nodiscard]] RaidArray& storage() { return storage_; }
    [[nodiscard]] const RaidArray& storage() const { return storage_; }
    [[nodiscard]] std::vector<FanUnit>& fans() { return fans_; }
    [[nodiscard]] const thermal::ServerThermalModel& thermals() const { return thermals_; }

    [[nodiscard]] core::Celsius cpu_temperature() const { return thermals_.cpu_temperature(); }
    [[nodiscard]] core::Celsius hdd_temperature() const { return thermals_.hdd_temperature(); }
    [[nodiscard]] core::Celsius case_surface_temperature() const {
        return thermals_.case_surface_temperature(last_intake_);
    }

    // --- exposure bookkeeping (for the fault engine & reports) -------------
    [[nodiscard]] double uptime_hours() const { return uptime_seconds_ / 3600.0; }
    [[nodiscard]] core::Celsius min_intake_seen() const { return min_intake_; }
    [[nodiscard]] core::Celsius max_intake_seen() const { return max_intake_; }

private:
    int id_;
    std::string name_;
    ServerSpec spec_;
    Cpu cpu_;
    MemoryModule memory_;
    RaidArray storage_;
    PowerSupply psu_;
    std::vector<FanUnit> fans_;
    SensorChip sensor_chip_;
    thermal::ServerThermalModel thermals_;

    RunState state_ = RunState::kPoweredOff;
    int crash_count_ = 0;
    std::string last_crash_reason_;
    double uptime_seconds_ = 0.0;
    core::Celsius last_intake_{20.0};
    core::Celsius min_intake_{1000.0};
    core::Celsius max_intake_{-1000.0};

    [[nodiscard]] static RaidArray make_storage(const ServerSpec& spec);
    [[nodiscard]] double fan_airflow() const;
};

}  // namespace zerodeg::hardware
