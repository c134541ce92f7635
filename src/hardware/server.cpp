#include "hardware/server.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace zerodeg::hardware {

const char* to_string(Vendor v) {
    switch (v) {
        case Vendor::kA: return "A (local COTS clones)";
        case Vendor::kB: return "B (mass-market SFF)";
        case Vendor::kC: return "C (2U rack servers)";
    }
    return "?";
}

const char* to_string(FormFactor f) {
    switch (f) {
        case FormFactor::kMediumTower: return "medium tower";
        case FormFactor::kSmallFormFactor: return "small form factor";
        case FormFactor::kRack2U: return "2U rack";
    }
    return "?";
}

const char* to_string(RunState s) {
    switch (s) {
        case RunState::kRunning: return "running";
        case RunState::kCrashed: return "crashed";
        case RunState::kPoweredOff: return "powered off";
    }
    return "?";
}

ServerSpec vendor_a_spec() {
    ServerSpec s;
    s.vendor = Vendor::kA;
    s.form_factor = FormFactor::kMediumTower;
    s.cpu_model = "COTS desktop x86";
    s.cpu_idle = core::Watts{12.0};
    s.cpu_max = core::Watts{65.0};
    s.base_power = core::Watts{30.0};
    s.memory_mb = 2048;
    s.ecc_memory = false;
    s.raid = RaidLayout::kSoftwareMirror;
    s.psu_rating = core::Watts{350.0};
    s.psu_efficiency = 0.80;
    s.fans = 2;
    return s;
}

ServerSpec vendor_b_spec() {
    ServerSpec s;
    s.vendor = Vendor::kB;
    s.form_factor = FormFactor::kSmallFormFactor;
    s.cpu_model = "mobile-derived x86";
    s.cpu_idle = core::Watts{8.0};
    s.cpu_max = core::Watts{45.0};
    s.base_power = core::Watts{22.0};
    s.memory_mb = 1024;
    s.ecc_memory = false;
    s.raid = RaidLayout::kNone;
    s.psu_rating = core::Watts{220.0};
    s.psu_efficiency = 0.78;
    s.fans = 1;
    s.known_unreliable = true;  // the series with bad airflow circulation
    return s;
}

ServerSpec vendor_c_spec() {
    ServerSpec s;
    s.vendor = Vendor::kC;
    s.form_factor = FormFactor::kRack2U;
    s.cpu_model = "server x86";
    s.cpu_idle = core::Watts{25.0};
    s.cpu_max = core::Watts{95.0};
    s.base_power = core::Watts{65.0};
    s.memory_mb = 8192;
    s.ecc_memory = true;
    s.raid = RaidLayout::kMirrorPlusParity;
    s.psu_rating = core::Watts{650.0};
    s.psu_efficiency = 0.85;
    s.fans = 6;
    return s;
}

ServerSpec spec_for(Vendor v) {
    switch (v) {
        case Vendor::kA: return vendor_a_spec();
        case Vendor::kB: return vendor_b_spec();
        case Vendor::kC: return vendor_c_spec();
    }
    throw core::InvalidArgument("spec_for: unknown vendor");
}

namespace {

thermal::ServerThermalConfig thermal_config_for(FormFactor f) {
    switch (f) {
        case FormFactor::kMediumTower: return thermal::tower_thermal_config();
        case FormFactor::kSmallFormFactor: return thermal::sff_thermal_config();
        case FormFactor::kRack2U: return thermal::rack_2u_thermal_config();
    }
    throw core::InvalidArgument("thermal_config_for: unknown form factor");
}

std::string drive_model_for(Vendor v) {
    switch (v) {
        case Vendor::kA: return "SATA 3.5\" 250GB";
        case Vendor::kB: return "SATA 2.5\" 160GB";
        case Vendor::kC: return "SAS 3.5\" 300GB";
    }
    return "?";
}

}  // namespace

RaidArray Server::make_storage(const ServerSpec& spec) {
    const std::size_t count = spec.raid == RaidLayout::kNone              ? 1
                              : spec.raid == RaidLayout::kSoftwareMirror ? 2
                                                                         : 5;
    std::vector<HardDrive> drives;
    drives.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        drives.emplace_back(drive_model_for(spec.vendor));
    }
    return RaidArray{spec.raid, std::move(drives)};
}

Server::Server(int id, std::string name, ServerSpec spec, std::uint64_t master_seed)
    : id_(id),
      name_(std::move(name)),
      spec_(spec),
      cpu_(spec.cpu_model, spec.cpu_idle, spec.cpu_max),
      memory_(spec.memory_mb, spec.ecc_memory),
      storage_(make_storage(spec)),
      psu_(spec.psu_rating, spec.psu_efficiency),
      sensor_chip_(SensorChipConfig{},
                   core::RngStream{master_seed, "sensor-chip." + name_}),
      thermals_(thermal_config_for(spec.form_factor), core::Celsius{20.0}) {
    if (spec.fans < 1) throw core::InvalidArgument("Server: at least one fan required");
    for (int i = 0; i < spec.fans; ++i) fans_.emplace_back(2400);
}

void Server::power_on(core::Celsius intake) {
    if (state_ == RunState::kRunning) return;
    state_ = RunState::kRunning;
    last_intake_ = intake;
    thermals_ = thermal::ServerThermalModel(thermal_config_for(spec_.form_factor), intake);
    for (HardDrive& d : storage_.drives()) d.power_cycle();
}

void Server::crash(const std::string& reason) {
    if (state_ != RunState::kRunning) return;
    state_ = RunState::kCrashed;
    ++crash_count_;
    last_crash_reason_ = reason;
}

bool Server::reset() {
    if (state_ != RunState::kCrashed) return false;
    state_ = RunState::kRunning;
    sensor_chip_.warm_reboot();
    for (HardDrive& d : storage_.drives()) d.power_cycle();
    return true;
}

void Server::set_cpu_load(double load) { cpu_.set_load(load); }

core::Watts Server::dc_power() const {
    if (state_ != RunState::kRunning) return core::Watts{0.0};
    core::Watts p = spec_.base_power + cpu_.power() + storage_.power();
    for (const FanUnit& f : fans_) p += f.power();
    return p;
}

core::Watts Server::wall_power() const {
    if (state_ != RunState::kRunning) return core::Watts{0.0};
    return psu_.input_for(dc_power());
}

double Server::fan_airflow() const {
    double total = 0.0;
    for (const FanUnit& f : fans_) total += f.airflow();
    return total / static_cast<double>(fans_.size());
}

void Server::step(core::Duration dt, core::Celsius intake, double airflow) {
    if (dt.count() < 0) throw core::InvalidArgument("Server::step: negative dt");
    last_intake_ = intake;
    if (state_ != RunState::kRunning) return;

    min_intake_ = std::min(min_intake_, intake);
    max_intake_ = std::max(max_intake_, intake);
    uptime_seconds_ += static_cast<double>(dt.count());

    const double effective_airflow = std::max(0.15, fan_airflow() * airflow);
    thermals_.step(dt, intake, cpu_.power(), dc_power(), effective_airflow);
    sensor_chip_.step(dt, thermals_.cpu_temperature());
    for (HardDrive& d : storage_.drives()) {
        if (!d.failed()) d.accrue(dt, thermals_.hdd_temperature());
    }
}

std::optional<core::Celsius> Server::read_cpu_sensor() {
    if (state_ != RunState::kRunning) return std::nullopt;
    return sensor_chip_.read(thermals_.cpu_temperature());
}

}  // namespace zerodeg::hardware
