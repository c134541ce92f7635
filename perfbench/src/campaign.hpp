// The campaign workload: an in-process coordinator and two lease workers
// over real AF_UNIX sockets, with their journals kept in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/io.hpp"
#include "core/transport.hpp"
#include "experiment/distributed.hpp"

namespace zdbench {

inline constexpr std::size_t kCampaignWorkers = 2;

/// Journal I/O seen through the FileSystem seam.
struct FsStats {
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    double write_s = 0.0;  ///< time in write_file and rename

    FsStats& operator+=(const FsStats& o) {
        writes += o.writes;
        bytes += o.bytes;
        write_s += o.write_s;
        return *this;
    }
};

/// A FileSystem held in memory: a locked map from path to contents.  The
/// campaign keeps its journals here, so that its wall time measures the
/// journal and protocol code rather than the host disk's rename latency.
/// Thread-safe: the coordinator and both workers share one instance.
class MemFs final : public zerodeg::core::FileSystem {
public:
    void write_file(const std::filesystem::path& path, std::string_view content) override;
    [[nodiscard]] std::string read_file(const std::filesystem::path& path) override;
    [[nodiscard]] bool exists(const std::filesystem::path& path) override;
    void rename(const std::filesystem::path& from, const std::filesystem::path& to) override;
    void remove(const std::filesystem::path& path) override;

private:
    std::mutex mutex_;
    std::map<std::filesystem::path, std::string> files_;
};

/// A FileSystem that times and counts the calls it forwards to `inner`.
/// Thread-safe: both workers share one instance.
class TimingFs final : public zerodeg::core::FileSystem {
public:
    TimingFs(std::string name, zerodeg::core::FileSystem& inner, SpanLog& spans)
        : name_(std::move(name)), inner_(inner), spans_(spans) {}

    void write_file(const std::filesystem::path& path, std::string_view content) override;
    [[nodiscard]] std::string read_file(const std::filesystem::path& path) override;
    [[nodiscard]] bool exists(const std::filesystem::path& path) override;
    void rename(const std::filesystem::path& from, const std::filesystem::path& to) override;
    void remove(const std::filesystem::path& path) override;

    [[nodiscard]] FsStats stats() const;

private:
    void note(Clock::time_point t0, std::uint64_t bytes, bool write);

    std::string name_;
    zerodeg::core::FileSystem& inner_;
    SpanLog& spans_;
    mutable std::mutex mutex_;
    FsStats stats_;
};

/// Frames and time on every link of one campaign.
struct NetStats {
    std::uint64_t frames = 0;  ///< frames sent, both directions
    std::uint64_t bytes = 0;
    double send_s = 0.0;
    double wait_s = 0.0;  ///< blocked in recv_wait or accept

    NetStats& operator+=(const NetStats& o) {
        frames += o.frames;
        bytes += o.bytes;
        send_s += o.send_s;
        wait_s += o.wait_s;
        return *this;
    }
};

/// Shared, locked NetStats that the transport decorators add to.
class NetMeter {
public:
    void add_send(std::size_t bytes, double seconds);
    void add_wait(double seconds);
    [[nodiscard]] NetStats stats() const;

private:
    mutable std::mutex mutex_;
    NetStats stats_;
};

/// Everything a traced campaign measures besides the seasons themselves.
struct CampaignMeters {
    CampaignMeters(zerodeg::core::FileSystem& journals, SpanLog& spans)
        : merged("journal.merged", journals, spans), worker("journal.worker", journals, spans) {}
    TimingFs merged;
    TimingFs worker;
    NetMeter net;
};

/// A coordinator that has opened its merged journal and bound its socket.
struct OpenCampaign {
    std::filesystem::path dir;
    std::unique_ptr<MemFs> journals;
    std::unique_ptr<CampaignMeters> meters;  ///< null in an untraced campaign
    std::unique_ptr<zerodeg::experiment::CoordinatorService> service;
    std::unique_ptr<zerodeg::core::Listener> listener;
};

/// Opens the coordinator's merged journal (in memory, under `dir`) and binds
/// the listener in the empty directory `dir`.  With `spans`, journals and
/// sockets are decorated by the campaign's meters.
[[nodiscard]] OpenCampaign open_campaign(const zerodeg::experiment::CensusPlan& plan,
                                         const std::filesystem::path& dir, SpanLog* spans);

struct CampaignOutcome {
    double window_s = 0.0;  ///< start of serve until serve and both workers returned
    zerodeg::experiment::CoordinatorReport coordinator;
    std::vector<zerodeg::experiment::WorkerReport> workers;
    /// The merged journal's census per cell index (empty if missing).
    std::vector<std::optional<FaultCensus>> censuses;
    std::string error;  ///< non-empty if any thread threw or the campaign timed out
};

/// Serves the opened campaign with two lease-worker threads and decodes
/// the merged journal afterwards.  `plan.run_cell` is what the workers run.
[[nodiscard]] CampaignOutcome serve_campaign(const zerodeg::experiment::CensusPlan& plan,
                                             OpenCampaign& open, double deadline_s);

}  // namespace zdbench
