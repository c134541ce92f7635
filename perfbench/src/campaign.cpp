#include "campaign.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "experiment/sweep_journal.hpp"

namespace zdbench {

namespace core = zerodeg::core;
namespace ex = zerodeg::experiment;

// --- journals in memory and their decorator -----------------------------------

void MemFs::write_file(const std::filesystem::path& path, std::string_view content) {
    const std::scoped_lock lock(mutex_);
    files_[path] = std::string(content);
}

std::string MemFs::read_file(const std::filesystem::path& path) {
    const std::scoped_lock lock(mutex_);
    const auto it = files_.find(path);
    if (it == files_.end()) throw core::Error("no such file: " + path.string());
    return it->second;
}

bool MemFs::exists(const std::filesystem::path& path) {
    const std::scoped_lock lock(mutex_);
    return files_.contains(path);
}

void MemFs::rename(const std::filesystem::path& from, const std::filesystem::path& to) {
    const std::scoped_lock lock(mutex_);
    const auto it = files_.find(from);
    if (it == files_.end()) throw core::Error("no such file: " + from.string());
    files_[to] = std::move(it->second);
    files_.erase(from);
}

void MemFs::remove(const std::filesystem::path& path) {
    const std::scoped_lock lock(mutex_);
    files_.erase(path);
}

void TimingFs::note(Clock::time_point t0, std::uint64_t bytes, bool write) {
    const auto t1 = Clock::now();
    const double dt = Clock::seconds_between(t0, t1);
    {
        const std::scoped_lock lock(mutex_);
        stats_.write_s += dt;
        if (write) {
            ++stats_.writes;
            stats_.bytes += bytes;
        }
    }
    spans_.add({name_ + (write ? ".write" : ".rename"), name_, -1, spans_.at(t0), spans_.at(t1),
                dt, 1});
}

void TimingFs::write_file(const std::filesystem::path& path, std::string_view content) {
    const auto t0 = Clock::now();
    inner_.write_file(path, content);
    note(t0, content.size(), true);
}

std::string TimingFs::read_file(const std::filesystem::path& path) {
    return inner_.read_file(path);
}

bool TimingFs::exists(const std::filesystem::path& path) { return inner_.exists(path); }

void TimingFs::rename(const std::filesystem::path& from, const std::filesystem::path& to) {
    const auto t0 = Clock::now();
    inner_.rename(from, to);
    note(t0, 0, false);
}

void TimingFs::remove(const std::filesystem::path& path) { inner_.remove(path); }

FsStats TimingFs::stats() const {
    const std::scoped_lock lock(mutex_);
    return stats_;
}

// --- transport decorators ---------------------------------------------------

void NetMeter::add_send(std::size_t bytes, double seconds) {
    const std::scoped_lock lock(mutex_);
    ++stats_.frames;
    stats_.bytes += bytes;
    stats_.send_s += seconds;
}

void NetMeter::add_wait(double seconds) {
    const std::scoped_lock lock(mutex_);
    stats_.wait_s += seconds;
}

NetStats NetMeter::stats() const {
    const std::scoped_lock lock(mutex_);
    return stats_;
}

namespace {

class TimingTransport final : public core::Transport {
public:
    TimingTransport(std::unique_ptr<core::Transport> inner, NetMeter& meter)
        : inner_(std::move(inner)), meter_(meter) {}

    void send(std::string_view frame) override {
        const auto t0 = Clock::now();
        inner_->send(frame);
        meter_.add_send(frame.size(), seconds_since(t0));
    }
    bool try_recv(std::string& frame) override { return inner_->try_recv(frame); }
    bool recv_wait(std::string& frame, int timeout_ms) override {
        const auto t0 = Clock::now();
        struct Charge {
            NetMeter& meter;
            Clock::time_point t0;
            ~Charge() { meter.add_wait(seconds_since(t0)); }
        } charge{meter_, t0};
        return inner_->recv_wait(frame, timeout_ms);
    }
    void close() override { inner_->close(); }
    [[nodiscard]] bool closed() const override { return inner_->closed(); }

private:
    std::unique_ptr<core::Transport> inner_;
    NetMeter& meter_;
};

class TimingListener final : public core::Listener {
public:
    TimingListener(std::unique_ptr<core::Listener> inner, NetMeter& meter)
        : inner_(std::move(inner)), meter_(meter) {}

    std::unique_ptr<core::Transport> accept(int timeout_ms) override {
        const auto t0 = Clock::now();
        std::unique_ptr<core::Transport> link = inner_->accept(timeout_ms);
        meter_.add_wait(seconds_since(t0));
        if (!link) return nullptr;
        return std::make_unique<TimingTransport>(std::move(link), meter_);
    }
    void close() override { inner_->close(); }

private:
    std::unique_ptr<core::Listener> inner_;
    NetMeter& meter_;
};

std::filesystem::path socket_path(const std::filesystem::path& dir) { return dir / "s"; }

/// The merged journal's cells by index, decoded straight from its bytes.
std::vector<std::optional<FaultCensus>> decode_merged(core::FileSystem& files,
                                                      const std::filesystem::path& path,
                                                      std::size_t cells) {
    std::vector<std::optional<FaultCensus>> censuses(cells);
    std::istringstream in(files.read_file(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cell ", 0) != 0) continue;
        const ex::CellRecord rec = ex::decode_cell_record(line, cells);
        censuses[rec.index] = rec.census;
    }
    return censuses;
}

}  // namespace

OpenCampaign open_campaign(const ex::CensusPlan& plan, const std::filesystem::path& dir,
                           SpanLog* spans) {
    OpenCampaign open;
    open.dir = dir;
    open.journals = std::make_unique<MemFs>();
    if (spans != nullptr) open.meters = std::make_unique<CampaignMeters>(*open.journals, *spans);
    ex::CoordinatorOptions opts;
    opts.fs = open.journals.get();
    if (open.meters) opts.fs = &open.meters->merged;
    open.service = std::make_unique<ex::CoordinatorService>(plan, ex::merged_journal_path(dir), opts);
    open.listener = core::listen_unix(socket_path(dir));
    if (open.meters) {
        open.listener = std::make_unique<TimingListener>(std::move(open.listener), open.meters->net);
    }
    return open;
}

CampaignOutcome serve_campaign(const ex::CensusPlan& plan, OpenCampaign& open, double deadline_s) {
    CampaignMeters* const meters = open.meters.get();
    CampaignOutcome out;
    out.workers.resize(kCampaignWorkers);
    std::vector<std::string> errors(kCampaignWorkers + 1);
    std::vector<Clock::time_point> ended(kCampaignWorkers + 1);
    std::mutex finish_mutex;
    std::condition_variable finish_cv;
    std::size_t finished = 0;
    const auto finish = [&](std::size_t k) {
        {
            const std::scoped_lock lock(finish_mutex);
            ended[k] = Clock::now();
            ++finished;
        }
        finish_cv.notify_one();
    };
    const std::filesystem::path socket = socket_path(open.dir);

    // The listener is bound before any worker starts and closed when serve()
    // returns, so a refused connection means the coordinator is gone.
    const auto dial = [socket, meters]() -> std::unique_ptr<core::Transport> {
        try {
            std::unique_ptr<core::Transport> link = core::connect_unix(socket);
            if (meters == nullptr) return link;
            return std::make_unique<TimingTransport>(std::move(link), meters->net);
        } catch (const core::TransportClosed&) {
            return nullptr;
        }
    };

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        try {
            out.coordinator = open.service->serve(*open.listener);
        } catch (const std::exception& e) {
            errors[0] = std::string("coordinator: ") + e.what();
        }
        // As when a coordinator process exits: a worker that missed DONE
        // and redials is refused at once instead of waiting out handshakes
        // on a listener nobody accepts from.
        open.listener->close();
        finish(0);
    });
    for (std::size_t k = 0; k < kCampaignWorkers; ++k) {
        threads.emplace_back([&, k] {
            try {
                ex::WorkerOptions opts;
                opts.reconnect = dial;
                opts.fs = open.journals.get();
                if (meters != nullptr) opts.fs = &meters->worker;
                out.workers[k] = ex::run_worker(plan, ex::ShardSpec{k, 0},
                                                ex::worker_journal_path(open.dir, k), dial(), opts);
            } catch (const std::exception& e) {
                errors[k + 1] = "worker " + std::to_string(k) + ": " + e.what();
            }
            finish(k + 1);
        });
    }
    bool stopped = false;
    {
        std::unique_lock lock(finish_mutex);
        stopped = !finish_cv.wait_for(lock, std::chrono::duration<double>(deadline_s),
                                      [&] { return finished == threads.size(); });
    }
    if (stopped) {
        open.service->request_stop();
        open.listener->close();
    }
    for (std::thread& t : threads) t.join();

    Clock::time_point last = t0;
    for (const Clock::time_point t : ended) last = std::max(last, t);
    out.window_s = Clock::seconds_between(t0, last);
    for (const std::string& e : errors) {
        if (!e.empty()) out.error += (out.error.empty() ? "" : "; ") + e;
    }
    if (stopped) out.error += (out.error.empty() ? "" : "; ") + std::string("campaign timed out");
    open.listener->close();
    try {
        out.censuses = decode_merged(*open.journals, ex::merged_journal_path(open.dir), plan.seeds);
    } catch (const std::exception& e) {
        out.censuses.assign(plan.seeds, std::nullopt);
        out.error += (out.error.empty() ? "" : "; ") + std::string("merged journal: ") + e.what();
    }
    return out;
}

}  // namespace zdbench
