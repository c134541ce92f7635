#include "workload/scheduler.hpp"

#include "core/error.hpp"

namespace zerodeg::workload {

LoadScheduler::LoadScheduler(core::Simulator& sim, LoadJob job,
                             faults::MemoryFaultParams mem_params, std::uint64_t master_seed,
                             core::Duration cycle)
    : sim_(sim),
      job_(std::move(job)),
      mem_params_(mem_params),
      master_seed_(master_seed),
      cycle_(cycle),
      origin_(sim.now()) {
    if (cycle.count() <= 0) throw core::InvalidArgument("LoadScheduler: bad cycle");
}

std::uint64_t LoadScheduler::entry_rank(core::TimePoint first) const {
    // A rank is (group << kOrderBits) | add order.  Hosts added at least a
    // cycle ahead of their first cycle take group kBehind minus the cycles
    // from origin_ to it, so a later first cycle ranks first; all others
    // take kBehind.
    constexpr unsigned kOrderBits = 24;
    constexpr std::uint64_t kBehind = std::uint64_t{1} << 38;
    if (hosts_.size() >> kOrderBits != 0) {
        throw core::InvalidArgument("LoadScheduler::add_host: too many hosts");
    }
    std::uint64_t group = kBehind;
    if (first - sim_.now() >= cycle_) {
        const auto cycles = static_cast<std::uint64_t>((first - origin_).count() / cycle_.count());
        if (cycles >= kBehind) throw core::InvalidArgument("LoadScheduler::add_host: too late");
        group -= cycles;
    }
    return (group << kOrderBits) | hosts_.size();
}

void LoadScheduler::add_host(HostBinding binding, core::TimePoint first_cycle) {
    if (hosts_.contains(binding.host_id)) {
        throw core::InvalidArgument("LoadScheduler::add_host: duplicate host");
    }
    if (!binding.operational) {
        throw core::InvalidArgument("LoadScheduler::add_host: missing operational check");
    }
    const int id = binding.host_id;
    const std::string tag = std::to_string(id);
    const core::TimePoint start = first_cycle < sim_.now() ? sim_.now() : first_cycle;
    const std::uint64_t rank = entry_rank(start);
    HostState state{
        std::move(binding),
        faults::MemoryFaultModel(mem_params_, core::RngStream{master_seed_, "load.mem." + tag}),
        core::RngStream{master_seed_, "load.fuzz." + tag},
        &stats_.emplace(id, HostLoadStats{}).first->second,
        rank,
        start,
        0,
    };
    HostState& h = hosts_.emplace(id, std::move(state)).first->second;
    h.cycle_event = sim_.schedule_ranked(start + draw_fuzz(h), start, rank,
                                         [this, &h] { run_cycle(h); });
}

void LoadScheduler::remove_host(int host_id) {
    const auto it = hosts_.find(host_id);
    if (it == hosts_.end()) throw core::InvalidArgument("LoadScheduler::remove_host: unknown");
    sim_.cancel(it->second.cycle_event);
}

core::Duration LoadScheduler::draw_fuzz(HostState& h) {
    // "each host sleeps for 0 to 119 seconds before commencing"
    return core::Duration::seconds(h.fuzz_rng.uniform_int(0, 119));
}

void LoadScheduler::run_cycle(HostState& h) {
    h.cycle_instant += cycle_;
    sim_.requeue_ranked(h.cycle_instant + draw_fuzz(h), h.cycle_instant, h.rank);
    HostLoadStats& st = *h.stats;
    if (!h.binding.operational()) {
        ++st.skipped;
        return;
    }
    JobDraw draw = job_.draw(h.memory, h.binding.ecc);
    ++st.runs;
    st.page_ops += draw.page_ops;
    st.ecc_corrected += draw.corrected_flips;
    if (draw.damage) {
        pending_.push_back({sim_.now(), h.binding.host_id});
        pending_damage_.push_back(std::move(*draw.damage));
    }
}

void LoadScheduler::settle() const {
    if (pending_.empty()) return;
    const std::vector<JobVerdict> verdicts = job_.settle(pending_damage_);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        const JobVerdict& v = verdicts[i];
        HostLoadStats& st = stats_.at(pending_[i].host_id);
        st.blocks_decoded += v.blocks_decoded;
        st.md5_bytes += v.md5_bytes;
        if (v.hash_ok) continue;
        ++st.wrong_hashes;
        WrongHashIncident inc;
        inc.time = pending_[i].time;
        inc.host_id = pending_[i].host_id;
        if (v.forensics) {
            inc.corrupt_blocks = v.forensics->corrupt_blocks.size();
            inc.total_blocks = v.forensics->total_blocks;
            inc.recovered = v.forensics->lost_bytes < v.forensics->salvaged_bytes;
        }
        incidents_.push_back(inc);
    }
    pending_.clear();
    pending_damage_.clear();
}

const HostLoadStats& LoadScheduler::stats(int host_id) const {
    settle();
    const auto it = stats_.find(host_id);
    if (it == stats_.end()) throw core::InvalidArgument("LoadScheduler::stats: unknown host");
    return it->second;
}

std::uint64_t LoadScheduler::total_runs() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.runs;
    return n;
}

std::uint64_t LoadScheduler::total_wrong_hashes() const {
    settle();
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.wrong_hashes;
    return n;
}

std::uint64_t LoadScheduler::total_page_ops() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.page_ops;
    return n;
}

std::uint64_t LoadScheduler::total_blocks_decoded() const {
    settle();
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.blocks_decoded;
    return n;
}

std::uint64_t LoadScheduler::total_md5_bytes() const {
    settle();
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.md5_bytes;
    return n;
}

}  // namespace zerodeg::workload
