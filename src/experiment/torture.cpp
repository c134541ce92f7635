#include "experiment/torture.hpp"

#include <array>
#include <ostream>
#include <sstream>

#include "core/error.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"
#include "experiment/report.hpp"
#include "experiment/sweep_journal.hpp"

namespace zerodeg::experiment {

std::string render_census_table(const CensusResult& result, std::uint64_t base_seed) {
    std::ostringstream out;
    for (std::size_t i = 0; i < result.censuses.size(); ++i) {
        const FaultCensus& c = result.censuses[i];
        out << "seed " << base_seed + i << ": " << c.system_failures << " system failure(s), "
            << c.wrong_hashes << " wrong hash(es)";
        // Traffic columns appear only for traffic seasons, keeping archive
        // output byte-identical to earlier releases.
        if (c.requests_completed + c.requests_dropped > 0) {
            out << ", " << c.requests_completed << " request(s) served, "
                << fmt_pct(c.deadline_miss_fraction()) << " deadline misses";
        }
        out << '\n';
    }
    const CensusSummary& s = result.summary;
    out << "\nmean fleet failure rate: " << fmt_pct(s.mean_fleet_failure_rate)
        << " (paper 5.6%, Intel 4.46%)\n"
        << "mean wrong hashes/season: " << fmt(s.mean_wrong_hashes, 1) << " over "
        << fmt(s.mean_runs, 0) << " runs\n"
        << "seasons with sensor incident: " << fmt_pct(s.frac_runs_with_sensor_incident, 0)
        << '\n';
    if (s.mean_requests_completed > 0.0) {
        out << "mean requests served/season: " << fmt(s.mean_requests_completed, 0)
            << ", mean deadline-miss fraction: " << fmt_pct(s.mean_deadline_miss_fraction)
            << '\n';
    }
    // Harness-level incidents (hung nodes the watchdog rebooted) are part of
    // the printed record, like the paper's operator interventions — but the
    // line only appears when there were any, keeping fault-free output
    // byte-identical to earlier releases.
    if (result.harness.hung_cells > 0) {
        out << "harness hung nodes: " << result.harness.hung_cells
            << " cancelled by watchdog (";
        for (std::size_t i = 0; i < result.harness.hung_cell_labels.size(); ++i) {
            if (i > 0) out << ", ";
            out << result.harness.hung_cell_labels[i];
        }
        out << ")\n";
    }
    return out.str();
}

FaultCensus synthetic_census(const ExperimentConfig& config) {
    // Everything derives from one named stream of the cell's master seed, so
    // a synthetic cell is as deterministic as a simulated season: same seed,
    // same census, no matter which thread or attempt produces it.
    core::RngStream s(config.master_seed, "torture.synthetic-cell");
    FaultCensus c;
    c.tent_hosts = 18;
    c.basement_hosts = 18;
    c.tent_hosts_failed = static_cast<std::size_t>(s.uniform_int(0, 3));
    c.basement_hosts_failed = static_cast<std::size_t>(s.uniform_int(0, 2));
    c.transient_failures = static_cast<std::size_t>(s.uniform_int(0, 4));
    c.permanent_failures = static_cast<std::size_t>(s.uniform_int(0, 1));
    c.system_failures = c.transient_failures + c.permanent_failures;
    c.sensor_incidents = static_cast<std::size_t>(s.uniform_int(0, 1));
    c.switch_failures = static_cast<std::size_t>(s.uniform_int(0, 1));
    c.fan_faults = static_cast<std::size_t>(s.uniform_int(0, 2));
    c.disk_faults = static_cast<std::size_t>(s.uniform_int(0, 2));
    c.load_runs = static_cast<std::uint64_t>(s.uniform_int(5000, 9000));
    c.wrong_hashes = static_cast<std::uint64_t>(s.uniform_int(0, 20));
    c.wrong_hashes_tent = c.wrong_hashes / 2;
    c.wrong_hashes_basement = c.wrong_hashes - c.wrong_hashes_tent;
    c.page_ops = static_cast<std::uint64_t>(s.uniform_int(1'000'000, 9'000'000));
    c.page_ops_non_ecc = c.page_ops / 3;
    return c;
}

namespace {

void scrub_journal(const std::filesystem::path& journal_path) {
    std::filesystem::path tmp = journal_path;
    tmp += ".tmp";
    core::real_fs().remove(journal_path);
    core::real_fs().remove(tmp);
}

}  // namespace

TortureReport torture_campaign(const CensusPlan& plan, std::size_t jobs,
                               const std::filesystem::path& journal_path, std::ostream& log) {
    TortureReport report;
    const ParallelCensus campaign(plan, jobs);
    const SweepJournalKey key = campaign.journal_key();

    // Reference: the uninterrupted run every crashed-and-resumed pass must
    // reproduce byte for byte.
    const std::string want = render_census_table(campaign.run(), plan.base_seed);

    // Count the write points of one journaled run: each is a crash point.
    {
        scrub_journal(journal_path);
        core::FaultyFs counter(core::FaultPlan{});
        SweepJournal journal(journal_path, key, false, &counter);
        const std::string got = render_census_table(campaign.run(journal), plan.base_seed);
        if (got != want) {
            // A journaled clean run must already match; anything else would
            // make every crash point "fail" for an unrelated reason.
            throw core::Error("torture: journaled uninterrupted run differs from reference");
        }
        report.io_ops = counter.op_count();
    }

    const std::array<core::CrashPhase, 4> phases = {
        core::CrashPhase::kBeforeOp, core::CrashPhase::kTornWrite, core::CrashPhase::kAfterOp,
        core::CrashPhase::kTornTail};

    for (std::size_t op = 0; op < report.io_ops; ++op) {
        for (const core::CrashPhase phase : phases) {
            scrub_journal(journal_path);
            core::FaultPlan fault_plan;
            fault_plan.seed = 0x70e7 + op;  // varies the torn-byte choices per op
            fault_plan.crash_at_op = op;
            fault_plan.crash_phase = phase;
            core::FaultyFs faulty(fault_plan);

            try {
                SweepJournal journal(journal_path, key, false, &faulty);
                (void)campaign.run(journal);
            } catch (const core::SimulatedCrash&) {
                // the "process" died at the crash point
            }
            ++report.crash_points;

            // The survivor's path: open whatever the dead process left on
            // disk and finish the campaign against the real filesystem.
            std::string got;
            std::size_t repairs = 0;
            try {
                SweepJournal journal(journal_path, key, true);
                repairs = journal.recovered_tail_records();
                got = render_census_table(campaign.run(journal), plan.base_seed);
            } catch (const core::CorruptData&) {
                // Damage beyond the torn-tail contract (e.g. the tear bit
                // into the header).  The documented operator action — and
                // the CLI's exit-1 message — is: delete the journal, rerun.
                ++report.journal_resets;
                scrub_journal(journal_path);
                SweepJournal journal(journal_path, key, false);
                got = render_census_table(campaign.run(journal), plan.base_seed);
            }
            ++report.resumes;
            report.tail_repairs += repairs;
            if (got != want) {
                ++report.mismatches;
                log << "torture MISMATCH: crash at op " << op << " phase "
                    << core::to_string(phase) << " (jobs " << jobs
                    << "): resumed output differs from uninterrupted run\n";
            }
        }
    }

    scrub_journal(journal_path);
    return report;
}

}  // namespace zerodeg::experiment
