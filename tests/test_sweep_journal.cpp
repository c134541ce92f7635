// Crash-safety of checkpointed sweeps: a census killed after a random subset
// of cells and resumed from its journal must be *byte-identical* to an
// uninterrupted run, for any worker count — and a journal from a different
// campaign (wrong seed, wrong config, wrong cell count) or a damaged file
// must be rejected with a diagnostic, never silently reused.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "experiment/census.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/sweep_journal.hpp"

namespace zerodeg::experiment {
namespace {

namespace fs = std::filesystem;
using core::TimePoint;

constexpr std::uint64_t kBaseSeed = 7777;
constexpr std::size_t kSeeds = 6;

/// Short, cheap seasons (same trick as test_parallel_determinism): resume
/// parity is about bookkeeping, not season length.
ExperimentConfig cheap_config(std::size_t /*index*/, std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.master_seed = seed;
    cfg.end = TimePoint::from_date(2010, 2, 26);  // one week
    cfg.load.corpus.total_bytes = 64 * 1024;
    cfg.load.target_blocks = 20;
    return cfg;
}

CensusPlan cheap_plan() {
    CensusPlan plan;
    plan.base_seed = kBaseSeed;
    plan.seeds = kSeeds;
    plan.make_config = cheap_config;
    return plan;
}

/// Fresh per-test journal path under the gtest temp dir.
fs::path journal_path(const std::string& name) {
    fs::path p = fs::path(::testing::TempDir()) / (name + ".journal");
    fs::remove(p);
    fs::remove(fs::path(p.string() + ".tmp"));
    return p;
}

std::string slurp(const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void spit(const fs::path& p, const std::string& text) {
    std::ofstream out(p, std::ios::trunc);
    out << text;
}

void expect_identical(const FaultCensus& a, const FaultCensus& b, std::size_t seed_index) {
    SCOPED_TRACE("seed index " + std::to_string(seed_index));
    EXPECT_EQ(a.tent_hosts, b.tent_hosts);
    EXPECT_EQ(a.basement_hosts, b.basement_hosts);
    EXPECT_EQ(a.tent_hosts_failed, b.tent_hosts_failed);
    EXPECT_EQ(a.basement_hosts_failed, b.basement_hosts_failed);
    EXPECT_EQ(a.system_failures, b.system_failures);
    EXPECT_EQ(a.transient_failures, b.transient_failures);
    EXPECT_EQ(a.permanent_failures, b.permanent_failures);
    EXPECT_EQ(a.sensor_incidents, b.sensor_incidents);
    EXPECT_EQ(a.switch_failures, b.switch_failures);
    EXPECT_EQ(a.fan_faults, b.fan_faults);
    EXPECT_EQ(a.disk_faults, b.disk_faults);
    EXPECT_EQ(a.load_runs, b.load_runs);
    EXPECT_EQ(a.wrong_hashes, b.wrong_hashes);
    EXPECT_EQ(a.wrong_hashes_tent, b.wrong_hashes_tent);
    EXPECT_EQ(a.wrong_hashes_basement, b.wrong_hashes_basement);
    EXPECT_EQ(a.page_ops, b.page_ops);
    EXPECT_EQ(a.page_ops_non_ecc, b.page_ops_non_ecc);
}

void expect_bitwise(double a, double b, const char* what) {
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << what << ": " << a << " vs " << b << " differ in bits";
}

void expect_identical(const CensusSummary& a, const CensusSummary& b) {
    EXPECT_EQ(a.seeds, b.seeds);
    expect_bitwise(a.mean_tent_failure_rate, b.mean_tent_failure_rate, "mean_tent_failure_rate");
    expect_bitwise(a.mean_fleet_failure_rate, b.mean_fleet_failure_rate,
                   "mean_fleet_failure_rate");
    expect_bitwise(a.mean_system_failures, b.mean_system_failures, "mean_system_failures");
    expect_bitwise(a.mean_wrong_hashes, b.mean_wrong_hashes, "mean_wrong_hashes");
    expect_bitwise(a.mean_runs, b.mean_runs, "mean_runs");
    expect_bitwise(a.mean_page_fault_ratio, b.mean_page_fault_ratio, "mean_page_fault_ratio");
    expect_bitwise(a.frac_runs_with_sensor_incident, b.frac_runs_with_sensor_incident,
                   "frac_runs_with_sensor_incident");
    expect_bitwise(a.frac_runs_with_switch_failures, b.frac_runs_with_switch_failures,
                   "frac_runs_with_switch_failures");
}

/// The uninterrupted campaign all resume tests compare against.
const CensusResult& uninterrupted_reference() {
    static const CensusResult reference = ParallelCensus(cheap_plan(), 1).run();
    return reference;
}

TEST(SweepJournal, RecordsSurviveReopen) {
    const fs::path path = journal_path("roundtrip");
    const SweepJournalKey key{kBaseSeed, 0xfeedULL, kSeeds};

    FaultCensus c;
    c.tent_hosts = 18;
    c.system_failures = 3;
    c.page_ops_non_ecc = 570'000'000ULL;
    {
        SweepJournal journal(path, key);
        journal.record(4, c);
        EXPECT_EQ(journal.completed(), 1u);
        EXPECT_FALSE(journal.complete());
    }
    SweepJournal back(path, key, /*resume=*/true);
    EXPECT_EQ(back.completed(), 1u);
    ASSERT_NE(back.find(4), nullptr);
    expect_identical(*back.find(4), c, 4);
    EXPECT_EQ(back.find(0), nullptr);
}

TEST(SweepJournal, OpenWithoutResumeStartsFresh) {
    const fs::path path = journal_path("truncate");
    const SweepJournalKey key{1, 2, 3};
    {
        SweepJournal journal(path, key);
        journal.record(0, FaultCensus{});
    }
    SweepJournal fresh(path, key, /*resume=*/false);
    EXPECT_EQ(fresh.completed(), 0u);
}

TEST(SweepJournal, ResumeWithNoFileStartsFresh) {
    const fs::path path = journal_path("missing");
    SweepJournal journal(path, SweepJournalKey{1, 2, 3}, /*resume=*/true);
    EXPECT_EQ(journal.completed(), 0u);
    EXPECT_TRUE(fs::exists(path));  // identity is on disk before any cell
}

TEST(SweepJournal, RejectsBadMagic) {
    const fs::path path = journal_path("magic");
    spit(path, "definitely not a journal\nbase_seed 1\n");
    try {
        SweepJournal journal(path, SweepJournalKey{1, 2, 3}, /*resume=*/true);
        FAIL() << "expected CorruptData";
    } catch (const core::CorruptData& e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos);
    }
}

TEST(SweepJournal, RejectsMismatchedCampaign) {
    const fs::path path = journal_path("stale");
    const SweepJournalKey key{kBaseSeed, 0xabcULL, kSeeds};
    { SweepJournal journal(path, key); }

    for (const SweepJournalKey& wrong :
         {SweepJournalKey{kBaseSeed + 1, 0xabcULL, kSeeds},   // different seed
          SweepJournalKey{kBaseSeed, 0xabdULL, kSeeds},       // different config
          SweepJournalKey{kBaseSeed, 0xabcULL, kSeeds + 1}})  // different cell count
    {
        try {
            SweepJournal journal(path, wrong, /*resume=*/true);
            FAIL() << "expected StaleJournal";
        } catch (const core::Error& e) {
            EXPECT_EQ(e.code(), core::ErrorCode::kStaleJournal);
            EXPECT_NE(std::string(e.what()).find("different campaign"), std::string::npos);
        }
    }
    // The matching key still loads.
    SweepJournal ok(path, key, /*resume=*/true);
    EXPECT_EQ(ok.completed(), 0u);
}

TEST(SweepJournal, RejectsTamperedMidFileRecord) {
    const fs::path path = journal_path("tampered");
    const SweepJournalKey key{kBaseSeed, 0x123ULL, kSeeds};
    {
        SweepJournal journal(path, key);
        FaultCensus c;
        c.system_failures = 2;
        journal.record(1, c);
        journal.record(2, c);
    }
    // Flip the FIRST record's checksum word.  Damage before the last line
    // cannot be a torn append, so the tail-forgiveness contract does not
    // apply: this must stay a hard CorruptData.
    std::string text = slurp(path);
    const std::size_t last_nl = text.rfind('\n', text.size() - 2);  // start of last record
    ASSERT_NE(last_nl, std::string::npos);
    const std::size_t sep = text.rfind(' ', last_nl);
    ASSERT_NE(sep, std::string::npos);
    spit(path, text.substr(0, sep + 1) + "00000000deadbeef" + text.substr(last_nl));
    try {
        SweepJournal journal(path, key, /*resume=*/true);
        FAIL() << "expected CorruptData";
    } catch (const core::CorruptData& e) {
        EXPECT_EQ(e.code(), core::ErrorCode::kCorruptData);
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
}

TEST(SweepJournal, TornTailRecordIsDroppedAndTruncatedOnDisk) {
    const fs::path path = journal_path("torntail");
    const SweepJournalKey key{kBaseSeed, 0x321ULL, kSeeds};
    {
        SweepJournal journal(path, key);
        FaultCensus c;
        c.system_failures = 1;
        journal.record(0, c);
        c.system_failures = 5;
        journal.record(3, c);
    }
    // Chop bytes off the last record — a crash mid-append (or a tail page
    // the page cache never flushed).  The damaged checksum word cannot
    // verify, so the record is dropped with a warning and the file healed.
    const std::string text = slurp(path);
    spit(path, text.substr(0, text.size() - 7));

    ::testing::internal::CaptureStderr();
    SweepJournal resumed(path, key, /*resume=*/true);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resumed.recovered_tail_records(), 1u);
    EXPECT_EQ(resumed.completed(), 1u);  // record 0 kept, record 3 dropped
    ASSERT_NE(resumed.find(0), nullptr);
    EXPECT_EQ(resumed.find(0)->system_failures, 1u);
    EXPECT_EQ(resumed.find(3), nullptr);
    EXPECT_NE(warning.find("dropping torn tail record"), std::string::npos);
    EXPECT_NE(warning.find("re-simulated"), std::string::npos);

    // The recovery rewrote the file: a second resume sees a clean journal.
    SweepJournal again(path, key, /*resume=*/true);
    EXPECT_EQ(again.recovered_tail_records(), 0u);
    EXPECT_EQ(again.completed(), 1u);
}

TEST(SweepJournal, TornTailLosingTheSeparatorIsStillRecovered) {
    const fs::path path = journal_path("tornsep");
    const SweepJournalKey key{kBaseSeed, 0x321ULL, kSeeds};
    {
        SweepJournal journal(path, key);
        journal.record(2, FaultCensus{});
    }
    // Tear so deep into the record that even the checksum separator is
    // gone — the "malformed record" flavour of tail damage.
    std::string text = slurp(path);
    const std::size_t sep = text.rfind(' ');
    ASSERT_NE(sep, std::string::npos);
    spit(path, text.substr(0, sep - 4));

    ::testing::internal::CaptureStderr();
    SweepJournal resumed(path, key, /*resume=*/true);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resumed.recovered_tail_records(), 1u);
    EXPECT_EQ(resumed.completed(), 0u);
    EXPECT_NE(warning.find("dropping torn tail record"), std::string::npos);
}

TEST(SweepJournal, RejectsTruncatedHeader) {
    const fs::path path = journal_path("truncated");
    spit(path, "zerodeg-sweep-journal v2\nbase_seed 7777\n");
    EXPECT_THROW(SweepJournal(path, SweepJournalKey{7777, 1, 6}, /*resume=*/true),
                 core::CorruptData);
}

TEST(SweepJournal, RejectsOldFormatVersion) {
    // v1 journals (17-field records, before the traffic-workload columns)
    // must fail the magic check up front instead of mis-parsing records.
    const fs::path path = journal_path("v1magic");
    spit(path, "zerodeg-sweep-journal v1\nbase_seed 7777\nconfig_hash 0000000000000001\ncells 6\n");
    EXPECT_THROW(SweepJournal(path, SweepJournalKey{7777, 1, 6}, /*resume=*/true),
                 core::CorruptData);
}

TEST(ConfigFingerprint, SeesCampaignDefiningKnobs) {
    const ExperimentConfig base = cheap_config(0, kBaseSeed);
    EXPECT_EQ(fingerprint(base), fingerprint(cheap_config(0, kBaseSeed)));

    ExperimentConfig other = base;
    other.master_seed += 1;
    EXPECT_NE(fingerprint(base), fingerprint(other));

    other = base;
    other.end += core::Duration::days(1);
    EXPECT_NE(fingerprint(base), fingerprint(other));

    other = base;
    other.load.target_blocks += 1;
    EXPECT_NE(fingerprint(base), fingerprint(other));

    other = base;
    other.tent_mods.pop_back();
    EXPECT_NE(fingerprint(base), fingerprint(other));

    other = base;
    other.weather.cold_snaps.clear();
    EXPECT_NE(fingerprint(base), fingerprint(other));
}

TEST(ConfigValidate, NamesTheOffendingKnob) {
    const auto message_of = [](ExperimentConfig cfg) {
        try {
            validate(cfg);
            return std::string();
        } catch (const core::InvalidArgument& e) {
            return std::string(e.what());
        }
    };
    ExperimentConfig cfg = cheap_config(0, kBaseSeed);
    EXPECT_EQ(message_of(cfg), "");

    cfg.end = cfg.start;
    EXPECT_NE(message_of(cfg).find("end"), std::string::npos);

    cfg = cheap_config(0, kBaseSeed);
    cfg.tick = core::Duration::seconds(0);
    EXPECT_NE(message_of(cfg).find("tick"), std::string::npos);

    cfg = cheap_config(0, kBaseSeed);
    cfg.operator_hour = 25;
    EXPECT_NE(message_of(cfg).find("operator_hour"), std::string::npos);

    cfg = cheap_config(0, kBaseSeed);
    cfg.load.target_blocks = 0;
    EXPECT_NE(message_of(cfg).find("target_blocks"), std::string::npos);

    for (const double m : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e30}) {
        cfg = cheap_config(0, kBaseSeed);
        cfg.load.page_op_multiplier = m;
        EXPECT_NE(message_of(cfg).find("page_op_multiplier"), std::string::npos) << m;
    }
}

TEST(ParallelCensusJournal, RefusesJournalOpenedWithWrongKey) {
    const fs::path path = journal_path("wrongkey");
    SweepJournal journal(path, SweepJournalKey{1, 2, 3});  // not cheap_plan's key
    EXPECT_THROW((void)ParallelCensus(cheap_plan(), 1).run(journal), core::StaleJournal);
}

TEST(ParallelCensusJournal, CompleteJournalSkipsAllSimulation) {
    const fs::path path = journal_path("complete");
    const ParallelCensus census(cheap_plan(), 1);
    SweepJournal journal(path, census.journal_key());
    (void)census.run(journal);
    EXPECT_TRUE(journal.complete());

    // A plan whose run_cell aborts proves no cell is re-simulated.
    CensusPlan poisoned = cheap_plan();
    poisoned.run_cell = [](const ExperimentConfig&) -> FaultCensus {
        throw core::IoError("must not be called: journal is complete");
    };
    SweepJournal reopened(path, census.journal_key(), /*resume=*/true);
    const CensusResult replayed = ParallelCensus(poisoned, 1).run(reopened);
    const CensusResult& reference = uninterrupted_reference();
    for (std::size_t i = 0; i < kSeeds; ++i) {
        expect_identical(replayed.censuses[i], reference.censuses[i], i);
    }
    expect_identical(replayed.summary, reference.summary);
}

/// The acceptance property: kill the campaign after a random subset of cells
/// has completed, resume from the journal, and require byte-identical output
/// to the uninterrupted run — for jobs in {1, 2, 8}.
class JournalResume : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JournalResume, KilledAndResumedCampaignIsByteIdentical) {
    const std::size_t jobs = GetParam();
    const fs::path path = journal_path("resume_jobs" + std::to_string(jobs));

    // Phase 1: a campaign that dies mid-sweep.  The first two cells to
    // *start* (scheduling-dependent under jobs > 1 — a genuinely random
    // subset) run to completion and reach the journal; every later cell
    // crashes.
    CensusPlan crashing = cheap_plan();
    auto started = std::make_shared<std::atomic<int>>(0);
    crashing.run_cell = [started](const ExperimentConfig& cfg) -> FaultCensus {
        if (started->fetch_add(1) >= 2) throw core::IoError("simulated crash");
        return run_season_census(cfg);
    };
    const ParallelCensus interrupted(crashing, jobs);
    {
        SweepJournal journal(path, interrupted.journal_key());
        EXPECT_THROW((void)interrupted.run(journal), core::IoError);
        EXPECT_EQ(journal.completed(), 2u);
        EXPECT_FALSE(journal.complete());
    }
    // The atomic rewrite never leaves its scratch file behind.
    EXPECT_FALSE(fs::exists(fs::path(path.string() + ".tmp")));

    // Phase 2: resume with the real cell function and finish the campaign.
    const ParallelCensus census(cheap_plan(), jobs);
    SweepJournal resumed(path, census.journal_key(), /*resume=*/true);
    EXPECT_EQ(resumed.completed(), 2u);
    const CensusResult result = census.run(resumed);
    EXPECT_TRUE(resumed.complete());

    const CensusResult& reference = uninterrupted_reference();
    ASSERT_EQ(result.censuses.size(), reference.censuses.size());
    for (std::size_t i = 0; i < kSeeds; ++i) {
        expect_identical(result.censuses[i], reference.censuses[i], i);
    }
    expect_identical(result.summary, reference.summary);
}

INSTANTIATE_TEST_SUITE_P(Jobs, JournalResume, ::testing::Values<std::size_t>(1, 2, 8),
                         [](const auto& param_info) {
                             return "jobs" + std::to_string(param_info.param);
                         });

FaultCensus marker_census(std::uint64_t tag) {
    FaultCensus census;
    census.load_runs = tag;
    census.system_failures = tag + 1;
    return census;
}

TEST(PoisonRecords, QuarantineHoldsASlotAndRoundTripsThroughResume) {
    const fs::path path = journal_path("poison_roundtrip");
    const SweepJournalKey key{kBaseSeed, 0x5eed, 3};
    {
        SweepJournal journal(path, key);
        journal.record(0, marker_census(10));
        journal.quarantine(2, 3, "lease-expired under 3 distinct workers");
        EXPECT_EQ(journal.completed(), 1u);
        EXPECT_FALSE(journal.complete());
        EXPECT_FALSE(journal.resolved());  // cell 1 still unaccounted for
        journal.record(1, marker_census(11));
        EXPECT_TRUE(journal.resolved());  // every slot held...
        EXPECT_FALSE(journal.complete());  // ...but the table has a hole
    }
    SweepJournal resumed(path, key, /*resume=*/true);
    EXPECT_EQ(resumed.completed(), 2u);
    EXPECT_TRUE(resumed.resolved());
    EXPECT_FALSE(resumed.complete());
    ASSERT_EQ(resumed.quarantined().size(), 1u);
    EXPECT_EQ(resumed.quarantined().at(2).attempts, 3u);
    EXPECT_EQ(resumed.quarantined().at(2).reason, "lease-expired under 3 distinct workers");
}

TEST(PoisonRecords, LateRealDataHealsAQuarantinedSlotByteIdentically) {
    const SweepJournalKey key{kBaseSeed, 0x5eed, 2};
    const fs::path healed_path = journal_path("poison_healed");
    {
        SweepJournal journal(healed_path, key);
        journal.record(0, marker_census(20));
        journal.quarantine(1, 3, "lease-expired under 3 distinct workers");
        // The zombie's late delivery: real data replaces the poison record.
        journal.record(1, marker_census(21));
        EXPECT_TRUE(journal.quarantined().empty());
        EXPECT_TRUE(journal.complete());
    }
    const fs::path clean_path = journal_path("poison_never");
    {
        SweepJournal journal(clean_path, key);
        journal.record(0, marker_census(20));
        journal.record(1, marker_census(21));
    }
    EXPECT_EQ(slurp(healed_path), slurp(clean_path));
}

TEST(PoisonRecords, QuarantineNeverDisplacesRealData) {
    const SweepJournalKey key{kBaseSeed, 0x5eed, 2};
    const fs::path path = journal_path("poison_vs_data");
    SweepJournal journal(path, key);
    journal.record(0, marker_census(30));
    journal.quarantine(0, 5, "a very late expiry");
    EXPECT_TRUE(journal.quarantined().empty());
    ASSERT_NE(journal.find(0), nullptr);
    EXPECT_EQ(journal.find(0)->load_runs, 30u);
    // And the arguments are validated like record()'s.
    EXPECT_THROW(journal.quarantine(9, 1, "out of range"), core::InvalidArgument);
    EXPECT_THROW(journal.quarantine(1, 1, ""), core::InvalidArgument);
    EXPECT_THROW(journal.quarantine(1, 1, "two\nlines"), core::InvalidArgument);
}

TEST(PoisonRecords, TamperedPoisonRecordIsRejectedOnResume) {
    const SweepJournalKey key{kBaseSeed, 0x5eed, 3};
    const fs::path path = journal_path("poison_tampered");
    {
        SweepJournal journal(path, key);
        journal.quarantine(0, 3, "lease-expired");
        journal.quarantine(1, 3, "lease-expired");  // keeps record 0 off the tail
    }
    std::string text = slurp(path);
    const std::size_t pos = text.find("poison 0 3");
    ASSERT_NE(pos, std::string::npos);
    text[pos + std::strlen("poison 0 ")] = '7';  // bend attempts; checksum now wrong
    spit(path, text);
    EXPECT_THROW(SweepJournal(path, key, /*resume=*/true), core::CorruptData);
}

}  // namespace
}  // namespace zerodeg::experiment
