// End-to-end smoke test of the `zerodeg` binary's argument validation and
// exit-code contract: 0 = success, 1 = runtime failure, 2 = usage error.
// Runs the real executable (path baked in as ZERODEG_CLI_PATH) through the
// shell, so what is asserted here is exactly what a user at a prompt sees.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "cli_test_util.hpp"

namespace {

namespace fs = std::filesystem;

/// Run the CLI with `args`, discarding output; returns the exit code.
int run_cli(const std::string& args) {
    return zerodeg::test::run_command(std::string(ZERODEG_CLI_PATH) + " " + args).exit_code;
}

/// Run the CLI with `args`, keeping combined stdout+stderr.
zerodeg::test::CommandResult run_cli_capture(const std::string& args) {
    return zerodeg::test::run_command(std::string(ZERODEG_CLI_PATH) + " " + args);
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

fs::path temp_file(const std::string& name) {
    fs::path p = fs::path(::testing::TempDir()) / name;
    fs::remove(p);
    return p;
}

TEST(CliSmoke, NoArgumentsIsAUsageError) { EXPECT_EQ(run_cli(""), 2); }

TEST(CliSmoke, UnknownSubcommandIsAUsageError) { EXPECT_EQ(run_cli("sing"), 2); }

TEST(CliSmoke, UnknownFlagIsAUsageError) {
    EXPECT_EQ(run_cli("prototype --walrus 3"), 2);
    // A flag another subcommand owns is still unknown here.
    EXPECT_EQ(run_cli("weather --seeds 3"), 2);
    // The one host pass takes no engine selector.
    EXPECT_EQ(run_cli("census --engine batched"), 2);
}

TEST(CliSmoke, MalformedNumbersAreUsageErrors) {
    EXPECT_EQ(run_cli("census --jobs -3"), 2);
    EXPECT_EQ(run_cli("census --jobs banana"), 2);
    EXPECT_EQ(run_cli("census --seeds 0"), 2);
    EXPECT_EQ(run_cli("weather --step-min 0"), 2);
    EXPECT_EQ(run_cli("season --seed"), 2);  // missing value
}

TEST(CliSmoke, ResumeWithoutCheckpointIsAUsageError) {
    EXPECT_EQ(run_cli("census --resume"), 2);
}

TEST(CliSmoke, UnreadableTraceIsARuntimeError) {
    EXPECT_EQ(run_cli("season --trace /nonexistent/weather.csv"), 1);
}

TEST(CliSmoke, CorruptTraceIsARuntimeError) {
    const fs::path trace = temp_file("corrupt_trace.csv");
    std::ofstream(trace) << "time,temp_degC,rh_pct,wind_mps,ghi_wm2,cloud,precip_mm_h\n"
                            "2010-02-12 00:00:00,not-a-number,80,3,0,0.5,0\n";
    EXPECT_EQ(run_cli("season --trace " + trace.string()), 1);
}

TEST(CliSmoke, WeatherSucceeds) { EXPECT_EQ(run_cli("weather --to 2010-02-13"), 0); }

TEST(CliSmoke, CorruptCheckpointIsARuntimeError) {
    const fs::path journal = temp_file("corrupt.journal");
    std::ofstream(journal) << "not a journal at all\n";
    EXPECT_EQ(run_cli("census --seeds 2 --checkpoint " + journal.string() + " --resume"), 1);
}

TEST(CliSmoke, HelpExitsZeroAndDocumentsTheResumeContract) {
    const auto r = run_cli_capture("help");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("usage: zerodeg"), std::string::npos);
    // The corrupt-checkpoint exit-code contract, spelled out for operators.
    EXPECT_NE(r.output.find("torn tail record"), std::string::npos);
    EXPECT_NE(r.output.find("exit 0"), std::string::npos);
    EXPECT_NE(r.output.find("exit 1"), std::string::npos);
    EXPECT_NE(r.output.find("stale fingerprint"), std::string::npos);
    EXPECT_EQ(run_cli("--help"), 0);
    EXPECT_EQ(run_cli("-h"), 0);
}

TEST(CliSmoke, TortureAndInjectFaultsFlagValidation) {
    EXPECT_EQ(run_cli("census --torture"), 2);  // needs --checkpoint
    EXPECT_EQ(run_cli("census --torture --checkpoint j --resume"), 2);
    EXPECT_EQ(run_cli("census --torture --checkpoint j --inject-faults 1"), 2);
    EXPECT_EQ(run_cli("season --torture --checkpoint j"), 2);  // census-only flag
    EXPECT_EQ(run_cli("census --inject-faults banana --checkpoint j"), 2);
    EXPECT_EQ(run_cli("weather --inject-faults 1"), 2);  // no durable writers there
}

/// Exit 0: a torn tail record (crash mid-append) is forgiven — warned about,
/// truncated away, and its cell re-simulated.
TEST(CliSmoke, ResumeFromTornTailCheckpointSucceedsWithWarning) {
    const fs::path journal = temp_file("torn_tail.journal");
    const std::string census = "census --seeds 2 --checkpoint " + journal.string();
    ASSERT_EQ(run_cli(census), 0);

    const std::string text = slurp(journal);
    ASSERT_GT(text.size(), 10u);
    spit(journal, text.substr(0, text.size() - 6));  // chop the record's tail

    const auto r = run_cli_capture(census + " --resume");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("dropping torn tail record"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("re-simulated"), std::string::npos) << r.output;
}

/// Exit 1: damage before the last record cannot be a torn append, so it is
/// never forgiven — the journal is rejected with a diagnostic.
TEST(CliSmoke, ResumeFromMidFileCorruptionFails) {
    const fs::path journal = temp_file("midfile.journal");
    const std::string census = "census --seeds 2 --checkpoint " + journal.string();
    ASSERT_EQ(run_cli(census), 0);

    std::string text = slurp(journal);
    const std::size_t first_cell = text.find("\ncell ");
    ASSERT_NE(first_cell, std::string::npos);
    const std::size_t line_end = text.find('\n', first_cell + 1);
    ASSERT_NE(line_end, std::string::npos);
    // Flip the first record's checksum word (last 16 hex chars of its line).
    text.replace(line_end - 16, 16, "00000000deadbeef");
    spit(journal, text);

    const auto r = run_cli_capture(census + " --resume");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("checksum"), std::string::npos) << r.output;
}

/// --base-seed reaches the journal key: a journal written at one base seed
/// is stale at another (exit 1), and naming the default base seed writes
/// the bytes that leaving the flag out does.
TEST(CliSmoke, CensusJournalAtAnotherBaseSeedIsStale) {
    const fs::path held_out = temp_file("held_out.journal");
    const std::string census = "census --seeds 2 --synthetic --checkpoint ";
    const auto first = run_cli_capture(census + held_out.string() + " --base-seed 20110219");
    ASSERT_EQ(first.exit_code, 0) << first.output;
    EXPECT_NE(first.output.find("seed 20110220: "), std::string::npos) << first.output;
    EXPECT_NE(slurp(held_out).find("base_seed 20110219\n"), std::string::npos);

    const auto stale = run_cli_capture(census + held_out.string() + " --resume");
    EXPECT_EQ(stale.exit_code, 1) << stale.output;
    EXPECT_NE(stale.output.find("different campaign"), std::string::npos) << stale.output;
    const auto resumed =
        run_cli_capture(census + held_out.string() + " --base-seed 20110219 --resume");
    EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resuming: 2/2"), std::string::npos) << resumed.output;

    const fs::path implicit = temp_file("implicit.journal");
    const fs::path named = temp_file("named.journal");
    ASSERT_EQ(run_cli(census + implicit.string()), 0);
    ASSERT_EQ(run_cli(census + named.string() + " --base-seed 20100219"), 0);
    EXPECT_EQ(slurp(implicit), slurp(named));
}

TEST(CliSmoke, SeasonInjectFaultsReportsTheAbsorbedFaults) {
    const fs::path journal = temp_file("inject.journal");
    const auto r = run_cli_capture("season --end 2010-02-20 --inject-faults 7 --checkpoint " +
                                   journal.string());
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("fault injection:"), std::string::npos) << r.output;
}

}  // namespace
