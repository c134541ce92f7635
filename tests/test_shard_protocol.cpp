// The zdsp1 wire protocol: every frame type round-trips, every kind of
// damage — checksum flips, foreign magic, truncation, trailing junk, a
// tampered embedded cell record — fails loudly as CorruptData before any
// field is trusted.
#include "experiment/shard_protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "experiment/sweep_journal.hpp"
#include "experiment/torture.hpp"

namespace zerodeg::experiment {
namespace {

SweepJournalKey sample_key() {
    SweepJournalKey key;
    key.base_seed = 20100219;
    key.config_hash = 0xdeadbeefcafef00dULL;
    key.cells = 12;
    return key;
}

FaultCensus sample_census(std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.master_seed = seed;
    return synthetic_census(cfg);
}

/// Seal a hand-written payload with a valid checksum: a forged frame that
/// only the grammar checks can reject.
std::string reseal(const std::string& payload) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(core::fnv1a(payload)));
    return payload + ' ' + buf;
}

TEST(ShardProtocol, HelloRoundTrips) {
    const ShardHello hello{sample_key(), 3};
    const Frame frame = decode_frame(encode_hello(hello));
    ASSERT_EQ(frame.type, FrameType::kHello);
    EXPECT_EQ(frame.hello.key, sample_key());
    EXPECT_EQ(frame.hello.shard, 3u);
}

TEST(ShardProtocol, WelcomeRejectAckRoundTrip) {
    Frame frame = decode_frame(encode_welcome(7));
    ASSERT_EQ(frame.type, FrameType::kWelcome);
    EXPECT_EQ(frame.completed, 7u);

    frame = decode_frame(encode_reject("campaign mismatch: wrong base seed"));
    ASSERT_EQ(frame.type, FrameType::kReject);
    EXPECT_EQ(frame.reason, "campaign mismatch: wrong base seed");

    frame = decode_frame(encode_ack(11));
    ASSERT_EQ(frame.type, FrameType::kAck);
    EXPECT_EQ(frame.ack_index, 11u);
}

TEST(ShardProtocol, CellEmbedsTheJournalRecordVerbatim) {
    const FaultCensus census = sample_census(99);
    const std::string wire = encode_cell(4, census);
    // Bit-for-bit: the coordinator can persist exactly what a local run would.
    EXPECT_NE(wire.find(encode_cell_record(4, census)), std::string::npos);

    const Frame frame = decode_frame(wire);
    ASSERT_EQ(frame.type, FrameType::kCell);
    EXPECT_EQ(frame.cell.index, 4u);
    EXPECT_EQ(frame.cell.census.load_runs, census.load_runs);
    EXPECT_EQ(frame.cell.census.wrong_hashes, census.wrong_hashes);
    EXPECT_EQ(frame.cell.census.system_failures, census.system_failures);
    // Strongest check: re-encoding the decoded record reproduces the frame.
    EXPECT_EQ(encode_cell(frame.cell.index, frame.cell.census), wire);
}

TEST(ShardProtocol, LeaseRoundTrips) {
    Lease lease;
    lease.id = 42;
    lease.deadline_ops = 512;
    lease.cells = {3, 4, 9};
    const Frame frame = decode_frame(encode_lease(lease));
    ASSERT_EQ(frame.type, FrameType::kLease);
    EXPECT_EQ(frame.lease.id, 42u);
    EXPECT_EQ(frame.lease.deadline_ops, 512u);
    EXPECT_EQ(frame.lease.cells, (std::vector<std::size_t>{3, 4, 9}));
}

TEST(ShardProtocol, HeartbeatProgressDoneRoundTrip) {
    Frame frame = decode_frame(encode_heartbeat(kNoLease));
    ASSERT_EQ(frame.type, FrameType::kHeartbeat);
    EXPECT_EQ(frame.lease_id, kNoLease);  // the pull request

    frame = decode_frame(encode_heartbeat(7));
    ASSERT_EQ(frame.type, FrameType::kHeartbeat);
    EXPECT_EQ(frame.lease_id, 7u);  // in-lease liveness

    frame = decode_frame(encode_progress(7, 2, 5));
    ASSERT_EQ(frame.type, FrameType::kProgress);
    EXPECT_EQ(frame.lease_id, 7u);
    EXPECT_EQ(frame.progress_done, 2u);
    EXPECT_EQ(frame.progress_of, 5u);

    frame = decode_frame(encode_done(10, 2));
    ASSERT_EQ(frame.type, FrameType::kDone);
    EXPECT_EQ(frame.completed, 10u);
    EXPECT_EQ(frame.quarantined, 2u);
}

TEST(ShardProtocol, LeaseValidation) {
    EXPECT_THROW((void)encode_lease(Lease{}), core::InvalidArgument);  // no cells
    // Cells must be strictly ascending; the count must match and be > 0.
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 lease 1 64 2 5 5")), core::CorruptData);
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 lease 1 64 2 5 3")), core::CorruptData);
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 lease 1 64 0")), core::CorruptData);
    // A progress frame cannot claim more done than granted.
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 progress 1 6 5")), core::CorruptData);
}

TEST(ShardProtocol, ForgedLeaseCountIsCorruptDataNotAnAllocation) {
    // A count far beyond the cells the frame carries must fail as a
    // truncated frame, never as bad_alloc or length_error, which the
    // worker's frame guard would not catch.
    for (const char* count : {"1099511627776", "4611686018427387904", "18446744073709551615"}) {
        EXPECT_THROW((void)decode_frame(reseal(std::string("zdsp1 lease 1 1 ") + count + " 0")),
                     core::CorruptData)
            << "count " << count;
    }
}

TEST(ShardProtocol, AnySingleCharacterFlipIsCaughtForEveryFrameKind) {
    Lease lease;
    lease.id = 8;
    lease.deadline_ops = 128;
    lease.cells = {0, 2};
    const std::string frames[] = {
        encode_hello(ShardHello{sample_key(), 1}),
        encode_welcome(3),
        encode_reject("campaign mismatch"),
        encode_cell(4, sample_census(99)),
        encode_ack(3),
        encode_lease(lease),
        encode_heartbeat(kNoLease),
        encode_heartbeat(8),
        encode_progress(8, 1, 2),
        encode_done(12, 1),
    };
    for (const std::string& wire : frames) {
        for (std::size_t i = 0; i < wire.size(); ++i) {
            std::string bent = wire;
            bent[i] = bent[i] == 'x' ? 'y' : 'x';
            if (bent == wire) continue;  // flip was a no-op
            EXPECT_THROW((void)decode_frame(bent), core::CorruptData)
                << "flip at offset " << i << " of '" << wire << "'";
        }
    }
}

TEST(ShardProtocol, ForeignMagicAndUnknownTypeAreRejected) {
    // Valid checksums over a payload speaking the wrong protocol.
    EXPECT_THROW((void)decode_frame(reseal("zdsp2 ack 3")), core::CorruptData);
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 goodbye 3")), core::CorruptData);
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 ack 3 junk")), core::CorruptData);
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 ack")), core::CorruptData);
    EXPECT_THROW((void)decode_frame("no checksum here"), core::CorruptData);
}

TEST(ShardProtocol, HelloNamingAnImpossibleShardIsRejected) {
    // The retired `shard of` form carries a fifth field: trailing junk,
    // whatever shard it names.
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 hello 1 0000000000000001 4 5 5")),
                 core::CorruptData);
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 hello 1 0000000000000001 4 0 0")),
                 core::CorruptData);
    // A HELLO names the campaign and a worker label, nothing more.
    const Frame hello = decode_frame(reseal("zdsp1 hello 1 0000000000000001 4 5"));
    ASSERT_EQ(hello.type, FrameType::kHello);
    EXPECT_EQ(hello.hello.shard, 5u);
}

TEST(ShardProtocol, TamperedEmbeddedCellRecordIsCaughtByTheInnerChecksum) {
    const std::string record = encode_cell_record(2, sample_census(7));
    // Forge an outer-valid frame around a record whose own checksum is bent.
    std::string bent_record = record;
    bent_record[bent_record.size() - 1] = bent_record.back() == '0' ? '1' : '0';
    EXPECT_THROW((void)decode_frame(reseal("zdsp1 cell " + bent_record)), core::CorruptData);
}

TEST(CellRecordCodec, RoundTripsAndEnforcesTheCellLimit) {
    const FaultCensus census = sample_census(123);
    const std::string line = encode_cell_record(9, census);
    const CellRecord rec = decode_cell_record(line);
    EXPECT_EQ(rec.index, 9u);
    EXPECT_EQ(encode_cell_record(rec.index, rec.census), line);

    EXPECT_NO_THROW((void)decode_cell_record(line, 10));  // 9 < 10: in range
    EXPECT_THROW((void)decode_cell_record(line, 9), core::CorruptData);
}

}  // namespace
}  // namespace zerodeg::experiment
