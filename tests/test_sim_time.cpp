#include "core/sim_time.hpp"

#include <climits>

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace zerodeg::core {
namespace {

TEST(SimTime, EpochIsZero) {
    const TimePoint t = TimePoint::from_date(1970, 1, 1);
    EXPECT_EQ(t.seconds_since_epoch(), 0);
}

TEST(SimTime, KnownPaperDates) {
    // The experiment's key dates convert consistently.
    const TimePoint start = TimePoint::from_date(2010, 2, 19);
    const CivilDateTime c = start.to_civil();
    EXPECT_EQ(c.year, 2010);
    EXPECT_EQ(c.month, 2);
    EXPECT_EQ(c.day, 19);
    EXPECT_EQ(c.hour, 0);
}

TEST(SimTime, CivilRoundTripWithTime) {
    const CivilDateTime in{2010, 3, 7, 4, 40, 0};  // host #15's first failure
    const TimePoint t = TimePoint::from_civil(in);
    EXPECT_EQ(t.to_civil(), in);
    EXPECT_EQ(t.to_string(), "2010-03-07 04:40:00");
}

TEST(SimTime, LeapYearFebruary) {
    // 2008 was a leap year; 2010 was not.
    EXPECT_NO_THROW((void)TimePoint::from_date(2008, 2, 29));
    const TimePoint feb28 = TimePoint::from_date(2010, 2, 28);
    const TimePoint mar1 = TimePoint::from_date(2010, 3, 1);
    EXPECT_EQ((mar1 - feb28).count(), 86400);
}

TEST(SimTime, DayOfYear) {
    EXPECT_EQ(TimePoint::from_date(2010, 1, 1).day_of_year(), 1);
    EXPECT_EQ(TimePoint::from_date(2010, 2, 19).day_of_year(), 50);
    EXPECT_EQ(TimePoint::from_date(2010, 12, 31).day_of_year(), 365);
    EXPECT_EQ(TimePoint::from_date(2008, 12, 31).day_of_year(), 366);
}

TEST(SimTime, IsoWeekday) {
    // 1970-01-01 was a Thursday.
    EXPECT_EQ(TimePoint::from_date(1970, 1, 1).iso_weekday(), 4);
    // 2010-03-17 (host #15's second failure, "Wednesday") was a Wednesday.
    EXPECT_EQ(TimePoint::from_date(2010, 3, 17).iso_weekday(), 3);
    // 2010-02-19 was a Friday ("scheduled ... to begin the following
    // Friday (Feb. 19th)").
    EXPECT_EQ(TimePoint::from_date(2010, 2, 19).iso_weekday(), 5);
}

TEST(SimTime, SecondsOfDayAndFraction) {
    const TimePoint t = TimePoint::from_civil({2010, 3, 7, 12, 0, 0});
    EXPECT_EQ(t.seconds_of_day(), 43200);
    EXPECT_DOUBLE_EQ(t.day_fraction(), 0.5);
}

TEST(SimTime, DurationFactories) {
    EXPECT_EQ(Duration::minutes(10).count(), 600);
    EXPECT_EQ(Duration::hours(2).count(), 7200);
    EXPECT_EQ(Duration::days(1).count(), 86400);
    EXPECT_DOUBLE_EQ(Duration::days(2).total_hours(), 48.0);
    EXPECT_DOUBLE_EQ(Duration::hours(12).total_days(), 0.5);
}

TEST(SimTime, Arithmetic) {
    const TimePoint t = TimePoint::from_date(2010, 2, 19);
    EXPECT_EQ((t + Duration::days(7)).date_string(), "2010-02-26");
    EXPECT_EQ((t - Duration::days(7)).date_string(), "2010-02-12");
    EXPECT_EQ((t + Duration::days(7)) - t, Duration::days(7));
}

TEST(SimTime, InvalidCivilThrows) {
    EXPECT_THROW((void)TimePoint::from_civil({2010, 13, 1, 0, 0, 0}), InvalidArgument);
    EXPECT_THROW((void)TimePoint::from_civil({2010, 0, 1, 0, 0, 0}), InvalidArgument);
    EXPECT_THROW((void)TimePoint::from_civil({2010, 1, 32, 0, 0, 0}), InvalidArgument);
    EXPECT_THROW((void)TimePoint::from_civil({2010, 1, 1, 24, 0, 0}), InvalidArgument);
    EXPECT_THROW((void)TimePoint::from_civil({2010, 1, 1, 0, 60, 0}), InvalidArgument);
}

TEST(SimTime, NegativeTimesBeforeEpoch) {
    const TimePoint t = TimePoint::from_date(1969, 12, 31);
    EXPECT_LT(t.seconds_since_epoch(), 0);
    EXPECT_EQ(t.date_string(), "1969-12-31");
    EXPECT_EQ(t.seconds_of_day(), 0);
}

// Property: days_from_civil and civil_from_days are inverse over a broad
// range of dates.
class CivilRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CivilRoundTrip, Inverse) {
    const int year = GetParam();
    for (const int month : {1, 2, 3, 6, 12}) {
        for (const int day : {1, 15, 28}) {
            const std::int64_t days = days_from_civil(year, month, day);
            int y = 0, m = 0, d = 0;
            civil_from_days(days, y, m, d);
            EXPECT_EQ(y, year);
            EXPECT_EQ(m, month);
            EXPECT_EQ(d, day);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Years, CivilRoundTrip,
                         ::testing::Values(1900, 1970, 1999, 2000, 2008, 2010, 2038, 2100,
                                           INT_MIN, INT_MAX));

// Property: consecutive days differ by exactly one.
class ConsecutiveDays : public ::testing::TestWithParam<int> {};

TEST_P(ConsecutiveDays, MonotoneByOne) {
    const int year = GetParam();
    std::int64_t prev = days_from_civil(year, 1, 1) - 1;
    for (int doy = 0; doy < 365; ++doy) {
        const TimePoint t = TimePoint::from_date(year, 1, 1) + Duration::days(doy);
        const CivilDateTime c = t.to_civil();
        const std::int64_t days = days_from_civil(c.year, c.month, c.day);
        EXPECT_EQ(days, prev + 1);
        prev = days;
    }
}

INSTANTIATE_TEST_SUITE_P(Years, ConsecutiveDays, ::testing::Values(2009, 2010, 2012));

}  // namespace
}  // namespace zerodeg::core
