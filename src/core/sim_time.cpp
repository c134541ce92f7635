#include "core/sim_time.hpp"

#include <cstdio>

#include "core/error.hpp"

namespace zerodeg::core {

std::int64_t days_from_civil(int y, int m, int d) {
    // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".  The year
    // is widened first: INT_MIN - 1 must not overflow.
    const std::int64_t ys = std::int64_t{y} - (m <= 2);
    const std::int64_t era = (ys >= 0 ? ys : ys - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(ys - era * 400);                      // [0, 399]
    const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                         static_cast<unsigned>(d) - 1;                               // [0, 365]
    const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;                      // [0, 146096]
    return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& year, int& month, int& day) {
    z += 719468;
    const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);                    // [0, 146096]
    const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;      // [0, 399]
    const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);                    // [0, 365]
    const unsigned mp = (5 * doy + 2) / 153;                                         // [0, 11]
    day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
    month = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
    year = static_cast<int>(y + (month <= 2));
}

TimePoint TimePoint::from_civil(const CivilDateTime& c) {
    if (c.month < 1 || c.month > 12 || c.day < 1 || c.day > 31 || c.hour < 0 || c.hour > 23 ||
        c.minute < 0 || c.minute > 59 || c.second < 0 || c.second > 60) {
        throw InvalidArgument("TimePoint::from_civil: field out of range");
    }
    const std::int64_t days = days_from_civil(c.year, c.month, c.day);
    return TimePoint{days * 86400 + c.hour * 3600 + c.minute * 60 + c.second};
}

CivilDateTime TimePoint::to_civil() const {
    std::int64_t days = seconds_ / 86400;
    std::int64_t rem = seconds_ % 86400;
    if (rem < 0) {
        rem += 86400;
        --days;
    }
    CivilDateTime c;
    civil_from_days(days, c.year, c.month, c.day);
    c.hour = static_cast<int>(rem / 3600);
    c.minute = static_cast<int>((rem / 60) % 60);
    c.second = static_cast<int>(rem % 60);
    return c;
}

int TimePoint::day_of_year() const {
    const CivilDateTime c = to_civil();
    return static_cast<int>(days_from_civil(c.year, c.month, c.day) -
                            days_from_civil(c.year, 1, 1)) +
           1;
}

int TimePoint::iso_weekday() const {
    std::int64_t days = seconds_ / 86400;
    if (seconds_ % 86400 < 0) --days;
    // 1970-01-01 was a Thursday (ISO weekday 4).
    std::int64_t wd = (days + 3) % 7;
    if (wd < 0) wd += 7;
    return static_cast<int>(wd) + 1;
}

std::string TimePoint::to_string() const {
    const CivilDateTime c = to_civil();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%04d-%02d-%02d %02d:%02d:%02d", c.year, c.month, c.day, c.hour,
                  c.minute, c.second);
    return buf;
}

std::string TimePoint::date_string() const {
    const CivilDateTime c = to_civil();
    char buf[16];
    std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", c.year, c.month, c.day);
    return buf;
}

}  // namespace zerodeg::core
