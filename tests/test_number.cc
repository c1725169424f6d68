/**
 * @file
 * Tests for the shared number text format (sim/number.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "sim/number.hh"

using namespace kelp::sim;

TEST(Number, FormatIsShortestRoundTrip)
{
    EXPECT_EQ(formatDouble(0.0), "0");
    EXPECT_EQ(formatDouble(0.05), "0.05");
    EXPECT_EQ(formatDouble(80.0), "80");
    for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456789.125, -2.5}) {
        std::optional<double> back = parseDouble(formatDouble(v));
        ASSERT_TRUE(back.has_value()) << formatDouble(v);
        EXPECT_EQ(std::memcmp(&*back, &v, sizeof(v)), 0)
            << formatDouble(v);
    }
}

TEST(Number, ParseDoubleMatchesStrtodBits)
{
    // Spec strings written before the shared parser existed must
    // still mean the same doubles.
    for (const char *s : {"0.05", "0.1", "1e-3", "12.5", "-7", "3"}) {
        std::optional<double> v = parseDouble(s);
        ASSERT_TRUE(v.has_value()) << s;
        double ref = std::strtod(s, nullptr);
        EXPECT_EQ(std::memcmp(&*v, &ref, sizeof(ref)), 0) << s;
    }
}

TEST(Number, ParseDoubleIsStrict)
{
    for (const char *s : {"", "nan", "inf", "-inf", "1e999", "0.5x",
                          "half", "1,2"}) {
        EXPECT_FALSE(parseDouble(s).has_value()) << "'" << s << "'";
    }
}

TEST(Number, ParseIntIsStrict)
{
    EXPECT_EQ(parseInt<long>("42"), 42);
    EXPECT_EQ(parseInt<long>("-3"), -3);
    EXPECT_EQ(parseInt<uint64_t>("18446744073709551615"),
              UINT64_MAX);
    for (const char *s : {"", "1.5", "seven", "7 ", "+7",
                          "99999999999999999999999"}) {
        EXPECT_FALSE(parseInt<long>(s).has_value()) << "'" << s << "'";
    }
    EXPECT_FALSE(parseInt<uint64_t>("-1").has_value());
    EXPECT_FALSE(parseInt<int>("4294967296").has_value());
}
