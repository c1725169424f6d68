/**
 * @file
 * Tests for the command-line options parser.
 */

#include <gtest/gtest.h>

#include "sim/options.hh"

using kelp::sim::Options;

namespace {

Options
makeOptions()
{
    Options o("prog", "test program");
    o.addString("name", "default", "a string");
    o.addInt("count", 7, "an int");
    o.addDouble("ratio", 0.5, "a double");
    o.addBool("verbose", false, "a flag");
    return o;
}

} // namespace

TEST(Options, DefaultsWithoutArgs)
{
    Options o = makeOptions();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(o.parse(1, argv));
    EXPECT_EQ(o.getString("name"), "default");
    EXPECT_EQ(o.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(o.getDouble("ratio"), 0.5);
    EXPECT_FALSE(o.getBool("verbose"));
    EXPECT_FALSE(o.isSet("name"));
}

TEST(Options, EqualsForm)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--name=alpha", "--count=42",
                          "--ratio=1.25"};
    ASSERT_TRUE(o.parse(4, argv));
    EXPECT_EQ(o.getString("name"), "alpha");
    EXPECT_EQ(o.getInt("count"), 42);
    EXPECT_DOUBLE_EQ(o.getDouble("ratio"), 1.25);
    EXPECT_TRUE(o.isSet("count"));
}

TEST(Options, SpaceForm)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--name", "beta", "--count", "-3"};
    ASSERT_TRUE(o.parse(5, argv));
    EXPECT_EQ(o.getString("name"), "beta");
    EXPECT_EQ(o.getInt("count"), -3);
}

TEST(Options, BareBoolean)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--verbose"};
    ASSERT_TRUE(o.parse(2, argv));
    EXPECT_TRUE(o.getBool("verbose"));
}

TEST(Options, ExplicitBoolean)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--verbose=false"};
    ASSERT_TRUE(o.parse(2, argv));
    EXPECT_FALSE(o.getBool("verbose"));
}

TEST(Options, Positional)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "one", "--count=1", "two"};
    ASSERT_TRUE(o.parse(4, argv));
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[0], "one");
    EXPECT_EQ(o.positional()[1], "two");
}

TEST(Options, HelpReturnsFalse)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(o.parse(2, argv));
}

TEST(Options, UsageMentionsEveryOption)
{
    Options o = makeOptions();
    std::string usage = o.usage();
    EXPECT_NE(usage.find("--name"), std::string::npos);
    EXPECT_NE(usage.find("--count"), std::string::npos);
    EXPECT_NE(usage.find("--ratio"), std::string::npos);
    EXPECT_NE(usage.find("a flag"), std::string::npos);
}

TEST(Options, UnknownFlagFatal)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT(o.parse(2, argv), ::testing::ExitedWithCode(1),
                "unknown flag");
}

TEST(Options, BadIntFatal)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--count=seven"};
    EXPECT_EXIT(o.parse(2, argv), ::testing::ExitedWithCode(1),
                "integer");
}

TEST(Options, BadDoubleFatal)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--ratio=half"};
    EXPECT_EXIT(o.parse(2, argv), ::testing::ExitedWithCode(1),
                "number");
}

TEST(Options, NonFiniteDoubleFatal)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--ratio=nan"};
    EXPECT_EXIT(o.parse(2, argv), ::testing::ExitedWithCode(1),
                "number");
    Options p = makeOptions();
    const char *argv2[] = {"prog", "--ratio=-inf"};
    EXPECT_EXIT(p.parse(2, argv2), ::testing::ExitedWithCode(1),
                "number");
}

TEST(Options, EmptyNumberFatal)
{
    // strtol("") and strtod("") parse zero characters and report 0;
    // an empty value must not silently mean seed 0.
    Options o = makeOptions();
    const char *argv[] = {"prog", "--count="};
    EXPECT_EXIT(o.parse(2, argv), ::testing::ExitedWithCode(1),
                "integer");
    Options p = makeOptions();
    const char *argv2[] = {"prog", "--ratio="};
    EXPECT_EXIT(p.parse(2, argv2), ::testing::ExitedWithCode(1),
                "number");
}

TEST(Options, MissingValueFatal)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--count"};
    EXPECT_EXIT(o.parse(2, argv), ::testing::ExitedWithCode(1),
                "needs a value");
}

TEST(Options, RepeatedFlagFatalWithUsage)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--count=1", "--count=2"};
    EXPECT_EXIT(o.parse(3, argv), ::testing::ExitedWithCode(1),
                "--count given more than once");
}

TEST(Options, RepeatedFlagFatalAcrossForms)
{
    // --name=x and a later bare "--name y" are still the same flag.
    Options o = makeOptions();
    const char *argv[] = {"prog", "--name=x", "--name", "y"};
    EXPECT_EXIT(o.parse(4, argv), ::testing::ExitedWithCode(1),
                "more than once");
}

TEST(Options, RepeatedBoolFlagFatal)
{
    Options o = makeOptions();
    const char *argv[] = {"prog", "--verbose", "--verbose"};
    EXPECT_EXIT(o.parse(3, argv), ::testing::ExitedWithCode(1),
                "--verbose given more than once");
}

TEST(Options, RepeatedFlagMessageIncludesUsage)
{
    // The death message carries the usage text, so the user sees the
    // registered flags, not just the complaint.
    Options o = makeOptions();
    const char *argv[] = {"prog", "--ratio=1", "--ratio=2"};
    EXPECT_EXIT(o.parse(3, argv), ::testing::ExitedWithCode(1),
                "at most once.*--ratio");
}

TEST(Options, TypeMismatchPanics)
{
    Options o = makeOptions();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(o.parse(1, argv));
    EXPECT_DEATH((void)o.getInt("name"), "type mismatch");
}

TEST(Options, DuplicateRegistrationPanics)
{
    Options o = makeOptions();
    EXPECT_DEATH(o.addInt("count", 1, "again"), "duplicate");
}
