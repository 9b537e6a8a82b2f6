/** @file Unit tests for Flags and clock utilities. */
#include <gtest/gtest.h>

#include <atomic>

#include "util/clock.h"
#include "util/flags.h"

namespace mio {
namespace {

TEST(FlagsTest, ParsesEqualsAndSpaceForms)
{
    const char *argv[] = {"prog",      "--alpha=1",  "--beta", "two",
                          "--gamma",   "--delta=3.5", "--size=4k"};
    Flags flags(7, const_cast<char **>(argv));
    EXPECT_TRUE(flags.has("alpha"));
    EXPECT_EQ(flags.getInt("alpha", 0), 1);
    EXPECT_EQ(flags.getString("beta", ""), "two");
    EXPECT_TRUE(flags.getBool("gamma", false));
    EXPECT_DOUBLE_EQ(flags.getDouble("delta", 0), 3.5);
    EXPECT_EQ(flags.getSize("size", 0), 4096u);
}

TEST(FlagsTest, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    Flags flags(1, const_cast<char **>(argv));
    EXPECT_FALSE(flags.has("missing"));
    EXPECT_EQ(flags.getInt("missing", 42), 42);
    EXPECT_EQ(flags.getString("missing", "dft"), "dft");
    EXPECT_TRUE(flags.getBool("missing", true));
    EXPECT_EQ(flags.getSize("missing", 7), 7u);
}

TEST(FlagsTest, SizeSuffixes)
{
    const char *argv[] = {"prog", "--a=2m", "--b=1g", "--c=512",
                          "--d=1.5k"};
    Flags flags(5, const_cast<char **>(argv));
    EXPECT_EQ(flags.getSize("a", 0), 2u << 20);
    EXPECT_EQ(flags.getSize("b", 0), 1u << 30);
    EXPECT_EQ(flags.getSize("c", 0), 512u);
    EXPECT_EQ(flags.getSize("d", 0), 1536u);
}

TEST(FlagsTest, BoolSpellings)
{
    const char *argv[] = {"prog", "--t1=true", "--t2=1", "--t3=yes",
                          "--f1=false", "--f2=0"};
    Flags flags(6, const_cast<char **>(argv));
    EXPECT_TRUE(flags.getBool("t1", false));
    EXPECT_TRUE(flags.getBool("t2", false));
    EXPECT_TRUE(flags.getBool("t3", false));
    EXPECT_FALSE(flags.getBool("f1", true));
    EXPECT_FALSE(flags.getBool("f2", true));
}

TEST(FlagsDeathTest, GarbledValuesExitWithCode2)
{
    const char *argv[] = {"prog",        "--n=banana",  "--m=12x",
                          "--e=",        "--d=1.5.2",   "--b=maybe",
                          "--s=banana",  "--t=4q",      "--u=2mb",
                          "--v=-1k",     "--w=99999999999999999999",
                          "--x=k"};
    Flags flags(12, const_cast<char **>(argv));
    const auto code2 = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(flags.getInt("n", 0), code2, "--n=banana");
    EXPECT_EXIT(flags.getInt("m", 0), code2, "--m=12x");
    EXPECT_EXIT(flags.getInt("e", 0), code2, "--e=");
    EXPECT_EXIT(flags.getInt("w", 0), code2, "--w=9");
    EXPECT_EXIT(flags.getDouble("d", 0), code2, "--d=1.5.2");
    EXPECT_EXIT(flags.getBool("b", false), code2, "--b=maybe");
    EXPECT_EXIT(flags.getSize("s", 0), code2, "--s=banana");
    EXPECT_EXIT(flags.getSize("t", 0), code2, "--t=4q");
    EXPECT_EXIT(flags.getSize("u", 0), code2, "--u=2mb");
    EXPECT_EXIT(flags.getSize("v", 0), code2, "--v=-1k");
    EXPECT_EXIT(flags.getSize("x", 0), code2, "--x=k");
}

TEST(FlagsTest, StrictParsingStillAcceptsWellFormedValues)
{
    const char *argv[] = {"prog", "--neg=-3", "--sci=2e3", "--no=no",
                          "--up=4K", "--frac=0.5"};
    Flags flags(6, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("neg", 0), -3);
    EXPECT_DOUBLE_EQ(flags.getDouble("sci", 0), 2000.0);
    EXPECT_FALSE(flags.getBool("no", true));
    EXPECT_EQ(flags.getSize("up", 0), 4096u);
    EXPECT_DOUBLE_EQ(flags.getDouble("frac", 0), 0.5);
    // The string accessor takes any value as given.
    EXPECT_EQ(flags.getString("neg", ""), "-3");
}

TEST(ClockTest, MonotonicAndStopwatch)
{
    uint64_t a = nowNanos();
    uint64_t b = nowNanos();
    EXPECT_GE(b, a);

    Stopwatch sw;
    spinFor(2'000'000);  // 2 ms
    EXPECT_GE(sw.elapsedNanos(), 1'800'000u);
    sw.reset();
    EXPECT_LT(sw.elapsedNanos(), 1'000'000u);
}

TEST(ClockTest, ScopedTimerAccumulates)
{
    std::atomic<uint64_t> bucket{0};
    {
        ScopedTimer t(&bucket);
        spinFor(1'000'000);
    }
    uint64_t first = bucket.load();
    EXPECT_GE(first, 900'000u);
    {
        ScopedTimer t(&bucket);
        spinFor(1'000'000);
    }
    EXPECT_GT(bucket.load(), first);
}

} // namespace
} // namespace mio
