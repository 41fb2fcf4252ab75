/**
 * @file
 * Unit tests for the support substrate: RNG, statistics, hashing,
 * units, environment flags, and the table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "support/env.hh"
#include "support/hash.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/units.hh"

using namespace hc;

// ----------------------------------------------------------------------
// Rng.
// ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowMatchesTheReferenceAcrossBoundChanges)
{
    // The cached rejection threshold and reciprocal must follow every
    // change of bound: each draw equals the uncached formula applied to
    // a twin generator's raw stream. A repeated bound takes the
    // reciprocal path, so every bound appears twice in a row at least
    // once. The huge bound rejects about half its raw values, so a
    // stale threshold would show; 2^63, 2^64 - 5 and 2^32 + 15 put the
    // reciprocal's rounding at its extremes.
    Rng rng(11), raw(11);
    const std::uint64_t huge = (std::uint64_t{1} << 63) + 1;
    const std::uint64_t top = std::uint64_t{1} << 63;
    const std::uint64_t near_max = ~std::uint64_t{0} - 4;
    const std::uint64_t mid = (std::uint64_t{1} << 32) + 15;
    const std::uint64_t bounds[] = {23,       23,       7,   23,   huge,
                                    huge,     1,        1,   huge, 23,
                                    2,        2,        top, top,  near_max,
                                    near_max, 23,       mid, mid,  near_max};
    for (int round = 0; round < 200; ++round) {
        for (std::uint64_t bound : bounds) {
            const std::uint64_t threshold = (0 - bound) % bound;
            std::uint64_t r;
            do {
                r = raw.next();
            } while (r < threshold);
            ASSERT_EQ(rng.nextBelow(bound), r % bound)
                << "round " << round << ", bound " << bound;
        }
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10'000; ++i) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ExponentialMean)
{
    Rng rng(7);
    double sum = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(7);
    RunningStats stats;
    for (int i = 0; i < 50'000; ++i)
        stats.add(rng.nextGaussian(10.0, 3.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

// ----------------------------------------------------------------------
// SampleSet / RunningStats.
// ----------------------------------------------------------------------

TEST(SampleSet, PercentilesOnKnownData)
{
    SampleSet s;
    for (int i = 100; i >= 1; --i) // unsorted insert
        s.add(i);
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleSet, CdfAt)
{
    SampleSet s;
    for (int i = 1; i <= 10; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.cdfAt(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.cdfAt(5.0), 0.5);
    EXPECT_DOUBLE_EQ(s.cdfAt(10.0), 1.0);
    EXPECT_DOUBLE_EQ(s.cdfAt(100.0), 1.0);
}

TEST(SampleSet, CdfPointsMonotone)
{
    SampleSet s;
    Rng rng(3);
    for (int i = 0; i < 5'000; ++i)
        s.add(rng.nextDouble() * 1000);
    const auto points = s.cdfPoints(100);
    ASSERT_FALSE(points.empty());
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LE(points[i - 1].first, points[i].first);
        EXPECT_LE(points[i - 1].second, points[i].second);
    }
    EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(SampleSet, InterleavedAddAndQuery)
{
    SampleSet s;
    s.add(3);
    s.add(1);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    s.add(0.5); // invalidates sort
    EXPECT_DOUBLE_EQ(s.min(), 0.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleSet, EmptyBehaviour)
{
    SampleSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.cdfAt(5), 0.0);
    EXPECT_EQ(s.summary(), "(no samples)");
}

TEST(SampleSet, PercentileEdgeCases)
{
    // An empty set has no percentiles: NaN, not an abort. Fault-
    // injected and all-fallback runs legitimately end with zero
    // channel-latency samples.
    SampleSet empty;
    EXPECT_TRUE(std::isnan(empty.percentile(50)));

    // Out-of-range ranks clamp to the extremes instead of indexing
    // outside the sample vector.
    SampleSet s;
    for (int i = 1; i <= 10; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(-5), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(250), 10.0);
}

TEST(RunningStats, MatchesDirectComputation)
{
    RunningStats stats;
    const double values[] = {2, 4, 4, 4, 5, 5, 7, 9};
    for (double v : values)
        stats.add(v);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Histogram, CountsBucketsAndOverflow)
{
    Histogram h(4);
    for (std::uint64_t v : {0u, 1u, 1u, 3u, 4u, 9u, 12u})
        h.add(v);
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.countAt(0), 1u);
    EXPECT_EQ(h.countAt(1), 2u);
    EXPECT_EQ(h.countAt(2), 0u);
    EXPECT_EQ(h.countAt(3), 1u);
    EXPECT_EQ(h.countAt(4), 1u);
    EXPECT_EQ(h.countAt(9), 0u); // beyond the tracked range
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.max(), 12u);
    EXPECT_NEAR(h.mean(), 30.0 / 7.0, 1e-12);
}

TEST(Histogram, ClearAndSummary)
{
    Histogram h(4);
    EXPECT_EQ(h.summary(), "(no samples)");
    h.add(2);
    h.add(2);
    h.add(7);
    EXPECT_NE(h.summary().find("2:2"), std::string::npos);
    EXPECT_NE(h.summary().find(">4:1"), std::string::npos);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.summary(), "(no samples)");
}

// ----------------------------------------------------------------------
// Hashing.
// ----------------------------------------------------------------------

TEST(Hash, DeterministicAndSeedSensitive)
{
    const std::string data = "the quick brown fox";
    EXPECT_EQ(fastHash64(data), fastHash64(data));
    EXPECT_NE(fastHash64(data, 1), fastHash64(data, 2));
    EXPECT_NE(fastHash64("a"), fastHash64("b"));
}

TEST(Hash, LengthSensitive)
{
    const char buf[16] = {0};
    std::set<std::uint64_t> digests;
    for (std::size_t len = 0; len <= 16; ++len)
        digests.insert(fastHash64(buf, len));
    EXPECT_EQ(digests.size(), 17u);
}

TEST(Hash, Mix64Injective)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10'000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 10'000u);
}

// ----------------------------------------------------------------------
// Units.
// ----------------------------------------------------------------------

TEST(Units, Conversions)
{
    EXPECT_EQ(2_KiB, 2048ull);
    EXPECT_EQ(8_MiB, 8ull * 1024 * 1024);
    EXPECT_DOUBLE_EQ(cyclesToSeconds(kCoreFreqHz), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToMillis(4'000'000), 1.0);
    EXPECT_EQ(secondsToCycles(0.5), kCoreFreqHz / 2);
}

// ----------------------------------------------------------------------
// TextTable.
// ----------------------------------------------------------------------

TEST(TextTable, RendersAlignedCells)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "12345"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name "), std::string::npos);
    EXPECT_NE(out.find("| longer-name |"), std::string::npos);
    EXPECT_NE(out.find("12345"), std::string::npos);
}

TEST(TextTable, ThousandsSeparators)
{
    EXPECT_EQ(TextTable::cycles(8640), "8,640");
    EXPECT_EQ(TextTable::cycles(14170), "14,170");
    EXPECT_EQ(TextTable::cycles(150), "150");
    EXPECT_EQ(TextTable::cycles(1'000'000), "1,000,000");
    EXPECT_EQ(TextTable::cycles(-1234), "-1,234");
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::num(10, 0), "10");
}

// ----------------------------------------------------------------------
// Environment flags. The historical per-call-site parses were lenient
// in contradictory ways ("anything but '0' is on"), so a switch set to
// "off" silently ENABLED its feature; envFlag() is the strict
// replacement.
// ----------------------------------------------------------------------

TEST(EnvFlag, RecognizedLiterals)
{
    const struct {
        const char *value;
        EnvFlag expect;
    } table[] = {
        {"1", EnvFlag::On},      {"true", EnvFlag::On},
        {"TRUE", EnvFlag::On},   {"on", EnvFlag::On},
        {"Yes", EnvFlag::On},    {"0", EnvFlag::Off},
        {"false", EnvFlag::Off}, {"False", EnvFlag::Off},
        {"OFF", EnvFlag::Off},   {"no", EnvFlag::Off},
        // Empty, garbage, and near-misses must all be Unset so the
        // caller's default applies (a typo must not flip a feature).
        {"", EnvFlag::Unset},    {"ture", EnvFlag::Unset},
        {"2", EnvFlag::Unset},   {" 1", EnvFlag::Unset},
        {"yes!", EnvFlag::Unset},
    };
    for (const auto &row : table) {
        ::setenv("HC_TEST_FLAG", row.value, 1);
        EXPECT_EQ(envFlag("HC_TEST_FLAG"), row.expect)
            << "value '" << row.value << "'";
    }
    ::unsetenv("HC_TEST_FLAG");
    EXPECT_EQ(envFlag("HC_TEST_FLAG"), EnvFlag::Unset);
}

TEST(EnvFlag, FallbackAppliesOnlyWhenUnset)
{
    ::unsetenv("HC_TEST_FLAG2");
    EXPECT_TRUE(envFlagOr("HC_TEST_FLAG2", true));
    EXPECT_FALSE(envFlagOr("HC_TEST_FLAG2", false));

    ::setenv("HC_TEST_FLAG2", "off", 1);
    EXPECT_FALSE(envFlagOr("HC_TEST_FLAG2", true));
    ::setenv("HC_TEST_FLAG2", "on", 1);
    EXPECT_TRUE(envFlagOr("HC_TEST_FLAG2", false));

    // Garbage behaves exactly like absent: the fallback wins.
    ::setenv("HC_TEST_FLAG2", "garbage", 1);
    EXPECT_TRUE(envFlagOr("HC_TEST_FLAG2", true));
    EXPECT_FALSE(envFlagOr("HC_TEST_FLAG2", false));
    ::unsetenv("HC_TEST_FLAG2");
}
