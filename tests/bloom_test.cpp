/** @file Unit tests for the mergeable bloom filter. */
#include <gtest/gtest.h>

#include <cmath>

#include "bloom/bloom_filter.h"
#include "util/random.h"

namespace mio {
namespace {

TEST(BloomTest, NoFalseNegatives)
{
    BloomFilter f = BloomFilter::makeForCapacity(1000, 16);
    for (int i = 0; i < 1000; i++)
        f.add(Slice(makeKey(i)));
    for (int i = 0; i < 1000; i++)
        EXPECT_TRUE(f.mayContain(Slice(makeKey(i)))) << i;
}

TEST(BloomTest, LowFalsePositiveRateAtBudget)
{
    BloomFilter f = BloomFilter::makeForCapacity(1000, 16);
    for (int i = 0; i < 1000; i++)
        f.add(Slice(makeKey(i)));
    int fp = 0;
    const int probes = 10000;
    for (int i = 0; i < probes; i++) {
        if (f.mayContain(Slice(makeKey(1000000 + i))))
            fp++;
    }
    // 16 bits/key => theoretical FP ~0.05%; allow an order of margin.
    EXPECT_LT(fp, probes / 100);
}

TEST(BloomTest, FalsePositiveRateDegradesWhenOverfilled)
{
    // The Fig. 9 effect: a filter sized for one MemTable saturates
    // after absorbing many tables' keys.
    BloomFilter f = BloomFilter::makeForCapacity(1000, 16);
    for (int i = 0; i < 64000; i++)
        f.add(Slice(makeKey(i)));
    int fp = 0;
    const int probes = 2000;
    for (int i = 0; i < probes; i++) {
        if (f.mayContain(Slice(makeKey(10000000 + i))))
            fp++;
    }
    EXPECT_GT(fp, probes / 2);  // badly saturated
    EXPECT_GT(f.fillRatio(), 0.9);
}

TEST(BloomTest, MergeIsUnion)
{
    BloomFilter a = BloomFilter::makeForCapacity(100, 16);
    BloomFilter b = BloomFilter::makeForCapacity(100, 16);
    for (int i = 0; i < 100; i++)
        a.add(Slice(makeKey(i)));
    for (int i = 100; i < 200; i++)
        b.add(Slice(makeKey(i)));
    ASSERT_TRUE(a.merge(b));
    for (int i = 0; i < 200; i++)
        EXPECT_TRUE(a.mayContain(Slice(makeKey(i)))) << i;
}

TEST(BloomTest, MergeRefusesAnotherGeometry)
{
    // An OR across bit counts would drop (or read past) the larger
    // filter's tail: the merge must refuse and leave the target as is.
    BloomFilter small = BloomFilter::makeForCapacity(100, 16);
    BloomFilter large = BloomFilter::makeForCapacity(1000, 16);
    large.add(Slice(makeKey(1)));
    small.add(Slice(makeKey(2)));
    EXPECT_FALSE(small.merge(large));
    EXPECT_FALSE(large.merge(small));
    EXPECT_FALSE(small.merge(BloomFilter(small.numBits(), 3)));
    EXPECT_EQ(small.numBits(), 1600u);
    EXPECT_FALSE(small.mayContain(Slice(makeKey(1))));
    EXPECT_TRUE(small.mayContain(Slice(makeKey(2))));
    EXPECT_FALSE(large.mayContain(Slice(makeKey(2))));
}

TEST(BloomTest, EmptyFilterRejectsEverything)
{
    BloomFilter f = BloomFilter::makeForCapacity(100, 16);
    int hits = 0;
    for (int i = 0; i < 1000; i++) {
        if (f.mayContain(Slice(makeKey(i))))
            hits++;
    }
    EXPECT_EQ(hits, 0);
    EXPECT_EQ(f.fillRatio(), 0.0);
}

TEST(BloomTest, EncodeDecodeRoundTrip)
{
    BloomFilter f = BloomFilter::makeForCapacity(500, 12);
    for (int i = 0; i < 500; i++)
        f.add(Slice(makeKey(i * 3)));
    std::string encoded;
    f.encodeTo(&encoded);

    BloomFilter g(64, 1);
    ASSERT_TRUE(BloomFilter::decodeFrom(Slice(encoded), &g));
    EXPECT_EQ(g.numBits(), f.numBits());
    EXPECT_EQ(g.numProbes(), f.numProbes());
    for (int i = 0; i < 500; i++)
        EXPECT_TRUE(g.mayContain(Slice(makeKey(i * 3))));
}

TEST(BloomTest, DecodeRejectsCorruptInput)
{
    BloomFilter g(64, 1);
    EXPECT_FALSE(BloomFilter::decodeFrom(Slice("short"), &g));
    std::string encoded;
    BloomFilter f(128, 4);
    f.encodeTo(&encoded);
    encoded.pop_back();
    EXPECT_FALSE(BloomFilter::decodeFrom(Slice(encoded), &g));
}

TEST(BloomTest, GeometryRoundsUpTo64)
{
    BloomFilter f(65, 3);
    EXPECT_EQ(f.numBits() % 64, 0u);
    EXPECT_GE(f.numBits(), 65u);
}

TEST(BloomTest, HashPairPathMatchesDirectAdd)
{
    BloomFilter a(1024, 6), b(1024, 6);
    auto [h1, h2] = BloomFilter::keyHashes(Slice("somekey"));
    a.add(Slice("somekey"));
    b.addHashes(h1, h2);
    EXPECT_TRUE(b.mayContain(Slice("somekey")));
    std::string ea, eb;
    a.encodeTo(&ea);
    b.encodeTo(&eb);
    EXPECT_EQ(ea, eb);
}

TEST(BloomTest, FalsePositiveRateMatchesTheoryAtOddSizes)
{
    // Multiply-high maps probes onto any bit count, so filters whose
    // size is no power of two must still meet the textbook rate
    // (1 - e^(-kn/m))^k at 16 bits/key.
    for (uint64_t n : {1000u, 3000u, 7777u, 12345u}) {
        BloomFilter f = BloomFilter::makeForCapacity(n, 16);
        ASSERT_NE(f.numBits() & (f.numBits() - 1), 0u) << n;
        for (uint64_t i = 0; i < n; i++)
            f.add(Slice(makeKey(i)));
        const int probes = 200000;
        int fp = 0;
        for (int i = 0; i < probes; i++) {
            if (f.mayContain(Slice(makeKey(100000000 + i))))
                fp++;
        }
        const double k = f.numProbes();
        const double theory = std::pow(
            1.0 - std::exp(-k * static_cast<double>(n) /
                           static_cast<double>(f.numBits())),
            k);
        EXPECT_LT(static_cast<double>(fp) / probes, 1.5 * theory)
            << "n=" << n << " fp=" << fp;
    }
}

} // namespace
} // namespace mio
