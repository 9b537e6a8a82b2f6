/** @file Unit tests for varint/fixed integer coding and hashing. */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/hash.h"
#include "util/random.h"

namespace mio {
namespace {

TEST(CodingTest, Fixed32RoundTrip)
{
    std::string s;
    putFixed32(&s, 0);
    putFixed32(&s, 1);
    putFixed32(&s, 0xdeadbeef);
    EXPECT_EQ(s.size(), 12u);
    EXPECT_EQ(decodeFixed32(s.data()), 0u);
    EXPECT_EQ(decodeFixed32(s.data() + 4), 1u);
    EXPECT_EQ(decodeFixed32(s.data() + 8), 0xdeadbeefu);
}

TEST(CodingTest, Fixed64RoundTrip)
{
    std::string s;
    putFixed64(&s, 0x0123456789abcdefULL);
    EXPECT_EQ(decodeFixed64(s.data()), 0x0123456789abcdefULL);
}

TEST(CodingTest, Varint32RoundTrip)
{
    std::string s;
    std::vector<uint32_t> values;
    for (uint32_t shift = 0; shift < 32; shift++) {
        values.push_back(1u << shift);
        values.push_back((1u << shift) - 1);
        values.push_back((1u << shift) + 1);
    }
    values.push_back(0);
    values.push_back(UINT32_MAX);
    for (uint32_t v : values)
        putVarint32(&s, v);

    Slice input(s);
    for (uint32_t expected : values) {
        uint32_t v;
        ASSERT_TRUE(getVarint32(&input, &v));
        EXPECT_EQ(v, expected);
    }
    EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint64RoundTrip)
{
    std::string s;
    std::vector<uint64_t> values = {0, 1, 127, 128, 16384,
                                    (1ULL << 40) + 3, UINT64_MAX};
    for (uint64_t v : values)
        putVarint64(&s, v);
    Slice input(s);
    for (uint64_t expected : values) {
        uint64_t v;
        ASSERT_TRUE(getVarint64(&input, &v));
        EXPECT_EQ(v, expected);
    }
}

TEST(CodingTest, VarintLength)
{
    EXPECT_EQ(varintLength(0), 1);
    EXPECT_EQ(varintLength(127), 1);
    EXPECT_EQ(varintLength(128), 2);
    EXPECT_EQ(varintLength(UINT64_MAX), 10);
}

TEST(CodingTest, TruncatedVarintFails)
{
    std::string s;
    putVarint32(&s, 1u << 30);  // 5-byte encoding
    Slice input(s.data(), s.size() - 1);
    uint32_t v;
    EXPECT_FALSE(getVarint32(&input, &v));
}

TEST(CodingTest, LengthPrefixedSlice)
{
    std::string s;
    putLengthPrefixedSlice(&s, Slice("hello"));
    putLengthPrefixedSlice(&s, Slice(""));
    putLengthPrefixedSlice(&s, Slice("world!"));
    Slice input(s);
    Slice a, b, c;
    ASSERT_TRUE(getLengthPrefixedSlice(&input, &a));
    ASSERT_TRUE(getLengthPrefixedSlice(&input, &b));
    ASSERT_TRUE(getLengthPrefixedSlice(&input, &c));
    EXPECT_EQ(a.toString(), "hello");
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(c.toString(), "world!");
    EXPECT_FALSE(getLengthPrefixedSlice(&input, &a));
}

TEST(CodingTest, LengthPrefixTruncatedBodyFails)
{
    std::string s;
    putLengthPrefixedSlice(&s, Slice("hello"));
    Slice input(s.data(), s.size() - 2);
    Slice out;
    EXPECT_FALSE(getLengthPrefixedSlice(&input, &out));
}

TEST(HashTest, DeterministicAndSeedSensitive)
{
    std::string data = "some bytes";
    EXPECT_EQ(hash32(data.data(), data.size(), 1),
              hash32(data.data(), data.size(), 1));
    EXPECT_NE(hash32(data.data(), data.size(), 1),
              hash32(data.data(), data.size(), 2));
    EXPECT_EQ(hash64(data.data(), data.size()),
              hash64(data.data(), data.size()));
}

TEST(HashTest, ShortInputs)
{
    // Each length 0..4 exercises a different tail path.
    for (size_t len = 0; len <= 4; len++) {
        std::string a(len, 'x');
        std::string b(len, 'y');
        uint32_t ha = hash32(a.data(), a.size(), 7);
        uint32_t hb = hash32(b.data(), b.size(), 7);
        if (len > 0) {
            EXPECT_NE(ha, hb) << "len=" << len;
        }
    }
}

TEST(HashTest, KnownAnswers)
{
    // These values pin the on-media format of every checksum built on
    // hash32 (WAL, value-log and SSTable frames, skip-list entries).
    // hash32 is the low half of xxHash64, so the seed-0 rows are the
    // low 32 bits of the reference digests (XXH64("") is
    // 0xef46db3751d8e999).
    struct Case {
        std::string data;
        uint32_t seed;
        uint32_t want;
    };
    std::string frame(1040, '\0');
    for (size_t i = 0; i < frame.size(); i++)
        frame[i] = static_cast<char>(i * 131 + 7);
    // 39 bytes: one stripe, then the 4-byte and 1-byte tails; 1040
    // bytes: 32 stripes, then two 8-byte tails; 33: stripe + 1 byte.
    const std::string spam = "Nobody inspects the spammish repetition";
    const Case cases[] = {
        {"", 0, 0x51d8e999u},
        {"a", 0, 0xa98c6e5bu},
        {"abc", 0, 0xad770999u},
        {spam, 0, 0x8a378bf1u},
        {"", 7, 0x6f0a4409u},
        {"a", 7, 0x89e0f965u},
        {"abc", 7, 0x156676d7u},
        {spam, 7, 0x9b9b1f5fu},
        {frame, 0x8f1bbcdc, 0x50635b6au},
        {frame.substr(0, 33), 0x8f1bbcdc, 0x0733cc42u},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(hash32(c.data.data(), c.data.size(), c.seed), c.want)
            << "len=" << c.data.size() << " seed=" << c.seed;
    }
    EXPECT_EQ(recordChecksum(frame.data(), frame.size()), 0x50635b6au);
}

TEST(HashTest, EverySingleBitFlipIsDetected)
{
    // Every tail path (0-70 bytes), one to three stripes around their
    // edges, a value-log frame, and a page.
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= 70; n++)
        lengths.push_back(n);
    for (size_t n : {95, 96, 97, 127, 128, 255, 256, 257, 1023, 1040,
                     2049, 4095, 4096})
        lengths.push_back(n);
    Random rnd(301);
    for (size_t n : lengths) {
        std::string buf(n, '\0');
        for (char &c : buf)
            c = static_cast<char>(rnd.next());
        const uint32_t clean = recordChecksum(buf.data(), n);
        size_t missed = 0;
        for (size_t bit = 0; bit < 8 * n; bit++) {
            buf[bit / 8] ^= static_cast<char>(1 << (bit % 8));
            if (recordChecksum(buf.data(), n) == clean)
                missed++;
            buf[bit / 8] ^= static_cast<char>(1 << (bit % 8));
        }
        EXPECT_EQ(missed, 0u) << "len=" << n;
    }
}

TEST(HashTest, UnalignedInputHashesLikeAligned)
{
    alignas(64) char aligned[320];
    for (size_t i = 0; i < sizeof(aligned); i++)
        aligned[i] = static_cast<char>(i * 37 + 11);
    alignas(64) char shifted[sizeof(aligned) + 8];
    for (size_t off = 1; off < 8; off++) {
        memcpy(shifted + off, aligned, sizeof(aligned));
        for (size_t n = 0; n <= sizeof(aligned); n += 13) {
            EXPECT_EQ(hash32(shifted + off, n, 5), hash32(aligned, n, 5))
                << "off=" << off << " len=" << n;
        }
    }
}

TEST(HashTest, SeedChangesTheResult)
{
    const uint32_t seeds[] = {0, 1, 0x8f1bbcdc, 0x80000000u, 0xffffffffu};
    std::string data(1040, 'q');
    for (size_t n : {0, 1, 7, 8, 31, 32, 33, 100, 1040}) {
        std::vector<uint32_t> seen;
        for (uint32_t seed : seeds) {
            const uint32_t h = hash32(data.data(), n, seed);
            for (uint32_t prev : seen)
                EXPECT_NE(h, prev) << "len=" << n << " seed=" << seed;
            seen.push_back(h);
        }
    }
}

} // namespace
} // namespace mio
