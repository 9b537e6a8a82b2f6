#include "util/hash.h"

#include "util/coding.h"

namespace mio {

namespace {

// The five 64-bit primes of xxHash64 (Yann Collet, BSD-2-Clause).
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t
rotl(uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** Fold one 8-byte lane into an accumulator. */
inline uint64_t
round64(uint64_t acc, uint64_t lane)
{
    acc += lane * kPrime2;
    acc = rotl(acc, 31);
    return acc * kPrime1;
}

inline uint64_t
mergeAccumulator(uint64_t h, uint64_t acc)
{
    h ^= round64(0, acc);
    return h * kPrime1 + kPrime4;
}

/** xxHash64 of [data, data + n); reads are little-endian and unaligned. */
uint64_t
xxh64(const char *data, size_t n, uint64_t seed)
{
    const char *p = data;
    const char *const end = data + n;
    uint64_t h;
    if (n >= 32) {
        // Four independent lanes: each 32-byte stripe feeds one 8-byte
        // word to each, so the multiplies do not wait on each other.
        uint64_t v1 = seed + kPrime1 + kPrime2;
        uint64_t v2 = seed + kPrime2;
        uint64_t v3 = seed;
        uint64_t v4 = seed - kPrime1;
        const char *const last_stripe = end - 32;
        do {
            v1 = round64(v1, decodeFixed64(p));
            v2 = round64(v2, decodeFixed64(p + 8));
            v3 = round64(v3, decodeFixed64(p + 16));
            v4 = round64(v4, decodeFixed64(p + 24));
            p += 32;
        } while (p <= last_stripe);
        h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
        h = mergeAccumulator(h, v1);
        h = mergeAccumulator(h, v2);
        h = mergeAccumulator(h, v3);
        h = mergeAccumulator(h, v4);
    } else {
        h = seed + kPrime5;
    }
    h += static_cast<uint64_t>(n);

    for (; p + 8 <= end; p += 8) {
        h ^= round64(0, decodeFixed64(p));
        h = rotl(h, 27) * kPrime1 + kPrime4;
    }
    if (p + 4 <= end) {
        h ^= static_cast<uint64_t>(decodeFixed32(p)) * kPrime1;
        h = rotl(h, 23) * kPrime2 + kPrime3;
        p += 4;
    }
    for (; p < end; p++) {
        h ^= static_cast<uint64_t>(static_cast<uint8_t>(*p)) * kPrime5;
        h = rotl(h, 11) * kPrime1;
    }

    // Final avalanche: every input bit reaches every output bit.
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

} // namespace

uint32_t
hash32(const char *data, size_t n, uint32_t seed)
{
    // The avalanche's last step already folded the high half in.
    return static_cast<uint32_t>(xxh64(data, n, seed));
}

uint64_t
hash64(const char *data, size_t n, uint64_t seed)
{
    const uint64_t prime = 1099511628211ULL;
    uint64_t h = seed;
    for (size_t i = 0; i < n; i++) {
        h ^= static_cast<uint8_t>(data[i]);
        h *= prime;
    }
    return h;
}

} // namespace mio
