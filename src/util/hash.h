/**
 * @file
 * Non-cryptographic hash functions used by bloom filters, skip-list
 * entry checksums, and the record checksums of WAL frames, value-log
 * frames and SSTable blocks (see DESIGN.md Sec. 5l).
 */
#ifndef MIO_UTIL_HASH_H_
#define MIO_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

#include "util/slice.h"

namespace mio {

/**
 * 32-bit hash of a byte range: the low half of xxHash64 (four
 * independent 64-bit lanes over 32-byte stripes, then the tail) with
 * @p seed zero-extended. Its values are part of the on-media
 * format of every checksum built on it (coding_test pins them).
 */
uint32_t hash32(const char *data, size_t n, uint32_t seed);

/** FNV-1a 64-bit hash, used where more bits are useful (bloom probing). */
uint64_t hash64(const char *data, size_t n, uint64_t seed = 14695981039346656037ULL);

inline uint32_t
hashSlice(const Slice &s, uint32_t seed = 0xbc9f1d34)
{
    return hash32(s.data(), s.size(), seed);
}

/**
 * Integrity checksum of a record: hash32 under a fixed seed. Detects
 * media corruption, not tampering; it is not a CRC32C.
 */
inline uint32_t
recordChecksum(const char *data, size_t n)
{
    return hash32(data, n, 0x8f1bbcdc);
}

} // namespace mio

#endif // MIO_UTIL_HASH_H_
