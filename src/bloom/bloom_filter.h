/**
 * @file
 * Mergeable bloom filter assigned to each PMTable (paper Sec. 4.6).
 *
 * Filters of tables flushed from same-size MemTables share one bit
 * width, so two tables' filters can be merged during compaction with a
 * plain bitwise OR (a merge across MemTable sizes rebuilds the filter
 * from the keys instead; see miodb::mergeTableBlooms). The bit budget
 * is provisioned as bits_per_key times the expected key capacity of
 * one MemTable; after h zero-copy merges a table holds
 * up to 2^h memtables' keys, so the false-positive rate grows with
 * depth -- exactly the effect behind the level-count knee in Fig. 9.
 */
#ifndef MIO_BLOOM_BLOOM_FILTER_H_
#define MIO_BLOOM_BLOOM_FILTER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/slice.h"

namespace mio {

class BloomFilter
{
  public:
    /**
     * @param num_bits total filter size in bits (rounded up to 64)
     * @param num_probes hash probes per key (k); 0 selects the
     *        standard k = 0.69 * bits/expected keys heuristic supplied
     *        by the caller via makeForCapacity()
     */
    BloomFilter(size_t num_bits, int num_probes);

    /** Filter sized for @p expected_keys at @p bits_per_key. */
    static BloomFilter makeForCapacity(uint64_t expected_keys,
                                       int bits_per_key);

    void add(const Slice &key);

    /** @return false only if the key was definitely never added. */
    bool mayContain(const Slice &key) const;

    /** The (h1, h2) pair probed for a key; lets callers defer adds. */
    static std::pair<uint64_t, uint64_t> keyHashes(const Slice &key);
    /** Add a key by its precomputed hash pair. */
    void addHashes(uint64_t h1, uint64_t h2);
    /** mayContain() by precomputed hash pair -- a read path probing
     *  many same-keyed filters hashes once and reuses the pair. */
    bool mayContainHashes(uint64_t h1, uint64_t h2) const;

    /** Serialize to [probes u32][bits u64][words...]. */
    void encodeTo(std::string *dst) const;
    /** Rebuild from encodeTo() output. @return false on corruption. */
    static bool decodeFrom(const Slice &data, BloomFilter *out);

    /**
     * OR-merge @p other into this filter.
     * @return false, leaving this filter unchanged, when the two
     *         differ in geometry (bit count or probe count).
     */
    bool merge(const BloomFilter &other);

    /**
     * True when every bit set in @p other is also set here (and the
     * geometries match) -- the invariant an OR-merged summary filter
     * maintains over its member filters.
     */
    bool isSupersetOf(const BloomFilter &other) const;

    /** True when bit count and probe count match (OR-merge legal). */
    bool
    sameGeometry(const BloomFilter &other) const
    {
        return num_bits_ == other.num_bits_ &&
               num_probes_ == other.num_probes_;
    }

    size_t numBits() const { return num_bits_; }
    int numProbes() const { return num_probes_; }
    size_t memoryUsage() const { return words_.size() * sizeof(uint64_t); }

    /** Fraction of bits set; a cheap saturation indicator. */
    double fillRatio() const;

  private:
    size_t num_bits_;
    int num_probes_;
    std::vector<uint64_t> words_;
};

} // namespace mio

#endif // MIO_BLOOM_BLOOM_FILTER_H_
