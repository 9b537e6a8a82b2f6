#include "bloom/bloom_filter.h"

#include <cstring>

#include "util/coding.h"
#include "util/hash.h"

namespace mio {

BloomFilter::BloomFilter(size_t num_bits, int num_probes)
    : num_bits_((num_bits + 63) & ~static_cast<size_t>(63)),
      num_probes_(num_probes), words_(num_bits_ / 64, 0)
{
    if (num_bits_ == 0) {
        num_bits_ = 64;
        words_.assign(1, 0);
    }
    if (num_probes_ < 1)
        num_probes_ = 1;
    if (num_probes_ > 30)
        num_probes_ = 30;
}

BloomFilter
BloomFilter::makeForCapacity(uint64_t expected_keys, int bits_per_key)
{
    if (expected_keys == 0)
        expected_keys = 1;
    // k = bits_per_key * ln(2); standard optimum.
    int probes = static_cast<int>(bits_per_key * 0.69);
    if (probes < 1)
        probes = 1;
    return BloomFilter(expected_keys * static_cast<uint64_t>(bits_per_key),
                       probes);
}

std::pair<uint64_t, uint64_t>
BloomFilter::keyHashes(const Slice &key)
{
    // Double hashing: h_i = h1 + i*h2 (Kirsch-Mitzenmacher).
    uint64_t h1 = hash64(key.data(), key.size());
    uint64_t h2 = hash32(key.data(), key.size(), 0xa5a5a5a5) | 1;
    return {h1, h2};
}

void
BloomFilter::addHashes(uint64_t h1, uint64_t h2)
{
    for (int i = 0; i < num_probes_; i++) {
        uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
        words_[bit >> 6] |= (1ULL << (bit & 63));
    }
}

void
BloomFilter::add(const Slice &key)
{
    auto [h1, h2] = keyHashes(key);
    addHashes(h1, h2);
}

bool
BloomFilter::mayContain(const Slice &key) const
{
    auto [h1, h2] = keyHashes(key);
    return mayContainHashes(h1, h2);
}

bool
BloomFilter::mayContainHashes(uint64_t h1, uint64_t h2) const
{
    for (int i = 0; i < num_probes_; i++) {
        uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
        if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0)
            return false;
    }
    return true;
}

bool
BloomFilter::merge(const BloomFilter &other)
{
    if (!sameGeometry(other))
        return false;
    for (size_t i = 0; i < words_.size(); i++)
        words_[i] |= other.words_[i];
    return true;
}

bool
BloomFilter::isSupersetOf(const BloomFilter &other) const
{
    if (!sameGeometry(other))
        return false;
    for (size_t i = 0; i < words_.size(); i++) {
        if ((other.words_[i] & ~words_[i]) != 0)
            return false;
    }
    return true;
}

void
BloomFilter::encodeTo(std::string *dst) const
{
    putFixed32(dst, static_cast<uint32_t>(num_probes_));
    putFixed64(dst, static_cast<uint64_t>(num_bits_));
    dst->append(reinterpret_cast<const char *>(words_.data()),
                words_.size() * sizeof(uint64_t));
}

bool
BloomFilter::decodeFrom(const Slice &data, BloomFilter *out)
{
    if (data.size() < 12)
        return false;
    uint32_t probes = decodeFixed32(data.data());
    uint64_t bits = decodeFixed64(data.data() + 4);
    if (bits % 64 != 0 || data.size() != 12 + bits / 8)
        return false;
    *out = BloomFilter(bits, static_cast<int>(probes));
    memcpy(out->words_.data(), data.data() + 12, bits / 8);
    return true;
}

double
BloomFilter::fillRatio() const
{
    uint64_t set = 0;
    for (uint64_t w : words_)
        set += __builtin_popcountll(w);
    return static_cast<double>(set) / static_cast<double>(num_bits_);
}

} // namespace mio
