#include "sim/nvm_device.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "sim/failpoint.h"
#include "util/clock.h"

namespace mio::sim {

namespace {

/**
 * Per-thread accumulated time debt (ns). Paying debt with one busy-wait
 * per ~4us keeps the modelled bandwidth accurate while touching the
 * clock rarely.
 */
thread_local double time_debt_ns = 0.0;
thread_local bool thread_is_background = false;
/** Foreground debts are paid often (accurate op latency); background
 *  debts accumulate to ~2 ms so the sleep's wakeup slack (tens of us
 *  on Linux) stays proportionally negligible. */
constexpr double kForegroundThresholdNs = 4000.0;
constexpr double kBackgroundThresholdNs = 2'000'000.0;

} // namespace

void
markSimBackgroundThread()
{
    thread_is_background = true;
}

bool
simThreadIsBackground()
{
    return thread_is_background;
}

void
paySimDelay(uint64_t ns)
{
    if (ns == 0)
        return;
    if (thread_is_background) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    } else {
        spinFor(ns);
    }
}

NvmFaultSpec
NvmFaultSpec::parse(const std::string &spec)
{
    NvmFaultSpec out;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string token = spec.substr(pos, end - pos);
        pos = end + 1;
        size_t eq = token.find('=');
        if (eq == std::string::npos)
            continue;
        std::string key = token.substr(0, eq);
        std::string val = token.substr(eq + 1);
        try {
            if (key == "capacity")
                out.capacity_bytes = std::stoull(val);
            else if (key == "bitflip_rate" || key == "bitflip")
                out.bitflip_rate = std::stod(val);
            else if (key == "torn_rate" || key == "torn")
                out.torn_rate = std::stod(val);
            else if (key == "stuck_rate" || key == "stuck")
                out.stuck_rate = std::stod(val);
            else if (key == "spike_rate")
                out.spike_rate = std::stod(val);
            else if (key == "spike_ns")
                out.spike_ns = std::stoull(val);
        } catch (const std::exception &) {
            // Malformed value: skip the token, keep the rest armed.
        }
    }
    return out;
}

NvmDevice::NvmDevice(MemoryPerfModel model) : model_(model)
{
    if (const char *env = getenv("MIO_NVM_FAULTS");
        env != nullptr && env[0] != '\0') {
        setFaultSpec(NvmFaultSpec::parse(env));
    }
}

NvmDevice::~NvmDevice()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[ptr, size] : regions_)
        free(ptr);
    regions_.clear();
}

char *
NvmDevice::allocateRegion(size_t size)
{
    // Reserve against the capacity budget first so concurrent
    // allocators cannot jointly overshoot it.
    uint64_t cap = capacity_bytes_.load(std::memory_order_relaxed);
    uint64_t live = bytes_allocated_.load(std::memory_order_relaxed);
    do {
        if (cap != 0 && live + size > cap) {
            alloc_failures_.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
    } while (!bytes_allocated_.compare_exchange_weak(
        live, live + size, std::memory_order_relaxed));
    auto *ptr = static_cast<char *>(malloc(size));
    if (ptr == nullptr) {
        bytes_allocated_.fetch_sub(size, std::memory_order_relaxed);
        alloc_failures_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        regions_.emplace(ptr, size);
    }
    live += size;
    total_allocated_.fetch_add(size, std::memory_order_relaxed);
    uint64_t peak = peak_allocated_.load(std::memory_order_relaxed);
    while (live > peak &&
           !peak_allocated_.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
    return ptr;
}

void
NvmDevice::freeRegion(char *ptr)
{
    size_t size = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = regions_.find(ptr);
        if (it == regions_.end())
            return;
        size = it->second;
        regions_.erase(it);
    }
    if (shadow_enabled_.load(std::memory_order_relaxed))
        shadowDropRange(ptr, size);
    {
        // The damage went with the region; a later allocation at the
        // same address starts clean.
        std::lock_guard<std::mutex> lock(fault_mu_);
        fault_ranges_.erase(
            std::remove_if(fault_ranges_.begin(), fault_ranges_.end(),
                           [&](const NvmFaultRange &f) {
                               return f.begin >= ptr && f.begin < ptr + size;
                           }),
            fault_ranges_.end());
    }
    bytes_allocated_.fetch_sub(size, std::memory_order_relaxed);
    free(ptr);
}

void
NvmDevice::chargeTime(double ns)
{
    if (ns <= 0.0)
        return;
    time_debt_ns += ns;
    double threshold = thread_is_background ? kBackgroundThresholdNs
                                            : kForegroundThresholdNs;
    if (time_debt_ns >= threshold) {
        paySimDelay(static_cast<uint64_t>(time_debt_ns));
        time_debt_ns = 0.0;
    }
}

void
NvmDevice::write(char *dst, const char *src, size_t n, WriteKind kind)
{
    if (shadow_enabled_.load(std::memory_order_relaxed))
        shadowSave(dst, n);
    bool eligible =
        kind == WriteKind::kFramed && n > 0 &&
        (fault_spec_.bitflip_rate > 0.0 || fault_spec_.torn_rate > 0.0 ||
         fault_spec_.stuck_rate > 0.0 ||
         armed_bitflips_.load(std::memory_order_relaxed) > 0 ||
         armed_torn_.load(std::memory_order_relaxed) > 0 ||
         armed_stuck_.load(std::memory_order_relaxed) > 0);
    if (!eligible) {
        memcpy(dst, src, n);
        chargeWrite(n);
        return;
    }
    // Torn write: the trailing cacheline never reaches the media
    // (power cut mid-burst); the destination keeps its old bytes.
    size_t copy_n = n;
    if (faultFires(armed_torn_, fault_spec_.torn_rate)) {
        copy_n = n - std::min<size_t>(64, n);
        torn_writes_.fetch_add(1, std::memory_order_relaxed);
        recordFault(dst + copy_n, n - copy_n);
    }
    // Stuck cacheline: one interior 64B line silently keeps its old
    // contents (failed line write-back).
    char stuck_save[64];
    size_t stuck_off = 0, stuck_n = 0;
    if (faultFires(armed_stuck_, fault_spec_.stuck_rate)) {
        size_t lines = (n + 63) / 64;
        stuck_off =
            static_cast<size_t>(faultRand() * static_cast<double>(lines)) *
            64;
        if (stuck_off >= n)
            stuck_off = 0;
        stuck_n = std::min<size_t>(64, n - stuck_off);
        memcpy(stuck_save, dst + stuck_off, stuck_n);
        stuck_cachelines_.fetch_add(1, std::memory_order_relaxed);
        recordFault(dst + stuck_off, stuck_n);
    }
    memcpy(dst, src, copy_n);
    if (stuck_n != 0)
        memcpy(dst + stuck_off, stuck_save, stuck_n);
    if (faultFires(armed_bitflips_, fault_spec_.bitflip_rate)) {
        size_t byte =
            static_cast<size_t>(faultRand() * static_cast<double>(n));
        if (byte >= n)
            byte = n - 1;
        int bit = static_cast<int>(faultRand() * 8.0) & 7;
        dst[byte] = static_cast<char>(
            static_cast<unsigned char>(dst[byte]) ^ (1u << bit));
        bits_flipped_.fetch_add(1, std::memory_order_relaxed);
        recordFault(dst + byte, 1);
    }
    chargeWrite(n);
}

void
NvmDevice::chargeWrite(size_t n)
{
    maybeSpike();
    bytes_written_.fetch_add(n, std::memory_order_relaxed);
    chargeTime(model_.write_ns_per_byte * static_cast<double>(n) +
               static_cast<double>(model_.write_latency_ns));
}

void
NvmDevice::chargeRead(size_t n)
{
    maybeSpike();
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
    chargeTime(model_.read_ns_per_byte * static_cast<double>(n) +
               static_cast<double>(model_.read_latency_ns));
}

void
NvmDevice::chargeRandomReads(int count, size_t bytes_each)
{
    if (count <= 0)
        return;
    maybeSpike();
    size_t total = static_cast<size_t>(count) * bytes_each;
    bytes_read_.fetch_add(total, std::memory_order_relaxed);
    chargeTime(static_cast<double>(count) *
                   (static_cast<double>(model_.read_latency_ns) +
                    model_.read_ns_per_byte *
                        static_cast<double>(bytes_each)));
}

void
NvmDevice::persist(const void *addr, size_t n)
{
    // The failpoint fires BEFORE the barrier takes effect: a crash
    // here loses everything the caller was about to make durable.
    MIO_FAILPOINT("nvm.persist");
    if (shadow_enabled_.load(std::memory_order_relaxed))
        shadowPersist(static_cast<const char *>(addr), n);
    persist_ops_.fetch_add(1, std::memory_order_relaxed);
}

void
NvmDevice::setCrashShadow(bool enabled)
{
    std::lock_guard<std::mutex> lock(shadow_mu_);
    shadow_enabled_.store(enabled, std::memory_order_relaxed);
    if (!enabled)
        shadow_log_.clear();
}

void
NvmDevice::shadowSave(char *dst, size_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(shadow_mu_);
    shadow_log_.push_back(ShadowEntry{dst, std::string(dst, n)});
}

void
NvmDevice::shadowPersist(const char *addr, size_t n)
{
    const uintptr_t p_beg = reinterpret_cast<uintptr_t>(addr);
    const uintptr_t p_end = p_beg + n;
    std::lock_guard<std::mutex> lock(shadow_mu_);
    for (size_t i = 0; i < shadow_log_.size();) {
        ShadowEntry &e = shadow_log_[i];
        const uintptr_t e_beg = reinterpret_cast<uintptr_t>(e.dst);
        const uintptr_t e_end = e_beg + e.old_bytes.size();
        if (e_end <= p_beg || e_beg >= p_end) {
            i++;
            continue;
        }
        if (e_beg >= p_beg && e_end <= p_end) {
            // Fully durable: retire the whole entry. Stable erase --
            // discard depends on chronological order.
            shadow_log_.erase(shadow_log_.begin() +
                              static_cast<ptrdiff_t>(i));
            continue;
        }
        if (e_beg < p_beg && e_end > p_end) {
            // Barrier covers the middle: split into head + tail.
            ShadowEntry tail;
            tail.dst = e.dst + (p_end - e_beg);
            tail.old_bytes = e.old_bytes.substr(p_end - e_beg);
            e.old_bytes.resize(p_beg - e_beg);
            shadow_log_.insert(shadow_log_.begin() +
                                   static_cast<ptrdiff_t>(i) + 1,
                               std::move(tail));
            i += 2;
            continue;
        }
        if (e_beg < p_beg) {
            // Right part durable: keep the head.
            e.old_bytes.resize(p_beg - e_beg);
        } else {
            // Left part durable: keep the tail.
            e.old_bytes.erase(0, p_end - e_beg);
            e.dst += p_end - e_beg;
        }
        i++;
    }
}

void
NvmDevice::shadowDropRange(const char *base, size_t size)
{
    const uintptr_t r_beg = reinterpret_cast<uintptr_t>(base);
    const uintptr_t r_end = r_beg + size;
    std::lock_guard<std::mutex> lock(shadow_mu_);
    for (size_t i = 0; i < shadow_log_.size();) {
        const uintptr_t e_beg =
            reinterpret_cast<uintptr_t>(shadow_log_[i].dst);
        if (e_beg >= r_beg && e_beg < r_end) {
            shadow_log_.erase(shadow_log_.begin() +
                              static_cast<ptrdiff_t>(i));
        } else {
            i++;
        }
    }
}

uint64_t
NvmDevice::unpersistedBytes() const
{
    std::lock_guard<std::mutex> lock(shadow_mu_);
    uint64_t total = 0;
    for (const auto &e : shadow_log_)
        total += e.old_bytes.size();
    return total;
}

uint64_t
NvmDevice::discardUnpersisted()
{
    std::lock_guard<std::mutex> lock(shadow_mu_);
    uint64_t bytes = 0;
    // Reverse chronological order: the oldest pre-write image wins
    // where writes stacked on the same range.
    for (auto it = shadow_log_.rbegin(); it != shadow_log_.rend();
         ++it) {
        // Raw memcpy on purpose: rolling back bytes that never hit
        // the media is not device traffic (no chargeWrite/meters).
        memcpy(it->dst, it->old_bytes.data(), it->old_bytes.size());
        bytes += it->old_bytes.size();
    }
    shadow_log_.clear();
    shadow_discards_.fetch_add(1, std::memory_order_relaxed);
    shadow_discarded_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return bytes;
}

void
NvmDevice::setFaultSpec(const NvmFaultSpec &spec)
{
    fault_spec_ = spec;
    capacity_bytes_.store(spec.capacity_bytes,
                          std::memory_order_relaxed);
}

void
NvmDevice::setCapacityBytes(uint64_t bytes)
{
    fault_spec_.capacity_bytes = bytes;
    capacity_bytes_.store(bytes, std::memory_order_relaxed);
}

void
NvmDevice::armBitFlips(uint64_t n)
{
    armed_bitflips_.fetch_add(n, std::memory_order_relaxed);
}

void
NvmDevice::armTornWrites(uint64_t n)
{
    armed_torn_.fetch_add(n, std::memory_order_relaxed);
}

void
NvmDevice::armStuckCachelines(uint64_t n)
{
    armed_stuck_.fetch_add(n, std::memory_order_relaxed);
}

void
NvmDevice::armLatencySpikes(uint64_t n, uint64_t ns)
{
    armed_spike_ns_.store(ns, std::memory_order_relaxed);
    armed_spikes_.fetch_add(n, std::memory_order_relaxed);
}

void
NvmDevice::injectBitFlipAt(char *addr, size_t byte, int bit)
{
    addr[byte] = static_cast<char>(
        static_cast<unsigned char>(addr[byte]) ^ (1u << (bit & 7)));
    bits_flipped_.fetch_add(1, std::memory_order_relaxed);
    recordFault(addr + byte, 1);
}

void
NvmDevice::recordFault(const char *begin, size_t n)
{
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_ranges_.push_back(NvmFaultRange{begin, begin + n});
}

std::vector<NvmFaultRange>
NvmDevice::faultRanges() const
{
    std::lock_guard<std::mutex> lock(fault_mu_);
    return fault_ranges_;
}

double
NvmDevice::faultRand()
{
    // splitmix64 over an atomic counter: deterministic per device,
    // race-free under concurrent draws.
    uint64_t z = fault_rng_.fetch_add(0x9e3779b97f4a7c15ULL,
                                      std::memory_order_relaxed) +
                 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool
NvmDevice::tryConsume(std::atomic<uint64_t> &armed)
{
    uint64_t n = armed.load(std::memory_order_relaxed);
    while (n > 0) {
        if (armed.compare_exchange_weak(n, n - 1,
                                        std::memory_order_relaxed))
            return true;
    }
    return false;
}

bool
NvmDevice::faultFires(std::atomic<uint64_t> &armed, double rate)
{
    if (tryConsume(armed))
        return true;
    return rate > 0.0 && faultRand() < rate;
}

void
NvmDevice::maybeSpike()
{
    uint64_t ns = 0;
    if (tryConsume(armed_spikes_)) {
        ns = armed_spike_ns_.load(std::memory_order_relaxed);
    } else if (fault_spec_.spike_rate > 0.0 &&
               fault_spec_.spike_ns > 0 &&
               faultRand() < fault_spec_.spike_rate) {
        ns = fault_spec_.spike_ns;
    }
    if (ns == 0)
        return;
    latency_spikes_.fetch_add(1, std::memory_order_relaxed);
    // Paid immediately, not via the debt accumulator: a spike is a
    // tail-latency event, which batching would average away.
    paySimDelay(ns);
}

NvmFaultMeters
NvmDevice::faultMeters() const
{
    NvmFaultMeters m;
    m.alloc_failures =
        alloc_failures_.load(std::memory_order_relaxed);
    m.bits_flipped = bits_flipped_.load(std::memory_order_relaxed);
    m.torn_writes = torn_writes_.load(std::memory_order_relaxed);
    m.stuck_cachelines =
        stuck_cachelines_.load(std::memory_order_relaxed);
    m.latency_spikes =
        latency_spikes_.load(std::memory_order_relaxed);
    return m;
}

NvmMeters
NvmDevice::meters() const
{
    NvmMeters m;
    m.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    m.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    m.persist_ops = persist_ops_.load(std::memory_order_relaxed);
    m.bytes_allocated = bytes_allocated_.load(std::memory_order_relaxed);
    m.peak_allocated = peak_allocated_.load(std::memory_order_relaxed);
    m.total_allocated = total_allocated_.load(std::memory_order_relaxed);
    m.shadow_discards = shadow_discards_.load(std::memory_order_relaxed);
    m.shadow_discarded_bytes =
        shadow_discarded_bytes_.load(std::memory_order_relaxed);
    return m;
}

void
NvmDevice::resetTrafficMeters()
{
    bytes_written_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
    persist_ops_.store(0, std::memory_order_relaxed);
}

} // namespace mio::sim
