#include "mem/memory_governor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <thread>

namespace mio::mem {

namespace {

constexpr uint64_t kBpScale = 10000;

uint64_t
toBp(double fraction)
{
    if (fraction <= 0.0)
        return 0;
    if (fraction >= 1.0)
        return kBpScale;
    return static_cast<uint64_t>(fraction * kBpScale + 0.5);
}

} // namespace

const char *
subBudgetName(SubBudget b)
{
    switch (b) {
    case SubBudget::kMemtableDram: return "memtable";
    case SubBudget::kReadCacheDram: return "cache";
    case SubBudget::kNvmBuffer: return "nvmbuf";
    case SubBudget::kVlog: return "vlog";
    }
    return "?";
}

MemoryGovernor::MemoryGovernor(const Config &config, StatsCounters *stats)
    : config_(config), stats_(stats),
      soft_wm_bp_(toBp(config.nvm_soft_watermark))
{
    // kMemtableDram accumulates via registerMemtableCharger so the
    // limit always equals (per-charger budget) x (registered count).
    limits_[static_cast<int>(SubBudget::kMemtableDram)].store(
        0, std::memory_order_relaxed);
    limits_[static_cast<int>(SubBudget::kReadCacheDram)].store(
        config.read_cache_bytes, std::memory_order_relaxed);
    limits_[static_cast<int>(SubBudget::kNvmBuffer)].store(
        config.nvm_buffer_bytes, std::memory_order_relaxed);
    limits_[static_cast<int>(SubBudget::kVlog)].store(
        config.vlog_budget_bytes, std::memory_order_relaxed);
    publishGauges();
}

// charge/release never touch the stats sink: long-lived chargers
// (value-log segments, memtable deleters, pinned snapshots) may drain
// into a governor whose owning store -- and its StatsCounters -- are
// already gone. Gauges are pull-published by stats() readers instead.
void
MemoryGovernor::charge(SubBudget b, size_t bytes)
{
    if (bytes == 0)
        return;
    // All seq_cst: the witness relies on one total order of these
    // updates and its own reads.
    updates_in_flight_.fetch_add(1);
    total_.fetch_add(bytes);
    charged_[static_cast<int>(b)].fetch_add(bytes);
    updates_done_.fetch_add(1);
    updates_in_flight_.fetch_sub(1);
}

void
MemoryGovernor::release(SubBudget b, size_t bytes)
{
    if (bytes == 0)
        return;
    updates_in_flight_.fetch_add(1);
    uint64_t prev = charged_[static_cast<int>(b)].fetch_sub(bytes);
    assert(prev >= bytes && "sub-budget release exceeds charge");
    (void)prev;
    total_.fetch_sub(bytes);
    updates_done_.fetch_add(1);
    updates_in_flight_.fetch_sub(1);
}

uint64_t
MemoryGovernor::charged(SubBudget b) const
{
    return charged_[static_cast<int>(b)].load(std::memory_order_relaxed);
}

uint64_t
MemoryGovernor::totalCharged() const
{
    return total_.load(std::memory_order_relaxed);
}

uint64_t
MemoryGovernor::limit(SubBudget b) const
{
    return limits_[static_cast<int>(b)].load(std::memory_order_relaxed);
}

bool
MemoryGovernor::wouldExceed(SubBudget b, size_t extra) const
{
    uint64_t lim = limit(b);
    if (lim == 0)
        return false;
    return charged(b) + extra > lim;
}

void
MemoryGovernor::registerMemtableCharger()
{
    memtable_chargers_.fetch_add(1, std::memory_order_relaxed);
    limits_[static_cast<int>(SubBudget::kMemtableDram)].fetch_add(
        config_.memtable_bytes, std::memory_order_relaxed);
    publishGauges();
}

size_t
MemoryGovernor::memtableTargetBytes() const
{
    int chargers =
        std::max(1, memtable_chargers_.load(std::memory_order_relaxed));
    uint64_t lim = limit(SubBudget::kMemtableDram);
    if (lim == 0)
        return config_.memtable_bytes;
    // Never hand out a degenerate arena even if the floor config is
    // hostile; 64 KiB still holds a useful handful of entries.
    return std::max<uint64_t>(lim / static_cast<uint64_t>(chargers),
                              64 << 10);
}

int
MemoryGovernor::memtableChargers() const
{
    return memtable_chargers_.load(std::memory_order_relaxed);
}

double
MemoryGovernor::nvmSoftWatermark() const
{
    return static_cast<double>(
               soft_wm_bp_.load(std::memory_order_relaxed)) /
           kBpScale;
}

double
MemoryGovernor::nvmHardWatermark() const
{
    return config_.nvm_hard_watermark;
}

bool
MemoryGovernor::tunerPass(const TunerSignals &now)
{
    std::lock_guard<std::mutex> lock(tuner_mu_);
    if (!have_prev_) {
        prev_ = now;
        have_prev_ = true;
        return false;
    }
    auto delta = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
    uint64_t hits_d = delta(now.cache_hits, prev_.cache_hits);
    uint64_t miss_d = delta(now.cache_misses, prev_.cache_misses);
    uint64_t evict_d = delta(now.cache_evictions, prev_.cache_evictions);
    uint64_t stall_d = delta(now.write_stalls, prev_.write_stalls) +
                       delta(now.busy_rejections, prev_.busy_rejections);
    uint64_t slow_d =
        delta(now.write_slowdowns, prev_.write_slowdowns);
    prev_ = now;

    bool moved = false;

    // NVM soft watermark: start migrations earlier while writers are
    // stalling on the device, creep back to the configured value when
    // calm. Bounded to [max(0.50, configured - 0.25), configured].
    uint64_t configured = toBp(config_.nvm_soft_watermark);
    uint64_t wm_floor = std::max<uint64_t>(
        5000, configured > 2500 ? configured - 2500 : 0);
    uint64_t soft = soft_wm_bp_.load(std::memory_order_relaxed);
    if (stall_d > 0 && now.nvm_usage > 0.5 && soft > wm_floor) {
        soft = std::max<uint64_t>(wm_floor, soft - 500);
        soft_wm_bp_.store(soft, std::memory_order_relaxed);
        tuner_moves_.fetch_add(1, std::memory_order_relaxed);
        moved = true;
    } else if (stall_d == 0 && slow_d == 0 && soft < configured) {
        soft = std::min<uint64_t>(configured, soft + 250);
        soft_wm_bp_.store(soft, std::memory_order_relaxed);
        moved = true;
    }

    // DRAM split between write memory and the read cache.
    if (cooldown_ > 0) {
        cooldown_--;
        publishGauges();
        return moved;
    }
    int dir = 0;
    if (stall_d > 0 || slow_d > 0) {
        dir = -1; // write pressure: grow the memtable side
    } else if (evict_d > 0 && hits_d + miss_d > 0) {
        dir = +1; // cache churning with no write pressure: grow it
    }
    if (dir != 0 && dir == pending_dir_) {
        pending_windows_++;
    } else {
        pending_dir_ = dir;
        pending_windows_ = dir != 0 ? 1 : 0;
    }
    if (pending_windows_ >= 2) {
        int mi = static_cast<int>(SubBudget::kMemtableDram);
        int ci = static_cast<int>(SubBudget::kReadCacheDram);
        uint64_t mem_l = limits_[mi].load(std::memory_order_relaxed);
        uint64_t cache_l = limits_[ci].load(std::memory_order_relaxed);
        uint64_t dram = mem_l + cache_l;
        uint64_t floor_b = static_cast<uint64_t>(
            static_cast<double>(dram) * config_.dram_floor_fraction);
        uint64_t step = dram / 8;
        // Clamp to the shrinking side's floor headroom.
        uint64_t headroom =
            dir > 0 ? (mem_l > floor_b ? mem_l - floor_b : 0)
                    : (cache_l > floor_b ? cache_l - floor_b : 0);
        step = std::min(step, headroom);
        if (step > 0) {
            if (dir > 0) {
                limits_[mi].store(mem_l - step,
                                  std::memory_order_relaxed);
                limits_[ci].store(cache_l + step,
                                  std::memory_order_relaxed);
            } else {
                limits_[mi].store(mem_l + step,
                                  std::memory_order_relaxed);
                limits_[ci].store(cache_l - step,
                                  std::memory_order_relaxed);
            }
            tuner_moves_.fetch_add(1, std::memory_order_relaxed);
            pending_dir_ = 0;
            pending_windows_ = 0;
            cooldown_ = 2;
            moved = true;
        }
    }
    publishGauges();
    return moved;
}

uint64_t
MemoryGovernor::tunerMoves() const
{
    return tuner_moves_.load(std::memory_order_relaxed);
}

bool
MemoryGovernor::chargesConsistent() const
{
    // Compare only over a quiet window: no charge or release between
    // its two updates at either end, and none finished in between
    // (any read inside a charge or release sees sum and total apart).
    for (int attempt = 0; attempt < 8; attempt++) {
        const uint64_t done = updates_done_.load();
        if (updates_in_flight_.load() == 0) {
            const uint64_t total = total_.load();
            uint64_t sum = 0;
            for (int i = 0; i < kNumSubBudgets; i++)
                sum += charged_[i].load();
            if (updates_in_flight_.load() == 0 &&
                updates_done_.load() == done)
                return sum == total;
        }
        std::this_thread::yield();
    }
    return true; // never quiet: no drift evidence
}

std::string
MemoryGovernor::debugString() const
{
    char buf[256];
    std::string out = "governor:";
    for (int i = 0; i < kNumSubBudgets; i++) {
        auto b = static_cast<SubBudget>(i);
        snprintf(buf, sizeof(buf), " %s=%llu/%llu", subBudgetName(b),
                 static_cast<unsigned long long>(charged(b)),
                 static_cast<unsigned long long>(limit(b)));
        out += buf;
    }
    snprintf(buf, sizeof(buf), " total=%llu soft_wm=%.2f moves=%llu",
             static_cast<unsigned long long>(totalCharged()),
             nvmSoftWatermark(),
             static_cast<unsigned long long>(tunerMoves()));
    out += buf;
    return out;
}

void
MemoryGovernor::setStats(StatsCounters *stats)
{
    stats_.store(stats, std::memory_order_release);
    publishGauges();
}

void
MemoryGovernor::publishGauges()
{
    StatsCounters *s = stats_.load(std::memory_order_acquire);
    if (s == nullptr)
        return;
    auto set = [](std::atomic<uint64_t> &a, uint64_t v) {
        a.store(v, std::memory_order_relaxed);
    };
    set(s->gov_memtable_bytes, charged(SubBudget::kMemtableDram));
    set(s->gov_cache_bytes, charged(SubBudget::kReadCacheDram));
    set(s->gov_nvm_buffer_bytes, charged(SubBudget::kNvmBuffer));
    set(s->gov_vlog_bytes, charged(SubBudget::kVlog));
    set(s->gov_memtable_limit, limit(SubBudget::kMemtableDram));
    set(s->gov_cache_limit, limit(SubBudget::kReadCacheDram));
    set(s->tuner_moves, tunerMoves());
}

} // namespace mio::mem
