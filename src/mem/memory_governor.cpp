#include "mem/memory_governor.h"

#include <cassert>
#include <cstdio>
#include <thread>

namespace mio::mem {

const char *
subBudgetName(SubBudget b)
{
    switch (b) {
    case SubBudget::kMemtableDram: return "memtable";
    case SubBudget::kNvmBuffer: return "nvmbuf";
    case SubBudget::kVlog: return "vlog";
    }
    return "?";
}

MemoryGovernor::MemoryGovernor(const Config &config, StatsCounters *stats)
    : config_(config), stats_(stats)
{
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
    switch (b) {
    case SubBudget::kMemtableDram:
        return config_.memtable_bytes *
               static_cast<uint64_t>(memtableChargers());
    case SubBudget::kNvmBuffer: return config_.nvm_buffer_bytes;
    case SubBudget::kVlog: return config_.vlog_budget_bytes;
    }
    return 0;
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
    publishGauges();
}

int
MemoryGovernor::memtableChargers() const
{
    return memtable_chargers_.load(std::memory_order_relaxed);
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
    snprintf(buf, sizeof(buf), " total=%llu",
             static_cast<unsigned long long>(totalCharged()));
    out += buf;
    return out;
}

void
MemoryGovernor::publishGauges()
{
    if (stats_ == nullptr)
        return;
    auto set = [](std::atomic<uint64_t> &a, uint64_t v) {
        a.store(v, std::memory_order_relaxed);
    };
    set(stats_->gov_memtable_bytes, charged(SubBudget::kMemtableDram));
    set(stats_->gov_nvm_buffer_bytes, charged(SubBudget::kNvmBuffer));
    set(stats_->gov_vlog_bytes, charged(SubBudget::kVlog));
    set(stats_->gov_memtable_limit, limit(SubBudget::kMemtableDram));
}

} // namespace mio::mem
