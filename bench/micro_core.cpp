/**
 * @file
 * google-benchmark microbenchmarks of the core data structures: skip
 * list insert/lookup, one-piece flush vs node-by-node flush, zero-copy
 * vs copying merge, bloom filter probes, and SSTable build/get.
 */
#include <benchmark/benchmark.h>

#include "bloom/bloom_filter.h"
#include "lsm/memtable.h"
#include "miodb/one_piece_flush.h"
#include "miodb/zero_copy_merge.h"
#include "sstable/table_builder.h"
#include "sstable/table_reader.h"
#include "util/random.h"

using namespace mio;

namespace {

void
BM_SkipListInsert(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Arena arena(static_cast<size_t>(n) * 128 + 4096);
        SkipList list(&arena);
        Random rng(7);
        for (int i = 0; i < n; i++) {
            list.insert(Slice(makeKey(rng.uniform(n * 4))), i + 1,
                        EntryType::kValue, Slice("benchvalue"));
        }
        benchmark::DoNotOptimize(list.entryCount());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SkipListInsert)->Arg(1000)->Arg(10000);

void
BM_SkipListLookup(benchmark::State &state)
{
    const int n = 10000;
    Arena arena(static_cast<size_t>(n) * 128 + 4096);
    SkipList list(&arena);
    for (int i = 0; i < n; i++) {
        list.insert(Slice(makeKey(i)), i + 1, EntryType::kValue,
                    Slice("benchvalue"));
    }
    Random rng(9);
    std::string v;
    EntryType t;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            list.get(Slice(makeKey(rng.uniform(n))), &v, &t));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipListLookup);

std::unique_ptr<lsm::MemTable>
filledMemTable(size_t bytes)
{
    auto mem = std::make_unique<lsm::MemTable>(bytes);
    Random rng(3);
    int i = 0;
    while (mem->add(Slice(makeKey(rng.uniform(1u << 20))), ++i,
                    EntryType::kValue,
                    Slice("value-payload-for-flush-bench"))) {
    }
    return mem;
}

void
BM_OnePieceFlush(benchmark::State &state)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto mem = filledMemTable(1 << 20);
    for (auto _ : state) {
        auto table =
            miodb::onePieceFlush(mem.get(), &nvm, &stats, 16, 1);
        benchmark::DoNotOptimize(table->entryCount());
    }
    state.SetBytesProcessed(state.iterations() * mem->memoryUsed());
}
BENCHMARK(BM_OnePieceFlush);

void
BM_NodeByNodeFlush(benchmark::State &state)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto mem = filledMemTable(1 << 20);
    for (auto _ : state) {
        auto table =
            miodb::nodeByNodeFlush(mem.get(), &nvm, &stats, 16, 1);
        benchmark::DoNotOptimize(table->entryCount());
    }
    state.SetBytesProcessed(state.iterations() * mem->memoryUsed());
}
BENCHMARK(BM_NodeByNodeFlush);

void
BM_ZeroCopyMerge(benchmark::State &state)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    for (auto _ : state) {
        state.PauseTiming();
        auto m1 = filledMemTable(256 << 10);
        auto m2 = filledMemTable(256 << 10);
        auto op = std::make_shared<miodb::MergeOp>();
        op->oldt = miodb::onePieceFlush(m1.get(), &nvm, &stats, 16, 1);
        op->newt = miodb::onePieceFlush(m2.get(), &nvm, &stats, 16, 2);
        state.ResumeTiming();
        miodb::zeroCopyMerge(op.get(), &nvm, &stats);
        benchmark::DoNotOptimize(op->oldt->entryCount());
    }
}
BENCHMARK(BM_ZeroCopyMerge);

void
BM_CopyingMerge(benchmark::State &state)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    for (auto _ : state) {
        state.PauseTiming();
        auto m1 = filledMemTable(256 << 10);
        auto m2 = filledMemTable(256 << 10);
        auto t1 = miodb::onePieceFlush(m1.get(), &nvm, &stats, 16, 1);
        auto t2 = miodb::onePieceFlush(m2.get(), &nvm, &stats, 16, 2);
        state.ResumeTiming();
        auto merged =
            miodb::copyingMerge(t2, t1, &nvm, &stats, 3);
        benchmark::DoNotOptimize(merged->entryCount());
    }
}
BENCHMARK(BM_CopyingMerge);

void
BM_BloomProbe(benchmark::State &state)
{
    BloomFilter filter = BloomFilter::makeForCapacity(100000, 16);
    for (int i = 0; i < 100000; i++)
        filter.add(Slice(makeKey(i)));
    Random rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            filter.mayContain(Slice(makeKey(rng.uniform(200000)))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void
BM_SSTableGet(benchmark::State &state)
{
    sim::NvmDevice nvm;
    sim::NvmMedium medium(&nvm);
    TableBuilder builder(4096, 16);
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        std::string k;
        appendInternalKey(&k, Slice(makeKey(i)), i + 1,
                          EntryType::kValue);
        builder.add(Slice(k), Slice("sstable-bench-value"));
    }
    medium.writeBlob("bench", Slice(builder.finish()));
    std::shared_ptr<TableReader> table;
    TableReader::open(&medium, "bench", &table);

    Random rng(13);
    std::string v;
    EntryType t;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table->get(Slice(makeKey(rng.uniform(n))), &v, &t));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SSTableGet);

} // namespace

BENCHMARK_MAIN();
