/**
 * @file
 * Regression test for a shutdown use-after-free in the flush job. A
 * store on a shared scheduler closes by waiting for its flush token;
 * the job used to release the token and only then lock imm_mu_ to
 * look for late immutables, so a closing store could be destroyed
 * under the job's feet. The job now releases the token under imm_mu_
 * as its last touch of the store. Run it under
 * -DMIO_SANITIZE=address (scripts/check.sh does): many short-lived
 * stores close while their flush jobs are still draining.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "miodb/miodb.h"
#include "sched/background_scheduler.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

TEST(FlushShutdownTest, CloseOnSharedPoolWhileFlushJobsDrain)
{
    StatsCounters sched_stats;
    sched::BackgroundScheduler::Options so;
    so.num_workers = 3;
    so.stats = &sched_stats;
    sched::BackgroundScheduler pool(so);

    MioOptions o;
    o.memtable_size = 8 << 10;
    o.auto_compaction = false;  // flushes only: the path under test
    o.enable_wal = false;
    o.value_separation_threshold = 0;
    const std::string value(200, 'v');
    for (int round = 0; round < 200; round++) {
        sim::NvmDevice nvm(sim::MemoryPerfModel::none());
        auto db = std::make_unique<MioDB>(o, &nvm, nullptr, nullptr,
                                          nullptr, &pool);
        for (int i = 0; i < 120; i++) {
            ASSERT_TRUE(
                db->put(Slice(makeKey(round * 1000 + i)), Slice(value))
                    .isOk());
        }
        // Close at once: the rotations above leave flush jobs queued
        // or running on the shared pool.
        db.reset();
    }
    pool.shutdown(/*run_pending=*/true);
}

} // namespace
} // namespace mio::miodb
