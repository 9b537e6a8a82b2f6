/**
 * @file
 * Deterministic failpoint injection for crash-consistency testing.
 *
 * A failpoint is a named hook compiled into a persistence-critical
 * code path:
 *
 *     MIO_FAILPOINT("wal.append.after_frame");
 *
 * Disabled (the default) it costs one relaxed atomic load and a
 * predicted-not-taken branch. Tests arm a point through the global
 * FailpointRegistry to throw a SimCrash on its Nth hit -- the software
 * analogue of pulling the power cord at exactly that instruction --
 * or arm a crash on the Nth hit across *all* points, which gives a
 * randomized sweep a single scalar to dial through every reachable
 * crash site. The env var MIO_FAILPOINTS ("point=crash@3;other=crash")
 * arms points at process start for use outside the test harness.
 *
 * A SimCrash escaping a background job is caught by the
 * BackgroundScheduler's job runner -- the one thread boundary that
 * replaced the old per-path thread loops -- which freezes the
 * scheduler and fires the store's crash transition
 * (MioDB::simulateCrash semantics). Foreground paths (writes, the
 * constructor's recovery) let it propagate to the caller. The crash
 * harness then discards unpersisted NVM bytes
 * (NvmDevice::discardUnpersisted) and reopens the store to check that
 * recovery restores a prefix-consistent state.
 */
#ifndef MIO_SIM_FAILPOINT_H_
#define MIO_SIM_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mio::sim {

/** Thrown by an armed failpoint: a simulated power failure. */
class SimCrash : public std::exception
{
  public:
    explicit SimCrash(std::string point) : point_(std::move(point)) {}
    /** The failpoint name that fired. */
    const char *what() const noexcept override { return point_.c_str(); }
    const std::string &point() const { return point_; }

  private:
    std::string point_;
};

/**
 * Canonical names of every failpoint compiled into the store, grouped
 * by subsystem. The crash sweeper iterates this list and asserts each
 * point actually fired under its workload, so the list cannot rot:
 * a listed-but-unreachable point fails the sweep, and
 * FailpointRegistry::seenPoints() lets the sweep detect unlisted ones.
 */
inline constexpr const char *kCrashPoints[] = {
    // sim: the persistence barrier itself
    "nvm.persist",
    // wal: record framing and segment rotation
    "wal.append.before_frame",
    "wal.append.torn_frame",
    "wal.append.after_frame",
    "wal.rotate.after_open",
    // one-piece flush: bulk image copy, pointer swizzle, publish
    "flush.before_copy",
    "flush.after_copy",
    "flush.before_swizzle",
    "flush.after_swizzle",
    "flush.before_publish",
    "flush.after_publish",
    // zero-copy merge: the insertion-mark relink
    "zcm.detached",
    "zcm.relinked",
    // lazy-copy merge: repository publish and arena reclaim
    "lcm.before_publish",
    "lcm.publish_node",
    "lcm.after_publish",
    "lcm.before_reclaim",
    // ssd mode: SSTable write and version install
    "ssd.sstable.after_write",
    "ssd.flush.before_install",
    // group commit: the leader's combined WAL append and apply loop
    "group.before_wal",
    "group.after_wal",
    "group.apply_op",
    // value log: append framing, seal footer, GC relocation, segment
    // retirement
    "vlog.append",
    "vlog.seal",
    "vlog.gc.relocate",
    "vlog.gc.before_unlink",
    // recovery: one WAL record replayed at open
    "wal.replay.frame",
};

/**
 * Process-global registry of failpoints. Thread safe: arming,
 * disarming, and hits may race freely (the TSan property test in
 * tests/failpoint_test.cpp pins this down). Hits are only counted
 * while the registry is active (something armed, or tracking on).
 */
class FailpointRegistry
{
  public:
    static FailpointRegistry &instance();

    /** Arm @p point to throw SimCrash on its @p nth hit (1-based),
     *  counted from now. One-shot: firing disarms the point. */
    void armCrash(const std::string &point, uint64_t nth = 1);

    /** Arm a SimCrash on the @p nth hit (1-based, from now) across
     *  ALL points -- the randomized sweep's single crash dial. */
    void armCrashOnGlobalHit(uint64_t nth);

    void disarm(const std::string &point);
    /** Disarm everything and clear counters/tracking/fire records. */
    void disarmAll();

    /**
     * Count hits (and remember point names) even with nothing armed.
     * Lets a dry run measure how many crash opportunities a workload
     * exposes before choosing where to crash it.
     */
    void setTracking(bool on);

    /** Arm from a spec string: "p1=crash@3;p2=crash". Unknown text is
     *  ignored. @return number of points armed. */
    int armFromSpec(const std::string &spec);
    /** armFromSpec(getenv("MIO_FAILPOINTS")); called once lazily. */
    void initFromEnv();

    uint64_t hitCount(const std::string &point) const;
    uint64_t totalHits() const;
    /** True if @p point has thrown since the last disarmAll(). */
    bool fired(const std::string &point) const;
    /** Name of the point that threw most recently ("" if none). */
    std::string lastCrashPoint() const;
    /** Every point name hit while active since the last disarmAll. */
    std::vector<std::string> seenPoints() const;

    /** Hot-path hit; prefer the MIO_FAILPOINT macro. */
    void hit(const char *point);

    /** True while any arming or tracking is live (macro fast path). */
    bool
    active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

  private:
    FailpointRegistry() { initFromEnv(); }

    void recomputeActiveLocked();

    mutable std::mutex mu_;
    std::map<std::string, uint64_t> armed_;  //!< point -> hits left
    std::map<std::string, uint64_t> hits_;
    std::map<std::string, uint64_t> fired_;
    uint64_t global_hits_left_ = 0;  //!< 0 = global arm off
    uint64_t total_hits_ = 0;
    bool tracking_ = false;
    std::string last_crash_;
    std::atomic<bool> active_{false};
};

/** Out-of-line slow path for the macro. May throw SimCrash. */
void failpointHit(const char *point);

} // namespace mio::sim

/**
 * Declare a failpoint. Zero cost unless some test armed the registry.
 * May throw sim::SimCrash; in background jobs the scheduler's job
 * runner catches it and freezes the store.
 */
#define MIO_FAILPOINT(point)                                          \
    do {                                                              \
        if (mio::sim::FailpointRegistry::instance().active())         \
            mio::sim::failpointHit(point);                            \
    } while (0)

#endif // MIO_SIM_FAILPOINT_H_
