/**
 * @file
 * The repository's end-to-end benchmark: one closed-loop client drives a
 * default-options MioDB through the KVStore interface with a YCSB mix,
 * checks every answer, then power-fails the store, reopens it and
 * checks that every key still holds its latest acknowledged value. See
 * README.md for the workloads, the metrics and how to run it.
 *
 * Usage:
 *   miobench --workload <name> --seed <n> --seconds <n> --trace <0|1>
 *            [--scale <f>] [--trace-out <path>]
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * they are the per-layer ones, taken from a traced run that follows an
 * untraced run of the same ops (their difference is the overhead).
 */
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kv/store_stats.h"
#include "miodb/miodb.h"
#include "sched/background_scheduler.h"
#include "sim/nvm_device.h"
#include "sim/ssd_device.h"
#include "trace.h"
#include "util/clock.h"
#include "util/random.h"
#include "wal/log_writer.h"
#include "ycsb/workload.h"

using namespace mio;

namespace miobench {
namespace {

constexpr size_t kKeyBytes = 16;
/** A value is the 16-byte decimal index of its key (the stamp), the
 *  8-digit decimal version of the value, then filler bytes chosen by
 *  key and version, so every version of every key is distinct. */
constexpr size_t kStampBytes = 16;
constexpr size_t kVersionBytes = 8;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 9;
/** Stretches of consecutive ops a latency percentile is taken over;
 *  the gated percentile is the median of the stretches' values. */
constexpr size_t kWindows = 10;
/** Power-fail/reopen cycles per run; recovery_ms is their median. */
constexpr int kRecoveryCycles = 45;
/** Pause before each power failure. The host's speed drifts over
 *  seconds, and a reopen's time with it, so back-to-back cycles would
 *  all sample one stretch of it; paced, they span about 6 s. */
constexpr std::chrono::milliseconds kRecoveryPause{120};
/** Overwrites of random keys before the first power failure, so that
 *  every workload's WAL holds records to replay: a drained store
 *  reopens in about a millisecond, most of it spent starting worker
 *  threads, and that start-up time varies threefold between runs. */
constexpr uint64_t kRecoveryBacklog = 2000;
/** Entries per scan, and gets, of the post-recovery verification. */
constexpr int kSweepScanLength = 16;
constexpr uint64_t kSweepGets = 10000;

struct Workload {
    const char *name;
    char mix;                 //!< YCSB core workload letter
    size_t value_size;
    uint64_t load_bytes;      //!< keys loaded = load_bytes / (16 + value)
    /** Nominal op rate: a run issues seconds x this many mix ops, so
     *  the work (not the time) is fixed for a given --seconds. */
    uint64_t ops_per_second;
    /** One probe scan per this many mix ops (sized for >= 10k probes a
     *  run at 15 s or more); 0 = no probes. */
    uint64_t probe_every;
    /** Entries per probe scan. */
    int probe_scan_length;
};

/** Memory a full-size run needs: its peak RSS (about 1.3 GiB, traced
 *  ycsb_a_1k at 30 s) with headroom. */
constexpr uint64_t kMemNeedMib = 2048;

const Workload kWorkloads[] = {
    {"ycsb_a_1k", 'A', 1024, 64ull << 20, 70000, 32, 16},
    {"ycsb_c_256", 'C', 256, 64ull << 20, 95000, 0, 0},
};

// ---------------------------------------------------------------------------
// Arguments

struct Args {
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    uint64_t seconds = 0;
    bool trace = false;
    double scale = 1.0;
    std::string trace_out;
};

[[noreturn]] void
usage(const char *why)
{
    fprintf(stderr,
            "miobench: %s\nusage: miobench --workload <name> --seed <n> "
            "--seconds <n> --trace <0|1> [--scale <f>] "
            "[--trace-out <path>]\nworkloads:",
            why);
    for (const Workload &w : kWorkloads)
        fprintf(stderr, " %s", w.name);
    fprintf(stderr, "\n");
    exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &text, uint64_t lo,
          uint64_t hi)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || errno != 0 || *end != '\0' ||
        v < lo || v > hi) {
        usage((flag + ": not a whole number in [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "]: '" + text + "'")
                  .c_str());
    }
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    std::set<std::string> seen;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage((flag + ": missing value").c_str());
        const std::string value = argv[i + 1];
        if (!seen.insert(flag).second)
            usage((flag + ": given twice").c_str());
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads) {
                if (value == w.name)
                    a.workload = &w;
            }
            if (a.workload == nullptr)
                usage(("unknown workload '" + value + "'").c_str());
        } else if (flag == "--seed") {
            a.seed = parseUint(flag, value, 0, UINT64_MAX);
        } else if (flag == "--seconds") {
            a.seconds = parseUint(flag, value, 1, 600);
        } else if (flag == "--trace") {
            a.trace = parseUint(flag, value, 0, 1) == 1;
        } else if (flag == "--scale") {
            errno = 0;
            char *end = nullptr;
            a.scale = strtod(value.c_str(), &end);
            if (value.empty() || errno != 0 || *end != '\0' ||
                !(a.scale > 0.0 && a.scale <= 1.0))
                usage(("--scale: not a number in (0, 1]: '" + value + "'")
                          .c_str());
        } else if (flag == "--trace-out") {
            a.trace_out = value;
        } else {
            usage(("unknown flag '" + flag + "'").c_str());
        }
    }
    for (const char *required : {"--workload", "--seed", "--seconds",
                                 "--trace"}) {
        if (seen.count(required) == 0)
            usage((std::string(required) + ": required").c_str());
    }
    return a;
}

// ---------------------------------------------------------------------------
// Memory: a run refuses to start without room for its peak, and reports
// that peak. (run.py enforces the wall-clock limit.)

uint64_t
memAvailableMib()
{
    std::ifstream in("/proc/meminfo");
    std::string key;
    uint64_t kib = 0;
    std::string unit;
    while (in >> key >> kib >> unit) {
        if (key == "MemAvailable:")
            return kib / 1024;
    }
    return UINT64_MAX;  // unknown: do not refuse
}

uint64_t
peakRssBytes()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

// ---------------------------------------------------------------------------
// Keys, values and the model of what the store must hold

/** @p width decimal digits of @p v, zero-padded. */
void
formatDecimal(uint64_t v, char *out, int width)
{
    for (int d = width - 1; d >= 0; d--) {
        out[d] = static_cast<char>('0' + v % 10);
        v /= 10;
    }
}

/** The key of index @p i, and the stamp its values start with (same
 *  bytes as mio::makeKey(i)). */
void
formatIndex(uint64_t i, char *out)
{
    formatDecimal(i, out, kKeyBytes);
}

/**
 * What the store must hold. Keys [0, keys) are written by the load and
 * overwritten later; each write of a key carries its next version. The
 * single client knows the latest acknowledged version of every key, and
 * a read must return exactly it -- unless later puts of the key failed,
 * as such a put may or may not have landed: then any version from the
 * acknowledged one to the latest issued one is accepted (version 0
 * meaning absent).
 */
class DataModel
{
  public:
    DataModel(size_t value_size, uint64_t keys, uint64_t seed)
        : value_size_(value_size), acked_(keys, 0), issued_(keys, 0)
    {
        Random rnd(seed ^ 0xF111E5ull);
        rnd.fillString(&filler_, 2 * value_size + 64);
        value_.resize(value_size);
    }

    uint64_t keys() const { return acked_.size(); }

    Slice
    key(uint64_t i)
    {
        formatIndex(i, key_);
        return Slice(key_, kKeyBytes);
    }

    /** The next version of key @p i's value. Report the put's outcome
     *  with written(). */
    Slice
    nextValue(uint64_t i)
    {
        const uint32_t version = ++issued_[i];
        formatIndex(i, value_.data());
        formatDecimal(version, value_.data() + kStampBytes, kVersionBytes);
        memcpy(value_.data() + kHeaderBytes, filler(i, version),
               value_size_ - kHeaderBytes);
        return Slice(value_.data(), value_size_);
    }

    void
    written(uint64_t i, bool ok)
    {
        if (ok)
            acked_[i] = issued_[i];
    }

    bool
    getOk(uint64_t i, const Status &s, const std::string &v) const
    {
        if (s.isNotFound())
            return acked_[i] == 0;
        return s.isOk() && valueOk(i, v);
    }

    /** Entries a correct scan of @p count from index @p start returns:
     *  the next keys, in order, each with an accepted value. */
    bool
    scanOk(uint64_t start, int count, const Status &s,
           const std::vector<std::pair<std::string, std::string>> &out) const
    {
        if (!s.isOk())
            return false;
        uint64_t expect = start;
        size_t n = 0;
        char want[kKeyBytes];
        for (; n < out.size() && expect < keys(); expect++) {
            formatIndex(expect, want);
            const auto &[k, v] = out[n];
            const bool match = k.size() == kKeyBytes &&
                               memcmp(k.data(), want, kKeyBytes) == 0;
            if (!match) {
                if (acked_[expect] == 0)
                    continue;  // may be absent
                return false;
            }
            if (!valueOk(expect, v))
                return false;
            n++;
        }
        if (n != out.size())
            return false;  // entries past the key space
        // Short only if the key space ran out (absent keys aside).
        if (n < static_cast<size_t>(count)) {
            for (; expect < keys(); expect++) {
                if (acked_[expect] != 0)
                    return false;
            }
        }
        return true;
    }

    uint64_t liveUserBytes() const { return keys() * (kKeyBytes + value_size_); }

  private:
    static constexpr size_t kHeaderBytes = kStampBytes + kVersionBytes;

    const char *
    filler(uint64_t i, uint32_t version) const
    {
        return filler_.data() + (i * 31 + uint64_t{version} * 7) % value_size_;
    }

    /** Right length and bytes for key @p i at an accepted version. */
    bool
    valueOk(uint64_t i, const std::string &v) const
    {
        char stamp[kStampBytes];
        formatIndex(i, stamp);
        if (v.size() != value_size_ ||
            memcmp(v.data(), stamp, kStampBytes) != 0)
            return false;
        uint32_t version = 0;
        for (size_t d = kStampBytes; d < kHeaderBytes; d++) {
            if (v[d] < '0' || v[d] > '9')
                return false;
            version = version * 10 + static_cast<uint32_t>(v[d] - '0');
        }
        return version >= std::max<uint32_t>(acked_[i], 1) &&
               version <= issued_[i] &&
               memcmp(v.data() + kHeaderBytes, filler(i, version),
                      value_size_ - kHeaderBytes) == 0;
    }

    size_t value_size_;
    std::vector<uint32_t> acked_;   //!< latest acknowledged version
    std::vector<uint32_t> issued_;  //!< latest version put
    std::string filler_;
    std::string value_;
    char key_[kKeyBytes];
};

// ---------------------------------------------------------------------------
// Samples and tallies

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Latency samples of one op type, in nanoseconds. */
struct Samples {
    std::vector<uint64_t> ns;

    void add(uint64_t v) { ns.push_back(v); }

    /** Nearest-rank percentile @p p (0..100), in microseconds. */
    double
    percentileUs(double p) const
    {
        return percentileUs(p, 0, ns.size());
    }

    /**
     * The median, over @p windows equal stretches of consecutive
     * samples, of each stretch's percentile @p p, in microseconds. The
     * host's speed drifts; a slow spell that covers fewer than half the
     * stretches moves this little, where it would shift the pooled
     * percentile in proportion to its length.
     */
    double
    windowedPercentileUs(double p, size_t windows) const
    {
        if (ns.size() < windows * 100)
            return percentileUs(p);
        std::vector<double> each;
        for (size_t w = 0; w < windows; w++) {
            each.push_back(percentileUs(p, w * ns.size() / windows,
                                        (w + 1) * ns.size() / windows));
        }
        return median(each);
    }

    /** The highest percentile with at least ten samples beyond it. */
    double
    tailPercentile() const
    {
        if (ns.size() <= 10)
            return 0.0;
        return 100.0 * (1.0 - 10.0 / static_cast<double>(ns.size()));
    }

  private:
    /** Nearest-rank percentile @p p of samples [begin, end). */
    double
    percentileUs(double p, size_t begin, size_t end) const
    {
        if (begin >= end)
            return 0.0;
        std::vector<uint64_t> s(ns.begin() + begin, ns.begin() + end);
        size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(s.size())));
        rank = std::clamp<size_t>(rank, 1, s.size());
        std::nth_element(s.begin(), s.begin() + (rank - 1), s.end());
        return s[rank - 1] / 1e3;
    }
};

struct OpSamples {
    Samples get, put, scan;
};

/** Every store call the run makes, and how many failed. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Count one call, @p what on key @p index; the first failures
     *  are also named on standard error. */
    void
    record(bool ok, const char *what, uint64_t index)
    {
        attempted++;
        if (ok)
            return;
        if (failed++ < 10)
            fprintf(stderr, "miobench: %s of key %llu failed\n", what,
                    static_cast<unsigned long long>(index));
    }
};

// ---------------------------------------------------------------------------
// The store under test

/**
 * A default-options MioDB on fresh simulated devices, with a WAL
 * registry that outlives the store object so it can be power-failed
 * and reopened on the same NVM.
 */
class Harness
{
  public:
    Harness()
        : nvm_(std::make_unique<sim::NvmDevice>(
              sim::MemoryPerfModel::optaneDefault())),
          ssd_(std::make_unique<sim::SsdDevice>(
              sim::SsdPerfModel::nvmeDefault()))
    {
        db_ = std::make_unique<miodb::MioDB>(options_, nvm_.get(), ssd_.get(),
                                             &registry_);
    }
    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    KVStore &store() { return *db_; }
    const sim::NvmDevice &nvm() const { return *nvm_; }

    uint64_t
    deviceBytesWritten() const
    {
        return nvm_->meters().bytes_written + ssd_->meters().bytes_written;
    }

    /**
     * From now on, record NVM bytes written but not yet persisted, so a
     * power failure can roll them back. Earlier writes count as durable,
     * so call it on an idle store. It costs write time, which is why
     * the load and the measured phase run without it.
     */
    void recordUnpersisted() { nvm_->setCrashShadow(true); }

    /** Power failure: freeze, drop the object, roll back unpersisted
     *  NVM bytes. */
    void
    crash()
    {
        std::shared_ptr<miodb::NvmState> state = db_->nvmState();
        db_->simulateCrash();
        db_.reset();
        nvm_->discardUnpersisted();
        state_ = std::move(state);
    }

    /** WAL segments the next open finds (and replays). */
    size_t walSegments() const { return registry_.list().size(); }

    /** Reopen on the surviving NVM image and WAL. */
    void
    reopen()
    {
        db_ = std::make_unique<miodb::MioDB>(options_, nvm_.get(), ssd_.get(),
                                             &registry_, state_);
        state_.reset();
    }

  private:
    miodb::MioOptions options_;  // all defaults
    std::unique_ptr<sim::NvmDevice> nvm_;
    std::unique_ptr<sim::SsdDevice> ssd_;
    wal::WalRegistry registry_;
    std::shared_ptr<miodb::NvmState> state_;
    std::unique_ptr<miodb::MioDB> db_;  // last: destroyed before the devices
};

// ---------------------------------------------------------------------------
// Phases

struct Sizes {
    uint64_t keys;
    uint64_t ops;
};

Sizes
sizesFor(const Workload &w, const Args &a)
{
    Sizes s;
    s.keys = std::max<uint64_t>(
        1000, static_cast<uint64_t>(static_cast<double>(w.load_bytes) *
                                    a.scale) /
                  (kKeyBytes + w.value_size));
    s.ops = std::max<uint64_t>(
        1000, static_cast<uint64_t>(static_cast<double>(a.seconds) *
                                    static_cast<double>(w.ops_per_second) *
                                    a.scale));
    return s;
}

struct SetupResult {
    std::unique_ptr<Harness> harness;
    double seconds = 0;
    Samples load_puts;
    uint64_t load_device_bytes = 0;
    uint64_t load_user_bytes = 0;
};

/** Open a fresh store, load the model's keys in key order, wait idle. */
SetupResult
setup(DataModel &model, Tally &tally, Tracer &tr)
{
    ScopedSpan span(tr, "setup");
    SetupResult r;
    Stopwatch sw;
    {
        ScopedSpan s(tr, "setup.open");
        r.harness = std::make_unique<Harness>();
    }
    KVStore &db = r.harness->store();
    {
        ScopedSpan s(tr, "setup.load");
        r.load_puts.ns.reserve(model.keys());
        for (uint64_t i = 0; i < model.keys(); i++) {
            const Slice k = model.key(i);
            const Slice v = model.nextValue(i);
            tr.begin("load.put", true);
            const uint64_t t0 = nowNanos();
            const Status st = db.put(k, v);
            r.load_puts.add(nowNanos() - t0);
            tr.end();
            tally.record(st.isOk(), "load put", i);
            model.written(i, st.isOk());
        }
    }
    {
        ScopedSpan s(tr, "setup.wait_idle");
        db.waitIdle();
    }
    r.seconds = sw.elapsedSeconds();
    r.load_device_bytes = r.harness->deviceBytesWritten();
    r.load_user_bytes = snapshotOf(db.stats()).user_bytes_written;
    return r;
}

struct MeasureResult {
    uint64_t ops = 0;
    double measure_s = 0;
    double drain_s = 0;
    bool wrote = false;
    OpSamples lat;
    uint64_t scanned_entries = 0;
    uint64_t deref_get = 0;   //!< value-log reads during gets (traced)
    uint64_t deref_scan = 0;  //!< value-log reads during scans (traced)
    StatsSnapshot before, after;
    sim::NvmMeters nvm_before, nvm_after;
    uint64_t device_before = 0, device_after = 0;

    double
    throughputKops() const
    {
        return static_cast<double>(ops) / (measure_s + drain_s) / 1e3;
    }
};

/**
 * Issues single store calls for the measured phase: times each, traces
 * it (a no-op untraced) and checks its answer against the model.
 */
class Client
{
  public:
    Client(KVStore &db, DataModel &model, Tally &tally, Tracer &tr,
           MeasureResult &r)
        : db_(db), counters_(db.stats()), model_(model), tally_(tally),
          tr_(tr), r_(r)
    {}

    void
    get(uint64_t index, const Slice &key)
    {
        const uint64_t deref0 = derefReads();
        tr_.begin("kv.get");
        const uint64_t t0 = nowNanos();
        const Status st = db_.get(key, &got_);
        r_.lat.get.add(nowNanos() - t0);
        tr_.end();
        r_.deref_get += derefReads() - deref0;
        ScopedSpan c(tr_, "bench.check");
        tally_.record(model_.getOk(index, st, got_), "get", index);
    }

    void
    put(uint64_t index, const Slice &key, const Slice &value)
    {
        tr_.begin("kv.put");
        const uint64_t t0 = nowNanos();
        const Status st = db_.put(key, value);
        r_.lat.put.add(nowNanos() - t0);
        tr_.end();
        ScopedSpan c(tr_, "bench.check");
        tally_.record(st.isOk(), "put", index);
        model_.written(index, st.isOk());
    }

    void
    scan(uint64_t index, const Slice &key, int length)
    {
        const uint64_t deref0 = derefReads();
        tr_.begin("kv.scan");
        const uint64_t t0 = nowNanos();
        const Status st = db_.scan(key, length, &rows_);
        r_.lat.scan.add(nowNanos() - t0);
        tr_.end();
        r_.deref_scan += derefReads() - deref0;
        r_.scanned_entries += rows_.size();
        ScopedSpan c(tr_, "bench.check");
        tally_.record(model_.scanOk(index, length, st, rows_), "scan",
                      index);
    }

  private:
    /** Value-log reads so far; traced runs attribute them per call. */
    uint64_t
    derefReads() const
    {
        return tr_.enabled() ? counters_.vlog_deref_reads.load() : 0;
    }

    KVStore &db_;
    const StatsCounters &counters_;
    DataModel &model_;
    Tally &tally_;
    Tracer &tr_;
    MeasureResult &r_;
    std::string got_;
    std::vector<std::pair<std::string, std::string>> rows_;
};

/**
 * The measured phase and the drain. The phase runs @p mix_ops ops of
 * the seed's YCSB sequence (reads and updates). With w.probe_every set,
 * after every that many mix ops it adds one scan of w.probe_scan_length
 * from a uniform key, so the scan path is timed beside the mix over the
 * whole phase. Probes only read: the data the mix leaves is unchanged.
 */
MeasureResult
measure(const Workload &w, uint64_t mix_ops, uint64_t seed, Harness &h,
        DataModel &model, Tally &tally, Tracer &tr)
{
    MeasureResult r;
    KVStore &db = h.store();
    const ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::byName(w.mix);
    ycsb::WorkloadGenerator gen(spec, model.keys(), seed);
    Random probe_keys(seed ^ 0x9B0BEull);
    Client client(db, model, tally, tr, r);
    r.before = snapshotOf(db.stats());
    r.nvm_before = h.nvm().meters();
    r.device_before = h.deviceBytesWritten();
    r.lat.get.ns.reserve(mix_ops);
    r.lat.put.ns.reserve(mix_ops);

    Stopwatch sw;
    {
        ScopedSpan phase(tr, "measure");
        for (uint64_t i = 0; i < mix_ops; i++) {
            ScopedSpan op_span(tr, "op", true);
            tr.begin("ycsb.next");
            const ycsb::WorkloadGenerator::Op op = gen.next();
            const Slice key = model.key(op.key_index);
            const bool write = op.type == ycsb::OpType::kUpdate;
            const Slice value = write ? model.nextValue(op.key_index) : Slice();
            tr.end();
            if (write) {
                client.put(op.key_index, key, value);
                r.wrote = true;
            } else if (op.type == ycsb::OpType::kRead) {
                client.get(op.key_index, key);
            } else {
                fprintf(stderr, "miobench: unexpected YCSB op type %d\n",
                        static_cast<int>(op.type));
                exit(1);
            }
            r.ops++;
            if (w.probe_every != 0 && i % w.probe_every == w.probe_every - 1) {
                const uint64_t index = probe_keys.uniform(model.keys());
                client.scan(index, model.key(index), w.probe_scan_length);
                r.ops++;
            }
        }
    }
    r.measure_s = sw.elapsedSeconds();

    Stopwatch drain;
    {
        ScopedSpan phase(tr, "drain");
        db.waitIdle();
    }
    r.drain_s = drain.elapsedSeconds();
    r.after = snapshotOf(db.stats());
    r.nvm_after = h.nvm().meters();
    r.device_after = h.deviceBytesWritten();
    return r;
}

struct RecoveryResult {
    std::vector<double> total_ms, open_ms, first_get_ms;
    size_t wal_segments = 0;  //!< found by the last reopen
    StatsSnapshot reopened;  //!< counters of the last reopened store
};

/**
 * Power-fail and reopen the store kRecoveryCycles times. First it turns
 * on the record of unpersisted NVM writes, writes kRecoveryBacklog
 * overwrites and waits for idle, so no background work
 * is cut off mid-way and the WAL holds exactly the MemTable's records.
 * Each reopen replays and re-logs those same records, so every cycle
 * does the same work. A cycle is timed from the moment the failure has
 * been simulated (the crashed object torn down and unpersisted NVM
 * bytes rolled back -- work a real power failure does not do) through
 * the reopen to the first correct get. Each cycle starts with
 * kRecoveryPause.
 */
RecoveryResult
recover(Harness &h, DataModel &model, uint64_t seed, Tally &tally,
        Tracer &tr)
{
    ScopedSpan phase(tr, "recovery");
    RecoveryResult r;
    Random rnd(seed ^ 0x2ECu);
    std::string got;
    h.store().waitIdle();
    h.recordUnpersisted();
    {
        ScopedSpan s(tr, "recovery.backlog");
        for (uint64_t i = 0; i < kRecoveryBacklog; i++) {
            const uint64_t index = rnd.uniform(model.keys());
            const Slice key = model.key(index);
            const bool ok = h.store().put(key, model.nextValue(index)).isOk();
            tally.record(ok, "backlog put", index);
            model.written(index, ok);
        }
    }
    for (int c = 0; c < kRecoveryCycles; c++) {
        ScopedSpan cycle(tr, "recovery.cycle");
        const uint64_t index = rnd.uniform(model.keys());
        std::this_thread::sleep_for(kRecoveryPause);
        {
            ScopedSpan s(tr, "recovery.crash");
            h.store().waitIdle();
            h.crash();
        }
        r.wal_segments = h.walSegments();
        Stopwatch sw;
        {
            ScopedSpan s(tr, "recovery.open");
            h.reopen();
        }
        const double open_ms = sw.elapsedMicros() / 1e3;
        Status st;
        {
            ScopedSpan s(tr, "recovery.first_get");
            st = h.store().get(model.key(index), &got);
        }
        const double total_ms = sw.elapsedMicros() / 1e3;
        const bool ok = model.getOk(index, st, got);
        tally.record(ok, "first get after reopen", index);
        r.total_ms.push_back(total_ms);
        r.open_ms.push_back(open_ms);
        r.first_get_ms.push_back(total_ms - open_ms);
    }
    r.reopened = snapshotOf(h.store().stats());
    return r;
}

/** After the last reopen: a pass of consecutive scans over every key
 *  and a sample of random gets must return the latest acknowledged
 *  values. */
void
verify(Harness &h, DataModel &model, uint64_t seed, Tally &tally,
       Tracer &tr)
{
    ScopedSpan phase(tr, "verify");
    KVStore &db = h.store();
    {
        ScopedSpan s(tr, "verify.scan_pass");
        std::vector<std::pair<std::string, std::string>> rows;
        for (uint64_t start = 0; start < model.keys();
             start += kSweepScanLength) {
            ScopedSpan op(tr, "verify.scan", true);
            const Status st = db.scan(model.key(start), kSweepScanLength, &rows);
            tally.record(model.scanOk(start, kSweepScanLength, st, rows),
                         "verification scan", start);
        }
    }
    {
        ScopedSpan s(tr, "verify.get_sample");
        Random rnd(seed ^ 0x6E75ull);
        std::string got;
        for (uint64_t i = 0; i < kSweepGets; i++) {
            const uint64_t index = rnd.uniform(model.keys());
            ScopedSpan op(tr, "verify.get", true);
            const Status st = db.get(model.key(index), &got);
            tally.record(model.getOk(index, st, got), "verification get",
                         index);
        }
    }
}

// ---------------------------------------------------------------------------
// Output

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            value = 0.0;
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < entries_.size(); i++) {
            char buf[256];
            snprintf(buf, sizeof(buf),
                     "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", entries_[i].name.c_str(),
                     entries_[i].value, entries_[i].unit);
            out += buf;
        }
        return out + "}";
    }

  private:
    struct Entry {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
samplesDetail(const char *op, const Samples &s, size_t windows)
{
    char buf[256];
    const double tail = s.tailPercentile();
    snprintf(buf, sizeof(buf),
             "\"%s\": {\"samples\": %zu, \"windows\": %zu, "
             "\"p50_us\": %.3f, \"p99_us\": %.3f, \"tail_pct\": %.4f, "
             "\"tail_us\": %.3f}",
             op, s.ns.size(), windows, s.windowedPercentileUs(50, windows),
             s.windowedPercentileUs(99, windows), tail, s.percentileUs(tail));
    return buf;
}

/**
 * The end-to-end metrics. A latency percentile is the median of its
 * values over kWindows stretches of consecutive calls. A mix without
 * writes (C) times puts and write amplification over the load instead:
 * put latency pooled over every set-up's load, write amplification
 * over the set-up whose store was measured. The put median is a
 * per-layer metric (kv.put.p50_us): on C's 256 B puts it flips between
 * two levels from run to run.
 */
void
endToEnd(const Workload &w, const Sizes &sz, double setup_s,
         const Samples &load_puts, const SetupResult &kept,
         const MeasureResult &m, const RecoveryResult &rec,
         const DataModel &model, Metrics *out)
{
    const Samples &get = m.lat.get;
    const Samples &put = m.wrote ? m.lat.put : load_puts;
    const size_t put_windows = m.wrote ? kWindows : 1;
    const Samples &scan = m.lat.scan;
    out->add("throughput_kops", m.throughputKops(), "kop/s");
    out->add("get_p50_us", get.windowedPercentileUs(50, kWindows), "us");
    out->add("get_p99_us", get.windowedPercentileUs(99, kWindows), "us");
    out->add("put_p99_us", put.windowedPercentileUs(99, put_windows), "us");
    const double user = m.wrote ? static_cast<double>(
                                      m.after.user_bytes_written -
                                      m.before.user_bytes_written)
                                : static_cast<double>(kept.load_user_bytes);
    const double device =
        m.wrote ? static_cast<double>(m.device_after - m.device_before)
                : static_cast<double>(kept.load_device_bytes);
    out->add("write_amp", ratio(device, user), "ratio");
    out->add("nvm_space_amp",
             ratio(static_cast<double>(m.nvm_after.bytes_allocated),
                   static_cast<double>(model.liveUserBytes())),
             "ratio");
    out->add("recovery_ms", median(rec.total_ms), "ms");
    out->add("setup_s", setup_s, "s");

    printf("{\"detail\": {\"workload\": \"%s\", \"keys\": %llu, "
           "\"ops\": %llu, \"measure_s\": %.4f, \"drain_s\": %.4f, %s, "
           "%s, %s}}\n",
           w.name, static_cast<unsigned long long>(sz.keys),
           static_cast<unsigned long long>(sz.ops), m.measure_s, m.drain_s,
           samplesDetail("get", get, kWindows).c_str(),
           samplesDetail(m.wrote ? "put" : "put(load)", put, put_windows)
               .c_str(),
           samplesDetail("scan", scan, kWindows).c_str());
}

void
perLayer(const MeasureResult &m, const RecoveryResult &rec,
         const Tracer &tr, double untraced_kops, const Tally &tally,
         Metrics *out)
{
    const StatsSnapshot d = statsDelta(m.after, m.before);
    auto meanUs = [&](const char *span) {
        const Tracer::Aggregate a = tr.aggregate(span);
        return ratio(static_cast<double>(a.total_ns) / 1e3,
                     static_cast<double>(a.count));
    };
    out->add("ycsb.next_us", meanUs("ycsb.next"), "us");
    out->add("bench.check_us", meanUs("bench.check"), "us");

    const Tracer::Aggregate gets = tr.aggregate("kv.get");
    const Tracer::Aggregate puts = tr.aggregate("kv.put");
    const Tracer::Aggregate scans = tr.aggregate("kv.scan");
    for (const auto &[name, a] :
         {std::pair{"get", gets}, std::pair{"put", puts},
          std::pair{"scan", scans}}) {
        out->add(std::string("kv.") + name + ".calls",
                 static_cast<double>(a.count), "count");
        out->add(std::string("kv.") + name + ".busy_s", a.total_ns / 1e9, "s");
    }
    out->add("kv.put.p50_us", m.lat.put.percentileUs(50), "us");
    out->add("kv.scan.p50_us", m.lat.scan.percentileUs(50), "us");
    out->add("kv.scan.p99_us", m.lat.scan.percentileUs(99), "us");
    out->add("kv.scan.entries_per_call",
             ratio(static_cast<double>(m.scanned_entries),
                   static_cast<double>(scans.count)),
             "count");

    out->add("miodb.stall_ms",
             (d.interval_stall_ns + d.cumulative_stall_ns) / 1e6, "ms");
    out->add("miodb.write_slowdowns", d.write_slowdowns, "count");
    out->add("miodb.write_stalls", d.write_stalls, "count");
    out->add("miodb.busy_rejections", d.busy_rejections, "count");
    out->add("miodb.wal_bytes", d.wal_bytes_written, "bytes");
    out->add("miodb.flush.count", d.flush_count, "count");
    out->add("miodb.flush.ms", d.flush_ns / 1e6, "ms");
    out->add("miodb.flush.bytes", d.flushed_bytes, "bytes");
    out->add("miodb.zcm.count", d.zero_copy_merges, "count");
    out->add("miodb.lcm.count", d.lazy_copy_merges, "count");
    out->add("miodb.storage_bytes", d.storage_bytes_written, "bytes");
    out->add("miodb.bloom.table_skips_per_get",
             ratio(d.bloom_filter_skips, d.gets), "ratio");
    out->add("miodb.bloom.summary_skips_per_get",
             ratio(d.bloom_summary_skips, d.gets), "ratio");
    out->add("miodb.read_retries", d.read_retries, "count");

    out->add("vlog.deref_reads", d.vlog_deref_reads, "count");
    out->add("vlog.deref_reads_per_get",
             ratio(m.deref_get, gets.count), "ratio");
    out->add("vlog.deref_reads_per_scan_entry",
             ratio(m.deref_scan, m.scanned_entries), "ratio");
    out->add("vlog.appends", d.vlog_appends, "count");
    out->add("vlog.appended_bytes", d.vlog_appended_bytes, "bytes");
    out->add("vlog.gc_passes", d.vlog_gc_passes, "count");
    out->add("vlog.gc_relocated_bytes", d.vlog_gc_relocated_bytes, "bytes");
    out->add("vlog.gc_reclaimed_bytes", d.vlog_gc_reclaimed_bytes, "bytes");
    out->add("vlog.segments_live", m.after.vlog_segments_live, "count");

    out->add("mem.cache_hit_ratio",
             ratio(d.cache_hits, d.cache_hits + d.cache_misses), "ratio");
    out->add("mem.gov_memtable_bytes", m.after.gov_memtable_bytes, "bytes");
    out->add("mem.gov_nvm_buffer_bytes", m.after.gov_nvm_buffer_bytes,
             "bytes");
    out->add("mem.gov_vlog_bytes", m.after.gov_vlog_bytes, "bytes");

    using sched::JobClass;
    // The replay class runs after a reopen, so it is read from the
    // reopened store; the others over the measured phase and drain.
    const std::pair<const char *, JobClass> classes[] = {
        {"flush", JobClass::kFlush},
        {"zcm", JobClass::kZeroCopyMerge},
        {"lcm", JobClass::kLazyCopyMerge},
        {"vloggc", JobClass::kVlogGc},
        {"walrecycle", JobClass::kWalRecycle},
        {"walreplay", JobClass::kWalReplay},
    };
    for (const auto &[name, cls] : classes) {
        const int c = static_cast<int>(cls);
        const StatsSnapshot &s = cls == JobClass::kWalReplay ? rec.reopened : d;
        const std::string prefix = std::string("sched.") + name;
        out->add(prefix + ".jobs", s.sched_completed[c], "count");
        out->add(prefix + ".run_ms", s.sched_run_ns[c] / 1e6, "ms");
        out->add(prefix + ".queue_ms", s.sched_queue_ns[c] / 1e6, "ms");
    }
    out->add("sched.escalations", d.sched_escalations, "count");
    out->add("sched.drain_s", m.drain_s, "s");

    out->add("nvm.bytes_written",
             m.nvm_after.bytes_written - m.nvm_before.bytes_written, "bytes");
    out->add("nvm.bytes_read", m.nvm_after.bytes_read - m.nvm_before.bytes_read,
             "bytes");
    out->add("nvm.persist_ops",
             m.nvm_after.persist_ops - m.nvm_before.persist_ops, "count");
    out->add("nvm.live_bytes", m.nvm_after.bytes_allocated, "bytes");
    out->add("nvm.peak_bytes", m.nvm_after.peak_allocated, "bytes");
    out->add("proc.peak_rss_bytes", peakRssBytes(), "bytes");

    out->add("recovery.open_ms", median(rec.open_ms), "ms");
    out->add("recovery.first_get_ms", median(rec.first_get_ms), "ms");
    out->add("recovery.wal_segments", rec.wal_segments, "count");
    out->add("recovery.frames_replayed", rec.reopened.wal_frames_replayed,
             "count");
    out->add("recovery.frames_on_demand", rec.reopened.wal_frames_on_demand,
             "count");

    out->add("ops_failed_pct",
             100.0 * ratio(tally.failed, tally.attempted), "%");
    out->add("trace.overhead_pct",
             100.0 * (ratio(untraced_kops, m.throughputKops()) - 1.0), "%");
}

int
run(const Args &a)
{
    const Workload &w = *a.workload;
    const Sizes sz = sizesFor(w, a);
    const uint64_t need_mib =
        std::max<uint64_t>(256, static_cast<uint64_t>(kMemNeedMib * a.scale));
    const uint64_t avail_mib = memAvailableMib();
    if (avail_mib < need_mib) {
        fprintf(stderr,
                "miobench: %s needs ~%llu MiB but only %llu MiB are "
                "available; refusing to run\n",
                w.name, static_cast<unsigned long long>(need_mib),
                static_cast<unsigned long long>(avail_mib));
        return 3;
    }
    Tally tally;
    Metrics metrics;
    Tracer off(false);

    if (!a.trace) {
        std::vector<double> setup_s;
        Samples load_puts;
        SetupResult kept;
        DataModel model(w.value_size, sz.keys, a.seed);
        for (int i = 0; i < kSetups; i++) {
            kept = SetupResult{};  // free the previous store first
            model = DataModel(w.value_size, sz.keys, a.seed);  // empty store
            kept = setup(model, tally, off);
            setup_s.push_back(kept.seconds);
            load_puts.ns.insert(load_puts.ns.end(), kept.load_puts.ns.begin(),
                                kept.load_puts.ns.end());
        }
        const MeasureResult m =
            measure(w, sz.ops, a.seed, *kept.harness, model, tally, off);
        const RecoveryResult rec =
            recover(*kept.harness, model, a.seed, tally, off);
        verify(*kept.harness, model, a.seed, tally, off);
        endToEnd(w, sz, median(setup_s), load_puts, kept, m, rec, model,
                 &metrics);
    } else {
        double untraced_kops = 0;
        {
            DataModel model(w.value_size, sz.keys, a.seed);
            SetupResult s = setup(model, tally, off);
            untraced_kops =
                measure(w, sz.ops, a.seed, *s.harness, model, tally, off)
                    .throughputKops();
        }
        Tracer tr(true);
        DataModel model(w.value_size, sz.keys, a.seed);
        SetupResult s = setup(model, tally, tr);
        const MeasureResult m =
            measure(w, sz.ops, a.seed, *s.harness, model, tally, tr);
        const RecoveryResult rec = recover(*s.harness, model, a.seed, tally, tr);
        verify(*s.harness, model, a.seed, tally, tr);
        perLayer(m, rec, tr, untraced_kops, tally, &metrics);
        if (!a.trace_out.empty() && !tr.write(a.trace_out)) {
            fprintf(stderr, "miobench: cannot write %s\n", a.trace_out.c_str());
            return 1;
        }
    }

    printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
           "\"metrics\": %s}\n",
           tally.failed == 0 ? "true" : "false",
           static_cast<unsigned long long>(tally.attempted),
           static_cast<unsigned long long>(tally.failed),
           metrics.json().c_str());
    fflush(stdout);
    return 0;
}

} // namespace
} // namespace miobench

int
main(int argc, char **argv)
{
    return miobench::run(miobench::parseArgs(argc, argv));
}
