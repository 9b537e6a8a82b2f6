/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded only in the benchmark's own code, around each
 * call it makes into a layer of the store (never inside src/). Every
 * span feeds a per-name aggregate (count, total time). Spans are also
 * kept whole (id, parent, name, start, end) and written out when the
 * run ends, so the span tree can be checked offline: every phase span,
 * but only the first kMaxBulk spans opened as (or under) a bulk span,
 * which bounds the memory a per-op trace takes. A disabled tracer records nothing and costs one branch.
 * Span names must be string literals (they are kept by pointer).
 */
#ifndef MIOBENCH_TRACE_H_
#define MIOBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace miobench {

class Tracer
{
  public:
    /** Bulk spans kept for the trace file (the aggregates see all). */
    static constexpr size_t kMaxBulk = 200000;
    /** Parent id of a root span. */
    static constexpr uint32_t kNoParent = 0;

    struct Aggregate {
        uint64_t count = 0;
        uint64_t total_ns = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Open a span inside the innermost open one (spans nest strictly;
     * the single-threaded benchmark opens and closes them in stack
     * order). A @p bulk span (one per op) and every span opened inside
     * it count against kMaxBulk.
     */
    void
    begin(const char *name, bool bulk = false)
    {
        if (!enabled_)
            return;
        const uint32_t parent = open_.empty() ? kNoParent : open_.back().id;
        bulk = bulk || (!open_.empty() && open_.back().bulk);
        // Decided at open, so a recorded span's parent is recorded too.
        const bool keep = !bulk || bulk_kept_++ < kMaxBulk;
        open_.push_back({next_id_++, parent, name, bulk, keep, mio::nowNanos()});
    }

    /** Close the innermost open span. */
    void
    end()
    {
        if (!enabled_)
            return;
        const Open o = open_.back();
        open_.pop_back();
        const uint64_t end_ns = mio::nowNanos();
        Aggregate &a = slot(o.name);
        a.count++;
        a.total_ns += end_ns - o.start_ns;
        if (o.keep)
            recorded_.push_back({o.id, o.parent, o.name, o.start_ns, end_ns});
    }

    /** Count and total time of every span named @p name. */
    Aggregate
    aggregate(const char *name) const
    {
        for (const auto &[n, a] : aggregates_) {
            if (strcmp(n, name) == 0)
                return a;
        }
        return Aggregate{};
    }

    /** Write the recorded spans as JSON lines; false on I/O error. */
    bool
    write(const std::string &path) const
    {
        FILE *f = fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        for (const Span &s : recorded_) {
            fprintf(f,
                    "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                    "\"start_ns\": %llu, \"end_ns\": %llu}\n",
                    s.id, s.parent, s.name,
                    static_cast<unsigned long long>(s.start_ns),
                    static_cast<unsigned long long>(s.end_ns));
        }
        return fclose(f) == 0;
    }

  private:
    struct Open {
        uint32_t id;
        uint32_t parent;
        const char *name;
        bool bulk;
        bool keep;  //!< written to the trace file
        uint64_t start_ns;
    };
    struct Span {
        uint32_t id;
        uint32_t parent;
        const char *name;
        uint64_t start_ns;
        uint64_t end_ns;
    };

    Aggregate &
    slot(const char *name)
    {
        for (auto &[n, a] : aggregates_) {
            if (n == name)
                return a;
        }
        aggregates_.emplace_back(name, Aggregate{});
        return aggregates_.back().second;
    }

    bool enabled_;
    uint32_t next_id_ = 1;
    std::vector<Open> open_;
    std::vector<Span> recorded_;
    size_t bulk_kept_ = 0;
    std::vector<std::pair<const char *, Aggregate>> aggregates_;
};

/** Opens a span on construction and closes it when it leaves scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, bool bulk = false)
        : tracer_(tracer)
    {
        tracer_.begin(name, bulk);
    }
    ~ScopedSpan() { tracer_.end(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
};

} // namespace miobench

#endif // MIOBENCH_TRACE_H_
