#include "miodb/value_log.h"

#include <cstring>

#include "mem/memory_governor.h"
#include "sim/failpoint.h"
#include "util/coding.h"
#include "util/hash.h"

namespace mio::miodb {

namespace {

/** Frame header: [u32 crc][u32 key_len][u32 value_len]. */
constexpr size_t kFrameHeader = 12;

/**
 * Seal footer in a segment's last bytes, outside [0, used):
 * [u64 used][u64 payload_bytes][u32 crc]. The CRC also covers the
 * segment's id, so a footer an earlier segment of this log left in a
 * recycled region never verifies.
 */
constexpr size_t kFooterSize = 20;
constexpr uint32_t kFooterSeed = 0x5ea1f007;

uint32_t
footerCrc(const char *footer, uint64_t segment_id)
{
    char buf[24];
    memcpy(buf, footer, 16);
    encodeFixed64(buf + 16, segment_id);
    return hash32(buf, sizeof(buf), kFooterSeed);
}

/**
 * A frame's CRC: its lengths and key, seeded with the value's
 * checksum -- the checksum its ValuePointer carries -- so one pass
 * over the value serves both.
 */
uint32_t
frameCrc(const char *frame, size_t key_len, uint32_t value_sum)
{
    return hash32(frame + 4, 8 + key_len, value_sum);
}

/** One frame that passed a walk's verification. */
struct Frame {
    size_t offset = 0;  //!< frame start inside the segment
    uint32_t key_len = 0;
    uint32_t value_len = 0;
    uint32_t value_sum = 0;  //!< recordChecksum of the value
};

/**
 * Walk the frames of [base, base + used) in append order, verifying
 * each one's CRC; @p visit sees every good frame. @return where the
 * walk stopped: @p used when every frame verified, else the start of
 * the first frame that is cut short or fails its CRC (frame
 * boundaries past it are untrustworthy).
 */
template <typename Visit>
size_t
walkFrames(const char *base, size_t used, Visit &&visit)
{
    size_t off = 0;
    while (off + kFrameHeader <= used) {
        const char *frame = base + off;
        Frame f;
        f.offset = off;
        f.key_len = decodeFixed32(frame + 4);
        f.value_len = decodeFixed32(frame + 8);
        const size_t frame_len =
            kFrameHeader + static_cast<size_t>(f.key_len) + f.value_len;
        if (frame_len > used - off)
            break;
        f.value_sum =
            recordChecksum(frame + kFrameHeader + f.key_len, f.value_len);
        if (decodeFixed32(frame) != frameCrc(frame, f.key_len, f.value_sum))
            break;
        visit(f);
        off += frame_len;
    }
    return off;
}

} // namespace

void
ValuePointer::encodeTo(char *dst) const
{
    encodeFixed64(dst, segment_id);
    encodeFixed64(dst + 8, offset);
    encodeFixed32(dst + 16, length);
    encodeFixed32(dst + 20, checksum);
}

std::string
ValuePointer::encode() const
{
    std::string s(kEncodedSize, '\0');
    encodeTo(s.data());
    return s;
}

bool
ValuePointer::decode(const Slice &in, ValuePointer *out)
{
    if (in.size() != kEncodedSize)
        return false;
    out->segment_id = decodeFixed64(in.data());
    out->offset = decodeFixed64(in.data() + 8);
    out->length = decodeFixed32(in.data() + 16);
    out->checksum = decodeFixed32(in.data() + 20);
    return true;
}

ValueLog::ValueLog(sim::NvmDevice *nvm, StatsCounters *stats,
                   size_t segment_bytes)
    : nvm_(nvm), stats_(stats),
      segment_bytes_(segment_bytes < 4096 ? 4096 : segment_bytes)
{}

ValueLog::~ValueLog() = default;

std::shared_ptr<ValueLog::Segment>
ValueLog::newSegmentLocked(size_t min_bytes)
{
    size_t cap = segment_bytes_;
    if (cap < min_bytes + kFooterSize)
        cap = min_bytes + kFooterSize;  // an oversized record's segment
    // Budget admission before touching the device: the governor's
    // kVlog limit is the vlog_budget_bytes ceiling, and denial here
    // surfaces as Status::busy from append, same as device exhaustion.
    if (governor_ != nullptr &&
        governor_->wouldExceed(mem::SubBudget::kVlog, cap))
        return nullptr;
    char *base = nvm_->allocateRegion(cap);
    if (base == nullptr)
        return nullptr;
    if (governor_ != nullptr)
        governor_->charge(mem::SubBudget::kVlog, cap);
    auto seg = std::make_shared<Segment>();
    seg->id = next_segment_id_++;
    seg->base = base;
    seg->capacity = cap;
    seg->nvm = nvm_;
    segments_[seg->id] = seg;
    stats_->vlog_segments_created.fetch_add(1, std::memory_order_relaxed);
    stats_->vlog_segments_live.fetch_add(1, std::memory_order_relaxed);
    // A recycled region may still hold the footer of another log's
    // segment with this id (ids restart in every log); clear the slot
    // durably before any frame of this segment is acknowledged.
    const char zeros[kFooterSize] = {};
    char *slot = footerSlot(*seg);
    nvm_->write(slot, zeros, kFooterSize, sim::WriteKind::kImage);
    nvm_->persist(slot, kFooterSize);
    return seg;
}

char *
ValueLog::footerSlot(const Segment &seg)
{
    return seg.base + seg.capacity - kFooterSize;
}

void
ValueLog::writeFooter(const Segment &seg) const
{
    char footer[kFooterSize];
    encodeFixed64(footer, seg.used.load(std::memory_order_relaxed));
    encodeFixed64(footer + 8,
                  seg.payload_bytes.load(std::memory_order_relaxed));
    encodeFixed32(footer + 16, footerCrc(footer, seg.id));
    char *slot = footerSlot(seg);
    nvm_->write(slot, footer, kFooterSize, sim::WriteKind::kFramed);
    // A crash here leaves the segment footerless (the shadow model
    // rolls the footer back), so the next open rescans it.
    MIO_FAILPOINT("vlog.seal");
    nvm_->persist(slot, kFooterSize);
}

bool
ValueLog::readFooter(const Segment &seg, size_t *used,
                     uint64_t *payload) const
{
    nvm_->chargeRead(kFooterSize);
    const char *slot = footerSlot(seg);
    if (decodeFixed32(slot + 16) != footerCrc(slot, seg.id))
        return false;
    *used = decodeFixed64(slot);
    *payload = decodeFixed64(slot + 8);
    return *used <= seg.capacity - kFooterSize && *payload <= *used;
}

std::shared_ptr<ValueLog::Segment>
ValueLog::findSegment(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(id);
    return it == segments_.end() ? nullptr : it->second;
}

Status
ValueLog::append(const Slice &key, const Slice &value, ValuePointer *out)
{
    const size_t frame_len = kFrameHeader + key.size() + value.size();
    const uint32_t value_sum = recordChecksum(value.data(), value.size());
    std::string frame(frame_len, '\0');
    encodeFixed32(frame.data() + 4, static_cast<uint32_t>(key.size()));
    encodeFixed32(frame.data() + 8, static_cast<uint32_t>(value.size()));
    memcpy(frame.data() + kFrameHeader, key.data(), key.size());
    memcpy(frame.data() + kFrameHeader + key.size(), value.data(),
           value.size());
    encodeFixed32(frame.data(),
                  frameCrc(frame.data(), key.size(), value_sum));

    // Appends run one at a time from reservation to persist, so frames
    // become durable in segment order: a frame a crash tears is always
    // the last one of the head, and the recovery rescan's truncation
    // at the first bad CRC can never hide a later, acknowledged frame.
    std::lock_guard<std::mutex> append_lock(append_mu_);
    std::shared_ptr<Segment> seg;
    {
        std::lock_guard<std::mutex> lock(mu_);
        seg = head_;
    }
    if (seg != nullptr && seg->used.load(std::memory_order_relaxed) +
                                  frame_len + kFooterSize >
                              seg->capacity) {
        // Seal the full head: its footer persists before the next
        // head opens, so every sealed segment but the newest has one.
        writeFooter(*seg);
        std::lock_guard<std::mutex> lock(mu_);
        seg->sealed = true;
        if (head_ == seg)
            head_ = nullptr;
        seg = nullptr;
    }
    if (seg == nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        head_ = newSegmentLocked(frame_len);
        if (head_ == nullptr)
            return Status::busy("vlog segment allocation denied");
        seg = head_;
    }
    const size_t off = seg->used.load(std::memory_order_relaxed);

    nvm_->write(seg->base + off, frame.data(), frame_len,
                sim::WriteKind::kFramed);
    // A crash here is a torn append: the frame bytes are written but
    // not persist-covered, so the shadow model rolls them back; `used`
    // never covered them, and the next append reuses the range.
    MIO_FAILPOINT("vlog.append");
    nvm_->persist(seg->base + off, frame_len);
    seg->payload_bytes.fetch_add(value.size(), std::memory_order_relaxed);
    seg->live_bytes.fetch_add(value.size(), std::memory_order_relaxed);
    // Publish the tail only now: readers, GC and the scrubber (acquire
    // on `used`) see persisted frames and nothing else.
    seg->used.store(off + frame_len, std::memory_order_release);

    out->segment_id = seg->id;
    out->offset = off + kFrameHeader + key.size();
    out->length = static_cast<uint32_t>(value.size());
    out->checksum = value_sum;

    stats_->vlog_appends.fetch_add(1, std::memory_order_relaxed);
    stats_->vlog_appended_bytes.fetch_add(frame_len,
                                          std::memory_order_relaxed);
    // The frame is persistent-media traffic like a flush or compaction
    // write; charging it here keeps StatsSnapshot::writeAmplification
    // honest for the separated build.
    stats_->storage_bytes_written.fetch_add(frame_len,
                                            std::memory_order_relaxed);
    return Status::ok();
}

Status
ValueLog::read(const Slice &key, const ValuePointer &ptr,
               std::string *value) const
{
    std::shared_ptr<Segment> seg = findSegment(ptr.segment_id);
    if (seg == nullptr)
        return Status::notFound("vlog segment unlinked");
    const size_t used = seg->used.load(std::memory_order_acquire);
    const size_t prefix = kFrameHeader + key.size();
    if (ptr.offset < prefix || ptr.length > used ||
        ptr.offset > used - ptr.length)
        return Status::corruption("vlog pointer out of segment bounds");
    const char *frame = seg->base + ptr.offset - prefix;
    const char *payload = seg->base + ptr.offset;
    nvm_->chargeRead(prefix + ptr.length);
    // The value's checksum is the pointer's; the frame CRC seeded with
    // it also binds the payload to this key and these lengths, so a
    // damaged header or key, or a pointer into the wrong frame, is
    // caught here too.
    const uint32_t value_sum = recordChecksum(payload, ptr.length);
    if (value_sum != ptr.checksum ||
        decodeFixed32(frame + 4) != key.size() ||
        decodeFixed32(frame + 8) != ptr.length ||
        memcmp(frame + kFrameHeader, key.data(), key.size()) != 0 ||
        decodeFixed32(frame) != frameCrc(frame, key.size(), value_sum)) {
        stats_->corruptions_detected.fetch_add(1,
                                               std::memory_order_relaxed);
        return Status::corruption("vlog frame checksum mismatch");
    }
    value->assign(payload, ptr.length);
    stats_->vlog_deref_reads.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
}

void
ValueLog::noteDead(const ValuePointer &ptr)
{
    std::shared_ptr<Segment> seg = findSegment(ptr.segment_id);
    if (seg == nullptr)
        return;
    // Saturating decrement: recovery resets live_bytes conservatively,
    // so replayed merges may re-drop versions already counted dead.
    uint64_t cur = seg->live_bytes.load(std::memory_order_relaxed);
    while (cur > 0) {
        uint64_t dec = cur < ptr.length ? cur : ptr.length;
        if (seg->live_bytes.compare_exchange_weak(
                cur, cur - dec, std::memory_order_relaxed))
            break;
    }
}

uint64_t
ValueLog::pickGcVictim(double trigger_ratio) const
{
    if (trigger_ratio <= 0.0)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t best = 0;
    double best_frac = trigger_ratio;
    for (const auto &[id, seg] : segments_) {
        if (!seg->sealed || seg->gc_queued)
            continue;
        uint64_t payload =
            seg->payload_bytes.load(std::memory_order_relaxed);
        uint64_t live = seg->live_bytes.load(std::memory_order_relaxed);
        double frac = payload == 0
                          ? 0.0
                          : static_cast<double>(live) /
                                static_cast<double>(payload);
        if (frac < best_frac) {
            best_frac = frac;
            best = id;
        }
    }
    return best;
}

bool
ValueLog::hasGcCandidate(double trigger_ratio) const
{
    return pickGcVictim(trigger_ratio) != 0;
}

void
ValueLog::markGcQueued(uint64_t segment_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(segment_id);
    if (it != segments_.end())
        it->second->gc_queued = true;
}

bool
ValueLog::collectRecords(uint64_t segment_id,
                         std::vector<Record> *out) const
{
    std::shared_ptr<Segment> seg = findSegment(segment_id);
    if (seg == nullptr)
        return false;
    const size_t used = seg->used.load(std::memory_order_acquire);
    nvm_->chargeRead(used);
    return walkFrames(seg->base, used, [&](const Frame &f) {
        Record r;
        r.key.assign(seg->base + f.offset + kFrameHeader, f.key_len);
        r.ptr.segment_id = segment_id;
        r.ptr.offset = f.offset + kFrameHeader + f.key_len;
        r.ptr.length = f.value_len;
        r.ptr.checksum = f.value_sum;
        out->push_back(std::move(r));
    }) == used;
}

uint64_t
ValueLog::unlinkSegment(uint64_t segment_id)
{
    std::shared_ptr<Segment> seg;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = segments_.find(segment_id);
        if (it == segments_.end())
            return 0;
        seg = it->second;
        segments_.erase(it);
        if (head_ == seg)
            head_ = nullptr;
        if (governor_ != nullptr)
            governor_->release(mem::SubBudget::kVlog, seg->capacity);
    }
    stats_->vlog_segments_unlinked.fetch_add(1,
                                             std::memory_order_relaxed);
    stats_->vlog_segments_live.fetch_sub(1, std::memory_order_relaxed);
    uint64_t reclaimed = seg->capacity;
    stats_->vlog_gc_reclaimed_bytes.fetch_add(reclaimed,
                                              std::memory_order_relaxed);
    return reclaimed;  // region freed when the last reader releases
}

size_t
ValueLog::segmentCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return segments_.size();
}

uint64_t
ValueLog::liveBytes(uint64_t segment_id) const
{
    std::shared_ptr<Segment> seg = findSegment(segment_id);
    return seg == nullptr
               ? 0
               : seg->live_bytes.load(std::memory_order_relaxed);
}

char *
ValueLog::segmentBase(uint64_t segment_id) const
{
    std::shared_ptr<Segment> seg = findSegment(segment_id);
    return seg == nullptr ? nullptr : seg->base;
}

void
ValueLog::rebind(sim::NvmDevice *nvm, StatsCounters *stats)
{
    std::lock_guard<std::mutex> lock(mu_);
    nvm_ = nvm;
    stats_ = stats;
    uint64_t live = 0;
    for (const auto &[id, seg] : segments_) {
        (void)id;
        seg->nvm = nvm;
        live++;
    }
    // The gauge lives in the (new) stats sink now; reinstate it there.
    stats_->vlog_segments_live.store(live, std::memory_order_relaxed);
}

void
ValueLog::rebindGovernor(std::shared_ptr<mem::MemoryGovernor> governor)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (governor_ == governor)
        return;
    uint64_t cap = 0;
    for (const auto &[id, seg] : segments_) {
        (void)id;
        cap += seg->capacity;
    }
    // Move the outstanding reservation, not just the pointer: the log
    // (and its segments) outlives store objects inside NvmState. The
    // shared_ptr hand-off here is what makes a torn open safe -- if
    // the previous ctor threw mid-recovery, its governor only survived
    // (with this charge still on its books) because we held it.
    if (governor_ != nullptr)
        governor_->release(mem::SubBudget::kVlog, cap);
    governor_ = std::move(governor);
    if (governor_ != nullptr)
        governor_->charge(mem::SubBudget::kVlog, cap);
}

uint64_t
ValueLog::capacityBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t cap = 0;
    for (const auto &[id, seg] : segments_) {
        (void)id;
        cap += seg->capacity;
    }
    return cap;
}

void
ValueLog::rescanSegment(Segment *seg) const
{
    uint64_t payload = 0;
    const size_t end =
        walkFrames(seg->base, seg->used.load(std::memory_order_relaxed),
                   [&](const Frame &f) { payload += f.value_len; });
    seg->used.store(end, std::memory_order_relaxed);
    seg->payload_bytes.store(payload, std::memory_order_relaxed);
    // Conservative: everything that survived the rescan is presumed
    // live; GC probes against the index establish the truth later.
    seg->live_bytes.store(payload, std::memory_order_relaxed);
}

void
ValueLog::recoverAfterCrash()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<Segment>> footerless;
    for (const auto &[id, seg] : segments_) {
        (void)id;
        // The pending-unlink list was in-memory and is gone; a queued
        // segment must become pickable again to be re-discovered.
        seg->gc_queued = false;
        size_t used = 0;
        uint64_t payload = 0;
        if (readFooter(*seg, &used, &payload)) {
            // Sealed: its frames all persisted before the footer did.
            seg->used.store(used, std::memory_order_relaxed);
            seg->payload_bytes.store(payload, std::memory_order_relaxed);
            seg->live_bytes.store(payload, std::memory_order_relaxed);
            seg->sealed = true;
            continue;
        }
        nvm_->chargeRead(seg->used.load(std::memory_order_relaxed));
        rescanSegment(seg.get());
        footerless.push_back(seg);
    }
    // Only the newest segment can have been cut short by the crash:
    // it stays the head, and appends continue past its verified tail.
    // An older footerless segment lost its footer to a media fault;
    // it is sealed again.
    head_ = nullptr;
    for (const auto &seg : footerless) {
        if (seg == segments_.rbegin()->second) {
            seg->sealed = false;
            head_ = seg;
        } else {
            writeFooter(*seg);
            seg->sealed = true;
        }
    }
}

uint64_t
ValueLog::scrub(uint64_t *bytes_verified) const
{
    std::vector<std::shared_ptr<Segment>> segs;
    {
        std::lock_guard<std::mutex> lock(mu_);
        segs.reserve(segments_.size());
        for (const auto &[id, seg] : segments_) {
            (void)id;
            segs.push_back(seg);
        }
    }
    uint64_t mismatches = 0;
    uint64_t scanned = 0;
    for (const auto &seg : segs) {
        // Every frame below the acquired tail is persisted; appends
        // landing meanwhile write past it, outside this scan.
        const size_t used = seg->used.load(std::memory_order_acquire);
        nvm_->chargeRead(used);
        const size_t end = walkFrames(seg->base, used, [](const Frame &) {});
        scanned += end;
        if (end != used)
            mismatches++;
    }
    if (bytes_verified != nullptr)
        *bytes_verified += scanned;
    if (mismatches > 0)
        stats_->corruptions_detected.fetch_add(
            mismatches, std::memory_order_relaxed);
    return mismatches;
}

} // namespace mio::miodb
