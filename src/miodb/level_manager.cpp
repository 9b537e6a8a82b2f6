#include "miodb/level_manager.h"

#include <algorithm>

namespace mio::miodb {

BufferLevel::BufferLevel()
{
    // Publish an empty manifest eagerly so readers never see nullptr
    // and the retry protocol (compare the pointer after a miss) works
    // from the very first push.
    current_ = std::make_shared<const LevelManifest>();
    published_.store(current_.get(), std::memory_order_release);
}

std::shared_ptr<const BloomFilter>
BufferLevel::buildSummaryLocked(const LevelManifest &m) const
{
    std::vector<std::shared_ptr<const BloomFilter>> members;
    members.reserve(m.tables.size() + 3);
    for (const auto &ref : m.tables)
        members.push_back(ref.bloom);
    if (m.merge) {
        members.push_back(m.merge_newt_bloom);
        members.push_back(m.merge_oldt_bloom);
    }
    if (m.migrating)
        members.push_back(m.migrating_bloom);
    if (members.empty())
        return nullptr;
    for (const auto &f : members) {
        if (f == nullptr || !members[0]->sameGeometry(*f))
            return nullptr;  // OR would be unsound; never skip
    }
    if (members.size() == 1)
        return members[0];  // immutable, so sharing is free
    auto sum = std::make_shared<BloomFilter>(*members[0]);
    for (size_t i = 1; i < members.size(); i++)
        sum->merge(*members[i]);
    return sum;
}

void
BufferLevel::republishLocked(std::shared_ptr<const BloomFilter> added)
{
    auto m = std::make_shared<LevelManifest>();
    m->tables.reserve(tables_.size());
    for (auto it = tables_.rbegin(); it != tables_.rend(); ++it) {
        LevelManifest::TableRef ref;
        ref.table = *it;
        ref.bloom = (*it)->bloomRef();
        ref.fence = (*it)->fence();
        if (ref.fence != nullptr)
            m->fence_bytes += ref.fence->memoryBytes();
        ref.min_key = (*it)->minKey();
        ref.max_key = (*it)->maxKey();
        m->tables.push_back(std::move(ref));
    }
    m->merge = merge_;
    if (merge_) {
        m->merge_newt_bloom = merge_->newt->bloomRef();
        m->merge_oldt_bloom = merge_->oldt->bloomRef();
    }
    m->migrating = migrating_;
    if (migrating_) {
        m->migrating_bloom = migrating_->bloomRef();
        m->migrating_fence = migrating_->fence();
        if (m->migrating_fence != nullptr)
            m->fence_bytes += m->migrating_fence->memoryBytes();
        m->migrating_min = migrating_->minKey();
        m->migrating_max = migrating_->maxKey();
    }
    if (summary_enabled_) {
        const std::shared_ptr<const BloomFilter> &prev =
            current_->summary;
        if (added != nullptr && prev != nullptr &&
            prev->sameGeometry(*added)) {
            // Membership grew by one table: one OR extends the proof.
            auto sum = std::make_shared<BloomFilter>(*prev);
            sum->merge(*added);
            m->summary = std::move(sum);
        } else if (added != nullptr && !current_->hasMembers()) {
            m->summary = std::move(added);
        } else {
            m->summary = buildSummaryLocked(*m);
        }
    }
    std::shared_ptr<const LevelManifest> old = std::move(current_);
    current_ = std::move(m);
    published_.store(current_.get(), std::memory_order_release);
    if (retire_)
        retire_(std::move(old));
}

void
BufferLevel::push(std::shared_ptr<PMTable> table)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const BloomFilter> added = table->bloomRef();
    tables_.push_back(std::move(table));
    republishLocked(std::move(added));
}

std::shared_ptr<const LevelManifest>
BufferLevel::manifestSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
}

void
BufferLevel::setRetireCallback(
    std::function<void(std::shared_ptr<const void>)> cb)
{
    std::lock_guard<std::mutex> lock(mu_);
    retire_ = std::move(cb);
}

void
BufferLevel::enableBloomSummary(bool enabled)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (summary_enabled_ == enabled)
        return;
    summary_enabled_ = enabled;
    republishLocked(nullptr);
}

BufferLevel::Snapshot
BufferLevel::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot snap;
    snap.tables.reserve(tables_.size());
    for (auto it = tables_.rbegin(); it != tables_.rend(); ++it)
        snap.tables.push_back(*it);
    snap.merge = merge_;
    snap.migrating = migrating_;
    return snap;
}

size_t
BufferLevel::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return tables_.size();
}

bool
BufferLevel::busy() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return merge_ != nullptr || migrating_ != nullptr;
}

std::shared_ptr<MergeOp>
BufferLevel::beginMerge()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (merge_ != nullptr || tables_.size() < 2)
        return nullptr;
    if (tables_[0]->isQuarantined() || tables_[1]->isQuarantined())
        return nullptr;  // corrupt tables stay pinned in place
    auto op = std::make_shared<MergeOp>();
    op->oldt = tables_[0];
    op->newt = tables_[1];
    // Capture the pair's combined range before any reader can see the
    // op; it is invariant for the whole merge (absorb only ever
    // extends oldt toward this union).
    op->min_key = op->oldt->minKey();
    if (std::string k = op->newt->minKey();
        Slice(k).compare(Slice(op->min_key)) < 0)
        op->min_key = std::move(k);
    op->max_key = op->oldt->maxKey();
    if (std::string k = op->newt->maxKey();
        Slice(k).compare(Slice(op->max_key)) > 0)
        op->max_key = std::move(k);
    tables_.pop_front();
    tables_.pop_front();
    merge_ = op;
    // Register the op on both participants BEFORE any node moves:
    // snapshot iterators anchored on either table consult this to
    // chase entries through the in-flight merge.
    op->oldt->setActiveMerge(op);
    op->newt->setActiveMerge(op);
    // Membership is unchanged (the pair moved deque -> MergeOp), but
    // readers need the op published to run the three-step protocol.
    republishLocked(nullptr);
    return op;
}

void
BufferLevel::finishMerge(const std::shared_ptr<MergeOp> &op)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (merge_ != op)
        return;
    // Both participants shed the op (see PMTable::retireMerge). A
    // zero-copy merge emptied the newtable into the oldtable, so a
    // pinned iterator on it follows a link there; a copying merge left
    // both inputs whole, and iterators keep reading their own lists.
    op->oldt->retireMerge();
    op->newt->retireMerge(op->done.load(std::memory_order_acquire)
                              ? op->oldt
                              : nullptr);
    merge_ = nullptr;
    republishLocked(nullptr);
}

std::shared_ptr<PMTable>
BufferLevel::beginMigration()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (migrating_ != nullptr || tables_.empty())
        return nullptr;
    if (tables_.front()->isQuarantined())
        return nullptr;  // corrupt tables stay pinned in place
    migrating_ = tables_.front();
    tables_.pop_front();
    republishLocked(nullptr);
    return migrating_;
}

std::shared_ptr<PMTable>
BufferLevel::migratingTable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return migrating_;
}

void
BufferLevel::finishMigration()
{
    std::lock_guard<std::mutex> lock(mu_);
    migrating_ = nullptr;
    republishLocked(nullptr);
}

size_t
BufferLevel::arenaBytes(std::unordered_set<const Arena *> *seen) const
{
    std::unordered_set<const Arena *> local;
    if (seen == nullptr)
        seen = &local;
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto &t : tables_)
        total += t->arenaBytes(seen);
    if (merge_) {
        total += merge_->newt->arenaBytes(seen);
        total += merge_->oldt->arenaBytes(seen);
    }
    if (migrating_)
        total += migrating_->arenaBytes(seen);
    return total;
}

std::vector<std::shared_ptr<PMTable>>
BufferLevel::unfencedTables() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<PMTable>> out;
    for (const auto &t : tables_) {
        if (t->fence() == nullptr)
            out.push_back(t);
    }
    if (migrating_ && migrating_->fence() == nullptr)
        out.push_back(migrating_);
    return out;
}

bool
BufferLevel::publishFence(const std::shared_ptr<PMTable> &table,
                          std::shared_ptr<const FenceIndex> fence)
{
    std::lock_guard<std::mutex> lock(mu_);
    // Resident and migrating lists are never relinked, and a table
    // only ever moves down, so membership here proves the walk saw
    // the list the fence now describes.
    if (table != migrating_ &&
        std::find(tables_.begin(), tables_.end(), table) ==
            tables_.end()) {
        return false;
    }
    table->setFence(std::move(fence));
    republishLocked(nullptr);
    return true;
}

void
BufferLevel::dropFences()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &t : tables_)
        t->setFence(nullptr);
    if (merge_) {
        merge_->newt->setFence(nullptr);
        merge_->oldt->setFence(nullptr);
    }
    if (migrating_)
        migrating_->setFence(nullptr);
    republishLocked(nullptr);
}

void
LevelManager::dropFences()
{
    for (auto &level : levels_)
        level.dropFences();
}

size_t
LevelManager::fenceBytes() const
{
    size_t total = 0;
    for (const auto &level : levels_)
        total += level.manifestSnapshot()->fence_bytes;
    return total;
}

bool
LevelManager::quiescent() const
{
    // Resting state: no merges in flight, no level holds a mergeable
    // pair, and the last level (which migrates single tables to the
    // repository) is drained. One leftover table per upper level is
    // the paper's steady light-load state.
    for (size_t i = 0; i < levels_.size(); i++) {
        if (levels_[i].busy())
            return false;
        size_t limit = (i + 1 == levels_.size()) ? 0 : 1;
        if (levels_[i].size() > limit)
            return false;
    }
    return true;
}

bool
LevelManager::anyLevelBusy() const
{
    for (const auto &level : levels_)
        if (level.busy())
            return true;
    return false;
}

size_t
LevelManager::totalTables() const
{
    size_t total = 0;
    for (const auto &level : levels_)
        total += level.size();
    return total;
}

size_t
LevelManager::totalArenaBytes() const
{
    // One set across levels: a merge result is published one level
    // down before its pair leaves the level above.
    std::unordered_set<const Arena *> seen;
    size_t total = 0;
    for (const auto &level : levels_)
        total += level.arenaBytes(&seen);
    return total;
}

} // namespace mio::miodb
