#include "skiplist/skiplist.h"

#include <cassert>
#include <cstring>

#include "util/hash.h"

namespace mio {

uint32_t
SkipList::entryChecksum(const Slice &key, uint64_t seq, EntryType type,
                        const Slice &value)
{
    // Seed folds in seq and type so metadata corruption (not just
    // payload bytes) is detected too; chained hash covers key+value.
    uint32_t seed = 0x8f1bbcdcu ^ static_cast<uint32_t>(seq) ^
                    static_cast<uint32_t>(seq >> 32) ^
                    (static_cast<uint32_t>(type) << 8);
    uint32_t h = hash32(key.data(), key.size(), seed);
    return hash32(value.data(), value.size(), h);
}

bool
SkipList::Node::checksumOk() const
{
    return checksum ==
           entryChecksum(key(), seq, entryType(), value());
}

SkipList::Node *
SkipList::newHeadNode(Arena *arena)
{
    size_t bytes =
        sizeof(Node) + kMaxHeight * sizeof(std::atomic<Node *>);
    char *mem = arena->allocate(bytes);
    assert(mem != nullptr && "arena too small for skip-list head");
    Node *head = reinterpret_cast<Node *>(mem);
    head->seq = 0;
    head->prefix = 0;
    head->key_len = 0;
    head->value_len = 0;
    head->height = kMaxHeight;
    head->type = static_cast<uint8_t>(EntryType::kValue);
    head->reserved = 0;
    head->checksum =
        entryChecksum(Slice(), 0, EntryType::kValue, Slice());
    for (int i = 0; i < kMaxHeight; i++)
        head->setNextRelaxed(i, nullptr);
    return head;
}

SkipList::SkipList(Arena *arena, uint64_t rng_seed)
    : arena_(arena), max_height_(1), entry_count_(0), rng_(rng_seed)
{
    head_ = newHeadNode(arena);
}

SkipList::SkipList(Node *head, uint64_t entry_count, uint64_t rng_seed)
    : head_(head), arena_(nullptr), max_height_(1),
      entry_count_(entry_count), rng_(rng_seed)
{
    int h = 1;
    for (int i = kMaxHeight - 1; i >= 0; i--) {
        if (head_->nextRelaxed(i) != nullptr) {
            h = i + 1;
            break;
        }
    }
    max_height_.store(h, std::memory_order_relaxed);
}

int
SkipList::randomHeight()
{
    int height = 1;
    while (height < kMaxHeight &&
           rng_.uniform(kBranching) == 0) {
        height++;
    }
    return height;
}

SkipList::Node *
SkipList::makeNode(Arena *arena, const Slice &key, uint64_t seq,
                   EntryType type, const Slice &value, int height)
{
    size_t bytes = sizeof(Node) +
                   height * sizeof(std::atomic<Node *>) + key.size() +
                   value.size();
    char *mem = arena->allocate(bytes);
    if (mem == nullptr)
        return nullptr;
    Node *n = reinterpret_cast<Node *>(mem);
    n->seq = seq;
    n->prefix = Node::keyPrefix(key);
    n->key_len = static_cast<uint32_t>(key.size());
    n->value_len = static_cast<uint32_t>(value.size());
    n->height = static_cast<uint16_t>(height);
    n->type = static_cast<uint8_t>(type);
    n->reserved = 0;
    n->checksum = entryChecksum(key, seq, type, value);
    for (int i = 0; i < height; i++)
        n->setNextRelaxed(i, nullptr);
    memcpy(n->keyData(), key.data(), key.size());
    memcpy(n->keyData() + key.size(), value.data(), value.size());
    return n;
}

SkipList::Node *
SkipList::makeNode(ChunkedNvmArena *arena, const Slice &key, uint64_t seq,
                   EntryType type, const Slice &value, int height)
{
    size_t bytes = sizeof(Node) +
                   height * sizeof(std::atomic<Node *>) + key.size() +
                   value.size();
    char *mem = arena->allocate(bytes);
    if (mem == nullptr)
        return nullptr;  // NVM budget exhausted (device denied growth)
    Node *n = reinterpret_cast<Node *>(mem);
    n->seq = seq;
    n->prefix = Node::keyPrefix(key);
    n->key_len = static_cast<uint32_t>(key.size());
    n->value_len = static_cast<uint32_t>(value.size());
    n->height = static_cast<uint16_t>(height);
    n->type = static_cast<uint8_t>(type);
    n->reserved = 0;
    n->checksum = entryChecksum(key, seq, type, value);
    for (int i = 0; i < height; i++)
        n->setNextRelaxed(i, nullptr);
    memcpy(n->keyData(), key.data(), key.size());
    memcpy(n->keyData() + key.size(), value.data(), value.size());
    return n;
}

SkipList::Node *
SkipList::insert(const Slice &key, uint64_t seq, EntryType type,
                 const Slice &value)
{
    assert(arena_ != nullptr && "insert() requires an owning arena");

    // Find predecessors for the exact (key asc, seq desc) position.
    const uint64_t kp = Node::keyPrefix(key);
    Splice splice;
    Node *x = head_;
    int level = maxHeight() - 1;
    for (int i = kMaxHeight - 1; i > level; i--)
        splice.prev[i] = head_;
    while (true) {
        Node *next = x->next(level);
        bool advance = false;
        if (next != nullptr) {
            // Warm the successor's header while comparing this node;
            // when we advance, its cache miss is already in flight.
            __builtin_prefetch(next->next(level));
            if (next->prefix != kp) {
                // Differing prefixes order exactly like the full keys;
                // the seq tiebreak only matters for equal keys.
                advance = next->prefix < kp;
            } else {
                advance = entryBefore(next->key(), next->seq, key, seq);
            }
        }
        if (advance) {
            x = next;
        } else {
            splice.prev[level] = x;
            if (level == 0)
                break;
            level--;
        }
    }

    int height = randomHeight();
    Node *n = makeNode(arena_, key, seq, type, value, height);
    if (n == nullptr)
        return nullptr;

    if (height > maxHeight()) {
        // Levels above the old max have head as predecessor.
        for (int i = maxHeight(); i < height; i++)
            splice.prev[i] = head_;
        noteHeight(height);
    }

    // Link bottom-up so a concurrent reader that descends to level 0
    // always sees the node once any shortcut leads near it.
    for (int i = 0; i < height; i++) {
        n->setNextRelaxed(i, splice.prev[i]->nextRelaxed(i));
        splice.prev[i]->setNext(i, n);
    }
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    return n;
}

SkipList::Splice
SkipList::headSplice() const
{
    Splice splice;
    for (int i = 0; i < kMaxHeight; i++)
        splice.prev[i] = head_;
    return splice;
}

SkipList::Node *
SkipList::findGreaterOrEqual(const Slice &key, Splice *splice) const
{
    *splice = headSplice();
    int compared = 0;
    return findGreaterOrEqualFrom(key, splice, &compared);
}

SkipList::Node *
SkipList::findGreaterOrEqualFrom(const Slice &key, Splice *splice,
                                 int *compared) const
{
    const uint64_t kp = Node::keyPrefix(key);
    int nodes = 0;
    auto before = [&](const Node *n) {
        if (n == nullptr)
            return false;
        nodes++;
        return n->prefix != kp ? n->prefix < kp
                               : n->key().compare(key) < 0;
    };
    const int top = maxHeight() - 1;

    // Climb: the finger node at each level sorts below key, and is the
    // exact predecessor as soon as its gap brackets key. `moved` says x
    // has left the finger: it then sorts at or after k0, past every
    // finger node below, so the walk down keeps it.
    int level = 0;
    Node *x = splice->prev[0];
    Node *below = nullptr;  // the climb's last node before key
    bool moved = false;
    while (true) {
        if (x == head_) {
            // Every finger node from here up is a head: descend from
            // the top, as a search from the head does.
            level = top;
            break;
        }
        Node *next = x->next(level);
        if (!before(next)) {
            if (level == 0) {
                *compared += nodes;
                return next;
            }
            level--;
            x = below;
            moved = true;
            break;
        }
        if (level == top) {
            x = next;
            moved = true;
            break;
        }
        below = next;
        level++;
        x = splice->prev[level];
    }

    // Walk back down.
    while (true) {
        Node *next = x->next(level);
        if (next != nullptr) {
            // Warm the successor's header while comparing this node;
            // when we advance, its cache miss is already in flight.
            __builtin_prefetch(next->next(level));
        }
        if (before(next)) {
            x = next;
            moved = true;
            continue;
        }
        splice->prev[level] = x;
        if (level == 0) {
            *compared += nodes;
            return next;
        }
        level--;
        if (!moved)
            x = splice->prev[level];
    }
}

bool
SkipList::get(const Slice &key, std::string *value, EntryType *type,
              uint64_t *seq, bool verify, bool *corrupt) const
{
    Splice ignored;
    return readMatch(findGreaterOrEqual(key, &ignored), key, value, type,
                     seq, verify, corrupt);
}

bool
SkipList::getFrom(const Node *start, const Slice &key,
                  std::string *value, EntryType *type, uint64_t *seq,
                  bool verify, bool *corrupt, int *hops) const
{
    const uint64_t kp = Node::keyPrefix(key);
    const Node *n = (start != nullptr ? start : head_)->next(0);
    int visited = 1;
    while (n != nullptr) {
        visited++;
        const bool before = n->prefix != kp ? n->prefix < kp
                                            : n->key().compare(key) < 0;
        if (!before)
            break;
        n = n->next(0);
    }
    *hops = visited;
    return readMatch(n, key, value, type, seq, verify, corrupt);
}

bool
SkipList::readMatch(const Node *n, const Slice &key, std::string *value,
                    EntryType *type, uint64_t *seq, bool verify,
                    bool *corrupt)
{
    if (n == nullptr || n->key() != key)
        return false;
    if (verify && !n->checksumOk()) {
        if (corrupt != nullptr)
            *corrupt = true;
        return false;
    }
    *type = n->entryType();
    if (seq != nullptr)
        *seq = n->seq;
    if (n->entryType() != EntryType::kDeletion)
        value->assign(n->value().data(), n->value().size());
    return true;
}

const SkipList::Node *
SkipList::findEntry(const Slice &key) const
{
    Splice ignored;
    Node *n = findGreaterOrEqual(key, &ignored);
    if (n == nullptr || n->key() != key)
        return nullptr;
    return n;
}

void
SkipList::linkNode(Node *n, Splice *splice)
{
    int height = n->height;
    if (height > maxHeight()) {
        for (int i = maxHeight(); i < height; i++)
            splice->prev[i] = head_;
        noteHeight(height);
    }
    for (int i = 0; i < height; i++) {
        n->setNextRelaxed(i, splice->prev[i]->nextRelaxed(i));
        splice->prev[i]->setNext(i, n);
    }
    entry_count_.fetch_add(1, std::memory_order_relaxed);
}

SkipList::Node *
SkipList::unlinkFirst()
{
    Node *n = head_->next(0);
    if (n == nullptr)
        return nullptr;
    // Top-down: while upper shortcuts are being cut, the node is still
    // reachable via lower levels, so a concurrent descent never misses
    // it (paper Sec. 4.7 corner case 1).
    for (int i = n->height - 1; i >= 0; i--) {
        // The first node's predecessor at every one of its levels is
        // the head by definition of "first".
        head_->setNext(i, n->nextRelaxed(i));
    }
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    return n;
}

size_t
SkipList::relocate(Node *head, ptrdiff_t delta, const char *old_base,
                   size_t old_used)
{
    size_t fixed = 0;
    auto in_old = [&](const Node *p) {
        const char *c = reinterpret_cast<const char *>(p);
        return c >= old_base && c < old_base + old_used;
    };
    auto fix = [&](Node *node) {
        for (int i = 0; i < node->height; i++) {
            Node *t = node->nextRelaxed(i);
            if (t != nullptr && in_old(t)) {
                node->setNextRelaxed(
                    i, reinterpret_cast<Node *>(
                           reinterpret_cast<char *>(t) + delta));
                fixed++;
            }
        }
    };
    // The level-0 chain reaches every node exactly once.
    fix(head);
    for (Node *n = head->nextRelaxed(0); n != nullptr;
         n = n->nextRelaxed(0)) {
        fix(n);
    }
    return fixed;
}

} // namespace mio
