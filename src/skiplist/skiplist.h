/**
 * @file
 * Arena-based skip list ordered by (user key ascending, sequence
 * descending). One data structure serves as both the DRAM MemTable and
 * the NVM PMTable (paper design principle 1): nodes store key, value,
 * sequence number, and entry type inline, and all node memory comes
 * from arenas so the whole table can be relocated with one memcpy plus
 * a pointer-swizzling pass (one-piece flushing, paper Sec. 4.2).
 *
 * Concurrency model: a single writer mutates the list (the owning
 * MemTable writer or one compaction thread); any number of readers
 * traverse concurrently without locks. All next-pointer updates use
 * release stores and traversals use acquire loads, and nodes are linked
 * bottom-up / unlinked top-down so a reader that always descends to
 * level 0 observes a consistent first-match (paper Sec. 4.3).
 *
 * The splice/unlink primitives used by zero-copy compaction are part of
 * the public surface: the compaction engine in src/miodb relinks nodes
 * across tables without copying KV bytes.
 */
#ifndef MIO_SKIPLIST_SKIPLIST_H_
#define MIO_SKIPLIST_SKIPLIST_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "mem/arena.h"
#include "util/random.h"
#include "util/slice.h"

namespace mio {

/**
 * Kind of a KV entry; deletions are tombstones that shadow older data.
 * kValuePointer entries carry an encoded miodb::ValuePointer instead of
 * the value bytes: the payload lives in the NVM value log and the
 * pointer flows through flushes/merges/SSTables like any small value.
 */
enum class EntryType : uint8_t {
    kDeletion = 0,
    kValue = 1,
    kValuePointer = 2,
};

class SkipList
{
  public:
    static constexpr int kMaxHeight = 17;
    static constexpr int kBranching = 4;

    /**
     * Skip-list node. Variable-size record laid out in arena memory:
     *   [Node header][next_[height] pointers][key bytes][value bytes]
     * The layout contains no out-of-arena pointers except next_ links,
     * which relocate() fixes after a one-piece flush.
     */
    struct Node {
        uint64_t seq;
        /**
         * First 8 key bytes, big-endian, zero-padded: differing
         * prefixes order exactly like the full keys (see keyPrefix()),
         * so a descent usually decides its branch from the header cache
         * line without dereferencing the out-of-line key bytes.
         */
        uint64_t prefix;
        uint32_t key_len;
        uint32_t value_len;
        uint16_t height;
        uint8_t type;
        uint8_t reserved;
        /**
         * Integrity checksum over (key bytes, value bytes, seq, type),
         * computed once when the node is built (makeNode) and carried
         * for free ever after: one-piece flushing memcpys the header
         * with the payload, and zero-copy/lazy-copy merges relink
         * nodes without touching payload bytes. Verified on reads
         * (MioOptions::verify_read_checksums) and by the background
         * scrubber to turn silent NVM corruption into
         * Status::corruption.
         */
        uint32_t checksum;

        std::atomic<Node *> *nexts() {
            return reinterpret_cast<std::atomic<Node *> *>(this + 1);
        }
        const std::atomic<Node *> *nexts() const {
            return reinterpret_cast<const std::atomic<Node *> *>(this + 1);
        }
        Node *next(int level) const {
            return nexts()[level].load(std::memory_order_acquire);
        }
        void setNext(int level, Node *n) {
            nexts()[level].store(n, std::memory_order_release);
        }
        Node *nextRelaxed(int level) const {
            return nexts()[level].load(std::memory_order_relaxed);
        }
        void setNextRelaxed(int level, Node *n) {
            nexts()[level].store(n, std::memory_order_relaxed);
        }

        char *keyData() {
            return reinterpret_cast<char *>(nexts() + height);
        }
        const char *keyData() const {
            return reinterpret_cast<const char *>(nexts() + height);
        }
        Slice key() const { return Slice(keyData(), key_len); }
        Slice value() const {
            return Slice(keyData() + key_len, value_len);
        }
        EntryType entryType() const {
            return static_cast<EntryType>(type);
        }

        /** Recompute and compare this node's payload checksum. */
        bool checksumOk() const;

        /** Total bytes this node occupies in its arena. */
        size_t
        allocationSize() const
        {
            return sizeof(Node) + height * sizeof(std::atomic<Node *>) +
                   key_len + value_len;
        }

        /**
         * Inline comparison prefix for @p key. Big-endian packing with
         * zero padding means that for any two keys a, b:
         * keyPrefix(a) != keyPrefix(b) implies
         * sign(keyPrefix(a) - keyPrefix(b)) == sign(a.compare(b)) --
         * including short keys and embedded NULs, because a padding
         * zero can only tie with a real NUL byte, never win against
         * one. Equal prefixes decide nothing; fall back to the full
         * compare.
         */
        static uint64_t
        keyPrefix(const Slice &key)
        {
            uint64_t p = 0;
            const size_t n = key.size() < 8 ? key.size() : 8;
            for (size_t i = 0; i < n; i++) {
                p |= static_cast<uint64_t>(
                         static_cast<uint8_t>(key.data()[i]))
                     << (56 - 8 * i);
            }
            return p;
        }
    };

    /**
     * Create an empty list whose head node is allocated from @p arena.
     * The head is the arena's first allocation, so its offset is
     * deterministic for relocation.
     */
    explicit SkipList(Arena *arena, uint64_t rng_seed = 0xdecafbad);

    /**
     * Wrap an already-populated relocated image: @p head points at the
     * head node inside the new arena (after relocate() fixed pointers).
     */
    SkipList(Node *head, uint64_t entry_count, uint64_t rng_seed = 1);

    SkipList(const SkipList &) = delete;
    SkipList &operator=(const SkipList &) = delete;

    /**
     * Insert an entry. Sequence numbers must be unique per key within
     * one list; newer entries carry larger sequence numbers.
     * @return the linked node, or nullptr when the arena is exhausted
     *         (caller rotates tables).
     */
    Node *insert(const Slice &key, uint64_t seq, EntryType type,
                 const Slice &value);

    /**
     * Point lookup: finds the newest entry for @p key.
     * @return true if any entry exists; *type distinguishes tombstones.
     *
     * With @p verify set, the matching node's checksum is recomputed
     * first; on mismatch the lookup reports a miss and sets
     * @p corrupt so the caller surfaces Status::corruption instead of
     * falling through to stale data.
     */
    bool get(const Slice &key, std::string *value, EntryType *type,
             uint64_t *seq = nullptr, bool verify = false,
             bool *corrupt = nullptr) const;

    /**
     * Point lookup by a level-0 walk from @p start, a node of this
     * list whose key sorts strictly below @p key (nullptr: the head),
     * instead of a top-down descent. Same result and verify/corrupt
     * contract as get(); @p hops receives the number of nodes the
     * walk dereferenced, @p start (or the head) included.
     */
    bool getFrom(const Node *start, const Slice &key, std::string *value,
                 EntryType *type, uint64_t *seq, bool verify,
                 bool *corrupt, int *hops) const;

    /** Newest node for @p key, or nullptr (scrubber/verify hook). */
    const Node *findEntry(const Slice &key) const;

    /** The checksum makeNode stamps into Node::checksum. */
    static uint32_t entryChecksum(const Slice &key, uint64_t seq,
                                  EntryType type, const Slice &value);

    Node *head() const { return head_; }
    uint64_t entryCount() const
    {
        return entry_count_.load(std::memory_order_relaxed);
    }
    void setEntryCount(uint64_t n)
    {
        entry_count_.store(n, std::memory_order_relaxed);
    }
    void bumpEntryCount(int64_t delta)
    {
        entry_count_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** First data node, or nullptr when empty. */
    Node *first() const { return head_->next(0); }
    bool empty() const { return first() == nullptr; }

    /**
     * Fix all next pointers of a relocated image in place.
     *
     * @param head head node inside the relocated image
     * @param delta new_base - old_base, added to every pointer that
     *        pointed into [old_base, old_base + old_used)
     * @return number of pointers rewritten (for NVM write metering)
     */
    static size_t relocate(Node *head, ptrdiff_t delta,
                           const char *old_base, size_t old_used);

    // ------------------------------------------------------------------
    // Splice primitives used by the zero-copy compaction engine.
    // ------------------------------------------------------------------

    /** Predecessor set for a position, one node per level. */
    struct Splice {
        Node *prev[kMaxHeight];
    };

    /** A splice of heads: the start of a search from the top. */
    Splice headSplice() const;

    /**
     * Find the first node that is >= (key, any seq) -- i.e. the newest
     * entry of @p key if present, else the first node of the next key.
     * Fills @p splice with the last node < target at every level.
     */
    Node *findGreaterOrEqual(const Slice &key, Splice *splice) const;

    /**
     * Finger search: findGreaterOrEqual() resumed from @p splice
     * instead of the head. On entry @p splice is the finger -- the
     * splice this search returned for an earlier key k0 <= @p key, or
     * headSplice(). Since then only nodes >= k0 may have been linked,
     * and no finger node unlinked. The search climbs from level 0 to
     * the first level whose gap brackets @p key (the finger is exact
     * there and above), then walks back down; a head finger descends
     * from the top as findGreaterOrEqual() does. Returns the same
     * successor and leaves the same splice as findGreaterOrEqual(),
     * and adds to @p compared the number of nodes whose keys it
     * compared -- the NVM reads the search makes.
     */
    Node *findGreaterOrEqualFrom(const Slice &key, Splice *splice,
                                 int *compared) const;

    /**
     * Link the detached node @p n (whose height/key/seq are already
     * set) into this list right after @p splice, before @p succ.
     * Bottom-up with release stores; safe against concurrent readers.
     */
    void linkNode(Node *n, Splice *splice);

    /**
     * Unlink this list's first data node (top-down). Caller must have
     * published the node elsewhere (insertion mark) first if readers
     * may still need it. @return the unlinked node, or nullptr.
     */
    Node *unlinkFirst();

    /** Height of the tallest node ever linked (relaxed read OK). */
    int
    maxHeight() const
    {
        return max_height_.load(std::memory_order_relaxed);
    }
    void
    noteHeight(int h)
    {
        int cur = max_height_.load(std::memory_order_relaxed);
        while (h > cur && !max_height_.compare_exchange_weak(
                              cur, h, std::memory_order_relaxed)) {
        }
    }

    /**
     * Allocate and initialize a detached node in @p arena (no links).
     * @return nullptr if the arena is full.
     */
    static Node *makeNode(Arena *arena, const Slice &key, uint64_t seq,
                          EntryType type, const Slice &value, int height);
    /** Same, from a growable NVM arena; nullptr when the device's
     *  capacity budget denies the growth. */
    static Node *makeNode(ChunkedNvmArena *arena, const Slice &key,
                          uint64_t seq, EntryType type, const Slice &value,
                          int height);

    /** Draw a random height with P(h >= k+1) = (1/kBranching)^k. */
    int randomHeight();

    /**
     * Ordering predicate for (key asc, seq desc): true iff entry a
     * precedes entry b.
     */
    static bool
    entryBefore(const Slice &a_key, uint64_t a_seq, const Slice &b_key,
                uint64_t b_seq)
    {
        int c = a_key.compare(b_key);
        if (c != 0)
            return c < 0;
        return a_seq > b_seq;
    }

    /**
     * In-order iterator over (key, seq, type, value) entries. Reads are
     * safe concurrently with the single writer.
     */
    class Iterator
    {
      public:
        explicit Iterator(const SkipList *list)
            : list_(list), node_(nullptr)
        {}

        bool valid() const { return node_ != nullptr; }
        void seekToFirst() { node_ = list_->head_->next(0); }
        /** Position at the first entry >= (key, newest). */
        void
        seek(const Slice &key)
        {
            Splice ignored;
            node_ = list_->findGreaterOrEqual(key, &ignored);
        }
        void next() { node_ = node_->next(0); }

        Slice key() const { return node_->key(); }
        Slice value() const { return node_->value(); }
        uint64_t seq() const { return node_->seq; }
        EntryType entryType() const { return node_->entryType(); }
        const Node *node() const { return node_; }

      private:
        const SkipList *list_;
        Node *node_;
    };

  private:
    Node *newHeadNode(Arena *arena);
    /** get()'s tail: report @p n if it holds @p key. */
    static bool readMatch(const Node *n, const Slice &key,
                          std::string *value, EntryType *type,
                          uint64_t *seq, bool verify, bool *corrupt);

    Node *head_;
    Arena *arena_;  //!< nullptr for relocated/attached lists
    std::atomic<int> max_height_;
    std::atomic<uint64_t> entry_count_;
    Random rng_;
};

} // namespace mio

#endif // MIO_SKIPLIST_SKIPLIST_H_
