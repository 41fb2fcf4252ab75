/**
 * @file
 * Last-level cache model.
 *
 * A single shared, set-associative, write-back LLC with per-line
 * owner tracking (which core touched the line last). Owner tracking
 * is what prices the HotCalls shared-memory channel: a line bouncing
 * between the requester's and responder's cores pays a cache-to-cache
 * transfer rather than a local hit. Private L1/L2 levels are folded
 * into the "owned hit" cost — the microbenchmarks the paper builds on
 * only distinguish cached / cross-core / DRAM.
 */

#ifndef HC_MEM_CACHE_HH
#define HC_MEM_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/units.hh"

namespace hc::mem {

/** Classification of a cache access. */
enum class CacheOutcome {
    OwnedHit,  //!< present, last touched by the accessing core
    SharedHit, //!< present, last touched by a different core
    Miss,      //!< not present: DRAM fetch
};

/**
 * Set-associative LLC with LRU replacement.
 *
 * Each set's metadata but its tags sits in one 64-byte set header
 * (SetHeader): a 16-bit fingerprint, an owner byte and a dirty bit per
 * way, and the ways in LRU order. A lookup reads the set's valid mask
 * and its header, and a full tag only where a valid way's fingerprint
 * matches; a miss takes its victim from the header.
 */
class CacheModel
{
  public:
    /** Widest associativity: a set header has 16 way slots. */
    static constexpr int kMaxWays = 16;
    /** Highest core id: a set header keeps owners in bytes. */
    static constexpr CoreId kMaxCore = 255;

    /** Result of one access, including any eviction it caused. */
    struct Result {
        CacheOutcome outcome = CacheOutcome::Miss;
        bool evicted = false;      //!< a valid line was replaced
        bool evictedDirty = false; //!< ... and it was dirty
        Addr evictedLine = 0;      //!< line address of the victim
    };

    /**
     * @param size       total capacity in bytes
     * @param ways       associativity, 1 to kMaxWays
     * @param line_size  line size in bytes (power of two)
     */
    CacheModel(std::uint64_t size, int ways,
               std::uint64_t line_size = kCacheLineSize);

    /**
     * Look up (and on miss, fill) the line containing @p addr.
     *
     * @param core   accessing core, 0 to kMaxCore (updates the owner
     *               on every access)
     * @param addr   byte address
     * @param write  marks the line dirty
     */
    Result access(CoreId core, Addr addr, bool write);

    /**
     * Bulk-span access: probe @p count consecutive lines starting at
     * @p first_line (line-aligned), invoking @p on_line(line_addr,
     * result) for each in ascending order.
     *
     * Bit-identical to @p count calls of access(): same outcomes,
     * same hit/miss counters, same LRU order, same evictions, in the
     * same order. What it saves is the per-line hash and set lookup
     * for spans the span-hit memo has already proved fully resident
     * and owned by @p core: those replay as straight metadata updates.
     * The memo is keyed by span start, validated against a
     * modification generation (modGen_) bumped by every residency or
     * ownership change, so any interleaving fill, flush, or cross-core
     * touch since the recording falls back to the full per-line
     * probes.
     */
    template <typename OnLine>
    void accessSpan(CoreId core, Addr first_line, std::uint64_t count,
                    bool write, OnLine &&on_line)
    {
        if (count == 0)
            return;
        const auto it = spanMemos_.find(first_line);
        if (it != spanMemos_.end()) {
            SpanMemo &memo = it->second;
            if (memo.count == count && memo.core == core &&
                (memo.gen == modGen_ ||
                 revalidate(memo, first_line, core))) {
                // Replay: every line is resident and already owned by
                // this core (recorded or just revalidated), so each
                // access is exactly an OwnedHit of access(): dirty |=
                // write, most recently used, ++useCounter_, ++hits_.
                Result hit;
                hit.outcome = CacheOutcome::OwnedHit;
                const Way *ways = memo.ways.data();
                Addr line = first_line;
                for (std::uint64_t i = 0; i < count;
                     ++i, line += lineSize_) {
                    use(ways[i], write, 0);
                    on_line(line, hit);
                }
                useCounter_ += count;
                hits_ += count;
                return;
            }
        }

        // Slow path: per-line probes (identical to access()), while
        // capturing the touched ways for a future replay. A span is
        // only memoizable when none of its own earlier lines were
        // evicted by a later fill — otherwise not every line is
        // resident once the span completes.
        scratchWays_.clear();
        bool memoizable = count >= kSpanMemoMinLines;
        if (memoizable)
            scratchWays_.reserve(count);
        const std::uint64_t span_bytes = count * lineSize_;
        Addr line = first_line;
        for (std::uint64_t i = 0; i < count; ++i, line += lineSize_) {
            Way way = 0;
            const Result result = accessImpl(core, line, write, way);
            if (memoizable) {
                if (result.evicted &&
                    result.evictedLine - first_line < span_bytes)
                    memoizable = false;
                else
                    scratchWays_.push_back(way);
            }
            on_line(line, result);
        }
        if (memoizable)
            recordSpan(first_line, core);
    }

    /**
     * Bulk-span flush: flushLine() over @p count consecutive lines
     * from @p first_line, invoking @p on_line(line_addr, was_dirty)
     * for each in ascending order. Bit-identical state and results; a
     * valid span memo turns the per-line set lookups into direct way
     * invalidations.
     */
    template <typename OnLine>
    void flushSpan(Addr first_line, std::uint64_t count,
                   OnLine &&on_line)
    {
        if (count == 0)
            return;
        const auto it = spanMemos_.find(first_line);
        if (it != spanMemos_.end() && it->second.count == count &&
            (it->second.gen == modGen_ ||
             revalidate(it->second, first_line, it->second.core))) {
            const Way *ways = it->second.ways.data();
            Addr line = first_line;
            for (std::uint64_t i = 0; i < count; ++i, line += lineSize_)
                on_line(line, invalidate(ways[i]));
            ++modGen_;
            spanMemoLines_ -= count;
            spanMemos_.erase(it);
            return;
        }
        Addr line = first_line;
        for (std::uint64_t i = 0; i < count; ++i, line += lineSize_)
            on_line(line, flushLine(line));
    }

    /**
     * @return true when access(@p core, @p addr, ...) would be an
     * OwnedHit through @p core's most-recently-used memo: one that
     * changes nothing but the line's place in its set's LRU order, its
     * dirty bit and the use clock and hit count (replayOwnedHits()).
     */
    bool ownedMemoHit(CoreId core, Addr addr) const
    {
        const auto idx = static_cast<std::size_t>(core);
        if (idx >= memo_.size())
            return false;
        const CoreMemo &memo = memo_[idx];
        return memo.line == lineAddr(addr) && tags_[memo.way] == memo.line &&
               owned(memo.way, core);
    }

    /**
     * Apply @p count accesses that ownedMemoHit() certified, as @p count
     * access() calls would leave the cache. They ran among other cores'
     * certified hits after use clock @p since (useClock() then), the
     * last of them as the @p last-th: each core's hits are applied by
     * their own call, and the calls together advance the use clock by
     * every access they replay. One batch's calls must arrive back to
     * back, the first at use clock @p since, with no other access in
     * between (asserted): a line's place in the LRU order is that of
     * its last hit, and among the lines used after @p since only the
     * batch's earlier calls can have placed one later.
     */
    void replayOwnedHits(CoreId core, Addr addr, bool write,
                         std::uint64_t count, std::uint64_t since,
                         std::uint64_t last);

    /** @return the use clock: accesses so far, replayed ones included,
     *  which orders a replay batch's hits (replayOwnedHits()). */
    std::uint64_t useClock() const { return useCounter_; }

    /** @return true if the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    /**
     * Evict the line containing @p addr if resident.
     * @return true when the line was present and dirty.
     */
    bool flushLine(Addr addr);

    /** Invalidate the whole cache (cold-cache experiments). */
    void flushAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /**
     * A way's index: set * kMaxWays + slot, where slot is the way's
     * place in its set (below the associativity). It indexes tags_
     * directly and names its set header and slot there. Ways never
     * move, so an index stays bound to its way for the cache's
     * lifetime.
     */
    using Way = std::uint32_t;

    /** find()'s answer for a line that is not resident. */
    static constexpr Way kNoWay = ~Way{0};

    /**
     * The tag of an invalid way. Not line-aligned, so no line address
     * equals it: a tag match alone proves a way valid.
     */
    static constexpr Addr kNoLine = ~Addr{0};

    /**
     * A set's metadata but its tags, in one host cache line. Slot s of
     * the set (way set * kMaxWays + s) has the fingerprint in bits
     * 16 * (s % 4) of fingerprints[s / 4], the owner byte owners[s] and
     * dirty bit s. `order` lists the slots from the most recently used
     * (low nibble) to the least; slots at or past the associativity keep
     * their own ranks. A header is written whole by the first fill into
     * an empty set and is read only while the set holds a line.
     */
    struct alignas(64) SetHeader {
        std::uint64_t fingerprints[kMaxWays / 4];
        std::uint64_t order;
        std::uint8_t owners[kMaxWays]; //!< core that touched the line last
        std::uint16_t dirty;
    };
    static_assert(sizeof(SetHeader) == 64);

    /** @return @p way's slot in its set. */
    static unsigned slotOf(Way way) { return way % kMaxWays; }
    SetHeader &headerOf(Way way) { return headers_[way / kMaxWays]; }
    const SetHeader &headerOf(Way way) const
    {
        return headers_[way / kMaxWays];
    }
    bool owned(Way way, CoreId core) const
    {
        return headerOf(way).owners[slotOf(way)] == core;
    }

    /**
     * Per-core most-recently-used way. Spin-polling a HotCalls
     * channel or sweeping a buffer hits the same line back to back;
     * the memo turns those accesses into one tag compare (which also
     * proves the way valid, so any eviction in between is caught)
     * instead of a hash and a set lookup.
     */
    struct CoreMemo {
        Addr line = ~Addr{0};
        Way way = 0;
    };

    /**
     * One recorded span: proof that, as of generation gen, the count
     * lines from first were all resident and owned by core, at the
     * recorded ways. modGen_ equality is what certifies the
     * residency/ownership claims are still true.
     */
    struct SpanMemo {
        std::uint64_t count = 0;
        CoreId core = 0;
        std::uint64_t gen = 0;
        std::vector<Way> ways;
    };

    /** Spans shorter than this are not worth a memo entry. */
    static constexpr std::uint64_t kSpanMemoMinLines = 8;
    /** Size cap for the memo map (cleared wholesale when reached). */
    static constexpr std::size_t kSpanMemoMaxEntries = 1024;

    /**
     * Re-certify a stale span memo with a read-only walk: the memo's
     * claims hold again iff every recorded way still holds its line
     * and is owned by @p core. Ways never move, a line is never
     * resident in two ways at once, and a way whose tag matches is
     * valid and necessarily in that line's set — so a successful walk
     * proves a per-line probe of each line would be an OwnedHit on
     * exactly the recorded way. Mutates nothing but memo.gen (on
     * success), so a failed walk leaves the slow path's state
     * evolution untouched.
     */
    bool revalidate(SpanMemo &memo, Addr first_line, CoreId core)
    {
        Addr line = first_line;
        for (const Way way : memo.ways) {
            if (tags_[way] != line || !owned(way, core))
                return false;
            line += lineSize_;
        }
        memo.gen = modGen_;
        return true;
    }

    /**
     * Store scratchWays_ as the memo of the span at @p first_line.
     * The memos together hold at most one way per cache line: a
     * record that would pass that, or the entry cap, clears them all
     * first.
     */
    void recordSpan(Addr first_line, CoreId core);

    Addr lineAddr(Addr addr) const { return addr & ~(lineSize_ - 1); }

    /** Where a line sits when resident: its set and its fingerprint. */
    struct Place {
        std::uint64_t set;
        std::uint16_t fingerprint;
    };
    Place placeOf(Addr line) const;
    /** @return the way holding @p line, at @p place, or kNoWay. */
    Way find(Addr line, const Place &place) const;

    /** @return LRU order @p order with @p slot moved to rank @p rank. */
    static std::uint64_t moveTo(std::uint64_t order, unsigned slot,
                                unsigned rank)
    {
        // The slot's rank now: its nibble is the one zero nibble of x,
        // where bit 3 is left set (adding 7 to a nibble's low 3 bits
        // carries into bit 3 iff they are not all zero, and never into
        // the next nibble).
        constexpr std::uint64_t kNibbles = 0x1111'1111'1111'1111;
        constexpr std::uint64_t kLow3 = 0x7 * kNibbles;
        const std::uint64_t x = order ^ (slot * kNibbles);
        const std::uint64_t zero = ~(((x & kLow3) + kLow3) | x | kLow3);
        const auto from = static_cast<unsigned>(std::countr_zero(zero)) / 4;
        // Take it out (the later ranks move up one, the last nibble is
        // left 0), then put it in at rank.
        const std::uint64_t before = (std::uint64_t{1} << (4 * from)) - 1;
        const std::uint64_t rest =
            (order & before) | ((order >> 4) & ~before);
        const std::uint64_t keep = (std::uint64_t{1} << (4 * rank)) - 1;
        return (rest & keep) | (std::uint64_t{slot} << (4 * rank)) |
               ((rest & ~keep) << 4);
    }

    /** Mark @p way used: dirty if @p write, at rank @p rank of its set's
     *  LRU order (0 is the most recently used). */
    void use(Way way, bool write, unsigned rank)
    {
        SetHeader &header = headerOf(way);
        const unsigned slot = slotOf(way);
        header.dirty |= static_cast<std::uint16_t>(unsigned{write} << slot);
        header.order = moveTo(header.order, slot, rank);
    }

    /** Classify a hit on @p way and update its metadata. */
    CacheOutcome touchHit(Way way, CoreId core, bool write);
    /** Invalidate valid @p way. @return whether it was dirty. */
    bool invalidate(Way way);
    /** access() with the touched/filled way reported to the caller. */
    Result accessImpl(CoreId core, Addr addr, bool write, Way &touched);

    std::uint64_t lineSize_;
    unsigned ways_;             //!< associativity
    std::uint64_t numSets_ = 0;
    std::uint64_t setMask_ = 0; //!< sets-1 when a power of two, else 0
    std::uint16_t fullMask_ = 0; //!< a set's valid mask, every way set

    /**
     * One block, uninitialised, holding every set's header and then
     * every set's kMaxWays tags (tags_, indexed by Way). One block
     * rather than two keeps the allocator recycling it whole when
     * machines are built and torn down in a loop, instead of mapping
     * fresh pages for every cache; leaving it uninitialised means
     * constructing a cache touches none of it. A fill writes its way's
     * tag, and only valid ways, and ways a memo recorded while they
     * were valid, are ever read. An invalidated way's tag is kNoLine;
     * its slot in the header is stale until the next fill.
     */
    struct alignas(64) HostLine {
        std::byte bytes[64];
    };
    std::unique_ptr<HostLine[]> store_;
    SetHeader *headers_ = nullptr;
    Addr *tags_ = nullptr;
    /**
     * Per set, bit s set iff slot s holds a line: lookups compare only
     * valid slots' fingerprints, and the first-invalid victim pick reads
     * one bit. Zeroed at construction: the one per-set field that is.
     */
    std::vector<std::uint16_t> validMask_;

    std::vector<CoreMemo> memo_; //!< indexed by core, grown on demand
    std::uint64_t useCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    /**
     * The replay batch replayOwnedHits() is applying: the use clock it
     * started at, the use clock its last call left, and the way and
     * last-hit clock of every line it replayed so far.
     */
    std::uint64_t replaySince_ = 0;
    std::uint64_t replayClock_ = 0;
    std::vector<std::pair<Way, std::uint64_t>> replayed_;

    /**
     * Generation counter for the span-hit memo: bumped by every event
     * that can falsify a recorded span's "resident and owned" claim —
     * fills that evict a valid line, ownership transfers (SharedHit),
     * and every flavour of flush. Fills into invalid ways and
     * same-core owned hits don't bump it: they change nothing a live
     * memo asserts (live memos never reference invalid ways, since
     * every invalidation bumps the generation). A stale memo is not
     * necessarily dead — revalidate() can re-certify it.
     */
    std::uint64_t modGen_ = 0;
    std::unordered_map<Addr, SpanMemo> spanMemos_;
    std::uint64_t spanMemoLines_ = 0; //!< ways held by spanMemos_
    std::vector<Way> scratchWays_;    //!< accessSpan slow-path scratch
};

} // namespace hc::mem

#endif // HC_MEM_CACHE_HH
