/**
 * @file
 * Memory-system tests: address space, LLC model, MEE (timing and
 * integrity), the priced MemoryModel (anchored to Table 1), buffers
 * and shared variables.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "mem/buffer.hh"
#include "mem/machine.hh"
#include "support/hash.hh"
#include "support/rng.hh"

using namespace hc;
using namespace hc::mem;

namespace {

/** Run @p body as a fiber on core @p core and finish the engine. */
void
runSim(Machine &machine, std::function<void()> body, CoreId core = 0)
{
    machine.engine().spawn("test", core, std::move(body));
    machine.engine().run();
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Address space.
// ----------------------------------------------------------------------

TEST(AddressSpace, DomainsAreDisjoint)
{
    AddressSpace space(64_MiB, 16_MiB);
    const Addr u = space.allocUntrusted(100);
    const Addr e = space.allocEpc(100);
    EXPECT_EQ(space.domainOf(u), Domain::Untrusted);
    EXPECT_EQ(space.domainOf(e), Domain::Epc);
    EXPECT_FALSE(space.isEpc(u));
    EXPECT_TRUE(space.isEpc(e));
}

TEST(AddressSpace, RangeInDomain)
{
    AddressSpace space(64_MiB, 16_MiB);
    const Addr u = space.allocUntrusted(4096);
    EXPECT_TRUE(space.rangeInDomain(u, 4096, Domain::Untrusted));
    EXPECT_FALSE(space.rangeInDomain(u, 4096, Domain::Epc));
    EXPECT_TRUE(space.rangeInDomain(u, 0, Domain::Epc)); // empty
}

TEST(AddressSpace, FreeAndReuse)
{
    AddressSpace space(1_MiB, 1_MiB);
    const Addr a = space.allocUntrusted(1000);
    space.free(a);
    const Addr b = space.allocUntrusted(1000);
    EXPECT_EQ(a, b); // free list reuses the block
}

TEST(AddressSpace, AlignmentHonored)
{
    AddressSpace space(64_MiB, 16_MiB);
    for (std::uint64_t align : {16ull, 64ull, 4096ull}) {
        const Addr a = space.allocUntrusted(10, align);
        EXPECT_EQ(a % align, 0u) << "align=" << align;
    }
}

TEST(AddressSpace, TracksBytesInUse)
{
    AddressSpace space(1_MiB, 1_MiB);
    const auto before = space.untrusted().bytesInUse();
    const Addr a = space.allocUntrusted(5000);
    EXPECT_GT(space.untrusted().bytesInUse(), before);
    space.free(a);
    EXPECT_EQ(space.untrusted().bytesInUse(), before);
}

// ----------------------------------------------------------------------
// Cache model.
// ----------------------------------------------------------------------

TEST(CacheModel, MissThenOwnedHit)
{
    CacheModel cache(64_KiB, 4);
    auto first = cache.access(0, 0x1000, false);
    EXPECT_EQ(first.outcome, CacheOutcome::Miss);
    auto second = cache.access(0, 0x1000, false);
    EXPECT_EQ(second.outcome, CacheOutcome::OwnedHit);
    // Same line, different word.
    auto third = cache.access(0, 0x1020, false);
    EXPECT_EQ(third.outcome, CacheOutcome::OwnedHit);
}

TEST(CacheModel, CrossCoreSharedHit)
{
    CacheModel cache(64_KiB, 4);
    cache.access(0, 0x2000, true);
    auto other = cache.access(1, 0x2000, false);
    EXPECT_EQ(other.outcome, CacheOutcome::SharedHit);
    // Ownership transferred: core 1 now hits locally.
    auto again = cache.access(1, 0x2000, false);
    EXPECT_EQ(again.outcome, CacheOutcome::OwnedHit);
}

TEST(CacheModel, FlushLineForcesMiss)
{
    CacheModel cache(64_KiB, 4);
    cache.access(0, 0x3000, true);
    EXPECT_TRUE(cache.contains(0x3000));
    EXPECT_TRUE(cache.flushLine(0x3000)); // was dirty
    EXPECT_FALSE(cache.contains(0x3000));
    EXPECT_EQ(cache.access(0, 0x3000, false).outcome,
              CacheOutcome::Miss);
    EXPECT_FALSE(cache.flushLine(0x3000 + 0x100000)); // absent
}

TEST(CacheModel, FlushAllEmptiesEverything)
{
    CacheModel cache(64_KiB, 4);
    for (Addr a = 0; a < 32_KiB; a += 64)
        cache.access(0, a, false);
    cache.flushAll();
    for (Addr a = 0; a < 32_KiB; a += 64)
        EXPECT_FALSE(cache.contains(a));
}

TEST(CacheModel, CapacityEvictionOccurs)
{
    // Touching more distinct lines than the cache holds must evict.
    CacheModel small(64 * 4, 2, 64); // 4 lines total
    bool evicted = false;
    for (Addr a = 0; a < 64 * 16; a += 64)
        evicted |= small.access(0, a, true).evicted;
    EXPECT_TRUE(evicted);
    EXPECT_EQ(small.misses(), 16u);
}

TEST(CacheModel, LruKeepsHotLine)
{
    // A line re-touched between conflicting fills should survive
    // while colder lines are evicted (LRU within the set).
    CacheModel cache(8_KiB, 2);
    const Addr hot = 0x100;
    cache.access(0, hot, false);
    for (Addr a = 0x10000; a < 0x10000 + 64 * 64; a += 64) {
        cache.access(0, hot, false); // keep hot
        cache.access(0, a, false);
    }
    EXPECT_EQ(cache.access(0, hot, false).outcome,
              CacheOutcome::OwnedHit);
}

TEST(CacheModel, EvictionReportsDirtyVictim)
{
    CacheModel cache(64 * 2, 1, 64); // 2 sets, direct mapped
    // Fill every set with dirty lines, then stream clean reads; any
    // eviction of a dirty line must be reported.
    for (Addr a = 0; a < 64 * 2; a += 64)
        cache.access(0, a, true);
    bool dirty_eviction = false;
    for (Addr a = 64 * 2; a < 64 * 64; a += 64) {
        auto r = cache.access(0, a, false);
        if (r.evicted && r.evictedDirty)
            dirty_eviction = true;
    }
    EXPECT_TRUE(dirty_eviction);
}

namespace {

/**
 * A deliberately naive set-associative LLC, the reference for
 * CacheModel: the same mix64 set index, then a linear scan of the
 * set's ways, first-invalid-else-least-recently-used victim, and owner
 * and dirty kept per way. No masks, no memos, no span paths.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size, int ways)
        : sets_(size / kCacheLineSize / static_cast<std::uint64_t>(ways),
                std::vector<Way>(static_cast<std::size_t>(ways)))
    {
    }

    CacheModel::Result access(CoreId core, Addr addr, bool write)
    {
        const Addr line = addr & ~(kCacheLineSize - 1);
        ++clock_;
        CacheModel::Result result;
        std::vector<Way> &set = setOf(line);
        for (Way &way : set) {
            if (way.valid && way.tag == line) {
                result.outcome = way.owner == core
                                     ? CacheOutcome::OwnedHit
                                     : CacheOutcome::SharedHit;
                way.owner = core;
                way.dirty = way.dirty || write;
                way.lastUse = clock_;
                ++hits_;
                return result;
            }
        }
        ++misses_;
        Way *victim = nullptr;
        for (Way &way : set) {
            if (!way.valid) {
                victim = &way;
                break;
            }
        }
        if (!victim) {
            victim = &set[0];
            for (Way &way : set)
                if (way.lastUse < victim->lastUse)
                    victim = &way;
            result.evicted = true;
            result.evictedDirty = victim->dirty;
            result.evictedLine = victim->tag;
        }
        *victim = Way{line, true, write, core, clock_};
        return result;
    }

    bool flushLine(Addr addr)
    {
        const Addr line = addr & ~(kCacheLineSize - 1);
        for (Way &way : setOf(line)) {
            if (way.valid && way.tag == line) {
                way.valid = false;
                return way.dirty;
            }
        }
        return false;
    }

    void flushAll()
    {
        for (auto &set : sets_)
            for (Way &way : set)
                way.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** @return the set @p line maps to. */
    std::uint64_t setIndex(Addr line) const
    {
        return mix64(line) % sets_.size();
    }

  private:
    struct Way {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        CoreId owner = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Way> &setOf(Addr line) { return sets_[setIndex(line)]; }

    std::vector<std::vector<Way>> sets_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Append one access outcome to @p trace. */
void
noteAccess(std::vector<std::uint64_t> &trace, Addr line,
           const CacheModel::Result &result)
{
    trace.insert(trace.end(),
                 {line, static_cast<std::uint64_t>(result.outcome),
                  result.evicted, result.evictedDirty,
                  result.evictedLine});
}

/**
 * A batch of owned hits, as a steady batch applies them: the cores
 * whose last single-line access (@p last_line) ownedMemoHit()
 * certifies access those lines in a random interleaving drawn from
 * @p rng, once each through @p ref and, per core in core order,
 * through one replayOwnedHits() on @p cache. Every hit is noted in
 * @p got and @p want.
 * @return the hits replayed
 */
std::uint64_t
replayBatch(CacheModel &cache, ReferenceCache &ref, Rng &rng,
            const Addr (&last_line)[4], std::vector<std::uint64_t> &got,
            std::vector<std::uint64_t> &want)
{
    std::vector<CoreId> lanes;
    for (CoreId c = 0; c < 4; ++c)
        if (cache.ownedMemoHit(c, last_line[c]))
            lanes.push_back(c);
    std::uint64_t count[4] = {}, last[4] = {};
    bool wrote[4] = {};
    const std::uint64_t base = cache.useClock();
    const std::uint64_t hits = lanes.empty() ? 0 : 1 + rng.nextBelow(40);
    CacheModel::Result owned;
    owned.outcome = CacheOutcome::OwnedHit;
    for (std::uint64_t k = 1; k <= hits; ++k) {
        const CoreId c = lanes[rng.nextBelow(lanes.size())];
        const bool w = rng.chance(0.3);
        noteAccess(want, last_line[c], ref.access(c, last_line[c], w));
        noteAccess(got, last_line[c], owned);
        ++count[c];
        last[c] = k;
        wrote[c] = wrote[c] || w;
    }
    for (const CoreId c : lanes) {
        if (count[c] > 0)
            cache.replayOwnedHits(c, last_line[c], wrote[c], count[c], base,
                                  last[c]);
    }
    return hits;
}

/**
 * Drive CacheModel and ReferenceCache through @p ops seeded operations
 * from four cores: reads and writes over a region four times the
 * cache, repeated spans (so span memos record, replay and go stale),
 * line and span flushes, and the odd flushAll. With @p replayed set,
 * a replayBatch() follows about every fifth op; @p replayed counts its
 * hits. The batches draw from their own generator, so the operation
 * stream is the one without them.
 * @return the first op after which any result, flushed dirty bit or
 * hit/miss counter differs, or -1.
 */
int
referenceDivergence(std::uint64_t size, int ways, std::uint64_t seed,
                    int ops, std::uint64_t *replayed = nullptr)
{
    CacheModel cache(size, ways);
    ReferenceCache ref(size, ways);
    Rng rng(seed);
    Rng batches(seed + 1'000);
    Addr last_line[4] = {};
    constexpr Addr kBase = 0x200000;
    const std::uint64_t region_lines = 4 * size / kCacheLineSize;
    struct Span {
        Addr first;
        std::uint64_t count;
    };
    std::vector<Span> spans;
    for (int i = 0; i < 6; ++i) {
        spans.push_back(
            {kBase + rng.nextBelow(region_lines - 96) * kCacheLineSize,
             1 + rng.nextBelow(96)});
    }
    for (int op = 0; op < ops; ++op) {
        std::vector<std::uint64_t> got, want;
        const Span &s = spans[rng.nextBelow(spans.size())];
        const auto core = static_cast<CoreId>(rng.nextBelow(4));
        const bool write = rng.chance(0.5);
        const std::uint64_t kind = rng.nextBelow(100);
        if (kind < 40) { // one line anywhere in the region
            const Addr line =
                kBase + rng.nextBelow(region_lines) * kCacheLineSize;
            noteAccess(got, line, cache.access(core, line, write));
            noteAccess(want, line, ref.access(core, line, write));
            last_line[core] = line;
        } else if (kind < 50) { // one line out of a span
            const Addr line =
                s.first + rng.nextBelow(s.count) * kCacheLineSize;
            noteAccess(got, line, cache.access(core, line, write));
            noteAccess(want, line, ref.access(core, line, write));
            last_line[core] = line;
        } else if (kind < 80) { // a span, mostly from one core
            const CoreId span_core = rng.chance(0.8) ? 0 : core;
            cache.accessSpan(
                span_core, s.first, s.count, write,
                [&](Addr line, const CacheModel::Result &result) {
                    noteAccess(got, line, result);
                });
            Addr line = s.first;
            for (std::uint64_t i = 0; i < s.count;
                 ++i, line += kCacheLineSize)
                noteAccess(want, line, ref.access(span_core, line, write));
        } else if (kind < 88) { // flush a span
            cache.flushSpan(s.first, s.count, [&](Addr line, bool dirty) {
                got.insert(got.end(), {line, dirty});
            });
            Addr line = s.first;
            for (std::uint64_t i = 0; i < s.count;
                 ++i, line += kCacheLineSize)
                want.insert(want.end(), {line, ref.flushLine(line)});
        } else if (kind < 99) { // flush one line of a span or anywhere
            const Addr line =
                kind < 94 ? s.first + rng.nextBelow(s.count) *
                                          kCacheLineSize
                          : kBase + rng.nextBelow(region_lines) *
                                        kCacheLineSize;
            got.push_back(cache.flushLine(line));
            want.push_back(ref.flushLine(line));
        } else {
            cache.flushAll();
            ref.flushAll();
        }
        if (replayed && batches.chance(0.2))
            *replayed +=
                replayBatch(cache, ref, batches, last_line, got, want);
        got.insert(got.end(), {cache.hits(), cache.misses()});
        want.insert(want.end(), {ref.hits(), ref.misses()});
        if (got != want)
            return op;
    }
    return -1;
}

/**
 * Drive CacheModel and ReferenceCache through @p ops seeded operations
 * on 4,096 distinct lines that the reference maps to one set, so
 * nearly every fill evicts: reads and writes from four cores, half of
 * them to a hot group half again the set's size, line flushes and the
 * odd flushAll, each op followed about every fifth time by a
 * replayBatch(), whose lines then always share that set (@p replayed
 * counts its hits). So victims depend on the LRU order a batch leaves
 * among its lines, which it replays in core order, not in the order
 * of their last hits; and lines collide in any few bits of their
 * hashes.
 * @return the first op after which any result, flushed dirty bit or
 * hit/miss counter differs, or -1.
 */
int
oneSetDivergence(std::uint64_t size, int ways, std::uint64_t seed,
                 int ops, std::uint64_t &replayed)
{
    CacheModel cache(size, ways);
    ReferenceCache ref(size, ways);
    Rng rng(seed);
    Rng batches(seed + 1'000);
    constexpr Addr kBase = 0x200000;
    constexpr std::uint64_t kLines = 4'096;
    std::vector<Addr> lines;
    const std::uint64_t set = ref.setIndex(kBase);
    for (Addr line = kBase; lines.size() < kLines; line += kCacheLineSize)
        if (ref.setIndex(line) == set)
            lines.push_back(line);
    const std::uint64_t hot = static_cast<std::uint64_t>(ways) * 3 / 2 + 1;
    Addr last_line[4] = {};
    for (int op = 0; op < ops; ++op) {
        std::vector<std::uint64_t> got, want;
        const auto core = static_cast<CoreId>(rng.nextBelow(4));
        const Addr line = lines[rng.nextBelow(rng.chance(0.5) ? hot : kLines)];
        const std::uint64_t kind = rng.nextBelow(100);
        if (kind < 94) {
            const bool write = rng.chance(0.5);
            noteAccess(got, line, cache.access(core, line, write));
            noteAccess(want, line, ref.access(core, line, write));
            last_line[core] = line;
        } else if (kind < 99) {
            got.push_back(cache.flushLine(line));
            want.push_back(ref.flushLine(line));
        } else {
            cache.flushAll();
            ref.flushAll();
        }
        if (batches.chance(0.2))
            replayed += replayBatch(cache, ref, batches, last_line, got, want);
        got.insert(got.end(), {cache.hits(), cache.misses()});
        want.insert(want.end(), {ref.hits(), ref.misses()});
        if (got != want)
            return op;
    }
    return -1;
}

} // anonymous namespace

TEST(CacheModel, MatchesReferenceModel)
{
    // 256 power-of-two sets of 4 ways, and 48 sets (the modulo index)
    // of 16 ways, the LLC's associativity.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        EXPECT_EQ(referenceDivergence(64_KiB, 4, seed, 4'000), -1)
            << "seed=" << seed;
        EXPECT_EQ(referenceDivergence(48_KiB, 16, seed, 4'000), -1)
            << "seed=" << seed;
    }
}

TEST(CacheModel, ReplayedOwnedHitsMatchAccesses)
{
    // The operation stream of MatchesReferenceModel, with batches of
    // owned hits from up to four cores replayed between its operations:
    // the stream that follows sees the tags, LRU stamps, owners, dirty
    // bits, memos and counters the same accesses leave in the
    // reference, so every later hit, miss and victim agrees.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::uint64_t replayed = 0;
        EXPECT_EQ(referenceDivergence(64_KiB, 4, seed, 4'000, &replayed),
                  -1)
            << "seed=" << seed;
        EXPECT_EQ(referenceDivergence(48_KiB, 16, seed, 4'000, &replayed),
                  -1)
            << "seed=" << seed;
        EXPECT_GT(replayed, 1'000u) << "seed=" << seed;
    }
}

TEST(CacheModel, OneSetMatchesReferenceModel)
{
    // 48 sets (the modulo index) of 16 ways, and 256 power-of-two sets
    // of 4 ways.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::uint64_t replayed = 0;
        EXPECT_EQ(oneSetDivergence(48_KiB, 16, seed, 20'000, replayed), -1)
            << "seed=" << seed;
        EXPECT_EQ(oneSetDivergence(64_KiB, 4, seed, 20'000, replayed), -1)
            << "seed=" << seed;
        EXPECT_GT(replayed, 10'000u) << "seed=" << seed;
    }
}

TEST(CacheModel, EveryAssociativityMatchesReferenceModel)
{
    // MatchesReferenceModel's and ReplayedOwnedHitsMatchAccesses' runs
    // at the other associativities caches are built with, each over
    // power-of-two (64 KiB) and modulo (48 KiB) set counts.
    for (const int ways : {1, 2, 8}) {
        for (const std::uint64_t size : {64_KiB, 48_KiB}) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                std::uint64_t replayed = 0;
                EXPECT_EQ(referenceDivergence(size, ways, seed, 4'000), -1)
                    << "ways=" << ways << " size=" << size
                    << " seed=" << seed;
                EXPECT_EQ(referenceDivergence(size, ways, seed, 4'000,
                                              &replayed),
                          -1)
                    << "ways=" << ways << " size=" << size
                    << " seed=" << seed;
                EXPECT_GT(replayed, 500u)
                    << "ways=" << ways << " size=" << size
                    << " seed=" << seed;
            }
        }
    }
}

TEST(CacheModelDeathTest, AssociativityAbove16IsRefused)
{
    // A set header has 16 way slots.
    EXPECT_DEATH({ CacheModel cache(17 * 64 * 4, 17); }, "ways <= kMaxWays");
}

TEST(CacheModelDeathTest, CoreIdAbove255IsRefused)
{
    // A set header keeps owners in bytes.
    CacheModel cache(64_KiB, 4);
    EXPECT_EQ(cache.access(255, 0x1000, false).outcome, CacheOutcome::Miss);
    EXPECT_DEATH(cache.access(256, 0x1000, false), "core <= kMaxCore");
}

TEST(CacheModelDeathTest, ReplayAfterAnotherAccessIsRefused)
{
    // A replay batch's calls arrive back to back: an access between
    // them could have moved the lines the batch ranks against.
    CacheModel cache(64_KiB, 4);
    cache.access(0, 0x1000, false);
    cache.access(1, 0x2000, false);
    const std::uint64_t since = cache.useClock();
    cache.replayOwnedHits(0, 0x1000, false, 1, since, 2);
    cache.access(2, 0x3000, false);
    EXPECT_DEATH(cache.replayOwnedHits(1, 0x2000, false, 1, since, 1),
                 "useCounter_ == replayClock_");
}

// ----------------------------------------------------------------------
// MEE.
// ----------------------------------------------------------------------

TEST(Mee, WalkMissesThenHits)
{
    CostParams params;
    Mee mee(params, 0x1000000, 64_MiB, 0x6b6579);
    const Addr line = 0x1000000;
    const int first = mee.readWalkMisses(line);
    EXPECT_GT(first, 0);
    const int second = mee.readWalkMisses(line);
    EXPECT_EQ(second, 0); // covering node now cached
    mee.clearNodeCache();
    EXPECT_GT(mee.readWalkMisses(line), 0);
}

TEST(Mee, TreeLevelsCoverEpc)
{
    CostParams params;
    Mee mee(params, 0, 93_MiB, 1);
    // 93 MiB / 64 B lines with arity 8 needs 7 levels.
    EXPECT_EQ(mee.treeLevels(), 7);
}

TEST(Mee, VerifiesUntouchedLine)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    EXPECT_TRUE(mee.verifyLine(0));
    EXPECT_TRUE(mee.verifyLine(64));
}

TEST(Mee, DetectsMacTampering)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(0);
    EXPECT_TRUE(mee.verifyLine(0));
    mee.tamperMac(0);
    EXPECT_FALSE(mee.verifyLine(0));
    EXPECT_TRUE(mee.verifyLine(64)); // neighbors unaffected
}

TEST(Mee, DetectsRollback)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(128);
    mee.writebackLine(128);
    EXPECT_TRUE(mee.verifyLine(128));
    // Replay the previous consistent (version, MAC) snapshot: the
    // MAC itself is valid, but the version lags the tree counter.
    mee.rollbackLine(128);
    EXPECT_FALSE(mee.verifyLine(128));
}

TEST(Mee, WritebackRestoresConsistency)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(0);
    mee.tamperMac(0);
    EXPECT_FALSE(mee.verifyLine(0));
    mee.writebackLine(0); // fresh write-back re-MACs
    EXPECT_TRUE(mee.verifyLine(0));
}

TEST(Mee, OverlayCoversTheWholeEpc)
{
    // Lines 0, 63 and 64 straddle the first chunk edge and the last
    // line sits in the overlay directory's last slot: a full one for
    // the default 256 MiB EPC, and a one-line one for an EPC whose
    // line count is not a multiple of the chunk.
    CostParams params;
    constexpr Addr kBase = 0x1000000;
    for (const std::uint64_t size :
         {params.epcVirtualSize, 1_MiB + kCacheLineSize}) {
        Mee mee(params, kBase, size, 99);
        const std::uint64_t lines = size / kCacheLineSize;
        const std::uint64_t edges[] = {0, 63, 64, lines - 1};
        const auto at = [&](std::uint64_t idx) {
            return kBase + idx * kCacheLineSize;
        };
        for (const std::uint64_t idx : edges) {
            EXPECT_TRUE(mee.verifyLine(at(idx))) << "untouched " << idx;
            mee.writebackLine(at(idx));
            mee.writebackLine(at(idx));
        }
        // Attack one edge at a time: only it fails verification.
        for (const std::uint64_t idx : edges) {
            mee.tamperMac(at(idx));
            for (const std::uint64_t other : edges)
                EXPECT_EQ(mee.verifyLine(at(other)), other != idx)
                    << "tampered " << idx << ", verified " << other;
            mee.writebackLine(at(idx)); // a fresh write-back re-MACs
            EXPECT_TRUE(mee.verifyLine(at(idx)));
            mee.rollbackLine(at(idx));
            for (const std::uint64_t other : edges)
                EXPECT_EQ(mee.verifyLine(at(other)), other != idx)
                    << "rolled back " << idx << ", verified " << other;
            mee.writebackLine(at(idx));
            EXPECT_TRUE(mee.verifyLine(at(idx)));
        }
        // Untouched lines: neighbours in touched chunks, and a line in
        // a chunk nothing touched.
        EXPECT_TRUE(mee.verifyLine(at(1)));
        EXPECT_TRUE(mee.verifyLine(at(65)));
        EXPECT_TRUE(mee.verifyLine(at(lines - 2)));
        EXPECT_TRUE(mee.verifyLine(at(lines / 2)));
    }
}

namespace {

/**
 * The MEE's line state kept in full, the reference for Mee's lean
 * state: every line touched carries a trusted version and a
 * DRAM-resident (version, keyed MAC) pair, written back and attacked
 * exactly as the hooks describe. Its MAC is its own keyed hash; only
 * whether a pair verifies is compared.
 */
class ReferenceLines
{
  public:
    bool verify(std::uint64_t idx) const
    {
        const auto it = lines_.find(idx);
        if (it == lines_.end())
            return true; // never touched: version 0, MAC as initialised
        const Line &line = it->second;
        return line.dramMac == mac(idx, line.dramVersion) &&
               line.dramVersion == line.trusted;
    }

    void writeback(std::uint64_t idx)
    {
        Line &line = at(idx);
        ++line.trusted;
        line.dramVersion = line.trusted;
        line.dramMac = mac(idx, line.dramVersion);
    }

    void tamper(std::uint64_t idx) { at(idx).dramMac ^= 0x1; }

    void rollback(std::uint64_t idx)
    {
        Line &line = at(idx);
        --line.dramVersion;
        line.dramMac = mac(idx, line.dramVersion);
    }

    std::uint32_t dramVersion(std::uint64_t idx) const
    {
        const auto it = lines_.find(idx);
        return it == lines_.end() ? 0 : it->second.dramVersion;
    }

  private:
    struct Line {
        std::uint32_t trusted = 0;
        std::uint32_t dramVersion = 0;
        std::uint64_t dramMac = 0;
    };

    static std::uint64_t mac(std::uint64_t idx, std::uint64_t version)
    {
        const std::uint64_t material[3] = {0x726566, idx, version};
        return fastHash64(material, sizeof(material));
    }

    Line &at(std::uint64_t idx)
    {
        const auto [it, fresh] = lines_.try_emplace(idx);
        if (fresh)
            it->second.dramMac = mac(idx, 0);
        return it->second;
    }

    std::map<std::uint64_t, Line> lines_;
};

/**
 * Drive a Mee over an EPC of @p epc_size bytes and the reference
 * through @p ops seeded operations on eight lines (the first two, the
 * last two and four in the lower half): write-backs, single and double
 * MAC tampers, and rollbacks of one to three steps where the reference
 * has the versions to replay. After every operation, verifyLine() of
 * those lines and of lines nothing touches (in the upper half) is
 * compared. @p failures counts the failed verifications seen.
 * @return the first op after which any verification differs, or -1.
 */
int
lineStateDivergence(std::uint64_t seed, std::uint64_t epc_size, int ops,
                    std::uint64_t &failures)
{
    CostParams params;
    constexpr Addr kBase = 0x1000000;
    const std::uint64_t lines = epc_size / kCacheLineSize;
    Mee mee(params, kBase, epc_size, 0x6b6579 + seed);
    ReferenceLines ref;
    Rng rng(seed);
    std::vector<std::uint64_t> hot = {0, 1, lines - 2, lines - 1};
    for (int i = 0; i < 4; ++i)
        hot.push_back(2 + rng.nextBelow(lines / 2 - 2));
    std::vector<std::uint64_t> watched = hot;
    watched.insert(watched.end(), {lines / 2, lines - 3});
    for (int i = 0; i < 2; ++i)
        watched.push_back(lines / 2 + rng.nextBelow(lines / 2 - 3));
    const auto at = [&](std::uint64_t idx) {
        return kBase + idx * kCacheLineSize;
    };
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t idx = hot[rng.nextBelow(hot.size())];
        const std::uint64_t kind = rng.nextBelow(10);
        if (kind < 5) {
            mee.writebackLine(at(idx));
            ref.writeback(idx);
        } else if (kind < 8) { // one tamper, or two that cancel
            const int times = kind == 7 ? 2 : 1;
            for (int i = 0; i < times; ++i) {
                mee.tamperMac(at(idx));
                ref.tamper(idx);
            }
        } else {
            const std::uint64_t steps = 1 + rng.nextBelow(3);
            if (ref.dramVersion(idx) < steps)
                continue;
            for (std::uint64_t i = 0; i < steps; ++i) {
                mee.rollbackLine(at(idx));
                ref.rollback(idx);
            }
        }
        for (const std::uint64_t line : watched) {
            const bool valid = ref.verify(line);
            failures += valid ? 0 : 1;
            if (mee.verifyLine(at(line)) != valid)
                return op;
        }
    }
    return -1;
}

/**
 * A naive MEE node cache, the reference for Mee's timed half: the
 * same (level << 48) | (node + 1) tags and mix64 sets, and the walk's
 * victim rule (the last empty way of the set, else its first least
 * recently used way), with every walk re-derived from the line index.
 * No path memo, no leaf memo, no span replay.
 */
class ReferenceNodeCache
{
  public:
    ReferenceNodeCache(const CostParams &params, std::uint64_t lines)
        : arity_(static_cast<std::uint64_t>(params.meeTreeArity)),
          ways_(static_cast<std::size_t>(params.meeCacheWays)),
          sets_(static_cast<std::uint64_t>(params.meeCacheEntries /
                                           params.meeCacheWays))
    {
        for (std::uint64_t coverage = 1; coverage < lines;
             coverage *= arity_)
            ++levels_;
        clear();
    }

    void clear() { cache_ = std::vector<Way>(sets_ * ways_); }

    int walk(std::uint64_t idx)
    {
        int misses = 0;
        std::uint64_t node = idx / arity_;
        for (int level = 1; level < levels_; ++level, node /= arity_) {
            const std::uint64_t tag =
                (static_cast<std::uint64_t>(level) << 48) | (node + 1);
            Way *set = &cache_[(mix64(tag) % sets_) * ways_];
            ++clock_;
            Way *hit = nullptr;
            for (std::size_t w = 0; w < ways_; ++w)
                if (set[w].tag == tag)
                    hit = &set[w];
            if (hit) {
                hit->lastUse = clock_;
                ++hits_;
                return misses;
            }
            ++misses_;
            ++misses;
            Way *victim = nullptr;
            for (std::size_t w = 0; w < ways_; ++w)
                if (set[w].tag == 0)
                    victim = &set[w];
            if (!victim) {
                victim = &set[0];
                for (std::size_t w = 0; w < ways_; ++w)
                    if (set[w].lastUse < victim->lastUse)
                        victim = &set[w];
            }
            *victim = Way{tag, clock_};
        }
        return misses;
    }

    int levels() const { return levels_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };
    std::uint64_t arity_;
    std::size_t ways_;
    std::uint64_t sets_;
    int levels_ = 0;
    std::vector<Way> cache_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Drive a Mee with a node cache of @p entries entries of @p ways ways
 * and the reference through @p ops seeded operations over a 16 MiB
 * EPC: ascending spans through spanWalkMisses() in a 4096-line hot
 * region, single-line readWalkMisses() there or anywhere, and node
 * cache clears. @return the first op after which any walk's miss
 * count or the hit/miss counters differ, or -1.
 */
int
nodeCacheDivergence(int entries, int ways, std::uint64_t seed, int ops)
{
    CostParams params;
    params.meeCacheEntries = entries;
    params.meeCacheWays = ways;
    constexpr Addr kBase = 0x1000000;
    constexpr std::uint64_t kLines = 16_MiB / kCacheLineSize;
    constexpr std::uint64_t kHotLines = 4096;
    Mee mee(params, kBase, 16_MiB, 0x6b6579);
    ReferenceNodeCache ref(params, kLines);
    if (mee.treeLevels() != ref.levels())
        return 0; // the walks could not agree: fail at the first op
    Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        std::vector<int> got, want;
        const std::uint64_t kind = rng.nextBelow(10);
        if (kind < 5) { // an ascending span
            const std::uint64_t count = 1 + rng.nextBelow(64);
            std::uint64_t idx = rng.nextBelow(kHotLines - count);
            for (std::uint64_t i = 0; i < count; ++i, ++idx) {
                got.push_back(
                    mee.spanWalkMisses(kBase + idx * kCacheLineSize));
                want.push_back(ref.walk(idx));
            }
        } else if (kind < 9) { // one line, hot or anywhere
            const std::uint64_t idx =
                rng.nextBelow(kind < 7 ? kHotLines : kLines);
            got.push_back(mee.readWalkMisses(kBase + idx * kCacheLineSize));
            want.push_back(ref.walk(idx));
        } else {
            mee.clearNodeCache();
            ref.clear();
        }
        if (got != want || mee.nodeCacheHits() != ref.hits() ||
            mee.nodeCacheMisses() != ref.misses())
            return op;
    }
    return -1;
}

} // anonymous namespace

TEST(Mee, MatchesReferenceModel)
{
    // A one-line-past-1 MiB EPC and the default 256 MiB one, whose
    // last line is the top of the trusted counters.
    const CostParams params;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const std::uint64_t size :
             {1_MiB + kCacheLineSize, params.epcVirtualSize}) {
            std::uint64_t failures = 0;
            EXPECT_EQ(lineStateDivergence(seed, size, 2'000, failures), -1)
                << "seed=" << seed << " size=" << size;
            EXPECT_GT(failures, 100u) << "seed=" << seed;
        }
    }
}

TEST(MeeDeathTest, RollbackOfAnUntouchedLineIsRefused)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(0);
    // Line 1 was never written back: it has no older version.
    EXPECT_DEATH(mee.rollbackLine(64), "dram.version > 0");
}

TEST(MeeDeathTest, RollbackPastTheFirstWritebackIsRefused)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(128);
    mee.writebackLine(128);
    mee.rollbackLine(128);
    mee.rollbackLine(128); // back to the initial version 0
    EXPECT_FALSE(mee.verifyLine(128));
    EXPECT_DEATH(mee.rollbackLine(128), "dram.version > 0");
}

TEST(Mee, NodeCacheMatchesReferenceModel)
{
    // The default 24 sets of 2 ways, 4 sets of 2 (a walk's upper levels
    // evict its own leaf), and 4 sets of 4 (more than one empty way).
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        EXPECT_EQ(nodeCacheDivergence(48, 2, seed, 2'000), -1)
            << "seed=" << seed;
        EXPECT_EQ(nodeCacheDivergence(8, 2, seed, 2'000), -1)
            << "seed=" << seed;
        EXPECT_EQ(nodeCacheDivergence(16, 4, seed, 2'000), -1)
            << "seed=" << seed;
    }
}

// ----------------------------------------------------------------------
// MemoryModel: the Table 1 anchors.
// ----------------------------------------------------------------------

TEST(MemoryModel, Table1Row9LoadMissCosts)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer enc(machine, Domain::Epc, 64);
        Buffer plain(machine, Domain::Untrusted, 64);
        // Warm the tree nodes, then measure the steady-state miss.
        for (int i = 0; i < 3; ++i) {
            memory.evictRange(enc.addr(), 64);
            memory.accessWord(enc.addr(), false);
        }
        memory.evictRange(enc.addr(), 64);
        EXPECT_EQ(memory.accessWord(enc.addr(), false), 400u);
        memory.evictRange(plain.addr(), 64);
        EXPECT_EQ(memory.accessWord(plain.addr(), false), 308u);
    });
}

TEST(MemoryModel, Table1Row10StoreMissCosts)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer enc(machine, Domain::Epc, 64);
        Buffer plain(machine, Domain::Untrusted, 64);
        memory.evictRange(enc.addr(), 64);
        EXPECT_EQ(memory.accessWord(enc.addr(), true), 575u);
        memory.evictRange(plain.addr(), 64);
        EXPECT_EQ(memory.accessWord(plain.addr(), true), 481u);
    });
}

TEST(MemoryModel, Table1Row7SequentialReads)
{
    Machine machine;
    runSim(machine, [&] {
        Buffer enc(machine, Domain::Epc, 2048);
        Buffer plain(machine, Domain::Untrusted, 2048);
        // Steady state after the first sweep.
        for (int i = 0; i < 4; ++i) {
            enc.evict();
            plain.evict();
            enc.read();
            plain.read();
        }
        enc.evict();
        plain.evict();
        const Cycles e = enc.read();
        const Cycles p = plain.read();
        EXPECT_NEAR(static_cast<double>(p), 727.0, 5.0);
        EXPECT_NEAR(static_cast<double>(e), 1124.0, 60.0);
    });
}

TEST(MemoryModel, Table1Row8SequentialWrites)
{
    Machine machine;
    runSim(machine, [&] {
        Buffer enc(machine, Domain::Epc, 2048);
        Buffer plain(machine, Domain::Untrusted, 2048);
        enc.evict();
        plain.evict();
        const Cycles e = enc.write(true);
        const Cycles p = plain.write(true);
        EXPECT_NEAR(static_cast<double>(p), 6458.0, 10.0);
        EXPECT_NEAR(static_cast<double>(e), 6875.0, 60.0);
    });
}

TEST(MemoryModel, CachedAccessIsCheap)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer buf(machine, Domain::Untrusted, 64);
        memory.accessWord(buf.addr(), false); // fill
        const Cycles hit = memory.accessWord(buf.addr(), false);
        EXPECT_LT(hit, 10u);
    });
}

TEST(MemoryModel, ChargesCallingFiber)
{
    Machine machine;
    runSim(machine, [&] {
        Buffer buf(machine, Domain::Untrusted, 2048);
        buf.evict();
        const Cycles before = machine.now();
        const Cycles cost = buf.read();
        EXPECT_EQ(machine.now(), before + cost);
    });
}

TEST(MemoryModel, NoChargeVariantKeepsClock)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer buf(machine, Domain::Untrusted, 2048);
        buf.evict();
        const Cycles before = machine.now();
        const Cycles cost = memory.readBuffer(buf.addr(), 2048,
                                              /*charge_time=*/false);
        EXPECT_GT(cost, 0u);
        EXPECT_EQ(machine.now(), before);
    });
}

TEST(MemoryModel, IntegrityFailureHookFires)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer enc(machine, Domain::Epc, 64);
        memory.accessWord(enc.addr(), true);
        memory.evictRange(enc.addr(), 64); // write back, re-MAC
        memory.mee().tamperMac(enc.addr());
        int failures = 0;
        memory.setIntegrityFailureHook(
            [&](Addr) { ++failures; });
        memory.accessWord(enc.addr(), false);
        EXPECT_EQ(failures, 1);
    });
}

TEST(MemoryModel, AttackedLinesFailUntilRewritten)
{
    // A 4 KiB LLC of 16 sets, so a 64 KiB sweep evicts every line.
    MachineConfig config;
    config.mem.llcSize = 4_KiB;
    config.mem.llcWays = 4;
    Machine machine(config);
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer enc(machine, Domain::Epc, 4 * kCacheLineSize);
        Buffer sweep(machine, Domain::Untrusted, 64_KiB);
        const Addr a = enc.addr();
        const Addr b = a + kCacheLineSize;
        const Addr c = b + kCacheLineSize;
        const Addr d = c + kCacheLineSize;
        memory.writeBuffer(enc.addr(), enc.size(), /*flush_after=*/true);
        std::vector<Addr> failed;
        memory.setIntegrityFailureHook(
            [&](Addr line) { failed.push_back(line); });
        memory.mee().tamperMac(a);
        memory.mee().rollbackLine(b);
        memory.mee().tamperMac(c);

        // A load miss and a span miss both verify what they fetch.
        memory.accessWord(a, false);
        memory.readBuffer(b, kCacheLineSize);
        memory.readBuffer(d, kCacheLineSize);
        EXPECT_EQ(failed, (std::vector<Addr>{a, b}));

        // a is rewritten by a flushed write, b by a dirty LLC eviction.
        memory.writeBuffer(a, kCacheLineSize, /*flush_after=*/true);
        memory.accessWord(b, true);
        memory.readBuffer(sweep.addr(), sweep.size());
        ASSERT_FALSE(memory.cache().contains(b));
        failed.clear();
        memory.accessWord(a, false);
        memory.readBuffer(b, kCacheLineSize);
        EXPECT_TRUE(failed.empty());

        // c was never rewritten: it still fails, on either path.
        memory.readBuffer(c, kCacheLineSize);
        memory.evictRange(c, kCacheLineSize);
        memory.accessWord(c, false);
        EXPECT_EQ(failed, (std::vector<Addr>{c, c}));
    });
}

TEST(MemoryModel, PageTouchHookSeesEpcPagesOnly)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        std::uint64_t touches = 0;
        memory.setPageTouchHook([&](Addr, bool) -> Cycles {
            ++touches;
            return 0;
        });
        Buffer enc(machine, Domain::Epc, 4096);
        Buffer plain(machine, Domain::Untrusted, 4096);
        memory.readBuffer(enc.addr(), 4096);
        EXPECT_GT(touches, 0u);
        const std::uint64_t after_epc = touches;
        memory.readBuffer(plain.addr(), 4096);
        EXPECT_EQ(touches, after_epc); // untrusted: no hook
        memory.setPageTouchHook(nullptr);
    });
}

TEST(MemoryModel, PageTouchCostIsCharged)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        memory.setPageTouchHook(
            [](Addr, bool) -> Cycles { return 10'000; });
        Buffer enc(machine, Domain::Epc, 64);
        const Cycles cost = memory.accessWord(enc.addr(), false);
        EXPECT_GE(cost, 10'000u);
        memory.setPageTouchHook(nullptr);
    });
}

// ----------------------------------------------------------------------
// Buffer.
// ----------------------------------------------------------------------

TEST(Buffer, HoldsFunctionalBytes)
{
    Machine machine;
    Buffer buf(machine, Domain::Untrusted, 128);
    for (std::uint64_t i = 0; i < 128; ++i)
        EXPECT_EQ(buf.data()[i], 0); // zero initialized
    buf.data()[5] = 42;
    EXPECT_EQ(buf.data()[5], 42);
    EXPECT_EQ(buf.size(), 128u);
}

TEST(Buffer, MoveTransfersOwnership)
{
    Machine machine;
    Buffer a(machine, Domain::Epc, 64);
    const Addr addr = a.addr();
    Buffer b(std::move(a));
    EXPECT_EQ(b.addr(), addr);
    EXPECT_TRUE(machine.space().isEpc(b.addr()));
}

// ----------------------------------------------------------------------
// Cost-model properties.
// ----------------------------------------------------------------------

/** Property: cold sequential-read cost is monotone in length. */
class ReadCostMonotone : public ::testing::TestWithParam<int>
{
};

TEST_P(ReadCostMonotone, LongerBuffersCostMore)
{
    Machine machine;
    const bool epc = GetParam() != 0;
    runSim(machine, [&] {
        Cycles last = 0;
        for (std::uint64_t len : {64ull, 512ull, 2048ull, 8192ull,
                                  32768ull}) {
            Buffer buf(machine, epc ? Domain::Epc : Domain::Untrusted,
                       len);
            buf.evict();
            // Warm the MEE tree once so the comparison is steady
            // state, then measure cold-in-LLC.
            buf.read();
            buf.evict();
            const Cycles cost = buf.read();
            EXPECT_GT(cost, last) << "len=" << len;
            last = cost;
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Domains, ReadCostMonotone,
                         ::testing::Values(0, 1));

TEST(MemoryModel, EncryptedAlwaysCostsAtLeastPlain)
{
    Machine machine;
    runSim(machine, [&] {
        for (std::uint64_t len :
             {64ull, 1024ull, 4096ull, 65536ull}) {
            Buffer enc(machine, Domain::Epc, len);
            Buffer plain(machine, Domain::Untrusted, len);
            // steady state
            for (int i = 0; i < 2; ++i) {
                enc.evict();
                enc.read();
                plain.evict();
                plain.read();
            }
            enc.evict();
            plain.evict();
            EXPECT_GE(enc.read(), plain.read()) << "len=" << len;
        }
    });
}

// ----------------------------------------------------------------------
// Span paths. CacheModel::accessSpan/flushSpan and Mee::spanWalkMisses
// are memoised batch forms of the per-line access/flushLine and
// readWalkMisses, which accessWord keeps using. Twin models, one
// driven per span and one per line, run the same seeded mix of
// operations and must agree after every one of them.
// ----------------------------------------------------------------------

namespace {

/**
 * Drive a span-path cache and a per-line twin through @p ops seeded
 * operations: spans that repeat (so memos record and replay) from
 * cores 0-1, single-line accesses from cores 2-3 that steal lines out
 * of those spans, span and line flushes, and fills over a region four
 * times the cache that evict. @return the first op after which any
 * result, flushed dirty bit or hit/miss counter differs, or -1.
 */
int
cacheTwinDivergence(std::uint64_t seed, int ops)
{
    CacheModel span_cache(64_KiB, 4);
    CacheModel line_cache(64_KiB, 4);
    Rng rng(seed);
    constexpr Addr kBase = 0x100000;
    constexpr std::uint64_t kRegionLines = 4 * 64_KiB / kCacheLineSize;
    struct Span {
        Addr first;
        std::uint64_t count;
    };
    std::vector<Span> spans;
    for (int i = 0; i < 4; ++i) {
        spans.push_back(
            {kBase + rng.nextBelow(kRegionLines - 64) * kCacheLineSize,
             1 + rng.nextBelow(48)});
    }
    for (int op = 0; op < ops; ++op) {
        const Span &s = spans[rng.nextBelow(spans.size())];
        std::vector<std::uint64_t> by_span, by_line;
        const std::uint64_t kind = rng.nextBelow(10);
        if (kind < 5) { // a span from one of the span cores
            const auto core = static_cast<CoreId>(rng.nextBelow(2));
            const bool write = rng.chance(0.5);
            span_cache.accessSpan(
                core, s.first, s.count, write,
                [&](Addr line, const CacheModel::Result &result) {
                    noteAccess(by_span, line, result);
                });
            Addr line = s.first;
            for (std::uint64_t i = 0; i < s.count;
                 ++i, line += kCacheLineSize)
                noteAccess(by_line, line,
                           line_cache.access(core, line, write));
        } else if (kind < 8) { // one line, anywhere or out of a span
            const auto core = static_cast<CoreId>(2 + rng.nextBelow(2));
            const bool write = rng.chance(0.5);
            const Addr line =
                kind == 5 ? kBase + rng.nextBelow(kRegionLines) *
                                        kCacheLineSize
                          : s.first + rng.nextBelow(s.count) *
                                          kCacheLineSize;
            noteAccess(by_span, line,
                       span_cache.access(core, line, write));
            noteAccess(by_line, line,
                       line_cache.access(core, line, write));
        } else if (kind < 9) { // flush a span
            span_cache.flushSpan(s.first, s.count,
                                 [&](Addr line, bool dirty) {
                                     by_span.insert(by_span.end(),
                                                    {line, dirty});
                                 });
            Addr line = s.first;
            for (std::uint64_t i = 0; i < s.count;
                 ++i, line += kCacheLineSize)
                by_line.insert(by_line.end(),
                               {line, line_cache.flushLine(line)});
        } else { // flush one line of a span
            const Addr line =
                s.first + rng.nextBelow(s.count) * kCacheLineSize;
            by_span.push_back(span_cache.flushLine(line));
            by_line.push_back(line_cache.flushLine(line));
        }
        by_span.insert(by_span.end(),
                       {span_cache.hits(), span_cache.misses()});
        by_line.insert(by_line.end(),
                       {line_cache.hits(), line_cache.misses()});
        if (by_span != by_line)
            return op;
    }
    return -1;
}

/**
 * Drive a span-walking MEE and a per-line twin, both with an 8-entry
 * node cache (small enough that a walk's upper levels evict its own
 * leaf), through @p ops seeded operations: ascending spans, random
 * single-line walks and node-cache clears. @return the first op after
 * which any walk length or node hit/miss counter differs, or -1.
 */
int
meeTwinDivergence(std::uint64_t seed, int ops)
{
    CostParams params;
    params.meeCacheEntries = 8;
    constexpr Addr kBase = 0x1000000;
    constexpr std::uint64_t kLines = 16_MiB / kCacheLineSize;
    Mee span_mee(params, kBase, 16_MiB, 0x6b6579);
    Mee line_mee(params, kBase, 16_MiB, 0x6b6579);
    Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        std::vector<std::uint64_t> by_span, by_line;
        const std::uint64_t kind = rng.nextBelow(10);
        if (kind < 6) { // an ascending span
            const std::uint64_t count = 1 + rng.nextBelow(64);
            Addr line =
                kBase + rng.nextBelow(kLines - count) * kCacheLineSize;
            for (std::uint64_t i = 0; i < count;
                 ++i, line += kCacheLineSize) {
                by_span.push_back(span_mee.spanWalkMisses(line));
                by_line.push_back(line_mee.readWalkMisses(line));
            }
        } else if (kind < 9) { // a random single-line walk
            const Addr line =
                kBase + rng.nextBelow(kLines) * kCacheLineSize;
            by_span.push_back(span_mee.readWalkMisses(line));
            by_line.push_back(line_mee.readWalkMisses(line));
        } else {
            span_mee.clearNodeCache();
            line_mee.clearNodeCache();
        }
        by_span.insert(by_span.end(), {span_mee.nodeCacheHits(),
                                       span_mee.nodeCacheMisses()});
        by_line.insert(by_line.end(), {line_mee.nodeCacheHits(),
                                       line_mee.nodeCacheMisses()});
        if (by_span != by_line)
            return op;
    }
    return -1;
}

} // anonymous namespace

TEST(SpanPath, CacheSpansMatchPerLineTwin)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        EXPECT_EQ(cacheTwinDivergence(seed, 2'000), -1)
            << "seed=" << seed;
}

TEST(SpanPath, MeeSpanWalksMatchPerLineTwin)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        EXPECT_EQ(meeTwinDivergence(seed, 2'000), -1)
            << "seed=" << seed;
}

TEST(SpanPath, ZeroLengthSpansAreFree)
{
    Machine machine;
    runSim(machine, [&] {
        auto &mem = machine.memory();
        Buffer buf(machine, Domain::Epc, 256);
        const Cycles start = machine.now();
        for (const std::uint64_t off : {0ull, 1ull, 63ull}) {
            EXPECT_EQ(mem.readBuffer(buf.addr() + off, 0), 0u);
            EXPECT_EQ(mem.writeBuffer(buf.addr() + off, 0), 0u);
            EXPECT_EQ(mem.writeBuffer(buf.addr() + off, 0,
                                      /*flush_after=*/true),
                      0u);
            mem.evictRange(buf.addr() + off, 0);
        }
        EXPECT_EQ(machine.now(), start);
        EXPECT_EQ(mem.cache().hits() + mem.cache().misses(), 0u);
    });
}

TEST(SpanPath, SpanAtTopOfAddressSpaceTerminates)
{
    // Count-form loops only: a span ending exactly at the top of the
    // 64-bit address space must not wrap (the inclusive end address
    // is 0) and spin.
    Machine machine;
    runSim(machine, [&] {
        auto &mem = machine.memory();
        const Addr top_line = ~Addr{0} - 63; // 0xFF...FFC0
        EXPECT_GT(mem.readBuffer(top_line, 64), 0u);
        EXPECT_GT(mem.readBuffer(top_line - 64, 128), 0u);
        EXPECT_GT(mem.readBuffer(~Addr{0}, 1), 0u);
        EXPECT_GT(mem.writeBuffer(top_line, 64), 0u);
        EXPECT_GT(mem.writeBuffer(top_line + 1, 63,
                                  /*flush_after=*/true),
                  0u);
        mem.evictRange(top_line - 64, 128);
        EXPECT_FALSE(mem.cache().contains(top_line));
        EXPECT_GT(mem.readBuffer(top_line, 64), 0u);
        EXPECT_EQ(mem.cache().misses(), 3u); // two cold lines, a refetch
    });
}

// ----------------------------------------------------------------------
// HC_CHECK visibility: a registered sync word swept by a span keeps
// its acquire/release semantics, so a bulk copy over a channel line
// still orders the plain accesses around it.
// ----------------------------------------------------------------------

namespace {

/**
 * Producer (core 0) writes a plain word, then span-writes a buffer
 * containing @p with_sync_word ? a registered sync word : nothing.
 * Consumer (core 1) later span-reads the buffer, then reads the
 * plain word. With the sync word the span ops form a release/acquire
 * edge and the plain accesses are ordered; without it they race.
 * @return the number of Race violations SimCheck reported.
 */
std::uint64_t
spanSyncRaces(bool with_sync_word)
{
    MachineConfig config;
    config.check.enabled = true;
    Machine machine(config);
    auto &mem = machine.memory();
    const Addr span = machine.space().allocUntrusted(4096, 64);
    const Addr data = machine.space().allocUntrusted(64, 64);
    if (with_sync_word)
        machine.check()->registerSyncWord(span + 1024);
    machine.engine().spawn("producer", 0, [&] {
        mem.accessWord(data, /*write=*/true);
        mem.writeBuffer(span, 4096);
    });
    machine.engine().spawn("consumer", 1, [&] {
        machine.engine().sleepUntil(1'000'000);
        mem.readBuffer(span, 4096);
        mem.accessWord(data, /*write=*/false);
    });
    machine.engine().run();
    return machine.check()->count(check::ViolationKind::Race);
}

} // anonymous namespace

TEST(SpanPath, SyncWordInsideSpanStaysVisibleToSimCheck)
{
    EXPECT_EQ(spanSyncRaces(/*with_sync_word=*/true), 0u);
    // Control: without the sync word the same schedule races, so the
    // pass above is the span hook working, not the detector being
    // blind.
    EXPECT_GE(spanSyncRaces(/*with_sync_word=*/false), 1u);
}
