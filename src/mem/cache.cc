/**
 * @file
 * LLC model implementation.
 */

#include "mem/cache.hh"

#include <bit>
#include <limits>
#include <new>

#include "support/hash.hh"
#include "support/logging.hh"

namespace hc::mem {

CacheModel::CacheModel(std::uint64_t size, int ways,
                       std::uint64_t line_size)
    : lineSize_(line_size), ways_(static_cast<Way>(ways))
{
    hc_assert(ways > 0 && ways <= 64); // validMask_ words are 64 bits
    // Power of two, and above 1 so that kNoLine is not line-aligned.
    hc_assert(line_size > 1 && (line_size & (line_size - 1)) == 0);
    const std::uint64_t lines = size / line_size;
    hc_assert(lines % ways_ == 0);
    hc_assert(lines <= std::numeric_limits<Way>::max());
    numSets_ = lines / ways_;
    fullMask_ = ways_ == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << ways_) - 1;
    wayStore_ = std::make_unique_for_overwrite<std::byte[]>(
        lines * (sizeof(Addr) + sizeof(std::uint64_t) + sizeof(CoreId) +
                 sizeof(bool)));
    // Widest alignment first; default-initialising trivial arrays
    // writes nothing.
    std::byte *next = wayStore_.get();
    tags_ = new (next) Addr[lines];
    next += lines * sizeof(Addr);
    lastUse_ = new (next) std::uint64_t[lines];
    next += lines * sizeof(std::uint64_t);
    owners_ = new (next) CoreId[lines];
    next += lines * sizeof(CoreId);
    dirty_ = new (next) bool[lines];
    validMask_.assign(numSets_, 0);
    // The default geometry gives a power-of-two set count; index with
    // a mask then, falling back to modulo for odd configurations.
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
}

std::uint64_t
CacheModel::setIndex(Addr line) const
{
    // Hash the line address so widely separated regions (untrusted vs
    // EPC bases) spread over all sets instead of aliasing.
    const std::uint64_t hash = mix64(line);
    return setMask_ ? (hash & setMask_) : hash % numSets_;
}

CacheOutcome
CacheModel::touchHit(Way way, CoreId core, bool write)
{
    const CacheOutcome outcome = (owners_[way] == core)
                                     ? CacheOutcome::OwnedHit
                                     : CacheOutcome::SharedHit;
    if (outcome == CacheOutcome::SharedHit)
        ++modGen_; // ownership transfer invalidates span memos
    owners_[way] = core;
    dirty_[way] = dirty_[way] || write;
    lastUse_[way] = useCounter_;
    ++hits_;
    return outcome;
}

bool
CacheModel::invalidate(Way way)
{
    tags_[way] = kNoLine;
    validMask_[way / ways_] &= ~(std::uint64_t{1} << (way % ways_));
    return dirty_[way];
}

CacheModel::Result
CacheModel::access(CoreId core, Addr addr, bool write)
{
    Way touched = 0;
    return accessImpl(core, addr, write, touched);
}

CacheModel::Result
CacheModel::accessImpl(CoreId core, Addr addr, bool write, Way &touched)
{
    Result result;
    const Addr line = lineAddr(addr);
    ++useCounter_;

    // Same line as this core's previous access and still resident:
    // skip the set hash and the way scan.
    const auto core_idx = static_cast<std::size_t>(core);
    if (core_idx >= memo_.size())
        memo_.resize(core_idx + 1);
    CoreMemo &memo = memo_[core_idx];
    if (memo.line == line && tags_[memo.way] == line) {
        result.outcome = touchHit(memo.way, core, write);
        touched = memo.way;
        return result;
    }

    const std::uint64_t set = setIndex(line);
    const auto base = static_cast<Way>(set * ways_);
    std::uint64_t &valid = validMask_[set];
    // Probe only the valid ways (ascending way order, like a full
    // scan with the valid check — same candidates, same first match).
    for (std::uint64_t m = valid; m != 0; m &= m - 1) {
        const Way way = base + static_cast<Way>(std::countr_zero(m));
        if (tags_[way] == line) {
            result.outcome = touchHit(way, core, write);
            memo = CoreMemo{line, way};
            touched = way;
            return result;
        }
    }

    // Miss: fill, evicting the first invalid way, else the LRU way
    // (the first of the least lastUse).
    ++misses_;
    const std::uint64_t invalid = fullMask_ & ~valid;
    Way victim = base;
    if (invalid != 0) {
        victim += static_cast<Way>(std::countr_zero(invalid));
    } else {
        for (Way way = base + 1; way < base + ways_; ++way)
            if (lastUse_[way] < lastUse_[victim])
                victim = way;
        // Only a fill that displaces a VALID line can falsify a span
        // memo: every line a live memo asserts is resident, and any
        // invalidation bumps the generation, so live memos never
        // reference invalid ways. A fill into an invalid way displaces
        // nothing a memo could be tracking.
        ++modGen_;
        result.evicted = true;
        result.evictedDirty = dirty_[victim];
        result.evictedLine = tags_[victim];
    }
    tags_[victim] = line;
    dirty_[victim] = write;
    owners_[victim] = core;
    lastUse_[victim] = useCounter_;
    valid |= std::uint64_t{1} << (victim - base);
    memo = CoreMemo{line, victim};
    touched = victim;
    return result;
}

void
CacheModel::recordSpan(Addr first_line, CoreId core)
{
    const std::uint64_t count = scratchWays_.size();
    const auto it = spanMemos_.find(first_line);
    if (it != spanMemos_.end())
        spanMemoLines_ -= it->second.count; // replaced below
    if (spanMemos_.size() >= kSpanMemoMaxEntries ||
        spanMemoLines_ + count > numSets_ * ways_) {
        spanMemos_.clear();
        spanMemoLines_ = 0;
    }
    SpanMemo &memo = spanMemos_[first_line];
    memo.count = count;
    memo.core = core;
    memo.gen = modGen_;
    memo.ways.assign(scratchWays_.begin(), scratchWays_.end());
    spanMemoLines_ += count;
}

void
CacheModel::replayOwnedHits(CoreId core, Addr addr, bool write,
                            std::uint64_t count, std::uint64_t since,
                            std::uint64_t last)
{
    hc_assert(ownedMemoHit(core, addr) && count > 0 && last >= count);
    // What touchHit() does to an owned way, count times over: the
    // owner and the memo already name this core and way, and an owned
    // hit bumps no generation.
    const Way way = memo_[static_cast<std::size_t>(core)].way;
    useCounter_ += count;
    hits_ += count;
    lastUse_[way] = since + last;
    dirty_[way] = dirty_[way] || write;
}

bool
CacheModel::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const std::uint64_t set = setIndex(line);
    const auto base = static_cast<Way>(set * ways_);
    for (std::uint64_t m = validMask_[set]; m != 0; m &= m - 1)
        if (tags_[base + static_cast<Way>(std::countr_zero(m))] == line)
            return true;
    return false;
}

bool
CacheModel::flushLine(Addr addr)
{
    const Addr line = lineAddr(addr);
    const std::uint64_t set = setIndex(line);
    const auto base = static_cast<Way>(set * ways_);
    for (std::uint64_t m = validMask_[set]; m != 0; m &= m - 1) {
        const Way way = base + static_cast<Way>(std::countr_zero(m));
        if (tags_[way] == line) {
            ++modGen_; // residency change invalidates span memos
            return invalidate(way);
        }
    }
    return false;
}

void
CacheModel::flushAll()
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const auto base = static_cast<Way>(set * ways_);
        for (std::uint64_t m = validMask_[set]; m != 0; m &= m - 1)
            tags_[base + static_cast<Way>(std::countr_zero(m))] = kNoLine;
        validMask_[set] = 0;
    }
    ++modGen_;
    spanMemos_.clear();
    spanMemoLines_ = 0;
}

} // namespace hc::mem
