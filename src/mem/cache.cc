/**
 * @file
 * LLC model implementation.
 */

#include "mem/cache.hh"

#include <bit>

#include "support/hash.hh"
#include "support/logging.hh"

namespace hc::mem {

CacheModel::CacheModel(std::uint64_t size, int ways,
                       std::uint64_t line_size)
    : lineSize_(line_size)
{
    hc_assert(ways > 0 && ways <= 64); // Set::validMask is 64 bits
    hc_assert(line_size > 0 && (line_size & (line_size - 1)) == 0);
    const std::uint64_t lines = size / line_size;
    hc_assert(lines % static_cast<std::uint64_t>(ways) == 0);
    const std::uint64_t num_sets = lines / static_cast<std::uint64_t>(ways);
    sets_.resize(num_sets);
    for (auto &set : sets_)
        set.ways.resize(static_cast<std::size_t>(ways));
    // The default geometry gives a power-of-two set count; index with
    // a mask then, falling back to modulo for odd configurations.
    if ((num_sets & (num_sets - 1)) == 0)
        setMask_ = num_sets - 1;
}

CacheModel::Set &
CacheModel::setFor(Addr addr)
{
    // Hash the line address so widely separated regions (untrusted vs
    // EPC bases) spread over all sets instead of aliasing.
    const std::uint64_t hash = mix64(lineAddr(addr));
    const std::uint64_t idx =
        setMask_ ? (hash & setMask_) : hash % sets_.size();
    return sets_[idx];
}

const CacheModel::Set &
CacheModel::setFor(Addr addr) const
{
    const std::uint64_t hash = mix64(lineAddr(addr));
    const std::uint64_t idx =
        setMask_ ? (hash & setMask_) : hash % sets_.size();
    return sets_[idx];
}

CacheOutcome
CacheModel::touchHit(Line &way, CoreId core, bool write)
{
    const CacheOutcome outcome = (way.owner == core)
                                     ? CacheOutcome::OwnedHit
                                     : CacheOutcome::SharedHit;
    if (outcome == CacheOutcome::SharedHit)
        ++modGen_; // ownership transfer invalidates span memos
    way.owner = core;
    way.dirty = way.dirty || write;
    way.lastUse = useCounter_;
    ++hits_;
    return outcome;
}

CacheModel::Result
CacheModel::access(CoreId core, Addr addr, bool write)
{
    Line *touched = nullptr;
    return accessImpl(core, addr, write, touched);
}

CacheModel::Result
CacheModel::accessImpl(CoreId core, Addr addr, bool write,
                       Line *&touched)
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
    if (memo.line == line && memo.way->valid && memo.way->tag == line) {
        result.outcome = touchHit(*memo.way, core, write);
        touched = memo.way;
        return result;
    }

    Set &set = setFor(addr);
    Line *const ways = set.ways.data();
    // Probe only the valid ways (ascending way order, like a full
    // scan with the valid check — same candidates, same first match).
    for (std::uint64_t m = set.validMask; m != 0; m &= m - 1) {
        Line &way = ways[std::countr_zero(m)];
        if (way.tag == line) {
            result.outcome = touchHit(way, core, write);
            memo = CoreMemo{line, &way};
            touched = &way;
            return result;
        }
    }

    // Miss: fill, evicting the first invalid way, else the LRU way.
    const auto num_ways = static_cast<unsigned>(set.ways.size());
    const std::uint64_t full_mask =
        num_ways >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << num_ways) - 1;
    const std::uint64_t invalid = full_mask & ~set.validMask;
    Line *victim = nullptr;
    if (invalid != 0) {
        victim = &ways[std::countr_zero(invalid)];
    } else {
        for (auto &way : set.ways) {
            if (!victim || way.lastUse < victim->lastUse)
                victim = &way;
        }
    }
    hc_assert(victim);
    ++misses_;
    if (victim->valid) {
        // Only a fill that displaces a VALID line can falsify a span
        // memo: every line a live memo asserts is resident, and any
        // invalidation bumps the generation, so live memos never
        // reference invalid ways. A fill into an invalid way displaces
        // nothing a memo could be tracking.
        ++modGen_;
        result.evicted = true;
        result.evictedDirty = victim->dirty;
        result.evictedLine = victim->tag;
    }
    victim->tag = line;
    victim->valid = true;
    victim->dirty = write;
    victim->owner = core;
    victim->lastUse = useCounter_;
    set.validMask |= std::uint64_t{1} << (victim - ways);
    memo = CoreMemo{line, victim};
    touched = victim;
    return result;
}

bool
CacheModel::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const Set &set = setFor(addr);
    for (const auto &way : set.ways)
        if (way.valid && way.tag == line)
            return true;
    return false;
}

bool
CacheModel::flushLine(Addr addr)
{
    const Addr line = lineAddr(addr);
    Set &set = setFor(addr);
    for (std::uint64_t m = set.validMask; m != 0; m &= m - 1) {
        const unsigned idx = std::countr_zero(m);
        Line &way = set.ways[idx];
        if (way.tag == line) {
            const bool dirty = way.dirty;
            way.valid = false;
            way.dirty = false;
            set.validMask &= ~(std::uint64_t{1} << idx);
            ++modGen_; // residency change invalidates span memos
            return dirty;
        }
    }
    return false;
}

void
CacheModel::flushAll()
{
    for (auto &set : sets_) {
        for (auto &way : set.ways) {
            way.valid = false;
            way.dirty = false;
        }
        set.validMask = 0;
    }
    ++modGen_;
    spanMemos_.clear();
}

} // namespace hc::mem
