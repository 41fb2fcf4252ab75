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

namespace {

/** One bit per 16-bit lane of a 64-bit word. */
constexpr std::uint64_t kLanes = 0x0001'0001'0001'0001;

/** An LRU order before any use: slot s at rank s. */
constexpr std::uint64_t kFirstOrder = 0xfedc'ba98'7654'3210;

/**
 * @return bit s set iff slot s's fingerprint in @p words (4 lanes a
 * word) is @p fingerprint.
 */
unsigned
matches(const std::uint64_t (&words)[4], std::uint16_t fingerprint)
{
    constexpr std::uint64_t kLow15 = 0x7fff * kLanes;
    unsigned mask = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const std::uint64_t x = words[i] ^ (fingerprint * kLanes);
        // Bit 15 of each lane that is zero in x: adding 0x7fff to its
        // low 15 bits carries into bit 15 iff they are not all zero,
        // and never into the next lane.
        const std::uint64_t zero = ~(((x & kLow15) + kLow15) | x | kLow15);
        // Lane k's bit (16k + 15) to bit 48 + k: the multiplier's four
        // bits put the other products at distinct bits below 48 or
        // above 63, so nothing carries into bits 48..51.
        const std::uint64_t lanes =
            ((zero >> 15) * 0x0001'0002'0004'0008) >> 48;
        mask |= static_cast<unsigned>(lanes) << (4 * i);
    }
    return mask;
}

} // anonymous namespace

CacheModel::CacheModel(std::uint64_t size, int ways,
                       std::uint64_t line_size)
    : lineSize_(line_size), ways_(static_cast<unsigned>(ways))
{
    hc_assert(ways > 0 && ways <= kMaxWays); // a set header's slots
    // Power of two, and above 1 so that kNoLine is not line-aligned.
    hc_assert(line_size > 1 && (line_size & (line_size - 1)) == 0);
    const std::uint64_t lines = size / line_size;
    hc_assert(lines % ways_ == 0);
    numSets_ = lines / ways_;
    hc_assert(numSets_ * kMaxWays <= std::numeric_limits<Way>::max());
    fullMask_ = static_cast<std::uint16_t>((1u << ways_) - 1);
    // Default-initialising trivial arrays writes nothing.
    constexpr std::size_t kTagLines =
        kMaxWays * sizeof(Addr) / sizeof(HostLine);
    store_ = std::make_unique_for_overwrite<HostLine[]>(numSets_ *
                                                        (1 + kTagLines));
    headers_ = new (store_.get()) SetHeader[numSets_];
    tags_ = new (store_.get() + numSets_) Addr[numSets_ * kMaxWays];
    validMask_.assign(numSets_, 0);
    // The default geometry gives a power-of-two set count; index with
    // a mask then, falling back to modulo for odd configurations.
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
}

inline CacheModel::Place
CacheModel::placeOf(Addr line) const
{
    // Hash the line address so widely separated regions (untrusted vs
    // EPC bases) spread over all sets instead of aliasing; the hash's
    // top 16 bits are the line's fingerprint.
    const std::uint64_t hash = mix64(line);
    return {setMask_ ? (hash & setMask_) : hash % numSets_,
            static_cast<std::uint16_t>(hash >> 48)};
}

inline CacheModel::Way
CacheModel::find(Addr line, const Place &place) const
{
    const unsigned valid = validMask_[place.set];
    if (valid == 0) // the header may never have been written
        return kNoWay;
    // Ascending slot order, like a full scan with the valid check: a
    // line is resident in one way at most, so the first match is it.
    const auto base = static_cast<Way>(place.set * kMaxWays);
    for (unsigned m = matches(headers_[place.set].fingerprints,
                              place.fingerprint) &
                      valid;
         m != 0; m &= m - 1) {
        const Way way = base + static_cast<Way>(std::countr_zero(m));
        if (tags_[way] == line)
            return way;
    }
    return kNoWay;
}

inline CacheOutcome
CacheModel::touchHit(Way way, CoreId core, bool write)
{
    const CacheOutcome outcome = owned(way, core) ? CacheOutcome::OwnedHit
                                                  : CacheOutcome::SharedHit;
    if (outcome == CacheOutcome::SharedHit)
        ++modGen_; // ownership transfer invalidates span memos
    headerOf(way).owners[slotOf(way)] = static_cast<std::uint8_t>(core);
    use(way, write, 0);
    ++hits_;
    return outcome;
}

bool
CacheModel::invalidate(Way way)
{
    const unsigned slot = slotOf(way);
    tags_[way] = kNoLine;
    validMask_[way / kMaxWays] &= static_cast<std::uint16_t>(~(1u << slot));
    return (headerOf(way).dirty >> slot) & 1;
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
    // skip the set hash and the lookup.
    const auto core_idx = static_cast<std::size_t>(core);
    if (core_idx >= memo_.size()) {
        hc_assert(core >= 0 && core <= kMaxCore); // owners are bytes
        memo_.resize(core_idx + 1);
    }
    CoreMemo &memo = memo_[core_idx];
    if (memo.line == line && tags_[memo.way] == line) {
        result.outcome = touchHit(memo.way, core, write);
        touched = memo.way;
        return result;
    }

    const Place place = placeOf(line);
    const Way hit = find(line, place);
    if (hit != kNoWay) {
        result.outcome = touchHit(hit, core, write);
        memo = CoreMemo{line, hit};
        touched = hit;
        return result;
    }

    // Miss: fill, evicting the first invalid way, else the least
    // recently used one.
    ++misses_;
    const std::uint64_t set = place.set;
    SetHeader &header = headers_[set];
    std::uint16_t &valid = validMask_[set];
    unsigned slot = 0;
    if (valid == 0) {
        header = SetHeader{{}, kFirstOrder, {}, 0};
    } else if (valid != fullMask_) {
        slot = static_cast<unsigned>(std::countr_zero(
            static_cast<unsigned>(fullMask_ & ~valid)));
    } else {
        slot = (header.order >> (4 * (ways_ - 1))) & 0xf;
        // Only a fill that displaces a VALID line can falsify a span
        // memo: every line a live memo asserts is resident, and any
        // invalidation bumps the generation, so live memos never
        // reference invalid ways. A fill into an invalid way displaces
        // nothing a memo could be tracking.
        ++modGen_;
        result.evicted = true;
        result.evictedDirty = (header.dirty >> slot) & 1;
        result.evictedLine = tags_[set * kMaxWays + slot];
    }
    const auto victim = static_cast<Way>(set * kMaxWays + slot);
    tags_[victim] = line;
    const unsigned shift = 16 * (slot % 4);
    std::uint64_t &word = header.fingerprints[slot / 4];
    word = (word & ~(std::uint64_t{0xffff} << shift)) |
           (std::uint64_t{place.fingerprint} << shift);
    header.owners[slot] = static_cast<std::uint8_t>(core);
    header.dirty &= static_cast<std::uint16_t>(~(1u << slot));
    use(victim, write, 0);
    valid |= static_cast<std::uint16_t>(1u << slot);
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
    if (useCounter_ == since) {
        replayed_.clear(); // a new batch
    } else {
        // The batch's calls arrive back to back.
        hc_assert(since == replaySince_ && useCounter_ == replayClock_);
    }
    // What touchHit() does to an owned way, count times over: the
    // owner and the memo already name this core and way, and an owned
    // hit bumps no generation. The last hit, at use clock since + last,
    // ranks the line behind its set's lines this batch already replayed
    // with later last hits, and ahead of every other line.
    const Way way = memo_[static_cast<std::size_t>(core)].way;
    const std::uint64_t clock = since + last;
    unsigned rank = 0;
    for (const auto &[other, other_clock] : replayed_) {
        hc_assert(other != way);
        rank += other / kMaxWays == way / kMaxWays && other_clock > clock;
    }
    use(way, write, rank);
    replayed_.emplace_back(way, clock);
    useCounter_ += count;
    hits_ += count;
    replaySince_ = since;
    replayClock_ = useCounter_;
}

bool
CacheModel::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    return find(line, placeOf(line)) != kNoWay;
}

bool
CacheModel::flushLine(Addr addr)
{
    const Addr line = lineAddr(addr);
    const Way way = find(line, placeOf(line));
    if (way == kNoWay)
        return false;
    ++modGen_; // residency change invalidates span memos
    return invalidate(way);
}

void
CacheModel::flushAll()
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const auto base = static_cast<Way>(set * kMaxWays);
        for (unsigned m = validMask_[set]; m != 0; m &= m - 1)
            tags_[base + static_cast<Way>(std::countr_zero(m))] = kNoLine;
        validMask_[set] = 0;
    }
    ++modGen_;
    spanMemos_.clear();
    spanMemoLines_ = 0;
}

} // namespace hc::mem
