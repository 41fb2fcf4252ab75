/**
 * @file
 * MemoryModel implementation.
 */

#include "mem/memory.hh"

#include <cmath>

#include "check/check.hh"
#include "support/logging.hh"

namespace hc::mem {

MemoryModel::MemoryModel(sim::Engine &engine, AddressSpace &space,
                         const CostParams &params, std::uint64_t seed)
    : engine_(engine), space_(space), params_(params),
      cache_(params.llcSize, params.llcWays),
      mee_(params_, AddressSpace::kEpcBase, params.epcVirtualSize, seed)
{
}

Cycles
MemoryModel::roundCost(double cost)
{
    return static_cast<Cycles>(std::llround(cost));
}

CoreId
MemoryModel::currentCore() const
{
    const sim::Thread *thread = engine_.currentThread();
    return thread ? thread->core() : 0;
}

void
MemoryModel::charge(Cycles cycles)
{
    if (engine_.currentThread())
        engine_.advance(cycles);
}

void
MemoryModel::handleEviction(const CacheModel::Result &result)
{
    if (result.evicted && result.evictedDirty &&
        space_.isEpc(result.evictedLine)) {
        // Dirty EPC line leaves the package: the MEE encrypts it and
        // bumps its version counter. The latency is absorbed by the
        // write-combining buffers, so no cycles are charged here.
        mee_.writebackLine(result.evictedLine);
    }
}

void
MemoryModel::verifyFetched(Addr line)
{
    if (!mee_.verifyLine(line)) {
        if (integrityFailure_) {
            integrityFailure_(line);
        } else {
            panic("MEE integrity failure on line 0x%llx "
                  "(tampered or rolled-back memory)",
                  static_cast<unsigned long long>(line));
        }
    }
}

Cycles
MemoryModel::touchPages(Addr addr, std::uint64_t len, bool write)
{
    if (!pageTouch_ || !space_.isEpc(addr))
        return 0;
    Cycles extra = 0;
    // Count-based loop (not an inclusive end address): a range ending
    // at the top of the address space must not wrap and spin forever.
    const Addr first = addr & ~(kPageSize - 1);
    const std::uint64_t count =
        ((addr + (len ? len - 1 : 0)) / kPageSize) -
        (first / kPageSize) + 1;
    Addr page = first;
    for (std::uint64_t i = 0; i < count; ++i, page += kPageSize)
        extra += pageTouch_(page, write);
    return extra;
}

Cycles
MemoryModel::readBuffer(Addr addr, std::uint64_t len, bool charge_time)
{
    if (len == 0)
        return 0;
    if (check_)
        check_->onSpanAccess(addr, len, false);
    const bool epc = space_.isEpc(addr);
    const CoreId core = currentCore();
    double cost = static_cast<double>(touchPages(addr, len, false));

    const Addr first = addr & ~(kCacheLineSize - 1);
    const std::uint64_t count = spanLines(addr, len);

    // Costs add in ascending line order and round once, at the end
    // (the single-rounding-point contract: see roundCost()).
    const auto price = [&](Addr line, const CacheModel::Result &result) {
        handleEviction(result);
        switch (result.outcome) {
          case CacheOutcome::OwnedHit:
            cost += params_.seqHitPerLine;
            break;
          case CacheOutcome::SharedHit:
            cost += static_cast<double>(params_.cacheToCache);
            break;
          case CacheOutcome::Miss:
            cost += params_.seqReadPerLine;
            if (epc) {
                verifyFetched(line);
                const int walk_misses = mee_.spanWalkMisses(line);
                const double spec_pipe =
                    params_.meeSpeculativeLoading
                        ? params_.speculativePipelineFactor
                        : 1.0;
                const double spec_walk =
                    params_.meeSpeculativeLoading
                        ? params_.speculativeWalkFactor
                        : 1.0;
                cost += static_cast<double>(params_.meeReadPipeline) *
                        spec_pipe / params_.meeStreamOverlap;
                cost += static_cast<double>(walk_misses) *
                        static_cast<double>(params_.treeNodeFetch) *
                        spec_walk;
            }
            break;
        }
    };
    cache_.accessSpan(core, first, count, false, price);

    const Cycles cycles = roundCost(cost);
    if (charge_time)
        charge(cycles);
    return cycles;
}

Cycles
MemoryModel::writeBuffer(Addr addr, std::uint64_t len, bool flush_after,
                        bool charge_time)
{
    if (len == 0)
        return 0;
    if (check_)
        check_->onSpanAccess(addr, len, true);
    const bool epc = space_.isEpc(addr);
    const CoreId core = currentCore();
    double cost = static_cast<double>(touchPages(addr, len, true));

    const Addr first = addr & ~(kCacheLineSize - 1);
    const std::uint64_t count = spanLines(addr, len);

    const auto price = [&](Addr, const CacheModel::Result &result) {
        handleEviction(result);
        switch (result.outcome) {
          case CacheOutcome::OwnedHit:
            cost += params_.seqHitPerLine;
            break;
          case CacheOutcome::SharedHit:
            cost += static_cast<double>(params_.cacheToCache);
            break;
          case CacheOutcome::Miss:
            // Write-allocate fill. Whole-line overwrites stream well;
            // the MEE costs bind at eviction (write) time, not here.
            cost += params_.seqWritePerLine;
            break;
        }
    };
    const auto price_flush = [&](Addr line, bool dirty) {
        if (!dirty)
            return;
        cost += params_.flushPerLine;
        if (epc) {
            // clflush of a dirty EPC line pushes it through the
            // MEE encrypt pipeline synchronously.
            cost += static_cast<double>(params_.meeWritePipeline) /
                    params_.meeStreamOverlap;
            mee_.writebackLine(line);
        }
    };
    cache_.accessSpan(core, first, count, true, price);
    if (flush_after)
        cache_.flushSpan(first, count, price_flush);

    const Cycles cycles = roundCost(cost);
    if (charge_time)
        charge(cycles);
    return cycles;
}

Cycles
MemoryModel::accessWord(Addr addr, bool write, bool charge_time)
{
    if (check_)
        check_->onWordAccess(addr, write);
    const bool epc = space_.isEpc(addr);
    const CoreId core = currentCore();
    // Every outcome but the EPC load miss is a whole number of cycles:
    // summed exactly, with no rounding (see roundCost()).
    Cycles cycles = epc ? touchPages(addr, 8, write) : 0;

    const auto result = cache_.access(core, addr, write);
    handleEviction(result);
    switch (result.outcome) {
      case CacheOutcome::OwnedHit:
        cycles += params_.ownedHit;
        break;
      case CacheOutcome::SharedHit:
        cycles += params_.cacheToCache;
        break;
      case CacheOutcome::Miss:
        if (write) {
            cycles += params_.plainStoreMiss;
            if (epc)
                cycles += params_.meeWritePipeline;
        } else {
            cycles += params_.plainLoadMiss;
            if (epc) {
                verifyFetched(addr & ~(kCacheLineSize - 1));
                const int walk_misses =
                    mee_.readWalkMisses(addr & ~(kCacheLineSize - 1));
                const double spec_pipe =
                    params_.meeSpeculativeLoading
                        ? params_.speculativePipelineFactor
                        : 1.0;
                const double spec_walk =
                    params_.meeSpeculativeLoading
                        ? params_.speculativeWalkFactor
                        : 1.0;
                double cost = static_cast<double>(cycles);
                cost += static_cast<double>(params_.meeReadPipeline) *
                        spec_pipe;
                cost += static_cast<double>(walk_misses) *
                        static_cast<double>(params_.treeNodeFetch) *
                        spec_walk;
                cycles = roundCost(cost);
            }
        }
        break;
    }

    if (charge_time)
        charge(cycles);
    return cycles;
}

void
MemoryModel::evictRange(Addr addr, std::uint64_t len)
{
    if (len == 0)
        return;
    const auto writeback = [&](Addr line, bool dirty) {
        if (dirty && space_.isEpc(line))
            mee_.writebackLine(line);
    };
    cache_.flushSpan(addr & ~(kCacheLineSize - 1), spanLines(addr, len),
                     writeback);
}

void
MemoryModel::evictAll()
{
    // Drops every line, dirty EPC lines included, with no write-back:
    // their data never left the package, so the MEE's counters and
    // DRAM pairs still hold the last write-back, which a later fetch
    // verifies.
    cache_.flushAll();
}

void
MemoryModel::setPageTouchHook(PageTouchHook hook)
{
    pageTouch_ = std::move(hook);
}

void
MemoryModel::setIntegrityFailureHook(IntegrityFailureHook hook)
{
    integrityFailure_ = std::move(hook);
}

} // namespace hc::mem
