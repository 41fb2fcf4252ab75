/**
 * @file
 * MemoryModel: the priced interface to the simulated memory system.
 *
 * Every timed memory operation in the simulator flows through here:
 * the microbenchmarks (Table 1 rows 7-10, Figs 6-8), the SGX call
 * paths (whose warm/cold behaviour comes from which modelled lines hit
 * or miss), the HotCalls shared channel, and the applications' data
 * buffers. Operations charge virtual time on the calling fiber's core
 * via the simulation engine and also return the cost for callers that
 * aggregate.
 */

#ifndef HC_MEM_MEMORY_HH
#define HC_MEM_MEMORY_HH

#include <cstdint>
#include <functional>

#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/cost_params.hh"
#include "mem/mee.hh"
#include "sim/engine.hh"
#include "support/units.hh"

namespace hc::check {
class SimCheck;
}

namespace hc::mem {

/**
 * Hook invoked once per EPC page an access touches; returns extra
 * cycles (used by the SGX layer for EPC paging: EWB/ELDU).
 */
using PageTouchHook = std::function<Cycles(Addr page, bool write)>;

/** Hook invoked when MEE integrity verification fails. */
using IntegrityFailureHook = std::function<void(Addr line)>;

/** The priced memory system facade. */
class MemoryModel
{
  public:
    /**
     * @param engine  simulation engine used for charging time
     * @param space   the simulated address space
     * @param params  cost/geometry parameters
     * @param seed    seed for the MEE MAC key
     */
    MemoryModel(sim::Engine &engine, AddressSpace &space,
                const CostParams &params, std::uint64_t seed = 0x5367);

    // ------------------------------------------------------------------
    // Priced operations. Each charges the calling fiber's core and
    // returns the charged cycle count.
    // ------------------------------------------------------------------

    /**
     * Sequential read of [addr, addr+len) in 64-bit words.
     * @param charge_time  when false, update cache/MEE state and
     *        return the price without advancing the fiber clock
     *        (callers that aggregate several operations with jitter
     *        charge the sum themselves)
     */
    Cycles readBuffer(Addr addr, std::uint64_t len,
                      bool charge_time = true);

    /**
     * Sequential write of [addr, addr+len).
     *
     * @param flush_after  additionally clflush+mfence every line, as
     *        the paper's write microbenchmark does (Section 3.4)
     * @param charge_time  see readBuffer()
     */
    Cycles writeBuffer(Addr addr, std::uint64_t len,
                       bool flush_after = false,
                       bool charge_time = true);

    /** One demand access of at most 8 bytes. */
    Cycles accessWord(Addr addr, bool write, bool charge_time = true);

    /**
     * The price of accessWord(@p addr, ..., false) from the calling
     * core, when it is an owned hit that changes nothing but the line's
     * LRU place, its dirty bit and the cache's counters (a polling
     * loop's idle probe, see sim::Spin::steady()); else 0. Always 0
     * with SimCheck attached, which must see every access, and for EPC
     * lines, which take the page-touch hook.
     */
    Cycles steadyProbe(Addr addr) const
    {
        return check_ || space_.isEpc(addr) ||
                       !cache_.ownedMemoHit(currentCore(), addr)
                   ? 0
                   : params_.ownedHit;
    }

    /**
     * Apply @p count accesses of @p addr from the calling core that
     * steadyProbe() priced: they ran after cache use clock @p since,
     * the last of them as the @p last-th access, counting every core's
     * (CacheModel::replayOwnedHits()).
     */
    void replaySteadyProbes(Addr addr, bool write, std::uint64_t count,
                            std::uint64_t since, std::uint64_t last)
    {
        cache_.replayOwnedHits(currentCore(), addr, write, count, since,
                               last);
    }

    // ------------------------------------------------------------------
    // Un-priced state manipulation (experiment setup, mirroring the
    // paper's use of clflush outside the measured region).
    // ------------------------------------------------------------------

    /** Evict every line overlapping [addr, addr+len). */
    void evictRange(Addr addr, std::uint64_t len);

    /** Evict the entire LLC (cold-cache experiments). Dirty lines are
     *  dropped, not written back through the MEE. */
    void evictAll();

    // ------------------------------------------------------------------
    // Hooks.
    // ------------------------------------------------------------------

    /** Install the per-page touch hook (EPC paging). */
    void setPageTouchHook(PageTouchHook hook);

    /** Install the integrity-failure handler (default: panic). */
    void setIntegrityFailureHook(IntegrityFailureHook hook);

    /** Attach the SimCheck race detector (null to detach); every
     *  accessWord() is then reported to it. Wired by mem::Machine. */
    void setCheck(check::SimCheck *check) { check_ = check; }

    // ------------------------------------------------------------------
    // Access to sub-models.
    // ------------------------------------------------------------------

    CacheModel &cache() { return cache_; }
    Mee &mee() { return mee_; }
    const CostParams &params() const { return params_; }
    AddressSpace &space() { return space_; }
    sim::Engine &engine() { return engine_; }

    /** @return the calling fiber's core, or 0 outside the simulation. */
    CoreId currentCore() const;

  private:
    /** Charge @p cycles on the calling fiber, if any. */
    void charge(Cycles cycles);

    /**
     * The single double→Cycles rounding point.
     *
     * Span costs accumulate as doubles because several per-line
     * parameters are calibrated to fractional cycles (seqReadPerLine =
     * 22.7, meeStreamOverlap = 7.42, ...); rounding per line would
     * distort large transfers by up to half a cycle per line.
     * Accumulation order is fixed (page-touch extra first, then
     * strictly ascending line order, then flushes) and every span
     * operation rounds exactly once, here — keeping results
     * bit-identical across runs and refactors. accessWord() sums its
     * whole-cycle outcomes as Cycles and comes here only for an EPC
     * load miss, whose MEE factors are fractional: the integer part is
     * converted once, then the fractional terms are added in the same
     * order. (The llround of an integer-valued double is that integer,
     * so the integer sum is the same result.) Do not round anywhere
     * else, and do not reassociate the additions: both would shift
     * Table 1/Fig 6-8 outputs.
     */
    static Cycles roundCost(double cost);

    /** Handle a cache-fill result's eviction (EPC write-back). */
    void handleEviction(const CacheModel::Result &result);

    /** Verify integrity of a line fetched from DRAM. */
    void verifyFetched(Addr line);

    /** Apply the page-touch hook over the pages of a range.
     *  @return the extra cycles; 0 for a range outside the EPC */
    Cycles touchPages(Addr addr, std::uint64_t len, bool write);

    /** @return number of lines [addr, addr+len) overlaps (len > 0).
     *  Count form on purpose: an inclusive last-line address would
     *  wrap for spans ending at the top of the address space. */
    static std::uint64_t spanLines(Addr addr, std::uint64_t len)
    {
        return ((addr + len - 1) / kCacheLineSize) -
               (addr / kCacheLineSize) + 1;
    }

    sim::Engine &engine_;
    AddressSpace &space_;
    CostParams params_;
    CacheModel cache_;
    Mee mee_;
    PageTouchHook pageTouch_;
    IntegrityFailureHook integrityFailure_;
    check::SimCheck *check_ = nullptr;
};

} // namespace hc::mem

#endif // HC_MEM_MEMORY_HH
