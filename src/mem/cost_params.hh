/**
 * @file
 * Memory-system cost parameters (single source of truth).
 *
 * Every constant is anchored to a measurement in the paper (Table 1,
 * Figures 6-8) or to public latency numbers cited by it. The SGX
 * call-path constants (EENTER microcode, marshalling per-byte costs)
 * live separately in sgx/sgx_cost_params.hh.
 *
 * Calibration anchors (paper, Table 1):
 *   row 7: sequential 2 KiB read, encrypted/plain = 1,124 / 727 cycles
 *   row 8: sequential 2 KiB write, encrypted/plain = 6,875 / 6,458
 *   row 9: cache load miss, encrypted/plain = 400 / 308
 *   row 10: cache store miss, encrypted/plain = 575 / 481
 *   Fig 6: read overhead grows 54.5% -> 102% from 2 KiB to 32 KiB
 *   Fig 7: write overhead ~6% for all sizes >= 1 KiB
 */

#ifndef HC_MEM_COST_PARAMS_HH
#define HC_MEM_COST_PARAMS_HH

#include <cstdint>

#include "support/units.hh"

namespace hc::mem {

/** Timing and geometry parameters of the simulated memory system. */
struct CostParams {
    // ------------------------------------------------------------------
    // Geometry (paper's i7-6700K).
    // ------------------------------------------------------------------
    std::uint64_t llcSize = 8_MiB;   //!< shared last-level cache
    int llcWays = 16;                //!< LLC associativity
    std::uint64_t epcSize = 93_MiB;  //!< usable EPC (paper Section 3.4)
    /** Enclave virtual address space backed by EPC paging; working
     *  sets beyond epcSize fault (EWB/ELDU), as libquantum's 96 MiB
     *  and the KV store's dataset do. */
    std::uint64_t epcVirtualSize = 256_MiB;

    // ------------------------------------------------------------------
    // Single-access latencies.
    // ------------------------------------------------------------------
    /** Access served by the accessing core's cached copy. */
    Cycles ownedHit = 6;
    /** Access hitting in LLC but last touched by the same core. */
    Cycles llcHit = 40;
    /** Line held (possibly dirty) by another core: c2c transfer. */
    Cycles cacheToCache = 50;
    /** Plain DRAM load miss (Table 1 row 9). */
    Cycles plainLoadMiss = 308;
    /** Plain DRAM store miss / RFO (Table 1 row 10). */
    Cycles plainStoreMiss = 481;
    /** MEE decrypt+verify pipeline for a demand load (400-308). */
    Cycles meeReadPipeline = 92;
    /** MEE encrypt pipeline for a demand store (575-481). */
    Cycles meeWritePipeline = 94;
    /** Extra DRAM fetch per integrity-tree node missing the MEE cache. */
    Cycles treeNodeFetch = 100;

    // ------------------------------------------------------------------
    // Sequential-stream (memory-level-parallelism) costs. The
    // microbenchmarks read/write 64-bit words over consecutive lines;
    // overlapping misses give a per-line effective cost much lower
    // than the demand-miss latency (727/32 lines = 22.7 for reads).
    // ------------------------------------------------------------------
    /** Effective per-line cost of a plain sequential read stream. */
    double seqReadPerLine = 22.7;
    /** Per-line cost of a sequential write-allocate stream. */
    double seqWritePerLine = 80.0;
    /** Per-dirty-line cost of clflush+mfence write-back. */
    double flushPerLine = 121.8;
    /** Per-line cost when a sequential access hits in the LLC. */
    double seqHitPerLine = 8.0;
    /**
     * Divisor applied to the MEE pipeline latency for streaming
     * accesses (pipeline overlap across in-flight lines).
     */
    double meeStreamOverlap = 7.42;

    // ------------------------------------------------------------------
    // MEE integrity-tree cache. The small on-die node cache is what
    // makes the encrypted-read overhead grow with buffer size (Fig 6):
    // larger buffers touch more tree nodes than the cache holds.
    // ------------------------------------------------------------------
    int meeCacheEntries = 48;  //!< node-cache entries (sets * ways)
    int meeCacheWays = 2;      //!< node-cache associativity
    int meeTreeArity = 8;      //!< child nodes per tree node

    /**
     * Speculative loading (PoisonIvy-style, the paper's Section 6.2
     * pointer to [22]): forward decrypted data speculatively while
     * integrity verification completes off the critical path. Cuts
     * the demand-read MEE pipeline and tree-walk latency; write-side
     * behaviour is unchanged. Off by default (Skylake's MEE does not
     * speculate).
     */
    bool meeSpeculativeLoading = false;
    double speculativePipelineFactor = 0.25;
    double speculativeWalkFactor = 0.5;

    // ------------------------------------------------------------------
    // EPC paging (Section 3.4: libquantum at 96 MiB > 93 MiB EPC).
    // Cost of one EWB (evict+encrypt victim) + ELDU (reload) pair.
    // ------------------------------------------------------------------
    Cycles epcPageFault = 12'000;

    // ------------------------------------------------------------------
    // OS reference costs (Section 1: FlexSC / KVM comparisons).
    // ------------------------------------------------------------------
    Cycles syscall = 150;
    Cycles hypercall = 1'300;
};

} // namespace hc::mem

#endif // HC_MEM_COST_PARAMS_HH
