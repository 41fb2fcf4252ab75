/**
 * @file
 * Memory Encryption Engine model.
 *
 * The MEE (Gueron, "A Memory Encryption Engine Suitable for General
 * Purpose Processors") provides confidentiality, integrity, and
 * anti-rollback for the EPC by maintaining an integrity tree of
 * version counters whose root lives on-die. This model is both
 * functional and timed:
 *
 *  - functional: every EPC line has a trusted version counter (what
 *    the tree protects) and a "DRAM-resident" (version, MAC) pair.
 *    Tests can tamper with or roll back the DRAM copy and observe
 *    detection, exactly the attacks the MEE defends against.
 *  - timed: demand reads walk the tree until a node hits the small
 *    on-die node cache; every missing level adds a DRAM fetch. The
 *    node cache is what makes encrypted-read overhead grow with the
 *    buffer working set (paper Fig 6). Counter updates on writes are
 *    absorbed in the background (write-combining), matching the
 *    paper's observation that encrypted writes cost only ~6% extra
 *    (Fig 7) while reads pay up to 102%.
 *
 * Line metadata is a sparse overlay: a line with no record is in its
 * freshly-initialised state (version 0 on both sides, MAC derivable
 * from the key). Records are materialised on first touch, so
 * construction does no per-line work — the eager form hashed a MAC for
 * each of the ~4M lines of a 256 MiB EPC before the simulation could
 * start.
 */

#ifndef HC_MEM_MEE_HH
#define HC_MEM_MEE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cost_params.hh"
#include "support/units.hh"

namespace hc::mem {

/** Functional + timed model of the Memory Encryption Engine. */
class Mee
{
  public:
    /**
     * @param params    memory cost parameters (tree arity, cache size)
     * @param epc_base  first EPC address
     * @param epc_size  EPC size in bytes
     * @param key       MAC key (any value; derived from the CPU's
     *                  fused master secret in real hardware)
     */
    Mee(const CostParams &params, Addr epc_base, std::uint64_t epc_size,
        std::uint64_t key);

    // ------------------------------------------------------------------
    // Timing.
    // ------------------------------------------------------------------

    /**
     * Walk the integrity tree for a demand read of @p line_addr,
     * stopping at the first level cached in the on-die node cache.
     * Updates the node cache.
     *
     * @return the number of tree nodes that had to be fetched.
     */
    int readWalkMisses(Addr line_addr);

    /**
     * readWalkMisses() for a line of an ascending bulk span —
     * bit-identical results and node-cache state, cheaper when the
     * previous walk already verified this line's leaf group.
     *
     * Adjacent lines share every tree ancestor but the data itself
     * (meeTreeArity lines per leaf counter node), so after one full
     * walk the next lines of the group are guaranteed leaf-level hits
     * — unless that leaf has since been evicted from the node cache,
     * which the memo detects by re-checking the cached way's tag. The
     * replay performs exactly the leaf-probe-hit state updates the
     * full walk would: one use-counter tick, the leaf's LRU stamp,
     * and one node-cache hit.
     */
    int spanWalkMisses(Addr line_addr);

    /** Reset the node cache (not done by LLC flushes; test hook). */
    void clearNodeCache();

    // ------------------------------------------------------------------
    // Functional integrity protection.
    // ------------------------------------------------------------------

    /**
     * Verify the DRAM-resident copy of @p line_addr.
     * @return false when the MAC does not match or the version was
     *         rolled back.
     */
    bool verifyLine(Addr line_addr) const;

    /** Record a write-back of @p line_addr: bump version, re-MAC. */
    void writebackLine(Addr line_addr);

    /** Attack hook: corrupt the stored MAC of a line. */
    void tamperMac(Addr line_addr);

    /**
     * Attack hook: replay the previous (version, MAC) pair of a
     * line — a consistent but stale snapshot, i.e. a rollback.
     */
    void rollbackLine(Addr line_addr);

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /** @return number of integrity-tree levels above the data. */
    int treeLevels() const { return treeLevels_; }

    std::uint64_t nodeCacheHits() const { return nodeHits_; }
    std::uint64_t nodeCacheMisses() const { return nodeMisses_; }

  private:
    /**
     * Per-line protection state, meaningful once the line's chunk
     * marks it touched. An untouched line is "never written back or
     * attacked": version 0 everywhere, MAC = macFor(index, 0),
     * trivially valid.
     */
    struct LineMeta {
        std::uint32_t trustedVersion = 0;
        std::uint32_t dramVersion = 0;
        std::uint64_t dramMac = 0;
    };

    std::uint64_t lineIndex(Addr line_addr) const;
    std::uint64_t macFor(std::uint64_t line_index,
                         std::uint64_t version) const;

    const CostParams &params_;
    Addr epcBase_;
    std::uint64_t numLines_;
    std::uint64_t key_;
    int treeLevels_;

    /** Set-associative node cache; tag 0 denotes an empty way. */
    struct NodeWay {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };
    std::vector<NodeWay> nodeCache_; //!< sets * ways, row-major
    int nodeSets_ = 0;
    std::uint64_t nodeUseCounter_ = 0;

    /**
     * Memoised tree walk: every line in a leaf group (same idx /
     * arity) climbs through the same nodes, so the per-level (tag,
     * set) pairs of the most recent walk are reused whenever the
     * group repeats — sequential sweeps re-derive the path once per
     * group instead of once per line. Pure derivation cache; the node
     * cache above stays the only stateful part of the walk.
     */
    struct PathNode {
        std::uint64_t tag;
        std::uint32_t set;
    };
    std::uint64_t pathGroup_ = ~std::uint64_t{0};
    std::vector<PathNode> path_;

    /**
     * Leaf memo for spanWalkMisses(): the node-cache way that held
     * (or received) the leaf node of the most recent walk's group.
     * Valid as long as the way still carries leafTag_ — walks are the
     * only node-cache mutators, and every walk refreshes this memo,
     * so a stale pointer can only mean the leaf was evicted by the
     * higher levels of its own walk (pathologically small caches),
     * which the tag check catches.
     */
    std::uint64_t leafGroup_ = ~std::uint64_t{0};
    std::uint64_t leafTag_ = 0;
    NodeWay *leafWay_ = nullptr;

    /**
     * The per-line overlay, in chunks of 64 consecutive lines: a
     * directory with one slot per chunk of the EPC, indexed by line
     * index >> kChunkShift, each chunk allocated on first touch. The
     * directory itself is allocated at the first touch of any line,
     * so a run that never writes an EPC line back builds none.
     * Chunks never move, so a lookup is one directory load.
     */
    static constexpr unsigned kChunkShift = 6;
    static constexpr std::uint64_t kChunkMask =
        (std::uint64_t{1} << kChunkShift) - 1;
    struct Chunk {
        std::array<LineMeta, std::size_t{1} << kChunkShift> metas;
        /** Bit i: metas[i] is materialised (dramMac set by touch()). */
        std::uint64_t touched = 0;
        /** Bit i: metas[i]'s (version, MAC) pair last passed
         *  verifyLine(). Purely an avoided re-hash, cleared by every
         *  mutation; verifyLine() is const and sets it. */
        mutable std::uint64_t verified = 0;
    };
    /** @return the bit of @p line_index in its chunk's masks. */
    static std::uint64_t lineBit(std::uint64_t line_index)
    {
        return std::uint64_t{1} << (line_index & kChunkMask);
    }
    /** The chunk of @p line_index with that line materialised,
     *  allocating the chunk on first touch. */
    Chunk &touch(std::uint64_t line_index);
    std::vector<std::unique_ptr<Chunk>> chunks_;

    std::uint64_t nodeHits_ = 0;
    std::uint64_t nodeMisses_ = 0;
};

} // namespace hc::mem

#endif // HC_MEM_MEE_HH
