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
 * Per line, the MEE keeps only what verification reads: one trusted
 * version counter, the line's write-back count, in a flat array that
 * grows with the highest line written back (a line past its end was
 * never written back: version 0). The DRAM-resident (version, MAC)
 * pair is the one the MEE last wrote, (counter, MAC of counter), for
 * every line except those an attack hook has since changed; only
 * those carry a stored pair, in a side map that the line's next
 * write-back clears. Verification therefore hashes only attacked
 * lines, and with none attacked it reads no per-line state at all.
 */

#ifndef HC_MEM_MEE_HH
#define HC_MEM_MEE_HH

#include <cstdint>
#include <unordered_map>
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

    /**
     * Record a write-back of @p line_addr: bump its trusted version.
     * The DRAM copy becomes the fresh (version, MAC) pair, which ends
     * any attack on the line.
     */
    void writebackLine(Addr line_addr);

    /** Attack hook: corrupt the stored MAC of a line. */
    void tamperMac(Addr line_addr);

    /**
     * Attack hook: replay the previous (version, MAC) pair of a
     * line — a consistent but stale snapshot, i.e. a rollback. Each
     * call steps one version further back; the DRAM version must be
     * above 0 (asserted), so a line can be rolled back at most as
     * many times as it was written back.
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

    /** @return the trusted version counter of @p line_index. */
    std::uint32_t trustedVersion(std::uint64_t line_index) const
    {
        return line_index < versions_.size() ? versions_[line_index] : 0;
    }

    /**
     * Trusted version counters by line index: each line's write-back
     * count. Reserved for the whole EPC at the first write-back, so it
     * never moves, and zero-filled only up to the highest line written
     * back; a run that writes no EPC line back allocates nothing.
     */
    std::vector<std::uint32_t> versions_;

    /** A DRAM-resident (version, MAC) pair an attack hook changed. */
    struct DramPair {
        std::uint32_t version;
        std::uint64_t mac;
    };
    /** The stored pair of @p line_index, started from the one the MEE
     *  last wrote (trusted counter, its MAC) if the line has none. */
    DramPair &attacked(std::uint64_t line_index);
    /** The attacked lines' pairs; every other line's DRAM pair is
     *  (trusted counter, macFor(counter)) by construction. */
    std::unordered_map<std::uint64_t, DramPair> attacked_;

    std::uint64_t nodeHits_ = 0;
    std::uint64_t nodeMisses_ = 0;
};

} // namespace hc::mem

#endif // HC_MEM_MEE_HH
