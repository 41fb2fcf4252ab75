/**
 * @file
 * MEE model implementation.
 */

#include "mem/mee.hh"

#include "support/hash.hh"
#include "support/logging.hh"

namespace hc::mem {

Mee::Mee(const CostParams &params, Addr epc_base, std::uint64_t epc_size,
         std::uint64_t key)
    : params_(params), epcBase_(epc_base),
      numLines_(epc_size / kCacheLineSize), key_(key)
{
    hc_assert(params_.meeCacheEntries > 0);
    hc_assert(params_.meeCacheWays > 0);
    hc_assert(params_.meeCacheEntries % params_.meeCacheWays == 0);
    hc_assert(params_.meeTreeArity > 1);
    nodeSets_ = params_.meeCacheEntries / params_.meeCacheWays;
    nodeCache_.assign(static_cast<std::size_t>(params_.meeCacheEntries),
                      NodeWay{});

    // Number of tree levels needed so the top level has one node
    // (the root, which is always on-die and never fetched).
    treeLevels_ = 0;
    std::uint64_t coverage = 1;
    while (coverage < numLines_) {
        coverage *= static_cast<std::uint64_t>(params_.meeTreeArity);
        ++treeLevels_;
    }
    if (treeLevels_ > 1)
        path_.reserve(static_cast<std::size_t>(treeLevels_ - 1));
}

std::uint64_t
Mee::lineIndex(Addr line_addr) const
{
    hc_assert(line_addr >= epcBase_);
    const std::uint64_t idx = (line_addr - epcBase_) / kCacheLineSize;
    hc_assert(idx < numLines_);
    return idx;
}

std::uint64_t
Mee::macFor(std::uint64_t line_index, std::uint64_t version) const
{
    // A keyed 64-bit tag. Real hardware uses a Carter-Wegman MAC; the
    // protocol (per-line versioned tags verified against tree
    // counters) is what this model reproduces.
    const std::uint64_t material[3] = {key_, line_index, version};
    return fastHash64(material, sizeof(material));
}

Mee::DramPair &
Mee::attacked(std::uint64_t line_index)
{
    const std::uint32_t version = trustedVersion(line_index);
    return attacked_
        .try_emplace(line_index,
                     DramPair{version, macFor(line_index, version)})
        .first->second;
}

int
Mee::readWalkMisses(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    const auto arity = static_cast<std::uint64_t>(params_.meeTreeArity);

    // Re-derive the walk path only when the leaf group changes; a
    // sequential sweep reuses it for arity consecutive lines.
    const std::uint64_t group = idx / arity;
    if (group != pathGroup_) {
        pathGroup_ = group;
        path_.clear();
        std::uint64_t node = group;
        for (int level = 1; level < treeLevels_; ++level) {
            const std::uint64_t tag =
                (static_cast<std::uint64_t>(level) << 48) | (node + 1);
            const auto set = static_cast<std::uint32_t>(
                mix64(tag) % static_cast<std::uint64_t>(nodeSets_));
            path_.push_back(PathNode{tag, set});
            node /= arity;
        }
    }

    // Walk from the leaf counter level upward. A level whose covering
    // node is in the node cache ends the walk: the cached node is
    // already trusted. The root (level treeLevels_) is pinned on-die
    // and never fetched, so it has no path entry.
    int misses = 0;
    const int ways = params_.meeCacheWays;
    bool at_leaf = true;
    for (const PathNode &pn : path_) {
        NodeWay *base =
            &nodeCache_[static_cast<std::size_t>(pn.set) *
                        static_cast<std::size_t>(ways)];
        ++nodeUseCounter_;

        NodeWay *victim = &base[0];
        bool hit = false;
        for (int w = 0; w < ways; ++w) {
            if (base[w].tag == pn.tag) {
                base[w].lastUse = nodeUseCounter_;
                hit = true;
                victim = &base[w];
                break;
            }
            if (base[w].tag == 0 ||
                (victim->tag != 0 &&
                 base[w].lastUse < victim->lastUse)) {
                victim = &base[w];
            }
        }
        if (at_leaf) {
            // Feed the spanWalkMisses() leaf memo: the way that now
            // carries this group's leaf node (hit or about to fill).
            leafGroup_ = group;
            leafTag_ = pn.tag;
            leafWay_ = victim;
            at_leaf = false;
        }
        if (hit) {
            ++nodeHits_;
            return misses;
        }
        ++nodeMisses_;
        ++misses;
        victim->tag = pn.tag;
        victim->lastUse = nodeUseCounter_;
    }
    return misses;
}

int
Mee::spanWalkMisses(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    const auto arity = static_cast<std::uint64_t>(params_.meeTreeArity);
    if (idx / arity == leafGroup_ && leafWay_ &&
        leafWay_->tag == leafTag_) {
        // Guaranteed leaf hit: replay exactly the leaf-probe-hit
        // branch of readWalkMisses().
        ++nodeUseCounter_;
        leafWay_->lastUse = nodeUseCounter_;
        ++nodeHits_;
        return 0;
    }
    return readWalkMisses(line_addr);
}

void
Mee::clearNodeCache()
{
    nodeCache_.assign(nodeCache_.size(), NodeWay{});
    leafGroup_ = ~std::uint64_t{0};
    leafWay_ = nullptr;
}

bool
Mee::verifyLine(Addr line_addr) const
{
    const std::uint64_t idx = lineIndex(line_addr);
    if (attacked_.empty())
        return true; // every DRAM pair is the one the MEE last wrote
    const auto it = attacked_.find(idx);
    if (it == attacked_.end())
        return true;
    const DramPair &dram = it->second;
    if (dram.mac != macFor(idx, dram.version))
        return false; // forged/corrupted line or MAC
    if (dram.version != trustedVersion(idx))
        return false; // consistent but stale: rollback attack
    return true;
}

void
Mee::writebackLine(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    if (idx >= versions_.size()) {
        versions_.reserve(numLines_); // once: the counters never move
        versions_.resize(idx + 1);
    }
    ++versions_[idx];
    // The fresh pair matches the trusted counter by construction.
    if (!attacked_.empty())
        attacked_.erase(idx);
}

void
Mee::tamperMac(Addr line_addr)
{
    attacked(lineIndex(line_addr)).mac ^= 0x1;
}

void
Mee::rollbackLine(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    DramPair &dram = attacked(idx);
    hc_assert(dram.version > 0);
    --dram.version;
    dram.mac = macFor(idx, dram.version);
}

} // namespace hc::mem
