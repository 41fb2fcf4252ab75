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

Mee::Chunk &
Mee::touch(std::uint64_t line_index)
{
    if (chunks_.empty())
        chunks_.resize((numLines_ + kChunkMask) >> kChunkShift);
    std::unique_ptr<Chunk> &slot = chunks_[line_index >> kChunkShift];
    if (!slot)
        slot = std::make_unique<Chunk>();
    const std::uint64_t bit = lineBit(line_index);
    if (!(slot->touched & bit)) {
        slot->touched |= bit;
        slot->metas[line_index & kChunkMask].dramMac =
            macFor(line_index, 0);
    }
    return *slot;
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
    const Chunk *chunk =
        chunks_.empty() ? nullptr : chunks_[idx >> kChunkShift].get();
    const std::uint64_t bit = lineBit(idx);
    if (!chunk || !(chunk->touched & bit) || (chunk->verified & bit))
        return true; // untouched line: version 0, MAC as initialised
    const LineMeta &meta = chunk->metas[idx & kChunkMask];
    if (meta.dramMac != macFor(idx, meta.dramVersion))
        return false; // forged/corrupted line or MAC
    if (meta.dramVersion != meta.trustedVersion)
        return false; // consistent but stale: rollback attack
    chunk->verified |= bit;
    return true;
}

void
Mee::writebackLine(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    Chunk &chunk = touch(idx);
    LineMeta &meta = chunk.metas[idx & kChunkMask];
    ++meta.trustedVersion;
    meta.dramVersion = meta.trustedVersion;
    meta.dramMac = macFor(idx, meta.dramVersion);
    // The fresh pair matches the trusted counter by construction.
    chunk.verified |= lineBit(idx);
}

void
Mee::tamperMac(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    Chunk &chunk = touch(idx);
    chunk.metas[idx & kChunkMask].dramMac ^= 0x1;
    chunk.verified &= ~lineBit(idx);
}

void
Mee::rollbackLine(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    Chunk &chunk = touch(idx);
    LineMeta &meta = chunk.metas[idx & kChunkMask];
    hc_assert(meta.dramVersion > 0);
    --meta.dramVersion;
    meta.dramMac = macFor(idx, meta.dramVersion);
    chunk.verified &= ~lineBit(idx);
}

} // namespace hc::mem
