/**
 * @file
 * EPC paging manager implementation.
 */

#include "sgx/epc_manager.hh"

#include "support/logging.hh"

namespace hc::sgx {

EpcManager::EpcManager(mem::Machine &machine,
                       const SgxCostParams &params)
    : machine_(machine), params_(params),
      capacityPages_(machine.memParams().epcSize / kPageSize)
{
    hc_assert(capacityPages_ > 0);
    machine_.memory().setPageTouchHook(
        [this](Addr page, bool write) { return touch(page, write); });
}

EpcManager::~EpcManager()
{
    machine_.memory().setPageTouchHook(nullptr);
}

void
EpcManager::unlink(std::uint32_t p)
{
    const Page &page = pages_[p];
    (page.prev == kNil ? mru_ : pages_[page.prev].next) = page.next;
    (page.next == kNil ? lru_ : pages_[page.next].prev) = page.prev;
}

void
EpcManager::pushFront(std::uint32_t p)
{
    Page &page = pages_[p];
    page.prev = kNil;
    page.next = mru_;
    (mru_ == kNil ? lru_ : pages_[mru_].prev) = p;
    mru_ = p;
}

Cycles
EpcManager::touch(Addr page, bool)
{
    if (!enabled_)
        return 0;

    const std::uint64_t index =
        (page - mem::AddressSpace::kEpcBase) / kPageSize;
    hc_assert(page >= mem::AddressSpace::kEpcBase && index < kNil);
    if (index >= pages_.size())
        pages_.resize(index + 1);
    const auto p = static_cast<std::uint32_t>(index);
    if (pages_[p].state == Page::State::Resident) {
        // Move to MRU position unless already there.
        if (mru_ != p) {
            unlink(p);
            pushFront(p);
        }
        return 0;
    }

    // Not resident. A page seen for the first time is EAUG'd
    // (zero-filled, effectively free); a page that was previously
    // evicted must be reloaded with ELDU (fetch+decrypt+verify).
    Cycles cost = 0;
    if (pages_[p].state == Page::State::PagedOut) {
        ++faults_;
        cost += params_.eldu;
    }
    if (resident_ >= capacityPages_) {
        const std::uint32_t victim = lru_;
        unlink(victim);
        pages_[victim].state = Page::State::PagedOut;
        --resident_;
        ++evictions_;
        cost += params_.ewb;
    }
    pushFront(p);
    pages_[p].state = Page::State::Resident;
    ++resident_;
    return cost;
}

} // namespace hc::sgx
