/**
 * @file
 * EPC paging manager (EWB / ELDU).
 *
 * The EPC holds 93 MiB on the paper's machine. When enclave working
 * sets exceed it (libquantum at 96 MiB, Section 3.4), the kernel
 * pages encrypted pages out (EWB: re-encrypt with a paging key, MAC,
 * write to regular memory) and back in (ELDU). This manager tracks
 * page residency with LRU replacement and charges the paging costs
 * through the memory model's page-touch hook. Residency lives in one
 * slot per page, indexed from the EPC base and grown to the highest
 * page touched, with the LRU order as 32-bit links between slots.
 */

#ifndef HC_SGX_EPC_MANAGER_HH
#define HC_SGX_EPC_MANAGER_HH

#include <cstdint>
#include <vector>

#include "mem/machine.hh"
#include "sgx/sgx_cost_params.hh"

namespace hc::sgx {

/** Tracks EPC page residency and prices faults. */
class EpcManager
{
  public:
    /**
     * @param machine  platform whose memory model to hook
     * @param params   paging costs (ewb/eldu)
     */
    EpcManager(mem::Machine &machine, const SgxCostParams &params);

    ~EpcManager();

    EpcManager(const EpcManager &) = delete;
    EpcManager &operator=(const EpcManager &) = delete;

    /**
     * Record a touch of @p page.
     * @return extra cycles: 0 when resident, ELDU (+EWB when a victim
     *         had to be evicted) on a fault.
     */
    Cycles touch(Addr page, bool write);

    /** @return demand faults taken so far. */
    std::uint64_t faults() const { return faults_; }

    /** @return victim evictions performed so far. */
    std::uint64_t evictions() const { return evictions_; }

    /** @return currently resident pages. */
    std::uint64_t residentPages() const { return resident_; }

    /** @return the residency capacity in pages. */
    std::uint64_t capacityPages() const { return capacityPages_; }

    /** Enable/disable paging modelling (enabled by default). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

  private:
    static constexpr std::uint32_t kNil = ~0u;

    /** One EPC page: never touched, resident, or evicted (a reload
     *  needs ELDU); resident pages are linked in LRU order. */
    struct Page {
        enum class State : std::uint8_t { Unseen, Resident, PagedOut };
        std::uint32_t prev = kNil; //!< toward the MRU end
        std::uint32_t next = kNil; //!< toward the LRU end
        State state = State::Unseen;
    };

    void unlink(std::uint32_t p);
    void pushFront(std::uint32_t p);

    mem::Machine &machine_;
    SgxCostParams params_;
    std::uint64_t capacityPages_;
    bool enabled_ = true;

    std::vector<Page> pages_; //!< by (address - EPC base) / kPageSize
    std::uint32_t mru_ = kNil;
    std::uint32_t lru_ = kNil;
    std::uint64_t resident_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace hc::sgx

#endif // HC_SGX_EPC_MANAGER_HH
