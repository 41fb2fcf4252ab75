/**
 * @file
 * Buffer: functional bytes paired with a simulated placement.
 *
 * Application and runtime code manipulates real host bytes (so data
 * flow — marshalling copies, zeroing, crypto — is genuinely
 * functional and testable) while the paired simulated address lets
 * the timing models price every access by placement (plaintext
 * memory vs encrypted EPC).
 */

#ifndef HC_MEM_BUFFER_HH
#define HC_MEM_BUFFER_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/machine.hh"

namespace hc::mem {

/** An RAII simulated-memory buffer with host-backed contents. */
class Buffer
{
  public:
    /**
     * Allocate @p size bytes in @p domain of @p machine.
     * Contents are zero-initialized (host side only; no cycles).
     */
    Buffer(Machine &machine, Domain domain, std::uint64_t size);

    ~Buffer();

    Buffer(const Buffer &) = delete;
    Buffer &operator=(const Buffer &) = delete;
    Buffer(Buffer &&other) noexcept;
    Buffer &operator=(Buffer &&other) noexcept;

    std::uint8_t *data() { return bytes_.data(); }
    const std::uint8_t *data() const { return bytes_.data(); }
    std::uint64_t size() const { return bytes_.size(); }
    Addr addr() const { return addr_; }
    Domain domain() const { return domain_; }

    /** Priced sequential read of the whole buffer. */
    Cycles read() const;

    /** Priced sequential write of the whole buffer. */
    Cycles write(bool flush_after = false);

    /** Evict the buffer from the LLC (experiment setup; no cycles). */
    void evict() const;

    /** Priced sequential write of [offset, offset+len) only, for a
     *  consumer that transfers part of a larger allocation (e.g. a
     *  payload behind a header). */
    Cycles writeRange(std::uint64_t offset, std::uint64_t len,
                      bool flush_after = false);

  private:
    Machine *machine_ = nullptr;
    Domain domain_ = Domain::Untrusted;
    Addr addr_ = 0;
    std::vector<std::uint8_t> bytes_;
};

} // namespace hc::mem

#endif // HC_MEM_BUFFER_HH
