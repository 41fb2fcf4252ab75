/**
 * @file
 * Buffer implementation.
 */

#include "mem/buffer.hh"

#include "support/logging.hh"

namespace hc::mem {

Buffer::Buffer(Machine &machine, Domain domain, std::uint64_t size)
    : machine_(&machine), domain_(domain), bytes_(size)
{
    hc_assert(size > 0);
    // Cache-line aligned, as the paper's measurement buffers are: an
    // unaligned 2 KiB buffer would straddle 33 lines instead of 32.
    addr_ = (domain == Domain::Epc)
                ? machine.space().allocEpc(size, kCacheLineSize)
                : machine.space().allocUntrusted(size, kCacheLineSize);
}

Buffer::~Buffer()
{
    if (machine_)
        machine_->space().free(addr_);
}

Buffer::Buffer(Buffer &&other) noexcept
    : machine_(other.machine_), domain_(other.domain_),
      addr_(other.addr_), bytes_(std::move(other.bytes_))
{
    other.machine_ = nullptr;
}

Buffer &
Buffer::operator=(Buffer &&other) noexcept
{
    if (this != &other) {
        if (machine_)
            machine_->space().free(addr_);
        machine_ = other.machine_;
        domain_ = other.domain_;
        addr_ = other.addr_;
        bytes_ = std::move(other.bytes_);
        other.machine_ = nullptr;
    }
    return *this;
}

Cycles
Buffer::read() const
{
    return machine_->memory().readBuffer(addr_, bytes_.size());
}

Cycles
Buffer::write(bool flush_after)
{
    return machine_->memory().writeBuffer(addr_, bytes_.size(),
                                          flush_after);
}

void
Buffer::evict() const
{
    machine_->memory().evictRange(addr_, bytes_.size());
}

Cycles
Buffer::writeRange(std::uint64_t offset, std::uint64_t len,
                   bool flush_after)
{
    hc_assert(offset <= bytes_.size() &&
              len <= bytes_.size() - offset);
    return machine_->memory().writeBuffer(addr_ + offset, len,
                                          flush_after);
}

} // namespace hc::mem
