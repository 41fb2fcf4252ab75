/**
 * @file
 * Marshaller implementation.
 */

#include "edl/marshal.hh"

#include <cmath>
#include <cstring>
#include <limits>

#include "check/check.hh"
#include "support/logging.hh"

namespace hc::edl {

StagedCall::StagedCall(const CallPlan &plan, const Args &args)
    : plan_(&plan), args_(args), slots_(args.size())
{
    hc_assert(args.size() == plan.params.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
        slots_[i].data = args[i].data;
        slots_[i].addr = args[i].addr;
        slots_[i].bytes = plan.bytesOf(i, args);
    }
}

std::uint64_t
StagedCall::scalar(int index) const
{
    hc_assert(index >= 0 &&
              static_cast<std::size_t>(index) < args_.size());
    return args_[static_cast<std::size_t>(index)].scalar;
}

Addr
StagedCall::addr(int index) const
{
    return slot(index).addr;
}

CallPlan::CallPlan(const EdgeFunction &function)
    : fn(&function), ecall(function.trusted)
{
    params.reserve(function.params.size());
    for (const auto &param : function.params) {
        ParamPlan pp;
        pp.direction = param.direction;
        pp.isPointer = param.isPointer();
        pp.isString = param.isString;
        pp.noCopy = param.direction == Direction::UserCheck &&
                    !param.isString;
        pp.copyOut = param.direction == Direction::Out ||
                     param.direction == Direction::InOut;
        pp.sizeParamIndex = param.sizeParamIndex;
        pp.elemBytes = param.sizeIsCount ? param.elementSize() : 1;
        if (pp.isPointer && !pp.isString && pp.sizeParamIndex < 0 &&
            param.sizeLiteral >= 0) {
            // Literal size expression: resolve it once, here.
            const auto units =
                static_cast<std::uint64_t>(param.sizeLiteral);
            if (units >
                std::numeric_limits<std::uint64_t>::max() / pp.elemBytes) {
                throw EdlError(function.name + ": parameter '" +
                               param.name +
                               "' count*size overflows a 64-bit byte "
                               "length");
            }
            pp.fixedBytes = units * pp.elemBytes;
        }
        anyCopy |= pp.isPointer && !pp.noCopy;
        params.push_back(pp);
    }
}

std::uint64_t
CallPlan::bytesOf(std::size_t index, const Args &args) const
{
    const ParamPlan &pp = params[index];
    const Arg &arg = args[index];
    if (!pp.isPointer || arg.data == nullptr)
        return 0;

    const auto &param = fn->params[index];
    if (pp.isString) {
        // [string]: length is taken from the NUL terminator, bounded
        // by the caller buffer capacity (edger8r emits strlen too).
        const auto *p =
            static_cast<const char *>(static_cast<void *>(arg.data));
        std::uint64_t n = 0;
        while (n < arg.capacity && p[n] != '\0')
            ++n;
        if (n == arg.capacity)
            throw EdlError("[string] parameter '" + param.name +
                           "' is not NUL-terminated within its buffer");
        return n + 1;
    }

    if (pp.sizeParamIndex < 0)
        return pp.fixedBytes; // literal (or unsized user_check)
    const std::uint64_t units =
        args[static_cast<std::size_t>(pp.sizeParamIndex)].scalar;
    // count= scaling: a caller-controlled count must not wrap the
    // 64-bit byte length (a wrapped small value would sail through
    // the capacity check and under-copy).
    if (pp.elemBytes > 1 &&
        units > std::numeric_limits<std::uint64_t>::max() / pp.elemBytes) {
        throw EdlError(fn->name + ": parameter '" + param.name +
                       "' count*size overflows a 64-bit byte length");
    }
    return units * pp.elemBytes;
}

Marshaller::Marshaller(mem::Machine &machine,
                       const sgx::SgxCostParams &params,
                       MarshalOptions options)
    : machine_(machine), params_(params), options_(options)
{
}

void
Marshaller::charge(double cycles)
{
    if (cycles <= 0)
        return;
    if (machine_.engine().currentThread())
        machine_.engine().advance(
            static_cast<Cycles>(std::llround(cycles)));
}

void
Marshaller::copyVisible(Addr src_addr, Addr dst_addr,
                        std::uint64_t bytes)
{
    check::SimCheck *check = machine_.check();
    if (!check || bytes == 0)
        return;
    if (src_addr != 0)
        check->onSpanAccess(src_addr, bytes, false);
    if (dst_addr != 0)
        check->onSpanAccess(dst_addr, bytes, true);
}

void
Marshaller::zeroVisible(Addr dst_addr, std::uint64_t bytes)
{
    check::SimCheck *check = machine_.check();
    if (!check || bytes == 0 || dst_addr == 0)
        return;
    check->onSpanAccess(dst_addr, bytes, true);
}

void
Marshaller::validate(const CallPlan &plan, const Args &args) const
{
    const auto &fn = *plan.fn;
    if (args.size() != plan.params.size()) {
        throw EdlError(fn.name + ": expected " +
                       std::to_string(plan.params.size()) +
                       " arguments, got " + std::to_string(args.size()));
    }
    for (std::size_t i = 0; i < plan.params.size(); ++i) {
        // Every size must resolve, user_check's included; NULL and
        // zero-length buffers copy nothing and need no further check.
        const std::uint64_t bytes = plan.bytesOf(i, args);
        const ParamPlan &pp = plan.params[i];
        if (pp.noCopy || bytes == 0)
            continue; // user_check: zero copy, deliberately unchecked
        const Arg &arg = args[i];
        const auto &param = fn.params[i];
        if (bytes > arg.capacity) {
            throw EdlError(fn.name + ": parameter '" + param.name +
                           "' declares " + std::to_string(bytes) +
                           " bytes but the buffer holds only " +
                           std::to_string(arg.capacity));
        }
        // Boundary checks (Section 3.2.1): ecall input structures
        // must lie entirely outside the enclave; ocall buffers must
        // lie entirely inside it. FastPath removes allocations, not
        // these checks.
        const mem::Domain required =
            plan.ecall ? mem::Domain::Untrusted : mem::Domain::Epc;
        if (!machine_.space().rangeInDomain(arg.addr, bytes, required)) {
            throw EdlError(fn.name + ": parameter '" + param.name +
                           "' crosses the enclave boundary (" +
                           directionName(param.direction) +
                           " buffer must be entirely " +
                           (plan.ecall ? "outside" : "inside") +
                           " the enclave)");
        }
    }
}

void
Marshaller::stage(const CallPlan &plan, const Args &args,
                  FastStaging *lent, StagedCall &call)
{
    validate(plan, args);

    // Recycle the lent staging: every piece of the previous call on
    // this slot is released at once. The owning channel reports
    // onArenaRecycle to SimCheck before calling in here.
    if (lent) {
        if (lent->inlineArena)
            lent->inlineArena->reset();
        if (lent->spill)
            lent->spill->reset();
        lent->usedInline = false;
        lent->usedSpill = false;
        lent->usedHeap = false;
    }

    // Drop what an unfinished previous call left in @p call, all of it
    // before this call allocates; the slot vector keeps its capacity.
    for (auto &slot : call.slots_)
        slot.heap.reset();
    call.plan_ = &plan;
    call.args_ = args;
    call.slots_.resize(args.size());
    call.retval_ = 0;
    call.finished_ = false;

    const bool ecall = plan.ecall;
    double cost = 0.0;
    bool any_staged = false;
    for (std::size_t i = 0; i < plan.params.size(); ++i) {
        const ParamPlan &pp = plan.params[i];
        const Arg &arg = args[i];
        auto &slot = call.slots_[i];
        slot.data = arg.data;
        slot.addr = arg.addr;
        slot.bytes = plan.bytesOf(i, args);
        slot.staged = !pp.noCopy && slot.bytes > 0;
        if (!slot.staged)
            continue;
        any_staged = true;

        // Placement: inline in the slot's own lines first, then the
        // per-slot spill arena, and only past both (or with nothing
        // lent) a fresh heap buffer at the SDK's costs.
        mem::StagingArena::Piece piece;
        bool fast = false;
        if (lent && lent->inlineArena &&
            lent->inlineArena->tryAlloc(slot.bytes, piece)) {
            fast = lent->usedInline = true;
        } else if (lent && lent->spill &&
                   lent->spill->tryAlloc(slot.bytes, piece)) {
            fast = lent->usedSpill = true;
        }
        if (fast) {
            slot.data = piece.data;
            slot.addr = piece.addr;
        } else {
            // Enclave heap for an ecall; an ocall's untrusted staging
            // is carved from the insecure stack.
            slot.heap.emplace(machine_,
                              ecall ? mem::Domain::Epc
                                    : mem::Domain::Untrusted,
                              slot.bytes);
            slot.data = slot.heap->data();
            slot.addr = slot.heap->addr();
            if (lent)
                lent->usedHeap = true;
            cost += static_cast<double>(ecall ? params_.ecallAllocFixed
                                              : params_.ocallAllocFixed);
        }

        switch (pp.direction) {
          case Direction::In:
          case Direction::InOut:
          case Direction::UserCheck: // [string]
            std::memcpy(slot.data, arg.data, slot.bytes);
            copyVisible(arg.addr, slot.addr, slot.bytes);
            cost += static_cast<double>(slot.bytes) *
                    (fast ? params_.fastpathCopyPerByte
                          : (ecall ? params_.ecallCopyInPerByte
                                   : params_.ocallCopyToPerByte));
            break;
          case Direction::Out:
            // Enclave-side `out` staging is always zeroed (see
            // MarshalOptions). Zeroing untrusted staging never had
            // security value, so No-Redundant-Zeroing may drop it.
            if (ecall || !options_.noRedundantZeroing) {
                std::memset(slot.data, 0, slot.bytes);
                zeroVisible(slot.addr, slot.bytes);
                const double per_byte =
                    fast || options_.wordWiseMemset
                        ? params_.memsetWordWisePerByte
                        : (ecall ? params_.ecallMemsetPerByte
                                 : params_.ocallMemsetPerByte);
                cost += static_cast<double>(slot.bytes) * per_byte;
            }
            break;
        }
    }
    if (lent && any_staged)
        cost += static_cast<double>(params_.fastpathStageFixed);
    charge(cost);
}

void
Marshaller::finish(StagedCall &call)
{
    hc_assert(!call.finished_);
    call.finished_ = true;

    const CallPlan &plan = *call.plan_;
    double cost = 0.0;
    for (std::size_t i = 0; i < plan.params.size(); ++i) {
        auto &slot = call.slots_[i];
        const Arg &arg = call.args_[i];
        if (!slot.staged)
            continue;
        if (plan.params[i].copyOut) {
            std::memcpy(arg.data, slot.data, slot.bytes);
            copyVisible(slot.addr, arg.addr, slot.bytes);
            cost += static_cast<double>(slot.bytes) *
                    (!slot.heap ? params_.fastpathCopyPerByte
                     : plan.ecall ? params_.ecallCopyOutPerByte
                                  : params_.ocallCopyBackPerByte);
        }
        slot.heap.reset();
        slot.data = arg.data;
        slot.addr = arg.addr;
        slot.staged = false;
    }
    charge(cost);
}

} // namespace hc::edl
