/**
 * @file
 * Fiber switching backends. The x86-64 fast path hand-rolls the
 * context switch (callee-saved registers + FP control state + stack
 * pointer, no kernel involvement); the ucontext fallback covers every
 * other target. See fiber.hh for the rationale.
 */

#include "sim/fiber.hh"

#include <cstring>

#include "support/logging.hh"

// ASan tracks which stack the program runs on; a context switch swaps
// stacks behind its back, so every switch is announced with the
// fiber-switch hooks (otherwise deep frames on the heap-allocated
// fiber stacks are flagged as stack-buffer-overflows).
#if defined(__SANITIZE_ADDRESS__)
#define HC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HC_ASAN_FIBERS 1
#endif
#endif
#ifdef HC_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace hc::sim {

#ifdef HC_FIBER_FAST

// --- Fast backend: hand-rolled x86-64 System-V switch --------------
//
// hcFiberSwap(save, to) pushes the callee-saved registers and the FP
// control state onto the current stack, publishes the resulting stack
// pointer through *save, adopts `to` as its new stack pointer, pops
// the same frame from it and returns — on the other context. A frame
// looks like (low to high address, 64 bytes, 16-byte aligned):
//
//     +0   mxcsr (4 bytes)
//     +4   x87 control word (2 bytes), 2 bytes pad
//     +8   r15    +16 r14    +24 r13    +32 r12
//     +40  rbx    +48 rbp
//     +56  return address
//
// A brand-new fiber gets a hand-crafted frame whose return address is
// hcFiberBoot and whose r12 slot carries the Fiber*; the first swap
// into it "returns" into the boot shim, which moves r12 into rdi and
// calls hcFiberEntry on the fiber's own stack. `endbr64` keeps both
// symbols valid under -fcf-protection (the shim itself is only ever
// reached via ret, which IBT does not police).

extern "C" {
void hcFiberSwap(void **save_sp, void *to_sp);
void hcFiberBoot();
void hcFiberEntry(hc::sim::Fiber *fiber);
}

__asm__(
    ".text\n"
    ".align 16\n"
    ".globl hcFiberSwap\n"
    ".type hcFiberSwap, @function\n"
    "hcFiberSwap:\n"
    "  endbr64\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size hcFiberSwap, . - hcFiberSwap\n"
    ".align 16\n"
    ".globl hcFiberBoot\n"
    ".type hcFiberBoot, @function\n"
    "hcFiberBoot:\n"
    "  endbr64\n"
    "  xorl %ebp, %ebp\n"
    "  movq %r12, %rdi\n"
    "  call hcFiberEntry\n"
    "  ud2\n"
    ".size hcFiberBoot, . - hcFiberBoot\n");

struct Fiber::EntryAccess {
    static void enter(Fiber *fiber) { fiber->run(); }
};

extern "C" void
hcFiberEntry(hc::sim::Fiber *fiber)
{
    Fiber::EntryAccess::enter(fiber);
    panic("fiber resumed after finishing");
}

namespace {

/** Byte offsets into a switch frame (layout comment above). */
constexpr std::size_t kFrameSize = 64;
constexpr std::size_t kFrameMxcsr = 0;
constexpr std::size_t kFrameFpucw = 4;
constexpr std::size_t kFrameR12 = 32;
constexpr std::size_t kFrameRetAddr = 56;

} // anonymous namespace

Fiber::Fiber(Body body, std::size_t stack_size)
    : body_(std::move(body)), stack_(stack_size)
{
    hc_assert(body_);
    hc_assert(stack_size >= 16 * 1024);

    // Craft the initial frame at the 16-aligned top of the stack:
    // after the first swap's `ret` pops hcFiberBoot's address the
    // stack pointer is 16-aligned again, so the shim's `call` gives
    // hcFiberEntry the standard System-V entry alignment.
    auto top = reinterpret_cast<std::uintptr_t>(stack_.data()) +
               stack_.size();
    top &= ~std::uintptr_t{15};
    auto *frame = reinterpret_cast<std::uint8_t *>(top) - kFrameSize;
    std::memset(frame, 0, kFrameSize);

    const auto boot = reinterpret_cast<std::uintptr_t>(&hcFiberBoot);
    std::memcpy(frame + kFrameRetAddr, &boot, sizeof(boot));
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    std::memcpy(frame + kFrameR12, &self, sizeof(self));

    // Seed the FP control slots with the caller's current state so
    // the fiber starts from the same rounding/precision configuration
    // it would inherit from a plain function call.
    std::uint32_t mxcsr;
    std::uint16_t fpucw;
    __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
    __asm__ volatile("fnstcw %0" : "=m"(fpucw));
    std::memcpy(frame + kFrameMxcsr, &mxcsr, sizeof(mxcsr));
    std::memcpy(frame + kFrameFpucw, &fpucw, sizeof(fpucw));

    fiberSp_ = frame;
    started_ = true;
}

#else // !HC_FIBER_FAST

// --- Portable backend: ucontext ------------------------------------
//
// makecontext only passes ints, so the fiber pointer is split into
// two 32-bit halves for the trampoline.

Fiber::Fiber(Body body, std::size_t stack_size)
    : body_(std::move(body)), stack_(stack_size)
{
    hc_assert(body_);
    hc_assert(stack_size >= 16 * 1024);

    if (getcontext(&context_) != 0)
        panic("getcontext failed");
    context_.uc_stack.ss_sp = stack_.data();
    context_.uc_stack.ss_size = stack_.size();
    context_.uc_link = &returnContext_;

    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&context_, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned int>(self >> 32),
                static_cast<unsigned int>(self & 0xffffffffu));
    started_ = true;
}

void
Fiber::trampoline(unsigned int hi, unsigned int lo)
{
    const std::uintptr_t self =
        (static_cast<std::uintptr_t>(hi) << 32) | lo;
    reinterpret_cast<Fiber *>(self)->run();
}

#endif // HC_FIBER_FAST

// --- Switching, shared by both backends ----------------------------
//
// Only the raw transfer differs per backend. The return context (the
// last switchTo() caller, normally the scheduler) is saved once per
// switchTo() and copied into each fiber a handoff() resumes, so every
// fiber's exit and switchBack() reach it however many handoffs ran in
// between.

void
Fiber::arrive()
{
#ifdef HC_ASAN_FIBERS
    // Restore this fiber's fake stack (null on first entry). After a
    // switchTo() the resumer is the return context: learn its stack
    // bounds. After a handoff() they arrived with the return context;
    // the resuming fiber's own stack must not replace them.
    const bool learn = asanHostBottom_ == nullptr;
    __sanitizer_finish_switch_fiber(asanFiberFake_,
                                    learn ? &asanHostBottom_ : nullptr,
                                    learn ? &asanHostSize_ : nullptr);
#endif
}

void
Fiber::run()
{
    arrive();
    body_();
    finished_ = true;
#ifdef HC_ASAN_FIBERS
    // Null save slot: the fiber is exiting, drop its fake stack.
    __sanitizer_start_switch_fiber(nullptr, asanHostBottom_,
                                   asanHostSize_);
#endif
#ifdef HC_FIBER_FAST
    // Final hop to the return context; the frame saved through
    // fiberSp_ is never resumed.
    hcFiberSwap(&fiberSp_, hostSp_);
#endif
    // ucontext: returning jumps to uc_link (= returnContext_).
}

void
Fiber::switchTo()
{
    hc_assert(started_ && !finished_);
#ifdef HC_ASAN_FIBERS
    asanHostBottom_ = nullptr;
    void *fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack_.data(), stack_.size());
#endif
#ifdef HC_FIBER_FAST
    hcFiberSwap(&hostSp_, fiberSp_);
#else
    if (swapcontext(&returnContext_, &context_) != 0)
        panic("swapcontext into fiber failed");
#endif
#ifdef HC_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
}

void
Fiber::switchBack()
{
    hc_assert(!finished_);
#ifdef HC_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&asanFiberFake_, asanHostBottom_,
                                   asanHostSize_);
#endif
#ifdef HC_FIBER_FAST
    hcFiberSwap(&fiberSp_, hostSp_);
#else
    if (swapcontext(&context_, &returnContext_) != 0)
        panic("swapcontext out of fiber failed");
#endif
    arrive();
}

void
Fiber::handoff(Fiber &next)
{
    hc_assert(!finished_ && &next != this && next.started_ &&
              !next.finished_);
#ifdef HC_ASAN_FIBERS
    next.asanHostBottom_ = asanHostBottom_;
    next.asanHostSize_ = asanHostSize_;
    __sanitizer_start_switch_fiber(&asanFiberFake_, next.stack_.data(),
                                   next.stack_.size());
#endif
#ifdef HC_FIBER_FAST
    next.hostSp_ = hostSp_;
    hcFiberSwap(&fiberSp_, next.fiberSp_);
#else
    // uc_link was fixed at makecontext to next's own returnContext_,
    // so the return context is copied there. glibc may leave the
    // copy's FP-state pointer aimed at the original, which keeps its
    // contents while the return context stays suspended; no copy is
    // resumed after that.
    next.returnContext_ = returnContext_;
    if (swapcontext(&context_, &next.context_) != 0)
        panic("swapcontext between fibers failed");
#endif
    arrive();
}

} // namespace hc::sim
