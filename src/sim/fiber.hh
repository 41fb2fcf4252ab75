/**
 * @file
 * Stackful cooperative fibers.
 *
 * Every simulated thread (enclave worker, HotCalls responder, client
 * load generator, ...) is a fiber. Fibers let application code be
 * written as straight-line sequential C++ while the simulation engine
 * interleaves them deterministically in virtual-time order.
 *
 * Two switching backends exist behind the same interface:
 *
 *  - a hand-rolled x86-64 System-V switch (the default on that
 *    target): saves the callee-saved registers, the FP control state
 *    (mxcsr, x87 cw) and the stack pointer — ~20 instructions and no
 *    kernel involvement. This matters because the engine switches
 *    fibers at every real interleaving point (each HotCall poll), and
 *    glibc's swapcontext performs two rt_sigprocmask system calls per
 *    switch, which dominated the simulator's host profile;
 *  - ucontext, kept as the portable fallback (any POSIX target, or
 *    -DHC_FIBER_UCONTEXT to force it, e.g. to cross-check a
 *    fiber-layer bug).
 *
 * Both backends produce identical scheduling (the engine decides who
 * runs; the fiber layer only transfers control), so simulated results
 * are independent of the backend.
 */

#ifndef HC_SIM_FIBER_HH
#define HC_SIM_FIBER_HH

#if defined(__x86_64__) && defined(__ELF__) && !defined(HC_FIBER_UCONTEXT)
#define HC_FIBER_FAST 1
#else
#include <ucontext.h>
#endif

#include <cstdint>
#include <functional>
#include <vector>

namespace hc::sim {

/**
 * A suspendable execution context with its own stack.
 *
 * The fiber starts suspended; the owner (the scheduler, or any host
 * context) resumes it with switchTo() and the fiber gives control back
 * via switchBack() (or by returning from its body, which marks it
 * finished). A fiber may instead pass control straight to another
 * fiber with handoff(); the scheduler's return context travels along,
 * so whichever fiber runs last still returns to the scheduler.
 */
class Fiber
{
  public:
    using Body = std::function<void()>;

    /**
     * @param body        function executed when the fiber first runs
     * @param stack_size  fiber stack size in bytes
     */
    explicit Fiber(Body body, std::size_t stack_size = 256 * 1024);

    ~Fiber() = default;

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Transfer control from the calling (host or scheduler) context
     * into the fiber. Returns when the fiber switches back or
     * finishes. Must not be called on a finished fiber.
     */
    void switchTo();

    /**
     * Transfer control from inside the fiber back to the context that
     * last called switchTo() on it or on any fiber that handed off to
     * it. Must be called from inside this fiber.
     */
    void switchBack();

    /**
     * Transfer control from inside this fiber straight into @p next,
     * a different suspended, unfinished fiber. @p next inherits this
     * fiber's return context, so its switchBack() or exit reaches the
     * context that resumed this one. Returns when this fiber is
     * resumed again, by switchTo() or by another fiber's handoff().
     */
    void handoff(Fiber &next);

    /** @return true once the fiber body has returned. */
    bool finished() const { return finished_; }

#ifdef HC_FIBER_FAST
    /** fiber.cc-local bridge from the asm boot shim into run(). */
    struct EntryAccess;
#endif

  private:
#ifndef HC_FIBER_FAST
    static void trampoline(unsigned int hi, unsigned int lo);
#endif
    void run();

    /** Complete a switch into this fiber (ASan bookkeeping only). */
    void arrive();

    Body body_;
    std::vector<std::uint8_t> stack_;
#ifdef HC_FIBER_FAST
    /** Saved stack pointer of the suspended fiber. */
    void *fiberSp_ = nullptr;
    /** Saved stack pointer of the return context (the last switchTo()
     *  caller; handoff() passes it on). */
    void *hostSp_ = nullptr;
#else
    ucontext_t context_;
    /** The return context, also the uc_link target on exit. */
    ucontext_t returnContext_;
#endif
    bool started_ = false;
    bool finished_ = false;

    // AddressSanitizer bookkeeping: ASan must be told about every
    // stack switch (__sanitizer_start/finish_switch_fiber), or frames
    // on the heap-allocated fiber stacks are reported as
    // stack-buffer-overflows. The host-stack bounds belong to the
    // return context and travel with it through handoff(); a null
    // bottom means "learn them on arrival" (set by switchTo()).
    // Unused in non-ASan builds.
    void *asanFiberFake_ = nullptr;
    const void *asanHostBottom_ = nullptr;
    std::size_t asanHostSize_ = 0;
};

} // namespace hc::sim

#endif // HC_SIM_FIBER_HH
