/**
 * @file
 * Edge-call marshalling (the edger8r-generated glue code).
 *
 * Executes an EdgeFunction's parameter-passing policy at call time:
 * staging buffers are genuinely allocated and copied (host bytes), the
 * paper's security checks are enforced (boundary checks on pointer
 * ranges, size validation), and the calibrated SDK costs are charged
 * (memcpy, the infamous byte-wise memset, allocation).
 *
 * Every call path runs one walk over a CallPlan, the function's spec
 * resolved once: stage() validates and copies in, the callee runs,
 * finish() copies back. Only the placement of the staging differs.
 * The SDK path lends none, so each payload gets a fresh heap buffer
 * at the SDK's rates; a FastPath channel lends its slot's recycled
 * arenas (FastStaging). HotCalls reuse exactly this code (paper
 * Sections 4.2 and 5): only the transport underneath (context switch
 * vs. shared-memory channel) differs. The No-Redundant-Zeroing
 * optimization (Section 3.3) and the word-wise memset (Section 3.5)
 * are options here.
 */

#ifndef HC_EDL_MARSHAL_HH
#define HC_EDL_MARSHAL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "edl/edl_spec.hh"
#include "mem/arena.hh"
#include "mem/buffer.hh"
#include "mem/machine.hh"
#include "sgx/sgx_cost_params.hh"
#include "support/logging.hh"

namespace hc::edl {

/** Marshalling policy switches. */
struct MarshalOptions {
    /** Skip zeroing `out` buffers in *untrusted* memory (ocalls): the
     *  untrusted side can read that memory anyway, so the memset has
     *  no security value (paper Section 3.3). Zeroing of `out`
     *  buffers in *enclave* memory is always kept — it prevents heap
     *  data leaks (the HeartBleed analogy of Section 3.2.1). */
    bool noRedundantZeroing = false;
    /** Use a word-wise memset instead of the SDK's byte-wise one. */
    bool wordWiseMemset = false;
};

/** One actual argument. */
struct Arg {
    std::uint64_t scalar = 0;
    std::uint8_t *data = nullptr;  //!< host bytes (pointer args)
    Addr addr = 0;                 //!< simulated address (pointer args)
    std::uint64_t capacity = 0;    //!< bytes available at data

    /** Make a scalar argument. */
    static Arg value(std::uint64_t v)
    {
        Arg a;
        a.scalar = v;
        return a;
    }

    /** Make a pointer argument from a simulated buffer. */
    static Arg buffer(mem::Buffer &b)
    {
        Arg a;
        a.data = b.data();
        a.addr = b.addr();
        a.capacity = b.size();
        return a;
    }

    /** Make a null pointer argument. */
    static Arg null() { return Arg{}; }
};

using Args = std::vector<Arg>;

/**
 * One parameter's marshalling step in a CallPlan: the direction,
 * staging policy, and size expression, resolved from the EDL spec once
 * when the plan is built. Only a runtime length lookup
 * (sizeParamIndex) or a [string] scan remains per call.
 */
struct ParamPlan {
    Direction direction = Direction::UserCheck;
    bool isPointer = false;
    bool isString = false;
    /** Plain user_check (no [string]): zero copy, never staged. */
    bool noCopy = false;
    /** `out`/`inout`: staging is copied back at finish time. */
    bool copyOut = false;
    /** size=/count= bound to a parameter: its index, or -1. */
    int sizeParamIndex = -1;
    /** Resolved byte length when the size is a literal (index < 0). */
    std::uint64_t fixedBytes = 0;
    /** count= element scaling factor (1 for size= and strings). */
    std::uint64_t elemBytes = 1;
};

/**
 * One EdgeFunction's marshalling plan: its spec resolved once, so no
 * call re-walks it. The EnclaveRuntime builds every plan at
 * construction and hands them out by dispatch id.
 */
struct CallPlan {
    /** Resolve @p fn, which must outlive the plan.
     *  @throw EdlError when a literal count*size overflows */
    explicit CallPlan(const EdgeFunction &fn);

    /** @return the byte length of pointer param @p index (0 for NULL
     *  and unsized user_check). @throw EdlError on count*size overflow
     *  or a [string] without its NUL */
    std::uint64_t bytesOf(std::size_t index, const Args &args) const;

    const EdgeFunction *fn = nullptr;
    bool ecall = false;
    /** Any parameter can ever touch staging (false for scalar-only
     *  functions, which a channel never lends its staging). */
    bool anyCopy = false;
    std::vector<ParamPlan> params;
};

/**
 * The staging a FastPath channel slot lends to stage(): recycled
 * arenas instead of per-call allocations. Payloads are placed inline
 * first (the slot's own cache lines), then in the per-slot spill
 * arena, and only past both into a fresh heap buffer at the SDK's
 * costs.
 */
struct FastStaging {
    mem::StagingArena *inlineArena = nullptr; //!< slot's own lines
    mem::StagingArena *spill = nullptr;       //!< per-slot spill arena
    // Placement outcome of the last stage (channel statistics, and
    // the spill flag also tells the channel to price arena-line
    // coherence for this call).
    bool usedInline = false;
    bool usedSpill = false;
    bool usedHeap = false;
};

/**
 * A staged edge call: what the callee-side wrapper hands to the
 * implementation function. Pointer parameters resolve to the staging
 * copy (or, for user_check, the caller's memory).
 */
class StagedCall
{
  public:
    /** An empty staged call (filled in by Marshaller::stage()). */
    StagedCall() = default;

    /**
     * An unstaged call, for a caller that crosses no boundary (the
     * port's Native mode): every pointer parameter resolves to the
     * caller's own bytes. Sizes resolve as in stage(); nothing is
     * copied, charged or checked against the enclave boundary.
     */
    StagedCall(const CallPlan &plan, const Args &args);

    StagedCall(StagedCall &&) = default;
    StagedCall &operator=(StagedCall &&) = default;

    /** @return the value of scalar parameter @p index. */
    std::uint64_t scalar(int index) const;

    /** @return callee-visible bytes of pointer parameter @p index. */
    std::uint8_t *data(int index) { return slot(index).data; }

    /** @return the resolved byte length of pointer param @p index. */
    std::uint64_t size(int index) const { return slot(index).bytes; }

    /** @return the callee-visible simulated address of param @p i. */
    Addr addr(int index) const;

    /** Set the (scalar) return value. */
    void setRetval(std::uint64_t v) { retval_ = v; }

    /** @return the return value set by the callee. */
    std::uint64_t retval() const { return retval_; }

    /** @return the function being called. */
    const EdgeFunction &fn() const { return *plan_->fn; }

  private:
    friend class Marshaller;

    struct Slot {
        std::uint8_t *data = nullptr;    //!< callee-visible bytes
        Addr addr = 0;                   //!< callee-visible address
        std::uint64_t bytes = 0;         //!< resolved length
        bool staged = false;             //!< data is a staging copy
        std::optional<mem::Buffer> heap; //!< owned heap staging
    };

    /** Locate a checked slot. */
    const Slot &slot(int index) const
    {
        hc_assert(index >= 0 &&
                  static_cast<std::size_t>(index) < slots_.size());
        return slots_[static_cast<std::size_t>(index)];
    }

    const CallPlan *plan_ = nullptr;
    Args args_;
    std::vector<Slot> slots_;
    std::uint64_t retval_ = 0;
    bool finished_ = false;
};

/** Executes marshalling plans with calibrated costs. */
class Marshaller
{
  public:
    /**
     * @param machine  platform for staging allocation and charging
     * @param params   SDK cost constants
     * @param options  policy switches (NRZ, word-wise memset), fixed
     *                 for the marshaller's lifetime
     */
    Marshaller(mem::Machine &machine, const sgx::SgxCostParams &params,
               MarshalOptions options = {});

    /**
     * Check @p args against @p plan: the argument count; each copied
     * buffer's declared length against its capacity, where count*size
     * must not overflow and a [string] must hold its NUL; and the
     * enclave boundary (Section 3.2.1: ecall buffers lie entirely
     * outside the enclave, ocall buffers entirely inside). Charges no
     * cycles and draws no RNG, so a call path runs it before it takes
     * a TCS, a lock or a slot, and a rejected call leaves nothing
     * behind.
     * @throw EdlError naming the first violation
     */
    void validate(const CallPlan &plan, const Args &args) const;

    /**
     * Stage a call: validate(), then give every copied payload its
     * callee-side copy (copy-in for in, in&out and [string]; zeroing
     * for out). @p call is reset and refilled in place, keeping its
     * slot vector's capacity.
     *
     * Placement is the only thing that varies. With @p lent null
     * (the SDK path, and hot channels with FastPath off) each payload
     * gets a fresh heap buffer at the SDK's rates: enclave heap for an
     * ecall, untrusted stack for an ocall. A FastPath channel lends
     * its slot's staging, which is recycled here (the channel must own
     * the slot; SimCheck's HotQueueProtocol::onArenaRecycle checks);
     * payloads then go inline, else into the spill arena, else to the
     * heap, arena copies run at the fast per-byte rate, and
     * fastpathStageFixed is charged once when any payload moved.
     *
     * `out` staging in enclave memory is always zeroed: it keeps stale
     * heap secrets from leaking out, and with recycled arenas the
     * previous call's payload is exactly such data. Arena zeroing
     * runs at the word-wise rate; heap zeroing follows the options.
     */
    void stage(const CallPlan &plan, const Args &args, FastStaging *lent,
               StagedCall &call);

    /**
     * Copy out and in&out results back to the caller and release the
     * heap staging. With staging lent this MUST run before the channel
     * releases the slot: the slot's next claimant recycles the arenas
     * this reads.
     */
    void finish(StagedCall &call);

  private:
    void charge(double cycles);

    /**
     * Report a marshalling copy to SimCheck as a pair of bulk spans
     * (read @p src_addr, write @p dst_addr, @p bytes each): cycles
     * are charged per byte by the cost model, but any registered
     * sync word inside the copied ranges must still get its
     * acquire/release edges. No-op when checking is off or an
     * address is unmapped (0).
     */
    void copyVisible(Addr src_addr, Addr dst_addr,
                     std::uint64_t bytes);

    /** Report a marshalling memset likewise (write span only). */
    void zeroVisible(Addr dst_addr, std::uint64_t bytes);

    mem::Machine &machine_;
    const sgx::SgxCostParams &params_;
    const MarshalOptions options_;
};

} // namespace hc::edl

#endif // HC_EDL_MARSHAL_HH
