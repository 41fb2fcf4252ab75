/**
 * @file
 * Channel: the core every fast-call channel is built on.
 *
 * The paper's Section 4.2 gives a hot channel one set of rules,
 * whatever its signalling protocol: requesters spin for a bounded
 * attempt budget and then take the conventional SDK call; responders
 * are dedicated fibers (a HotEcall responder parks inside the enclave
 * with one conventional ecall); marshalling is the SDK's own
 * edger8r-generated code. Channel implements those rules once:
 * configuration and statistics, the FastPath staging cascade, Sentinel
 * admission, fallback and success accounting, responder enclave
 * entry/exit, the bounded join, stop, and teardown. A subclass adds
 * only its signalling protocol and SimCheck shadow: HotCallService
 * (hotcall.hh) is the paper's Figure-9 single line, HotQueue
 * (hotqueue.hh) the multi-slot ring with an adaptive pool. The single
 * line is deliberately not a one-slot ring: Table 1 and Fig 3 are
 * calibrated on its access pattern.
 */

#ifndef HC_HOTCALLS_CHANNEL_HH
#define HC_HOTCALLS_CHANNEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hh"
#include "fault/fault.hh"
#include "guard/guard.hh"
#include "mem/arena.hh"
#include "sdk/runtime.hh"
#include "support/logging.hh"

namespace hc::hotcalls {

/** Which direction a channel accelerates. */
enum class Kind {
    HotEcall, //!< untrusted requester -> trusted responder
    HotOcall, //!< trusted requester -> untrusted responder
};

/** Small per-poll jitter bound (pipeline/branch variation). */
constexpr Cycles kPollJitter = 22;
/** Mean extra cycles of a responder scheduling hiccup. */
constexpr Cycles kHiccupMean = 230;

/** Tunables every hot channel has (paper Section 4.2, FastPath). */
struct ChannelConfig {
    /** Timeout policy (shared with the porting layer): the fixed spin
     *  budget plus Sentinel's adaptive-budget and reclaim-deadline
     *  knobs (guard/guard.hh). */
    guard::TimeoutPolicy timeout;
    /** Probability of a scheduling hiccup on a responder per handled
     *  call (TLB shootdowns, SMIs, ...); feeds the CDF tail. */
    double hiccupChance = 0.012;
    /** FastPath data plane. Off is the SDK's own marshalling into
     *  heap staging per call, bit-identical to the pre-FastPath
     *  channel (same allocations, same charges, same RNG draws). */
    bool fastPath = true;
    /** Payload bytes carried inline beside each protocol line
     *  (rounded up to whole cache lines); 0 disables inline staging.
     *  HotOcall only: HotEcall staging must live in enclave memory,
     *  not in the shared (untrusted) channel lines. */
    std::uint64_t inlinePayloadBytes = 64;
    /** Spill-arena capacity per staging slot; 0 disables (oversized
     *  payloads go straight to the legacy heap staging). */
    std::uint64_t arenaBytes = 4096;
};

/** Run statistics of a hot channel. */
struct ChannelStats {
    std::uint64_t calls = 0;     //!< completed via the channel
    std::uint64_t fallbacks = 0; //!< took the SDK path (counted once
                                 //!< per logical call, however many
                                 //!< attempts expired)
    std::uint64_t aborts = 0;    //!< completion wait cut short by stop
    std::uint64_t timeoutAttempts = 0; //!< individual expired attempts
    std::uint64_t responderPolls = 0;
    std::uint64_t responderSleeps = 0; //!< single-line idle parks
    std::uint64_t wakeups = 0;         //!< parked-responder signals
    std::uint64_t batches = 0;    //!< ring acquisitions that served
    std::uint64_t scaleUps = 0;   //!< ring pool grown by a requester
    std::uint64_t scaleDowns = 0; //!< ring pool shrunk by a responder
    Cycles responderBusyCycles = 0; //!< time inside handlers
    // FastPath staging placement (calls that staged any payload).
    std::uint64_t fastCalls = 0;    //!< staged via the fast plane
    std::uint64_t inlineStaged = 0; //!< used the inline payload lines
    std::uint64_t arenaStaged = 0;  //!< used the spill arena
    std::uint64_t heapStaged = 0;   //!< spilled past the arena to heap
    // Sentinel quarantine (guard/guard.hh). Degraded calls also count
    // as fallbacks (they took the SDK path) but spend zero attempts.
    std::uint64_t degradedCalls = 0; //!< shed straight to the SDK
    Cycles degradedCycles = 0;       //!< time spent quarantined
};

/**
 * The FastPath staging one in-flight call borrows (one on the single
 * line, one per ring slot): recycled across the calls that pass
 * through it, never reallocated per call. The protocol decides when
 * recycling is legal.
 */
struct StagingSlot {
    /** Payload lines beside the protocol line, whose transfers ride
     *  the protocol-line handoff already priced (HotOcall only). */
    std::unique_ptr<mem::StagingArena> inlineArena;
    /** Spill arena (EPC for HotEcall: copying out of untrusted
     *  caller buffers is the security step). */
    std::unique_ptr<mem::StagingArena> arena;
    edl::FastStaging staging;
    edl::StagedCall scratch; //!< recycled in place of stack staging
    /** Ring shadow told of every recycle (null on the single line). */
    check::HotQueueProtocol *shadow = nullptr;
    int index = 0; //!< the slot index the shadow knows it by
};

/** Payload of a HotEcall request. */
struct EcallRequest {
    const edl::Args *args = nullptr;
    std::uint64_t retval = 0;
};

/**
 * One call as its requester publishes it on a line or slot. It lives
 * on the requester's stack until the call returns, so a responder must
 * not touch it once the request was abandoned or reclaimed.
 */
struct Request {
    int id = -1;
    EcallRequest ecall;          //!< HotEcall arguments and result
    edl::StagedCall staged;      //!< HotOcall legacy heap staging
    StagingSlot *fast = nullptr; //!< HotOcall FastPath staging, or null
};

/** What admission decided for one logical call. */
struct Admission {
    bool probing = false; //!< Sentinel's quarantine probe
    Cycles start = 0;     //!< after the requester glue
    int budget = 0;       //!< claim attempts before the SDK fallback
};

/**
 * The shared core of HotCallService and HotQueue, and their common
 * interface: callers (the porting layer, the apps) switch
 * implementations by construction only.
 */
class Channel
{
  public:
    /** Frees the protocol lines and staging, or leaks them (SimCheck
     *  told so when on) while an unjoined responder may still use
     *  them. Subclass destructors stop() first: the hooks are theirs. */
    virtual ~Channel();

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Spawn the responder side (must be called before call()). */
    virtual void start() = 0;

    /**
     * Ask the responders to exit and (when invoked from a simulated
     * thread) wait, bounded, until they have, so the protocol lines
     * can be released safely afterwards. Idempotent.
     */
    void stop();

    /**
     * Issue a call through the channel; falls back to the
     * conventional SDK call when the channel cannot take it within the
     * attempt budget, or once stop() was requested. A HotOcall must
     * run in enclave mode (it replaces EnclaveRuntime::ocall), a
     * HotEcall outside.
     * @return the callee's scalar return value
     */
    virtual std::uint64_t call(int id, const edl::Args &args) = 0;

    /** Name-resolving convenience overload. */
    std::uint64_t call(const std::string &name, const edl::Args &args);

    Kind kind() const { return kind_; }

    /** @return the channel's Sentinel guard, or null (guard off). */
    const guard::ChannelGuard *guard() const { return guard_; }

  protected:
    /** Requester-side fixed glue (argument packing around the
     *  channel). */
    static constexpr Cycles kRequesterFixed = 95;
    /** Responder-side fixed dispatch (call-table lookup, jump). */
    static constexpr Cycles kResponderFixed = 85;

    Channel(sdk::EnclaveRuntime &runtime, Kind kind);

    /**
     * The first statement of a subclass constructor: bind its config
     * and stats (the core reads and counts into them for the channel's
     * lifetime) and adopt a Sentinel guard named @p name. A step of its
     * own because the subclass owns both (their types extend the
     * core's), and they exist only once the core is constructed.
     */
    void bind(const ChannelConfig &config, ChannelStats &stats,
              const char *name);

    /** Allocate one protocol line in untrusted memory: a SimCheck sync
     *  word, freed or leaked with the channel. */
    Addr allocLine();

    /**
     * Allocate @p count FastPath staging slots (none with the plane
     * off) after every protocol line, so a disabled plane leaves the
     * address layout, and therefore every cache interaction,
     * bit-identical. @p shadow vets every recycle of the slots.
     */
    void allocStaging(std::size_t count,
                      check::HotQueueProtocol *shadow = nullptr);

    /** @return staging slot @p i, or null with FastPath off. */
    StagingSlot *stagingSlot(std::size_t i)
    {
        return staging_.empty() ? nullptr : &staging_[i];
    }

    // ------------------------------------------------------------------
    // Requester side.
    // ------------------------------------------------------------------

    /**
     * Enforce HotOcall enclave mode, validate call @p id against its
     * EDL (before any lock or slot is taken, so a rejected call leaves
     * the channel as it was), route through Sentinel, charge the
     * requester glue and fix the attempt budget.
     * @return false when the call is shed, or the channel's stop was
     *         requested (already counted; answer it with sdkCall())
     */
    bool admit(int id, const edl::Args &args, Admission &adm);

    /** The conventional SDK call (Section 4.2's fallback). */
    std::uint64_t sdkCall(int id, const edl::Args &args)
    {
        return kind_ == Kind::HotOcall ? runtime_.ocall(id, args)
                                       : runtime_.ecall(id, args);
    }

    /** Count a logical call leaving on the SDK path; on quarantine
     *  entry with late responders Sentinel may respawn() one. */
    void countFallback(const Admission &adm);

    /** countFallback() and the SDK call itself. */
    std::uint64_t fallback(int id, const edl::Args &args,
                           const Admission &adm)
    {
        countFallback(adm);
        return sdkCall(id, args);
    }

    /** Count a call completed via the channel after @p attempts
     *  failed claim attempts. */
    void countSuccess(const Admission &adm, int attempts);

    /** @return true (counted as an abort) when the completion wait
     *  must give up: the engine is unwinding, so no responder will
     *  ever complete the request. */
    bool aborted();

    /** How a requester's completion wait ended. */
    enum class WaitEnd {
        Complete, //!< the responder published the completion
        Aborted,  //!< aborted(): nobody will ever complete it
        Stuck,    //!< the Sentinel deadline check fired
    };

    /**
     * The requester's completion wait, stepped as a sim::Spin: it reads
     * completion line @p line (a priced access); one phase later the
     * wait ends on @p complete(), on aborted(), or when
     * @p stuck(wait_start) says a Sentinel deadline passed, and
     * otherwise PAUSEs and probes again. The caller acts on the end at
     * the clock the check ran. @p stuck_at(wait_start) is the earliest
     * clock @p stuck could hold (sim::kNever when it cannot), which
     * bounds the wait's steady() declaration.
     */
    template <class Complete, class Stuck, class StuckAt>
    WaitEnd awaitCompletion(Addr line, Complete complete, Stuck stuck,
                            StuckAt stuck_at);

    /** One PAUSE plus the poll-jitter draw, priced but not charged
     *  (a Spin step returns it). */
    Cycles pauseCycles()
    {
        return sdk::kPauseCycles +
               machine_.engine().rng().nextBelow(kPollJitter + 1);
    }

    /**
     * Declare an idle poll of protocol line @p line into @p steady (a
     * sim::Spin's steady()): its probes' price, then pauseCycles()'s
     * PAUSE. Records the cache's use clock in @p use_base for
     * replaySteady().
     * @return false when a probe would be anything but an owned hit
     *         that only restamps the line (another core took it, or
     *         SimCheck must see it), or when a fault injector is
     *         attached: its sites fire on polls
     */
    bool declareSteady(Addr line, sim::Steady &steady,
                       std::uint64_t &use_base)
    {
        if (machine_.fault())
            return false;
        auto &memory = machine_.memory();
        steady.probeCycles = memory.steadyProbe(line);
        if (steady.probeCycles == 0)
            return false;
        steady.pauseCycles = sdk::kPauseCycles;
        steady.pauseJitter = kPollJitter;
        use_base = memory.cache().useClock();
        return true;
    }

    /** Apply the probes of @p line that @p run ran, declared with
     *  @p use_base; @p write when any of them wrote. */
    void replaySteady(Addr line, bool write, const sim::SteadyRun &run,
                      std::uint64_t use_base)
    {
        if (const std::uint64_t probes = run.probes())
            machine_.memory().replaySteadyProbes(line, write, probes,
                                                 use_base, run.lastProbe);
    }

    /** One PAUSE plus the poll-jitter draw, charged. */
    void pause() { machine_.engine().advance(pauseCycles()); }

    /** One access to protocol line @p line, priced but not charged. */
    Cycles probeLine(Addr line, bool write)
    {
        return machine_.memory().accessWord(line, write, false);
    }

    /**
     * Marshal call @p id into @p req before publication. A HotOcall
     * runs the same edger8r-generated trusted wrapper the SDK would
     * (Sections 4.2, 5), through marshal(). A HotEcall hands its
     * arguments over as they are; its responder marshals inside the
     * enclave.
     */
    void stage(Request &req, int id, const edl::Args &args,
               StagingSlot *slot);

    /** Copy a FastPath ocall's results back out of its staging; must
     *  run before the staging is released. @return the retval */
    std::uint64_t finishFast(Request &req);

    /** Harvest a legacy-staged call's results. @return the retval */
    std::uint64_t finish(Request &req);

    // ------------------------------------------------------------------
    // Responder side.
    // ------------------------------------------------------------------

    /**
     * HotEcall responder entry: park this fiber inside the enclave
     * with one conventional ecall, first waiting for the core's
     * previous enclave context to clear (the simulator allows one
     * in-enclave fiber per core) and then for a free TCS.
     * @return the TCS held, or null when a stop or @p retired() came
     *         first (the responder then exits at once)
     */
    template <class Retired>
    sgx::Tcs *enterEnclave(Retired retired);

    /** HotEcall responder exit, after its loop. */
    void leaveEnclave(sgx::Tcs *tcs)
    {
        runtime_.platform().eexit();
        runtime_.enclave().releaseTcs(tcs);
    }

    /**
     * Execute published request @p req. A HotEcall runs its whole
     * edger8r-style wrapper (copy-in, the trusted function, copy-out)
     * inside the enclave, staging through @p slot under FastPath.
     */
    void serve(Request &req, StagingSlot *slot);

    /** After publishing a completion: heartbeat and hiccup model. */
    void afterServe();

    // ------------------------------------------------------------------
    // Protocol hooks: stop() and quarantine entry only, never per call
    // or poll.
    // ------------------------------------------------------------------

    /** stop(): signal parked responders so they see the stop request. */
    virtual void wakeResponders() = 0;

    /** stop(): runs after the bounded join. */
    virtual void afterJoin() {}

    /** Quarantine entry with no responder heartbeat in the liveness
     *  window: put a fresh responder in place (within the guard's
     *  respawn budget). */
    virtual void respawn() = 0;

    sdk::EnclaveRuntime &runtime_;
    mem::Machine &machine_;
    const Kind kind_;
    /** Sentinel supervision, or null when the guard is off. */
    guard::ChannelGuard *guard_ = nullptr;
    bool stopRequested_ = false;
    /** Every responder fiber ever spawned, in join order. */
    std::vector<sim::Thread *> responders_;

  private:
    /**
     * Stage a call of @p plan: into @p slot's recycled staging when
     * there is a slot (FastPath on) and payload moves, telling the
     * slot's shadow of the recycle and counting the placement; else
     * with no staging lent, into @p own.
     * @return true when the call is staged in `slot->scratch`
     */
    bool marshal(StagingSlot *slot, const edl::CallPlan &plan,
                 const edl::Args &args, edl::StagedCall &own);

    /** Count one call's FastPath placement. */
    void countStaged(const edl::FastStaging &staging);

    /** One priced access to @p slot's spill-arena base line (payload
     *  handoff; inline payloads ride the protocol-line transfers). */
    void touchArena(const StagingSlot &slot, bool write)
    {
        machine_.memory().accessWord(slot.arena->base(), write);
    }

    const ChannelConfig *knobs_ = nullptr;
    ChannelStats *counters_ = nullptr;
    std::vector<Addr> lines_;
    std::vector<StagingSlot> staging_;
    bool stopped_ = false; //!< stop() completed (join done)
};

inline bool
Channel::admit(int id, const edl::Args &args, Admission &adm)
{
    hc_assert(!responders_.empty());
    if (kind_ == Kind::HotOcall &&
        !runtime_.platform().inEnclave(machine_.currentCore())) {
        throw sgx::SgxFault("HotOcall issued outside enclave mode");
    }
    runtime_.marshaller().validate(kind_ == Kind::HotOcall
                                       ? runtime_.ocallPlan(id)
                                       : runtime_.ecallPlan(id),
                                   args);
    // A stopped channel's responders have exited or are leaving: no
    // one would ever serve a request published now. Send the call
    // straight to the SDK, counted as a fallback with zero attempts.
    if (stopRequested_) {
        ++counters_->fallbacks;
        return false;
    }
    // Sentinel routing: a quarantined channel sheds straight to the
    // SDK with zero spin waste (counted as a fallback that spent no
    // attempts), except for one scheduled probe per backoff interval.
    if (guard_) {
        const auto route = guard_->route(machine_.now());
        if (route == guard::ChannelGuard::Route::Shed) {
            ++counters_->fallbacks;
            ++counters_->degradedCalls;
            guard_->onShed(machine_.now());
            counters_->degradedCycles =
                guard_->degradedCycles(machine_.now());
            return false;
        }
        adm.probing = route == guard::ChannelGuard::Route::Probe;
    }
    machine_.engine().advance(kRequesterFixed);
    adm.start = machine_.now();
    // The spin budget: the configured fixed value on the healthy path
    // (bit-identical to the pre-Sentinel channel — the budget only
    // matters at exhaustion, which implies a fallback), widened from
    // the latency estimate once the channel looks distressed.
    adm.budget = guard_ ? guard_->attemptBudget(adm.start)
                        : knobs_->timeout.timeoutTries;
    return true;
}

inline void
Channel::countFallback(const Admission &adm)
{
    ++counters_->fallbacks;
    if (!guard_)
        return;
    // Respawn only when the responders are provably wedged (no
    // heartbeat within the liveness window): a quarantine caused by
    // sheer overload is not cured by replacing workers.
    const Cycles now = machine_.now();
    if (guard_->onFallback(now, adm.probing) &&
        guard_->config().respawn && guard_->responderLate(now))
        respawn();
    counters_->degradedCycles = guard_->degradedCycles(machine_.now());
}

inline void
Channel::countSuccess(const Admission &adm, int attempts)
{
    ++counters_->calls;
    if (!guard_)
        return;
    guard_->onSuccess(machine_.now(), machine_.now() - adm.start,
                      attempts, adm.probing);
    counters_->degradedCycles = guard_->degradedCycles(machine_.now());
}

inline bool
Channel::aborted()
{
    if (auto *injector = machine_.fault())
        injector->pollStop(); // time-based abort backstop
    if (!machine_.engine().stopRequested())
        return false;
    ++counters_->aborts;
    return true;
}

template <class Complete, class Stuck, class StuckAt>
Channel::WaitEnd
Channel::awaitCompletion(Addr line, Complete complete, Stuck stuck,
                         StuckAt stuck_at)
{
    struct Wait final : sim::Spin {
        Channel &channel;
        const Addr line;
        Complete &complete;
        Stuck &stuck;
        StuckAt &stuckAt;
        const Cycles start;
        bool probed = false; //!< the probe's result is due
        std::uint64_t useBase = 0;
        WaitEnd end = WaitEnd::Complete;

        Wait(Channel &c, Addr l, Complete &d, Stuck &s, StuckAt &a,
             Cycles now)
            : channel(c), line(l), complete(d), stuck(s), stuckAt(a),
              start(now)
        {
        }

        Cycles step() override
        {
            probed = !probed;
            if (probed)
                return channel.probeLine(line, false);
            if (complete())
                end = WaitEnd::Complete;
            else if (channel.aborted())
                end = WaitEnd::Aborted;
            else if (stuck(start))
                end = WaitEnd::Stuck;
            else
                return channel.pauseCycles();
            return sim::kSpinDone;
        }

        // Idle while nothing can end the wait: not complete (only a
        // responder's fiber completes it), no stop requested, no
        // injector (aborted() polls it), and no check at or past the
        // first clock stuck() could hold.
        bool steady(sim::Steady &s) override
        {
            if (complete() || channel.machine_.engine().stopRequested() ||
                !channel.declareSteady(line, s, useBase))
                return false;
            s.at = probed ? 1 : 0;
            s.limit = stuckAt(start);
            return true;
        }

        void advanceSteady(const sim::SteadyRun &run) override
        {
            probed = run.at() == 1;
            channel.replaySteady(line, false, run, useBase);
        }
    };
    Wait wait(*this, line, complete, stuck, stuck_at, machine_.now());
    machine_.engine().spin(wait);
    return wait.end;
}

template <class Retired>
sgx::Tcs *
Channel::enterEnclave(Retired retired)
{
    auto &engine = machine_.engine();
    auto &platform = runtime_.platform();
    auto gone = [&] {
        return stopRequested_ || engine.stopRequested() || retired();
    };
    // A respawned responder can be scheduled before a predecessor has
    // left the enclave on this core.
    while (platform.inEnclave(machine_.currentCore()) && !gone()) {
        engine.advance(sdk::kPauseCycles);
        engine.yield();
    }
    if (gone())
        return nullptr;
    platform.chargeStage(platform.params().sdkEcallSoftware,
                         runtime_.enclave().untrustedCtxLines(), false);
    // Under heavy fallback traffic every TCS may momentarily be taken
    // by conventional ecalls; wait for one politely.
    sgx::Tcs *tcs = nullptr;
    while (!(tcs = runtime_.enclave().acquireTcs())) {
        engine.advance(sdk::kPauseCycles);
        engine.yield();
    }
    platform.eenter(runtime_.enclave(), *tcs);
    return tcs;
}

inline void
Channel::afterServe()
{
    if (guard_)
        guard_->heartbeat(machine_.now());
    auto &engine = machine_.engine();
    if (engine.rng().chance(knobs_->hiccupChance)) {
        engine.advance(static_cast<Cycles>(engine.rng().nextExponential(
            static_cast<double>(kHiccupMean))));
    }
}

} // namespace hc::hotcalls

#endif // HC_HOTCALLS_CHANNEL_HH
