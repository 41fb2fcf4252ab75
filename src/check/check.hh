/**
 * @file
 * SimCheck: a deterministic correctness layer for the simulator.
 *
 * The HotCalls argument rests on a carefully ordered shared-memory
 * protocol (spin-lock word, busy flag, slot lifecycle) between
 * requester and responder, and the HotQueue ring multiplied the
 * number of concurrently mutated lines. SimCheck makes the intended
 * orderliness of those interactions mechanically checkable while the
 * discrete-event engine runs:
 *
 *  - a virtual-time race detector over priced word accesses
 *    (mem::MemoryModel::accessWord). Every simulated thread carries a
 *    vector clock; happens-before edges come from sim::WaitQueue
 *    wakeups, SDK mutex/condvar operations, thread spawn/join, and
 *    accesses to registered *sync words* (the HotCalls channel and
 *    HotQueue slot/cursor lines), which behave
 *    like atomics: readers acquire the line's release clock, writers
 *    publish theirs. A cross-thread pair of conflicting accesses to a
 *    plain word with no ordering edge is a violation. Because fibers
 *    are cooperatively scheduled and interleave only at priced
 *    boundaries, the detector is exact and deterministic: a race is
 *    reported on the access that completes it, every run.
 *
 *  - protocol state machines shadowing the HotCall single-line
 *    channel (lock/publish/serve/complete) and the HotQueue slot
 *    lifecycle (Free -> Publishing -> Ready -> Serving -> Done ->
 *    Free, no double-claim or double-harvest, head <= tail <=
 *    head + numSlots). The channels report the transitions they
 *    perform; the shadow flags illegal ones.
 *
 *  - a leak audit over the simulated AddressSpace at Machine
 *    teardown: any allocation still live that was not explicitly
 *    registered as a deliberate leak is a violation.
 *
 * The layer is enabled per Machine (MachineConfig::check) or for a
 * whole process with the HC_CHECK environment variable, in which case
 * violations panic so a test run fails loudly.
 */

#ifndef HC_CHECK_CHECK_HH
#define HC_CHECK_CHECK_HH

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/engine.hh"
#include "support/units.hh"

namespace hc::check {

/** SimCheck tunables (MachineConfig::check). */
struct CheckConfig {
    /** Enable the checker regardless of the HC_CHECK environment
     *  variable. Explicit configuration wins over the environment. */
    bool enabled = false;
    /** Abort (panic) on the first violation instead of recording it.
     *  HC_CHECK=1 implies this so an unattended test run fails. */
    bool panicOnViolation = false;
    /** Recorded-violation cap; reports beyond it are only counted. */
    std::size_t maxViolations = 256;
};

/** Detector that produced a violation. */
enum class ViolationKind {
    Race,     //!< unordered conflicting accesses to a plain word
    Protocol, //!< illegal channel/slot state transition
    Leak,     //!< allocation still live at the leak audit
};

/** One recorded violation. */
struct Violation {
    ViolationKind kind;
    std::string message;
};

/**
 * The per-Machine checker. Owned by mem::Machine; lower layers reach
 * it through Machine::check() (null when checking is off), so every
 * hook below is a no-op in ordinary runs.
 */
class SimCheck : public sim::EngineObserver
{
  public:
    SimCheck(sim::Engine &engine, CheckConfig config);
    ~SimCheck() override = default;

    SimCheck(const SimCheck &) = delete;
    SimCheck &operator=(const SimCheck &) = delete;

    // ------------------------------------------------------------------
    // Scheduler events (sim::EngineObserver): happens-before sources.
    // ------------------------------------------------------------------

    void onSpawn(sim::Thread *parent, sim::Thread *child) override;
    void onWake(sim::Thread *waker, sim::Thread *woken) override;
    void onThreadExit(sim::Thread *thread) override;

    /** Record that the current thread observed @p joined terminate
     *  (a polling join): the joined thread's final clock is acquired. */
    void joinEdge(sim::Thread *joined);

    // ------------------------------------------------------------------
    // Race detector.
    // ------------------------------------------------------------------

    /** One priced word access by the current thread (hooked from
     *  mem::MemoryModel::accessWord). */
    void onWordAccess(Addr addr, bool write);

    /**
     * One bulk transfer of [addr, addr+len) by the current thread
     * (hooked from mem::MemoryModel::readBuffer/writeBuffer and the
     * marshalling copies). Bulk data is priced at stream granularity
     * and stays exempt from per-word race tracking, but any
     * registered sync word inside the span keeps its acquire/release
     * semantics — a channel line does not lose its ordering edges
     * just because it was touched by a range op.
     */
    void onSpanAccess(Addr addr, std::uint64_t len, bool write);

    /** Treat the word at @p addr as a synchronization word (atomic):
     *  accesses are exempt from race checks and create acquire/release
     *  edges instead. The HotCalls channel lines register
     *  themselves. */
    void registerSyncWord(Addr addr);

    /** Exempt @p addr from race checking without sync semantics (used
     *  for modelled microarchitectural context lines, whose accesses
     *  are serialized by the hardware being modelled). */
    void markExempt(Addr addr);

    /** Acquire edge on @p obj for the current thread (mutex lock). */
    void acquireEdge(const void *obj);

    /** Release edge on @p obj for the current thread (mutex unlock). */
    void releaseEdge(const void *obj);

    /** A simulated allocation was freed: drop all per-word metadata
     *  in [addr, addr+size) so a reused address starts clean. */
    void onFree(Addr addr, std::uint64_t size);

    // ------------------------------------------------------------------
    // Leak audit.
    // ------------------------------------------------------------------

    /** Exempt @p addr from the leak audit (an allocation intentionally
     *  left live, e.g. a channel line held by an unjoined responder). */
    void registerDeliberateLeak(Addr addr, std::string reason);

    /** One still-live allocation, as gathered by mem::Machine. */
    struct LeakItem {
        Addr addr;
        std::uint64_t bytes;
        const char *region; //!< "untrusted" or "epc"
    };

    /** Audit @p live allocations; every item not registered as a
     *  deliberate leak becomes a Leak violation. */
    void auditLeaks(const std::vector<LeakItem> &live);

    // ------------------------------------------------------------------
    // Reporting.
    // ------------------------------------------------------------------

    /** Record a protocol violation (used by the shadow machines). */
    void reportProtocol(const std::string &message);

    /** @return every recorded violation, in detection order. */
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    /** @return violations of @p kind detected so far (including any
     *  beyond the recording cap). */
    std::uint64_t count(ViolationKind kind) const;

    /** @return the engine this checker observes. */
    sim::Engine &engine() { return engine_; }

    /** @return the current thread's debug name ("<host>" outside). */
    std::string currentThreadName() const;

  private:
    using Clock = std::vector<std::uint64_t>;

    /** One plain-word access, for conflict checks and reports. */
    struct Access {
        std::uint64_t tid = 0;
        std::uint64_t epoch = 0;
        Cycles at = 0;
        bool valid = false;
    };

    /** Shadow state of one plain word. */
    struct WordState {
        Access write;
        std::vector<Access> reads; //!< last read per thread
    };

    /** Per-thread vector-clock state. */
    struct ThreadInfo {
        Clock clock;
        std::string name;
        bool known = false;
    };

    /** @return the info slot for @p thread, created on first sight. */
    ThreadInfo &info(sim::Thread *thread);

    /** Elementwise max of @p from into @p into. */
    static void join(Clock &into, const Clock &from);

    /** @return true when @p access happens-before the thread owning
     *  @p clock. */
    static bool ordered(const Access &access, const Clock &clock);

    /** @return the display name of thread @p tid. */
    const std::string &nameOf(std::uint64_t tid) const;

    void report(ViolationKind kind, std::string message);

    void reportRace(const char *current_op, const char *prior_op,
                    Addr addr, const Access &prior);

    sim::Engine &engine_;
    CheckConfig config_;

    std::vector<ThreadInfo> threads_; //!< indexed by sim thread id
    std::unordered_map<Addr, WordState> words_;
    std::unordered_map<Addr, Clock> syncClocks_;
    /** Ordered so onSpanAccess() can range-query words in a span. */
    std::set<Addr> syncWords_;
    std::unordered_set<Addr> exempt_;
    std::unordered_map<const void *, Clock> objectClocks_;
    std::unordered_map<Addr, std::string> deliberateLeaks_;

    std::vector<Violation> violations_;
    std::uint64_t counts_[3] = {0, 0, 0};
};

/**
 * Shadow state machine of one HotQueue ring (hotqueue.hh). The queue
 * reports every transition it performs; the shadow validates the slot
 * lifecycle, ownership (publisher = claimer, completer = grabber,
 * harvester = claimer) and the cursor invariant.
 */
class HotQueueProtocol
{
  public:
    /**
     * @param check      violation sink (also supplies thread identity)
     * @param name       queue name used in reports
     * @param num_slots  ring capacity (cursor invariant bound)
     */
    HotQueueProtocol(SimCheck &check, std::string name, int num_slots);

    /**
     * Teardown assertion (fault-aware): when the queue dies after a
     * run that completed normally, every slot must have come back to
     * Free — a slot stuck mid-lifecycle means a lost request. An
     * aborted run (Engine::stop(), fault-injected or not) legitimately
     * strands slots in any state, so the assertion is skipped then.
     */
    ~HotQueueProtocol();

    void onClaim(int slot);    //!< Free -> Publishing, by a requester
    void onPublish(int slot);  //!< Publishing -> Ready, by the claimer
    void onGrab(int slot);     //!< Ready -> Serving, by a responder
    void onComplete(int slot); //!< Serving -> Done, by the grabber
    void onHarvest(int slot);  //!< Done -> Free, by the claimer

    // ------------------------------------------------------------------
    // Sentinel reclaim transitions (guard/guard.hh). A reclaimed slot
    // goes to Zombie — out of circulation but not yet reusable — and
    // comes back Free via onZombieRetire once every party that might
    // still reference it has let go.
    // ------------------------------------------------------------------

    /** Ready -> Zombie: the claimer gave up on a published request no
     *  responder ever grabbed. Legal only for the claimer. */
    void onReclaimReady(int slot);

    /** Serving -> Zombie: the claimer gave up on a grabbed request
     *  whose server never started executing it. Legal only for the
     *  claimer — the server must use onComplete, never reclaim. */
    void onReclaimServing(int slot);

    /** Publishing -> Zombie: the head scan retired a slot whose
     *  claimer stalled mid-marshal. Legal only for a NON-claimer (the
     *  claimer itself must publish or keep the slot). */
    void onReclaimPublishing(int slot);

    /** Zombie -> Free: the retired slot rejoins the ring. */
    void onZombieRetire(int slot);

    /**
     * The slot's FastPath staging arena is about to be recycled
     * (bump pointer reset: every piece of the previous call on this
     * slot is released). Legal only for the party that owns the slot
     * at that point: the claimer while Publishing (ocall staging) or
     * the server while Serving (ecall staging). Anything else — in
     * particular recycling while a responder is still Serving from
     * the arena, or after the slot was already released — would let a
     * new request scribble over an in-flight call's payload.
     */
    void onArenaRecycle(int slot);

    /** Validate head <= tail <= head + numSlots. */
    void onCursors(std::uint64_t head, std::uint64_t tail);

  private:
    enum class State { Free, Publishing, Ready, Serving, Done, Zombie };

    struct SlotShadow {
        State state = State::Free;
        std::string claimer;
        std::string server;
    };

    static const char *stateName(State state);

    /** Validate @p slot is in @p from and move it to @p to.
     *  @return false when a violation was reported instead. */
    bool transition(int slot, State from, State to, const char *event);

    SimCheck &check_;
    std::string name_;
    int numSlots_;
    std::vector<SlotShadow> slots_;
};

/**
 * Shadow state machine of the single-line HotCall channel
 * (hotcall.hh): spin-lock ownership, publish-under-lock, and the
 * busy/"go" flag lifecycle.
 */
class HotCallProtocol
{
  public:
    HotCallProtocol(SimCheck &check, std::string name);

    /**
     * Teardown assertion (fault-aware): after a normally completed
     * run the channel must be quiescent — lock free, no request in
     * flight. Aborted runs are exempt (the requester or responder was
     * stranded mid-protocol by Engine::stop()).
     */
    ~HotCallProtocol();

    void onLock();     //!< lock word taken (must have been free)
    void onUnlock();   //!< lock word released (by the holder)
    void onPublish();  //!< request published ("go" raised, under lock)
    void onServe();    //!< responder committed to the published request
    void onComplete(); //!< "go" cleared after execution (by the server)

    /** The publisher gave up on a request no responder committed to
     *  (Sentinel abandon). Legal only while published-but-unserved,
     *  and only for the publisher; the channel stays poisoned until a
     *  responder discards the stale request. */
    void onAbandon();

    /** A responder dropped an abandoned request without serving it
     *  (the channel is clean again). Legal only after onAbandon. */
    void onDiscard();

  private:
    SimCheck &check_;
    std::string name_;
    bool locked_ = false;
    bool go_ = false;
    bool serving_ = false;
    bool abandoned_ = false;
    std::string holder_;
    std::string server_;
    std::string publisher_;
};

} // namespace hc::check

#endif // HC_CHECK_CHECK_HH
