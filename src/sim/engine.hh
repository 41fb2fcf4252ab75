/**
 * @file
 * Deterministic multi-core discrete-event simulation engine.
 *
 * The engine owns N logical cores (default 8, matching the paper's
 * i7-6700K with hyper-threading). Each simulated thread is a fiber
 * pinned to one core; a core runs one thread at a time and has its own
 * cycle clock. The engine always resumes the eligible thread whose
 * effective start time is globally minimal, so for a fixed seed every
 * run interleaves identically.
 *
 * Threads charge virtual time with advance(); advance() reschedules
 * whenever the local clock crosses the earliest pending event
 * elsewhere, which keeps cross-core shared-memory interactions (the
 * HotCalls channel, spin-locks) correctly ordered in virtual time while
 * costing a context switch only at real interleaving points. There the
 * suspending thread makes the scheduling decision itself and hands its
 * fiber straight to the winner (one swap); the scheduler loop in run()
 * takes over only for thread exit, a pending stop, timeout expiry and
 * deadlock.
 */

#ifndef HC_SIM_ENGINE_HH
#define HC_SIM_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hh"
#include "support/rng.hh"
#include "support/units.hh"

namespace hc::sim {

class Engine;
class Spin;

/** States a simulated thread moves through. */
enum class ThreadState {
    Ready,   //!< eligible to run on its core at readyTime
    Running, //!< currently executing on its core
    Blocked, //!< parked on a WaitQueue
    Done,    //!< body returned
};

/**
 * A simulated thread: a fiber pinned to a logical core.
 *
 * Thread objects are created by Engine::spawn() and owned by the
 * engine; user code holds non-owning pointers.
 */
class Thread
{
  public:
    /** @return the thread's debug name. */
    const std::string &name() const { return name_; }

    /** @return the logical core this thread is pinned to. */
    CoreId core() const { return core_; }

    /** @return the current lifecycle state. */
    ThreadState state() const { return state_; }

    /** @return true if the last waitUntil() ended by timeout. */
    bool timedOut() const { return timedOut_; }

    /** @return the unique spawn-order id (deterministic tiebreaker). */
    std::uint64_t id() const { return id_; }

  private:
    friend class Engine;
    friend class WaitQueue;

    Thread(Engine &engine, std::string name, CoreId core,
           std::function<void()> body, std::uint64_t id);

    Engine &engine_;
    std::string name_;
    CoreId core_;
    std::uint64_t id_;
    ThreadState state_ = ThreadState::Ready;
    Cycles readyTime_ = 0;   //!< earliest time the core may run us
    Cycles timeoutAt_ = 0;   //!< pending waitUntil() deadline
    bool hasTimeout_ = false;
    bool timedOut_ = false;
    class WaitQueue *waitingOn_ = nullptr;
    /** The loop this thread is parked in (Engine::spin()), or null. */
    Spin *spin_ = nullptr;
    std::unique_ptr<Fiber> fiber_;
};

/** Spin::step()'s result when the polling loop exits. */
constexpr Cycles kSpinDone = std::numeric_limits<Cycles>::max();

/** A clock no event reaches: a bound that never binds. */
constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

/**
 * A polling loop's idle iteration, as Spin::steady() declares it:
 * `probes` steps that each end in an access costing `probeCycles`, then
 * one step that ends in a PAUSE of `pauseCycles` plus
 * rng().nextBelow(pauseJitter + 1), drawn from the engine RNG. Nothing
 * else happens in those steps that the loop cannot apply afterwards
 * from a SteadyRun. The declaration covers `heads` more iteration heads
 * (first probes) and only steps that start before cycle `limit`.
 */
struct Steady {
    int probes = 1;
    Cycles probeCycles = 0;
    Cycles pauseCycles = 0;
    Cycles pauseJitter = 0;
    /** Steps of the current iteration already run: 0 when the next
     *  step is a head, `probes` when it is the PAUSE. */
    int at = 0;
    std::uint64_t heads = std::numeric_limits<std::uint64_t>::max();
    Cycles limit = kNever;
};

/** What one batch ran of a Spin's declared iterations, for
 *  Spin::advanceSteady(). */
struct SteadyRun {
    int length = 2;          //!< steps per iteration (probes + 1)
    int from = 0;            //!< Steady::at when the batch began
    std::uint64_t steps = 0; //!< steps run (at least one)
    /** The clock at the last head run (when ran(0) > 0). */
    Cycles lastHead = 0;
    /** The last probe's 1-based place among the probes the batch ran on
     *  every lane, in the order it ran them (when probes() > 0). */
    std::uint64_t lastProbe = 0;

    /** @return where the iteration stands now, as Steady::at. */
    int at() const
    {
        return static_cast<int>((static_cast<std::uint64_t>(from) + steps) %
                                static_cast<std::uint64_t>(length));
    }

    /** @return how often the iteration's step @p i ran (0: the head,
     *  length - 1: the PAUSE). */
    std::uint64_t ran(int i) const
    {
        const auto first = static_cast<std::uint64_t>(
            (i - from + length) % length); // steps before its first run
        return steps > first
                   ? (steps - first - 1) / static_cast<std::uint64_t>(length) +
                         1
                   : 0;
    }

    /** @return the probe steps run. */
    std::uint64_t probes() const { return steps - ran(length - 1); }
};

/**
 * A polling loop written as phases, run by Engine::spin().
 *
 * Each step() runs host logic at the current clock and ends in at most
 * one priced operation: a memory access priced with charge_time off, or
 * a PAUSE. It returns that operation's cycles instead of charging them;
 * spin() charges them. The logic that reads the access's result belongs
 * to the next step, which runs after the charge, exactly where the
 * straight-line loop would run it. A step must not suspend: advance(),
 * yield(), sleepUntil(), wait(), waitUntil(), notify*() and spawn()
 * assert. That is what lets the engine run it on any stack.
 *
 * A loop that idles can also declare its idle iteration (steady()); the
 * scheduler then runs those steps itself, in batch, and hands the loop
 * what ran (advanceSteady()). The two must agree with step() exactly:
 * a change to step() changes them too.
 */
class Spin
{
  public:
    virtual ~Spin() = default;

    /** Run one phase. @return the cycles of its priced access or
     *  PAUSE, or kSpinDone when the loop exits (then it charged
     *  nothing). */
    virtual Cycles step() = 0;

    /**
     * Declare the idle iteration the next step belongs to, if any, in
     * @p steady. The engine asks where it would call step(), and may
     * then run none of the declared steps. Until it hands over what
     * ran (or asks again), no simulated code runs: only declared steps,
     * which it runs itself, and other loops' advanceSteady().
     * @return false (the default) when the next step is not part of
     * one.
     */
    virtual bool steady(Steady &steady)
    {
        (void)steady;
        return false;
    }

    /** Apply @p run, the declared steps a batch ran, exactly as step()
     *  would have left the loop. Loops that share state must leave it
     *  as the batch's last step would: the order between lanes is not
     *  kept. */
    virtual void advanceSteady(const SteadyRun &run) { (void)run; }
};

/**
 * A condition-variable-like parking lot for simulated threads.
 *
 * Threads block with Engine::wait()/waitUntil() and are released by
 * notifyOne()/notifyAll(). Wakeups carry the notifier's virtual time,
 * so a woken thread never runs earlier than its waker.
 */
class WaitQueue
{
  public:
    WaitQueue() = default;
    WaitQueue(const WaitQueue &) = delete;
    WaitQueue &operator=(const WaitQueue &) = delete;

    /** @return the number of threads currently parked. */
    std::size_t waiterCount() const { return waiters_.size(); }

  private:
    friend class Engine;
    std::deque<Thread *> waiters_;
};

/**
 * Thrown into a stranded fiber by Engine::unwindStranded() so its
 * stack unwinds and locals (staging buffers, vectors, ...) are
 * destroyed instead of leaking. Caught by the thread trampoline;
 * simulated code must never catch it (and never catches (...)).
 */
struct ForcedUnwind
{
};

/** Hook invoked when a core takes an interrupt; returns cycles spent. */
using InterruptHandler = std::function<Cycles(CoreId core, Cycles now)>;

/**
 * Scheduler event sink (Engine::setObserver). The checker layer
 * (src/check) derives happens-before edges from these events; the
 * engine itself attaches no semantics to them.
 */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    /** @p child was spawned; @p parent is null for host-side spawns. */
    virtual void onSpawn(Thread *parent, Thread *child) = 0;

    /** @p woken leaves a WaitQueue because @p waker notified it;
     *  @p waker is null when the notify came from outside the
     *  simulation. Timeout expiries emit onTimeout instead (they
     *  carry no ordering). */
    virtual void onWake(Thread *waker, Thread *woken) = 0;

    /** @p thread's body returned. */
    virtual void onThreadExit(Thread *thread) = 0;

    /** @p thread's waitUntil() deadline expired (no ordering edge:
     *  nobody notified it). Default: ignored. */
    virtual void onTimeout(Thread *thread) { (void)thread; }

    /** Engine::stop() was requested (first request only). Default:
     *  ignored. */
    virtual void onStop() {}
};

/** The discrete-event engine. */
class Engine
{
  public:
    struct Config {
        int numCores = 8;              //!< logical cores (paper: 8)
        std::uint64_t seed = 1;        //!< master RNG seed
        double interruptMeanCycles = 0; //!< 0 disables interrupts
    };

    Engine() : Engine(Config{}) {}
    explicit Engine(Config config);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** @return the engine owning the currently running fiber. */
    static Engine *current();

    /**
     * Create a simulated thread.
     *
     * @param name  debug name
     * @param core  logical core to pin to, in [0, numCores)
     * @param body  the thread body
     * @return a non-owning handle
     */
    Thread *spawn(std::string name, CoreId core,
                  std::function<void()> body);

    /**
     * Run the simulation. Returns when every thread finished or when
     * stop() was called. Calls fatal() on deadlock (live threads but
     * nothing runnable and no stop request).
     */
    void run();

    /** Request run() to return at the next scheduling point. */
    void stop()
    {
        if (!stopRequested_ && observer_)
            observer_->onStop();
        stopRequested_ = true;
    }

    /** @return true once stop() has been called. */
    bool stopRequested() const { return stopRequested_; }

    /** @return threads spawned but not yet finished. After run()
     *  returned, non-zero means fibers were stranded by stop(). */
    std::uint64_t liveThreads() const { return liveThreads_; }

    /**
     * Collapse every stranded fiber by resuming it once with
     * ForcedUnwind pending, destroying all locals on its stack.
     * Teardown-only: the engine must not be run() again afterwards.
     * Owners whose resources outlive the engine (Machine) call this
     * before tearing those resources down; the destructor also calls
     * it as a backstop. No-op when no threads are live.
     */
    void unwindStranded();

    /** @return true while unwindStranded() is collapsing fibers. */
    bool unwinding() const { return unwinding_; }

    // ------------------------------------------------------------------
    // Calls valid only from inside a simulated thread.
    // ------------------------------------------------------------------

    /** @return the currently running thread. */
    Thread *currentThread() const { return running_; }

    /** @return the current thread's core clock, in cycles (0 outside
     *  the simulation). */
    Cycles now() const
    {
        return running_
                   ? cores_[static_cast<std::size_t>(running_->core_)].clock
                   : 0;
    }

    /** @return the clock of core @p core. */
    Cycles coreNow(CoreId core) const;

    /** Charge @p cycles of compute time on the current core. */
    void advance(Cycles cycles);

    /** Let same-core ready threads run; current rejoins the queue. */
    void yield();

    /** Block until the core clock reaches @p when. */
    void sleepUntil(Cycles when);

    /** Block for @p cycles of virtual time. */
    void sleepFor(Cycles cycles) { sleepUntil(now() + cycles); }

    /** Park the current thread on @p queue until notified. */
    void wait(WaitQueue &queue);

    /**
     * Park on @p queue until notified or until @p deadline.
     * @return true when notified, false on timeout.
     */
    bool waitUntil(WaitQueue &queue, Cycles deadline);

    /** Release one parked thread (FIFO). No-op when empty. */
    void notifyOne(WaitQueue &queue);

    /** Release every parked thread. */
    void notifyAll(WaitQueue &queue);

    /** Terminate the current thread immediately. */
    [[noreturn]] void exitThread();

    /**
     * Run @p loop until a step returns kSpinDone. The result is exactly
     * that of
     *
     *     for (Cycles c; (c = loop.step()) != kSpinDone;) advance(c);
     *
     * but while the thread is parked in advance() here and alone on its
     * core, the scheduler steps the loop inline: running_ names the
     * spinner, interrupts arrive as advance() delivers them, and the
     * engine moves between such spinners by the scan's rule (earliest
     * time, then lowest core). Steps the loop declares steady()
     * run in batch (runSteady()). The fiber is resumed only when a step
     * ends the loop, or when its core is shared (then the fiber steps
     * its own loop).
     */
    void spin(Spin &loop);

    // ------------------------------------------------------------------
    // Interrupt (AEX source) model.
    // ------------------------------------------------------------------

    /**
     * Install the handler invoked when a core takes a timer interrupt.
     * Interrupt arrivals are exponential with Config::interruptMeanCycles
     * mean inter-arrival time; a zero mean disables them.
     */
    void setInterruptHandler(InterruptHandler handler);

    /** @return total interrupts delivered so far. */
    std::uint64_t interruptCount() const { return interruptCount_; }

    /** @return fiber swaps made so far by run(): dispatches from the
     *  scheduler loop, handoffs between threads, and returns to the
     *  loop (by reschedule() or thread exit). Host-side only: no
     *  simulated state depends on it. */
    std::uint64_t fiberSwitches() const { return fiberSwitches_; }

    /** @return Spin steps the scheduler ran inline, without resuming
     *  the spinning thread's fiber. Host-side only, like
     *  fiberSwitches(). */
    std::uint64_t inlineSteps() const { return inlineSteps_; }

    /** @return the inline steps that ran in batch, from a Spin's
     *  steady() declaration (runSteady()). Host-side only, like
     *  fiberSwitches(). */
    std::uint64_t steadySteps() const { return steadySteps_; }

    /** Install the scheduler event sink (null to detach). The
     *  observer must outlive the engine or be detached first. */
    void setObserver(EngineObserver *observer) { observer_ = observer; }

    /** @return the engine master RNG (for seeding components). */
    Rng &rng() { return rng_; }

    /** @return number of configured cores. */
    int numCores() const { return static_cast<int>(cores_.size()); }

  private:
    /** One cache line per core; a scan reads its first four fields. */
    struct alignas(64) Core {
        Cycles clock = 0;
        /** The candidate: the earliest readyTime_ in ready, the first
         *  arrival on ties; null while ready is empty. */
        Thread *first = nullptr;
        Cycles firstTime = 0; //!< its readyTime_ (queued ones never change)
        /** first is a lane: a spinner alone on the core (a queued
         *  thread's spin_ never changes). */
        bool lane = false;
        std::uint32_t candidate = 0; //!< first's index in ready
        /** Next timer interrupt; stays at the maximum when interrupts
         *  are off, so the due test in advance() never fires. */
        Cycles nextInterrupt = std::numeric_limits<Cycles>::max();
        /** Ready threads in arrival order. */
        std::vector<Thread *> ready;
    };

    /**
     * One deterministic scheduling scan: the earliest runnable
     * candidate that is not a lane (ties to the lower core), the
     * minimum candidate time over every *other* such core (used to
     * refresh the horizon incrementally after dispatch), and the
     * earliest pending waitUntil() deadline. Lanes, the spinners
     * alone on their cores, go to lanes_ beside it.
     */
    struct Selection {
        Thread *thread = nullptr; //!< winning candidate (may be null)
        Cycles time = std::numeric_limits<Cycles>::max();
        std::size_t coreIdx = 0;
        Cycles otherMin = std::numeric_limits<Cycles>::max();
        Thread *timeoutThread = nullptr;
        Cycles timeoutTime = std::numeric_limits<Cycles>::max();

        /** True when a timeout expires before any candidate runs. */
        bool expiresTimeout() const
        {
            return timeoutThread && timeoutTime < time;
        }
    };

    /** A spinner alone on its core: the core's index and the time the
     *  spinner can run (inside runSteady(), a declared lane's next
     *  PAUSE). */
    struct Lane {
        std::size_t coreIdx;
        Cycles time;
    };

    /**
     * A lane's part in the batches of one stepSpinners() call, kept
     * beside lanes_. In a batch a declared lane is its current
     * segment: its probes up to and including its next PAUSE, which
     * starts at its Lane::time.
     */
    struct LaneBatch {
        /** Whether its loop was asked for a declaration since it last
         *  stepped, and the answer. */
        enum class Ask : std::uint8_t { Unasked, Steady, Declined };
        Ask ask = Ask::Unasked;
        Steady steady;    //!< the declaration (Ask::Steady)
        SteadyRun run;    //!< what the batch ran
        Cycles start = 0; //!< the segment's first step's clock
        Cycles span = 0;  //!< a whole segment's probe cycles
        /** A segment runs whole when its PAUSE starts below this clock
         *  (its limit, and its core's next interrupt at the widest
         *  jitter)... */
        Cycles below = 0;
        /** ...and fewer PAUSEs than this ran before it (its head). */
        std::uint64_t heads = 0;
        /** The PAUSEs the batch ran, by their clocks. */
        std::vector<Cycles> pauses;
        // Once the batch ended:
        int tail = 0;                //!< the current segment's probes run
        std::uint64_t probesRun = 0; //!< every probe run
        Cycles lastProbeClock = 0;   //!< the last one's clock
    };

    /** Move @p thread to Ready on its core, runnable at @p when. */
    void makeReady(Thread *thread, Cycles when);

    /** Remove @p core's candidate from its ready queue and find the
     *  next one. */
    void popCandidate(Core &core);

    /** Scan for the next scheduling decision (shared by the scheduler
     *  loop and reschedule(), so they cannot diverge); fills lanes_. */
    Selection selectNext();

    /**
     * Make @p sel's winner the running thread: take it off its core's
     * ready queue, move the core clock to its start time and refresh
     * the horizon. The only dispatch routine for fibers; the caller
     * then transfers control (the loop by switchTo(), a suspending
     * thread by handoff() unless it won itself). Emits no observer
     * events.
     */
    void dispatch(const Selection &sel);

    /**
     * Act on a scan: dispatch @p sel's candidate, or, when there are
     * lanes, let stepSpinners() decide.
     * @return the dispatched thread, whose fiber runs next; null when
     *         a timeout expires first, nothing is runnable, or a stop
     *         request ended the inline steps
     */
    Thread *launch(Selection &sel);

    /**
     * The inline spin loop over lanes_ and @p other, the earliest
     * other candidate. While a lane is the earliest (ties to the lower
     * core), run its steps until its clock reaches the next event; it
     * stays queued on its core, only its time moves. Steps its loop
     * declares steady() run in batch (runSteady()); a declared lane
     * whose next step the declaration does not cover takes that one
     * step on its own. Stops at @p other (dispatched here, with no
     * second scan), a timed-waiter deadline or a stop request (null,
     * for run()), or a step that ends its loop (that spinner,
     * dispatched). Steps cannot make any thread ready, so nothing else
     * changes on the way.
     */
    Thread *stepSpinners(Selection &other);

    /** selectNext()'s rule over lanes_: earliest time, then lowest
     *  core. @return the pick's index; the earliest time of the other
     *  lanes goes to @p rest. */
    std::size_t pickLane(Cycles &rest) const;

    /** @return true when @p other runs before @p lane by the same
     *  rule. */
    static bool precedes(const Selection &other, const Lane &lane)
    {
        return other.time < lane.time ||
               (other.time == lane.time && other.coreIdx < lane.coreIdx);
    }

    /** Ask @p lane's loop for its steady() declaration into @p batch
     *  and, when it makes one, start its first segment there.
     *  @return true when it made one. */
    bool declare(Lane &lane, LaneBatch &batch);

    /**
     * A batch: the steps stepSpinners() would run next, in its order
     * (earliest step, then lowest core), as long as each is covered by
     * its loop's declaration (asked on its lane's first turn) and
     * cannot reach its core's next interrupt. Only PAUSEs draw, so it
     * moves one segment at a time: the lane whose next PAUSE comes
     * first draws that PAUSE's jitter and starts its next segment. It
     * ends at one (clock, core) key: @p other, just past a timed-waiter
     * deadline, a declining lane, or the first step a declaration does
     * not cover, which stepSpinners() runs; every step below that key
     * ran. Each loop then gets its SteadyRun.
     * @return true when it ran a step
     */
    bool runSteady(const Selection &other);

    /** @return the index within lane @p i's current segment, which its
     *  declaration does not cover whole, of the first step it does not
     *  cover (the segment's probe count: its PAUSE). */
    int uncoveredStep(std::size_t i) const;

    /** @return the probes lane @p i ran in its batch after the step at
     *  @p t on core @p core. */
    std::uint64_t probesAfter(std::size_t i, Cycles t,
                              std::size_t core) const;

    /** One Spin step, with suspension calls locked out. */
    Cycles step(Spin &loop)
    {
        stepping_ = true;
        const Cycles cycles = loop.step();
        stepping_ = false;
        return cycles;
    }

    /**
     * End a suspension point. The running thread has re-queued itself
     * (advance/yield/sleepUntil) or parked (wait/waitUntil); decide
     * who runs next, exactly as the scheduler loop would. A winning
     * self keeps running; another winner is dispatched here and
     * resumed by a direct fiber handoff. A pending stop, a winning
     * timeout expiry or nothing runnable returns to the loop in run().
     * Spinners may be stepped inline on the way (launch()).
     */
    void reschedule();

    /** Drop @p thread from the timed-waiter list (timeout cleared). */
    void dropTimedWaiter(Thread *thread);

    /** Deliver the interrupts due on @p core (running thread's). */
    void deliverInterrupts(Core &core);

    Config config_;
    Rng rng_;
    std::vector<Core> cores_;
    std::vector<std::unique_ptr<Thread>> threads_;
    /** Blocked threads with a pending waitUntil() deadline — the only
     *  threads the scheduler must scan besides per-core ready queues
     *  (ties resolve by spawn id, matching a spawn-order scan). */
    std::vector<Thread *> timedWaiters_;
    Thread *running_ = nullptr;
    std::uint64_t nextThreadId_ = 0;
    std::uint64_t liveThreads_ = 0;
    bool stopRequested_ = false;
    bool inRun_ = false;
    bool unwinding_ = false;
    bool stepping_ = false; //!< inside a Spin::step()
    std::uint64_t interruptCount_ = 0;
    std::uint64_t fiberSwitches_ = 0;
    std::uint64_t inlineSteps_ = 0;
    std::uint64_t steadySteps_ = 0;
    /** The last scan's lanes, in core order. */
    std::vector<Lane> lanes_;
    /** Per lane of lanes_, its batch state (it never shrinks, so the
     *  PAUSE lists keep their capacity). */
    std::vector<LaneBatch> batches_;
    InterruptHandler interruptHandler_;
    EngineObserver *observer_ = nullptr;

    /** Earliest event time outside the currently running thread. */
    Cycles nextEventTime_ = std::numeric_limits<Cycles>::max();
};

// ----------------------------------------------------------------------
// Free-function conveniences for the running fiber's engine.
// ----------------------------------------------------------------------

/** @return current virtual time of the calling fiber's core. */
Cycles now();

/** Charge cycles on the calling fiber's core. */
void advance(Cycles cycles);

/** Yield to same-core ready threads. */
void yield();

} // namespace hc::sim

#endif // HC_SIM_ENGINE_HH
