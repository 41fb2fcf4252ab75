/**
 * @file
 * Tests for the discrete-event engine: fibers, virtual-time
 * scheduling, blocking, timeouts, determinism, interrupts, the
 * direct fiber handoff between threads, spin loops stepped inline, and
 * their declared idle iterations run in batch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/fiber.hh"

using namespace hc;
using namespace hc::sim;

// ----------------------------------------------------------------------
// Fiber.
// ----------------------------------------------------------------------

TEST(Fiber, RunsBodyOnSwitchTo)
{
    int state = 0;
    Fiber fiber([&] { state = 1; });
    EXPECT_EQ(state, 0);
    fiber.switchTo();
    EXPECT_EQ(state, 1);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, SuspendsAndResumes)
{
    std::vector<int> order;
    Fiber *self = nullptr;
    Fiber fiber([&] {
        order.push_back(1);
        self->switchBack();
        order.push_back(3);
    });
    self = &fiber;
    fiber.switchTo();
    order.push_back(2);
    fiber.switchTo();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, HandoffPassesOnTheReturnContext)
{
    // a hands off to b (first entry, then exit) and later to c
    // (switchBack): both must come back here, not to a.
    std::vector<int> order;
    Fiber *self_c = nullptr;
    Fiber b([&] { order.push_back(2); });
    Fiber c([&] {
        order.push_back(5);
        self_c->switchBack();
        order.push_back(8);
    });
    self_c = &c;
    Fiber *self_a = nullptr;
    Fiber a([&] {
        order.push_back(1);
        self_a->handoff(b);
        order.push_back(4);
        self_a->handoff(c);
        order.push_back(7);
    });
    self_a = &a;
    a.switchTo();
    order.push_back(3);
    EXPECT_TRUE(b.finished());
    a.switchTo();
    order.push_back(6);
    a.switchTo();
    EXPECT_TRUE(a.finished());
    c.switchTo();
    EXPECT_TRUE(c.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

// ----------------------------------------------------------------------
// Engine basics.
// ----------------------------------------------------------------------

TEST(Engine, RunsSingleThreadToCompletion)
{
    Engine engine;
    Cycles end_time = 0;
    engine.spawn("t", 0, [&] {
        engine.advance(100);
        engine.advance(50);
        end_time = engine.now();
    });
    engine.run();
    EXPECT_EQ(end_time, 150u);
    EXPECT_EQ(engine.coreNow(0), 150u);
}

TEST(Engine, InterleavesByVirtualTime)
{
    Engine engine;
    std::vector<std::string> order;
    engine.spawn("slow", 0, [&] {
        engine.advance(100);
        order.push_back("slow@100");
        engine.advance(100);
        order.push_back("slow@200");
    });
    engine.spawn("fast", 1, [&] {
        engine.advance(30);
        order.push_back("fast@30");
        engine.advance(120);
        order.push_back("fast@150");
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<std::string>{
                         "fast@30", "slow@100", "fast@150",
                         "slow@200"}));
}

TEST(Engine, SameCoreTimeShares)
{
    Engine engine;
    std::vector<int> order;
    engine.spawn("a", 0, [&] {
        order.push_back(1);
        engine.yield();
        order.push_back(3);
    });
    engine.spawn("b", 0, [&] {
        order.push_back(2);
        engine.yield();
        order.push_back(4);
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, SleepWakesAtRequestedTime)
{
    Engine engine;
    Cycles woke_at = 0;
    engine.spawn("sleeper", 0, [&] {
        engine.sleepUntil(5'000);
        woke_at = engine.now();
    });
    engine.run();
    EXPECT_EQ(woke_at, 5'000u);
}

TEST(Engine, SleepForIsRelative)
{
    Engine engine;
    Cycles woke_at = 0;
    engine.spawn("sleeper", 0, [&] {
        engine.advance(100);
        engine.sleepFor(400);
        woke_at = engine.now();
    });
    engine.run();
    EXPECT_EQ(woke_at, 500u);
}

// ----------------------------------------------------------------------
// Wait queues and timeouts.
// ----------------------------------------------------------------------

TEST(Engine, NotifyWakesWaiterAtNotifierTime)
{
    Engine engine;
    WaitQueue queue;
    Cycles woke_at = 0;
    engine.spawn("waiter", 0, [&] {
        engine.wait(queue);
        woke_at = engine.now();
    });
    engine.spawn("notifier", 1, [&] {
        engine.advance(777);
        engine.notifyOne(queue);
    });
    engine.run();
    EXPECT_EQ(woke_at, 777u);
}

TEST(Engine, WaitUntilTimesOut)
{
    Engine engine;
    WaitQueue queue;
    bool notified = true;
    Cycles woke_at = 0;
    engine.spawn("waiter", 0, [&] {
        notified = engine.waitUntil(queue, 1'000);
        woke_at = engine.now();
    });
    engine.run();
    EXPECT_FALSE(notified);
    EXPECT_EQ(woke_at, 1'000u);
}

TEST(Engine, NotifyBeforeDeadlineBeatsTimeout)
{
    Engine engine;
    WaitQueue queue;
    bool notified = false;
    Cycles woke_at = 0;
    engine.spawn("waiter", 0, [&] {
        notified = engine.waitUntil(queue, 10'000);
        woke_at = engine.now();
    });
    engine.spawn("notifier", 1, [&] {
        engine.advance(400);
        engine.notifyOne(queue);
    });
    engine.run();
    EXPECT_TRUE(notified);
    EXPECT_EQ(woke_at, 400u);
}

TEST(Engine, NotifyAllWakesEveryWaiter)
{
    Engine engine;
    WaitQueue queue;
    int woken = 0;
    for (int i = 0; i < 5; ++i) {
        engine.spawn("waiter" + std::to_string(i), i % 4, [&] {
            engine.wait(queue);
            ++woken;
        });
    }
    engine.spawn("notifier", 4, [&] {
        engine.advance(10);
        engine.notifyAll(queue);
    });
    engine.run();
    EXPECT_EQ(woken, 5);
}

TEST(Engine, WaiterCount)
{
    Engine engine;
    WaitQueue queue;
    engine.spawn("waiter", 0, [&] { engine.wait(queue); });
    engine.spawn("checker", 1, [&] {
        engine.advance(100);
        EXPECT_EQ(queue.waiterCount(), 1u);
        engine.notifyOne(queue);
    });
    engine.run();
    EXPECT_EQ(queue.waiterCount(), 0u);
}

// ----------------------------------------------------------------------
// Cross-thread ordering (the property HotCalls depends on).
// ----------------------------------------------------------------------

TEST(Engine, PollingThreadSeesWriteAtRightVirtualTime)
{
    Engine engine;
    int flag = 0;
    Cycles seen_at = 0;
    engine.spawn("poller", 0, [&] {
        while (flag == 0)
            engine.advance(10);
        seen_at = engine.now();
    });
    engine.spawn("writer", 1, [&] {
        engine.advance(1'005);
        flag = 1;
    });
    engine.run();
    // The poller polls every 10 cycles, so it observes the write on
    // its first poll at/after 1,005.
    EXPECT_GE(seen_at, 1'005u);
    EXPECT_LE(seen_at, 1'020u);
}

TEST(Engine, StopEndsRunWithLiveThreads)
{
    Engine engine;
    std::uint64_t iterations = 0;
    engine.spawn("spinner", 0, [&] {
        for (;;) {
            engine.advance(100);
            ++iterations;
        }
    });
    engine.spawn("stopper", 1, [&] {
        engine.sleepUntil(10'000);
        engine.stop();
    });
    engine.run();
    EXPECT_TRUE(engine.stopRequested());
    EXPECT_GE(iterations, 90u);
    EXPECT_LE(iterations, 120u);
}

TEST(Engine, ExitThreadTerminatesImmediately)
{
    Engine engine;
    bool after_exit = false;
    engine.spawn("quitter", 0, [&] {
        engine.advance(5);
        engine.exitThread();
        after_exit = true; // must not run
    });
    engine.run();
    EXPECT_FALSE(after_exit);
}

TEST(Engine, SpawnFromRunningThread)
{
    Engine engine;
    Cycles child_start = 0;
    engine.spawn("parent", 0, [&] {
        engine.advance(250);
        engine.spawn("child", 1, [&] {
            child_start = engine.now();
        });
        engine.advance(250);
    });
    engine.run();
    EXPECT_EQ(child_start, 250u);
}

// ----------------------------------------------------------------------
// Determinism.
// ----------------------------------------------------------------------

namespace {

std::vector<std::uint64_t>
runScenario(std::uint64_t seed)
{
    Engine::Config config;
    config.seed = seed;
    Engine engine(config);
    WaitQueue queue;
    std::vector<std::uint64_t> events;
    engine.spawn("producer", 0, [&] {
        for (int i = 0; i < 50; ++i) {
            engine.advance(
                10 + engine.rng().nextBelow(90));
            engine.notifyOne(queue);
            events.push_back(engine.now());
        }
        engine.stop();
    });
    engine.spawn("consumer", 1, [&] {
        for (;;) {
            engine.waitUntil(queue, engine.now() + 500);
            events.push_back(engine.now() + 1'000'000);
        }
    });
    engine.run();
    return events;
}

} // anonymous namespace

TEST(Engine, DeterministicForFixedSeed)
{
    EXPECT_EQ(runScenario(11), runScenario(11));
}

TEST(Engine, SeedChangesSchedule)
{
    EXPECT_NE(runScenario(11), runScenario(12));
}

// ----------------------------------------------------------------------
// Interrupts.
// ----------------------------------------------------------------------

TEST(Engine, InterruptsFireAtConfiguredRate)
{
    Engine::Config config;
    config.interruptMeanCycles = 10'000;
    Engine engine(config);
    std::uint64_t handler_calls = 0;
    engine.setInterruptHandler([&](CoreId, Cycles) -> Cycles {
        ++handler_calls;
        return 100;
    });
    engine.spawn("worker", 0, [&] {
        for (int i = 0; i < 10'000; ++i)
            engine.advance(100);
    });
    engine.run();
    // ~1M busy cycles at one interrupt per ~10k -> about 100.
    EXPECT_GT(handler_calls, 60u);
    EXPECT_LT(handler_calls, 150u);
    EXPECT_EQ(engine.interruptCount(), handler_calls);
}

TEST(Engine, InterruptCostAdvancesClock)
{
    Engine::Config config;
    config.interruptMeanCycles = 1'000;
    Engine engine(config);
    engine.setInterruptHandler(
        [](CoreId, Cycles) -> Cycles { return 5'000; });
    Cycles end = 0;
    engine.spawn("worker", 0, [&] {
        for (int i = 0; i < 100; ++i)
            engine.advance(100);
        end = engine.now();
    });
    engine.run();
    // 10k busy cycles + ~10 interrupts x 5k handler cycles.
    EXPECT_GT(end, 30'000u);
}

TEST(Engine, NoInterruptsWhenDisabled)
{
    Engine engine; // default: disabled
    engine.setInterruptHandler([](CoreId, Cycles) -> Cycles {
        ADD_FAILURE() << "interrupt fired while disabled";
        return 0;
    });
    engine.spawn("worker", 0,
                 [&] { engine.advance(100'000'000); });
    engine.run();
    EXPECT_EQ(engine.interruptCount(), 0u);
}

// ----------------------------------------------------------------------
// Multi-core properties.
// ----------------------------------------------------------------------

/** Property: per-core clocks stay consistent however many cores. */
class EngineCores : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineCores, BusyCoresAdvanceIndependently)
{
    Engine::Config config;
    config.numCores = GetParam();
    Engine engine(config);
    const int cores = engine.numCores();
    std::vector<Cycles> end_times(
        static_cast<std::size_t>(cores));
    for (int c = 0; c < cores; ++c) {
        engine.spawn("w" + std::to_string(c), c, [&, c] {
            // Each core burns a different amount of time.
            for (int i = 0; i <= c; ++i)
                engine.advance(1'000);
            end_times[static_cast<std::size_t>(c)] = engine.now();
        });
    }
    engine.run();
    for (int c = 0; c < cores; ++c) {
        EXPECT_EQ(end_times[static_cast<std::size_t>(c)],
                  static_cast<Cycles>(c + 1) * 1'000)
            << "core " << c;
        EXPECT_EQ(engine.coreNow(c),
                  static_cast<Cycles>(c + 1) * 1'000);
    }
}

TEST_P(EngineCores, NotificationOrderIsFifo)
{
    // All waiters share one core so their execution order exposes
    // the queue's release order (across cores, execution order is a
    // scheduling matter, not a queue property).
    Engine::Config config;
    config.numCores = GetParam();
    Engine engine(config);
    WaitQueue queue;
    std::vector<int> wake_order;
    const int waiter_core = engine.numCores() - 1;
    const int waiters = 6;
    for (int i = 0; i < waiters; ++i) {
        engine.spawn("w" + std::to_string(i), waiter_core, [&, i] {
            engine.wait(queue);
            wake_order.push_back(i);
        });
    }
    engine.spawn("notifier", 0, [&] {
        engine.sleepUntil(1'000);
        for (int i = 0; i < waiters; ++i)
            engine.notifyOne(queue);
    });
    engine.run();
    ASSERT_EQ(static_cast<int>(wake_order.size()), waiters);
    // FIFO release: waiters parked in spawn order wake in order.
    for (int i = 0; i < waiters; ++i)
        EXPECT_EQ(wake_order[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, EngineCores,
                         ::testing::Values(1, 2, 4, 8, 16));

// ----------------------------------------------------------------------
// Direct handoff: a suspending thread dispatches the next one itself;
// the scheduler loop runs only for exit, stop, timeout expiry and
// deadlock.
// ----------------------------------------------------------------------

namespace {

/** One trace record: a thread ran on its core at a time. */
struct Step {
    std::string name;
    CoreId core;
    Cycles at;

    bool operator==(const Step &) const = default;
};

/** @p steps in the order the engine must run them: by time, ties to
 *  the lower core (stable, so each thread keeps its own order). */
std::vector<Step>
mergeByTimeThenCore(std::vector<Step> steps)
{
    std::stable_sort(steps.begin(), steps.end(),
                     [](const Step &x, const Step &y) {
                         return x.at != y.at ? x.at < y.at
                                             : x.core < y.core;
                     });
    return steps;
}

/** Counts onThreadExit per thread name. */
class ExitCounter : public EngineObserver
{
  public:
    void onSpawn(Thread *, Thread *) override {}
    void onWake(Thread *, Thread *) override {}
    void onThreadExit(Thread *thread) override { ++exits[thread->name()]; }

    std::map<std::string, int> exits;
};

constexpr Cycles kLeapfrogSteps[] = {30, 70, 110};
constexpr int kLeapfrogRecords = 200;

/** Three threads on three cores, each recording (name, core, now())
 *  and then advancing by its own fixed step. */
std::vector<Step>
runLeapfrog(Engine &engine)
{
    std::vector<Step> trace;
    for (int c = 0; c < 3; ++c) {
        const std::string name(1, static_cast<char>('a' + c));
        engine.spawn(name, c, [&, name, c] {
            for (int i = 0; i < kLeapfrogRecords; ++i) {
                trace.push_back({name, c, engine.now()});
                engine.advance(kLeapfrogSteps[c]);
            }
        });
    }
    engine.run();
    return trace;
}

} // anonymous namespace

TEST(Handoff, LeapfrogTraceIsTheTimeOrderedMerge)
{
    Engine::Config config;
    config.numCores = 3;
    Engine engine(config);
    const std::vector<Step> trace = runLeapfrog(engine);

    std::vector<Step> reference;
    for (int c = 0; c < 3; ++c) {
        for (int i = 0; i < kLeapfrogRecords; ++i) {
            reference.push_back({std::string(1, static_cast<char>('a' + c)),
                                 c,
                                 static_cast<Cycles>(i) * kLeapfrogSteps[c]});
        }
    }
    EXPECT_EQ(trace, mergeByTimeThenCore(reference));
}

TEST(Handoff, LeapfrogTraceIsTheTimeOrderedMergeWithInterrupts)
{
    // Interrupt handlers shift each core's clock by amounts drawn from
    // the shared RNG, so the reference merges the threads' own
    // recorded sequences.
    Engine::Config config;
    config.numCores = 3;
    config.seed = 5;
    config.interruptMeanCycles = 500;
    Engine engine(config);
    engine.setInterruptHandler([](CoreId, Cycles) { return Cycles{37}; });
    const std::vector<Step> trace = runLeapfrog(engine);

    ASSERT_EQ(trace.size(), 3u * kLeapfrogRecords);
    EXPECT_GT(engine.interruptCount(), 10u);
    EXPECT_EQ(trace, mergeByTimeThenCore(trace));
}

TEST(Handoff, ThreadStartedByHandoffExitsOnce)
{
    ExitCounter observer; // outlives the engine
    Engine engine;
    engine.setObserver(&observer);
    Thread *parent = nullptr;
    Thread *child = nullptr;
    ThreadState parent_at_child_start = ThreadState::Done;
    parent = engine.spawn("parent", 0, [&] {
        child = engine.spawn("child", 1, [&] {
            parent_at_child_start = parent->state();
            engine.advance(10);
        });
        // Crossing the child's start time hands the parent's fiber
        // straight to it: run() never dispatches the child.
        engine.advance(100);
        engine.advance(100);
    });
    engine.run();
    EXPECT_EQ(parent_at_child_start, ThreadState::Ready);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->state(), ThreadState::Done);
    EXPECT_EQ(observer.exits["child"], 1);
    EXPECT_EQ(observer.exits["parent"], 1);
    EXPECT_EQ(engine.liveThreads(), 0u);
}

TEST(Handoff, StopUnwindsFibersSuspendedInHandoff)
{
    struct Local {
        int &destroyed;
        ~Local() { ++destroyed; }
    };
    int destroyed = 0;
    Engine::Config config;
    config.numCores = 3;
    Engine engine(config);
    for (int c = 0; c < 3; ++c) {
        engine.spawn("t" + std::to_string(c), c, [&, c] {
            Local local{destroyed};
            for (;;) {
                engine.advance(100 + static_cast<Cycles>(c));
                if (c == 0 && engine.now() >= 5'000)
                    engine.stop();
            }
        });
    }
    engine.run();
    // The threads never exit, so only the stop returned to run():
    // both other fibers last suspended inside a handoff.
    EXPECT_TRUE(engine.stopRequested());
    EXPECT_EQ(engine.liveThreads(), 3u);
    EXPECT_EQ(destroyed, 0);
    engine.unwindStranded();
    EXPECT_EQ(destroyed, 3);
    EXPECT_EQ(engine.liveThreads(), 0u);
}

TEST(Handoff, TimeoutBetweenLeapfrogStepsExpiresOnTime)
{
    Engine engine;
    WaitQueue never_notified;
    std::vector<Step> trace;
    for (int c = 0; c < 2; ++c) {
        const std::string name = c ? "b" : "a";
        engine.spawn(name, c, [&, name, c] {
            for (int i = 0; i < 20; ++i) {
                trace.push_back({name, c, engine.now()});
                engine.advance(100);
            }
        });
    }
    bool notified = true;
    Thread *waiter = engine.spawn("waiter", 2, [&] {
        notified = engine.waitUntil(never_notified, 1'050);
        trace.push_back({"waiter", 2, engine.now()});
    });
    engine.run();
    EXPECT_FALSE(notified);
    EXPECT_TRUE(waiter->timedOut());
    const auto woke = std::find_if(
        trace.begin(), trace.end(),
        [](const Step &step) { return step.name == "waiter"; });
    ASSERT_NE(woke, trace.end());
    EXPECT_EQ(woke->at, 1'050u);
    // Between the leapfrog's steps at 1,000 and 1,100.
    EXPECT_EQ(trace, mergeByTimeThenCore(trace));
}

TEST(Handoff, LeapfrogCostsOneSwapPerInterleaving)
{
    Engine engine;
    std::vector<std::string> ran; // who held control, in order
    for (int c = 0; c < 2; ++c) {
        const std::string name = c ? "b" : "a";
        engine.spawn(name, c, [&, name] {
            ran.push_back(name);
            for (int i = 0; i < 500; ++i) {
                engine.advance(100);
                ran.push_back(name);
            }
        });
    }
    engine.run();
    std::uint64_t interleavings = 0;
    for (std::size_t i = 1; i < ran.size(); ++i)
        interleavings += ran[i] != ran[i - 1];
    EXPECT_GE(interleavings, 1'000u); // every step crosses the other
    // One swap per interleaving plus one per thread start and exit;
    // a detour through the scheduler would cost two per interleaving.
    EXPECT_LE(engine.fiberSwitches(), interleavings + 2 * 2);
}

// ----------------------------------------------------------------------
// Spin phases: Engine::spin() against the straight-line loop it is
// defined as, step by step.
// ----------------------------------------------------------------------

namespace {

/** One step as observed: who ran it, at which clock, and what it drew
 *  from the engine RNG. */
struct Tick {
    std::string name;
    Cycles at;
    std::uint64_t draw;

    bool operator==(const Tick &) const = default;
};

/** A polling loop as phases: each step records a Tick, draws a jitter
 *  in [0, jitter] and returns base + jitter. It ends after @p steps
 *  steps (never when negative); from @p stopAt on, every step also
 *  requests a stop. */
class Ticker final : public Spin
{
  public:
    Ticker(Engine &engine, std::vector<Tick> &trace, Cycles base,
           Cycles jitter, int steps, Cycles stop_at = 0)
        : engine_(engine), trace_(trace), base_(base), jitter_(jitter),
          steps_(steps), stopAt_(stop_at)
    {
    }

    Cycles step() override
    {
        if (steps_ == 0)
            return kSpinDone;
        if (steps_ > 0)
            --steps_;
        const std::uint64_t draw = engine_.rng().nextBelow(jitter_ + 1);
        trace_.push_back(
            {engine_.currentThread()->name(), engine_.now(), draw});
        if (stopAt_ != 0 && engine_.now() >= stopAt_)
            engine_.stop();
        return base_ + draw;
    }

  private:
    Engine &engine_;
    std::vector<Tick> &trace_;
    Cycles base_;
    Cycles jitter_;
    int steps_;
    Cycles stopAt_;
};

/** Run the spinners through Engine::spin(), or through the reference
 *  loop the test writes out. */
enum class Mode { Spin, Reference };

void
runLoop(Engine &engine, Spin &loop, Mode mode)
{
    if (mode == Mode::Spin) {
        engine.spin(loop);
        return;
    }
    for (Cycles c; (c = loop.step()) != kSpinDone;)
        engine.advance(c);
}

/** Everything a scenario must reproduce, plus the host counters. */
struct SpinRun {
    std::vector<Tick> trace;
    std::vector<Cycles> clocks; //!< every core's final clock
    std::uint64_t interrupts = 0;
    std::uint64_t switches = 0;
    std::uint64_t inlineSteps = 0;
};

/** A scenario spawns its threads into the engine; spinners run their
 *  loops with runLoop(..., mode). */
using Scenario =
    std::function<void(Engine &, std::vector<Tick> &, Mode)>;

SpinRun
runSpinScenario(Engine::Config config, Mode mode, const Scenario &scenario)
{
    Engine engine(config);
    engine.setInterruptHandler([](CoreId, Cycles) { return Cycles{37}; });
    SpinRun run;
    scenario(engine, run.trace, mode);
    engine.run();
    for (int c = 0; c < engine.numCores(); ++c)
        run.clocks.push_back(engine.coreNow(c));
    run.interrupts = engine.interruptCount();
    run.switches = engine.fiberSwitches();
    run.inlineSteps = engine.inlineSteps();
    return run;
}

/** Spawn a spinner stepping a Ticker. */
void
spawnTicker(Engine &engine, std::vector<Tick> &trace, Mode mode,
            const std::string &name, CoreId core, Cycles base, int steps,
            Cycles jitter = 9)
{
    engine.spawn(name, core, [&engine, &trace, mode, base, steps, jitter] {
        Ticker ticker(engine, trace, base, jitter, steps);
        runLoop(engine, ticker, mode);
    });
}

/** Spawn a plain thread: record a Tick, advance @p chunk, @p count
 *  times. */
void
spawnChunky(Engine &engine, std::vector<Tick> &trace,
            const std::string &name, CoreId core, Cycles chunk, int count)
{
    engine.spawn(name, core, [&engine, &trace, name, chunk, count] {
        for (int i = 0; i < count; ++i) {
            trace.push_back({name, engine.now(), 0});
            engine.advance(chunk);
        }
    });
}

/** Run @p scenario both ways and compare every step. */
void
expectSpinMatchesReference(Engine::Config config, const Scenario &scenario)
{
    const SpinRun spin = runSpinScenario(config, Mode::Spin, scenario);
    const SpinRun ref = runSpinScenario(config, Mode::Reference, scenario);
    ASSERT_FALSE(ref.trace.empty());
    EXPECT_EQ(spin.trace.size(), ref.trace.size());
    const std::size_t n = std::min(spin.trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(spin.trace[i], ref.trace[i])
            << "step " << i << ": " << spin.trace[i].name << "@"
            << spin.trace[i].at << " vs " << ref.trace[i].name << "@"
            << ref.trace[i].at;
    }
    EXPECT_EQ(spin.clocks, ref.clocks);
    EXPECT_EQ(spin.interrupts, ref.interrupts);
    EXPECT_EQ(ref.inlineSteps, 0u);
    EXPECT_GT(spin.inlineSteps, 0u);
    EXPECT_LT(spin.switches, ref.switches);
}

} // anonymous namespace

TEST(Spin, SpinnersBesideAChunkyThread)
{
    Engine::Config config;
    config.numCores = 4;
    expectSpinMatchesReference(
        config, [](Engine &engine, std::vector<Tick> &trace, Mode mode) {
            spawnChunky(engine, trace, "chunky", 0, 1'000, 12);
            spawnTicker(engine, trace, mode, "a", 1, 30, 300);
            spawnTicker(engine, trace, mode, "b", 2, 41, 250);
            spawnTicker(engine, trace, mode, "c", 3, 57, 200);
        });
}

TEST(Spin, TiesBreakByCoreIndex)
{
    // Equal fixed steps keep every clock tied. Spawned out of core
    // order, so only the core index can order them; the plain thread
    // on core 2 ties with spinners on either side of it.
    Engine::Config config;
    config.numCores = 5;
    expectSpinMatchesReference(
        config, [](Engine &engine, std::vector<Tick> &trace, Mode mode) {
            spawnTicker(engine, trace, mode, "e", 4, 50, 120, 0);
            spawnTicker(engine, trace, mode, "b", 1, 50, 120, 0);
            spawnChunky(engine, trace, "plain", 2, 50, 100);
            spawnTicker(engine, trace, mode, "d", 3, 50, 120, 0);
            spawnTicker(engine, trace, mode, "a", 0, 50, 120, 0);
        });
}

TEST(Spin, InterruptsArriveAsAdvanceDeliversThem)
{
    Engine::Config config;
    config.numCores = 4;
    config.seed = 5;
    config.interruptMeanCycles = 400;
    expectSpinMatchesReference(
        config, [](Engine &engine, std::vector<Tick> &trace, Mode mode) {
            spawnChunky(engine, trace, "chunky", 0, 700, 20);
            spawnTicker(engine, trace, mode, "a", 1, 30, 300);
            spawnTicker(engine, trace, mode, "b", 2, 45, 300);
            spawnTicker(engine, trace, mode, "c", 3, 45, 300);
        });
}

TEST(Spin, TimeoutExpiresMidRun)
{
    Engine::Config config;
    config.numCores = 4;
    WaitQueue never_notified;
    expectSpinMatchesReference(
        config, [&never_notified](Engine &engine, std::vector<Tick> &trace,
                                  Mode mode) {
            spawnTicker(engine, trace, mode, "a", 0, 30, 200);
            spawnTicker(engine, trace, mode, "b", 1, 43, 200);
            spawnTicker(engine, trace, mode, "c", 2, 29, 200);
            engine.spawn("waiter", 3, [&engine, &trace, &never_notified] {
                const bool notified =
                    engine.waitUntil(never_notified, 1'234);
                trace.push_back({"waiter", engine.now(), notified});
                engine.advance(500);
                trace.push_back({"waiter", engine.now(), 0});
            });
        });
}

TEST(Spin, SpinnerSharingItsCoreStepsOnItsFiber)
{
    // "a" shares core 0 with a plain thread until that one exits; "b"
    // has core 1 to itself throughout.
    Engine::Config config;
    config.numCores = 2;
    expectSpinMatchesReference(
        config, [](Engine &engine, std::vector<Tick> &trace, Mode mode) {
            spawnTicker(engine, trace, mode, "a", 0, 30, 300);
            engine.spawn("sharer", 0, [&engine, &trace] {
                for (int i = 0; i < 20; ++i) {
                    trace.push_back({"sharer", engine.now(), 0});
                    engine.advance(90);
                    engine.yield();
                }
            });
            spawnTicker(engine, trace, mode, "b", 1, 41, 300);
        });
}

TEST(Spin, StopWhileSteppedInlineUnwindsTheLoops)
{
    struct Local {
        int &destroyed;
        ~Local() { ++destroyed; }
    };
    std::vector<Tick> traces[2];
    for (const Mode mode : {Mode::Spin, Mode::Reference}) {
        std::vector<Tick> &trace = traces[mode == Mode::Spin ? 0 : 1];
        int destroyed = 0;
        ExitCounter observer; // outlives the engine
        Engine::Config config;
        config.numCores = 3;
        Engine engine(config);
        engine.setObserver(&observer);
        std::vector<Thread *> threads;
        for (int c = 0; c < 3; ++c) {
            threads.push_back(engine.spawn(
                std::string(1, static_cast<char>('a' + c)), c,
                [&, c, mode] {
                    Local local{destroyed};
                    // Endless loops; "b" requests the stop from a step.
                    Ticker ticker(engine, trace, 40 + c, 5, -1,
                                  c == 1 ? 20'000 : 0);
                    runLoop(engine, ticker, mode);
                }));
        }
        engine.run();
        // run() returned through the fiber that switched back; every
        // loop is still parked, queued at its own clock.
        EXPECT_TRUE(engine.stopRequested());
        EXPECT_EQ(engine.currentThread(), nullptr);
        EXPECT_EQ(engine.liveThreads(), 3u);
        EXPECT_TRUE(observer.exits.empty());
        for (Thread *t : threads)
            EXPECT_EQ(t->state(), ThreadState::Ready) << t->name();
        EXPECT_EQ(destroyed, 0);
        if (mode == Mode::Spin) {
            EXPECT_GT(engine.inlineSteps(), 0u);
        }
        engine.unwindStranded();
        EXPECT_EQ(destroyed, 3);
        EXPECT_EQ(engine.liveThreads(), 0u);
        for (Thread *t : threads)
            EXPECT_EQ(observer.exits[t->name()], 1) << t->name();
    }
    // Both stop at the same step.
    EXPECT_EQ(traces[0], traces[1]);
}

TEST(Spin, SpinnersCostConstantFiberSwitches)
{
    // Two spinners step N phases each while a third thread sleeps
    // through them: the straight-line loops swap fibers at every
    // interleaving, spin() only to start and end the loops.
    constexpr int kSteps = 2'000;
    const Scenario scenario = [](Engine &engine, std::vector<Tick> &trace,
                                 Mode mode) {
        spawnTicker(engine, trace, mode, "a", 0, 100, kSteps, 0);
        spawnTicker(engine, trace, mode, "b", 1, 100, kSteps, 0);
        engine.spawn("sleeper", 2,
                     [&engine] { engine.sleepFor(10'000'000); });
    };
    Engine::Config config;
    config.numCores = 3;
    const SpinRun spin = runSpinScenario(config, Mode::Spin, scenario);
    const SpinRun ref = runSpinScenario(config, Mode::Reference, scenario);
    EXPECT_EQ(spin.trace, ref.trace);
    EXPECT_GE(ref.switches, static_cast<std::uint64_t>(kSteps));
    EXPECT_LE(spin.switches, 12u);
    EXPECT_GE(spin.inlineSteps, 2u * kSteps - 4);
}

// ----------------------------------------------------------------------
// Steady batches: loops that declare their idle iterations, run through
// Engine::spin() (batched where declared) against the written-out
// reference loop on their fibers.
// ----------------------------------------------------------------------

namespace {

/** Stands in for the LLC's use clock: every Idler probe takes the next
 *  value, so a batch must hand each loop the exact place of its last
 *  probe among every lane's probes. */
struct UseClock {
    std::uint64_t now = 0;
};

/** What an Idler did, compared between the modes. */
struct IdleCounts {
    std::uint64_t heads = 0;
    std::uint64_t probes = 0;
    std::uint64_t pauses = 0;
    Cycles lastHead = 0;
    std::uint64_t lastStamp = 0; //!< UseClock value of its last probe

    bool operator==(const IdleCounts &) const = default;
};

/** An Idler's iteration and the bounds of its declarations. */
struct IdleShape {
    int probes = 1;
    Cycles probeCycles = 6;
    Cycles pause = 35;
    Cycles jitter = 22;
    std::uint64_t iterations = 300;
    /** Heads one declaration covers at most. */
    std::uint64_t headCap = std::numeric_limits<std::uint64_t>::max();
    /** Declarations end at the next multiple of this (0: never). */
    Cycles limitEvery = 0;
};

/**
 * An idle polling loop: `iterations` iterations of `probes` probes and
 * a jittered PAUSE, then it exits. step() is the reference; steady()
 * and advanceSteady() describe the same iteration for batches.
 */
class Idler final : public Spin
{
  public:
    Idler(Engine &engine, UseClock &clock, IdleCounts &counts,
          IdleShape shape)
        : engine_(engine), clock_(clock), counts_(counts), shape_(shape)
    {
    }

    Cycles step() override
    {
        if (at_ == 0) {
            if (counts_.heads == shape_.iterations)
                return kSpinDone;
            ++counts_.heads;
            counts_.lastHead = engine_.now();
        }
        if (at_ < shape_.probes) {
            ++at_;
            ++counts_.probes;
            counts_.lastStamp = ++clock_.now;
            return shape_.probeCycles;
        }
        at_ = 0;
        ++counts_.pauses;
        return shape_.pause + engine_.rng().nextBelow(shape_.jitter + 1);
    }

    bool steady(Steady &s) override
    {
        s.probes = shape_.probes;
        s.probeCycles = shape_.probeCycles;
        s.pauseCycles = shape_.pause;
        s.pauseJitter = shape_.jitter;
        s.at = at_;
        s.heads = std::min(shape_.iterations - counts_.heads, shape_.headCap);
        if (shape_.limitEvery > 0)
            s.limit =
                (engine_.now() / shape_.limitEvery + 1) * shape_.limitEvery;
        base_ = clock_.now;
        return true;
    }

    void advanceSteady(const SteadyRun &run) override
    {
        if (const std::uint64_t heads = run.ran(0)) {
            counts_.heads += heads;
            counts_.lastHead = run.lastHead;
        }
        counts_.pauses += run.ran(shape_.probes);
        const std::uint64_t probes = run.probes();
        counts_.probes += probes;
        if (probes > 0)
            counts_.lastStamp = base_ + run.lastProbe;
        clock_.now += probes;
        at_ = run.at();
    }

  private:
    Engine &engine_;
    UseClock &clock_;
    IdleCounts &counts_;
    const IdleShape shape_;
    int at_ = 0;
    std::uint64_t base_ = 0;
};

/** Everything an idle scenario must reproduce, plus host counters. */
struct IdleRun {
    std::vector<Tick> trace; //!< the plain threads' records
    std::map<std::string, IdleCounts> counts;
    std::vector<Cycles> clocks;
    std::uint64_t interrupts = 0;
    std::uint64_t rngAfter = 0; //!< the engine RNG's next value
    std::uint64_t useClock = 0;
    std::uint64_t inlineSteps = 0;
    std::uint64_t steadySteps = 0;
};

/** What a scenario spawns its threads with. */
struct IdleBed {
    Engine &engine;
    IdleRun &run;
    UseClock &clock;
    Mode mode;

    void idler(const std::string &name, CoreId core, IdleShape shape)
    {
        IdleCounts &counts = run.counts[name];
        engine.spawn(name, core, [this, &counts, shape] {
            Idler idler(engine, clock, counts, shape);
            runLoop(engine, idler, mode);
        });
    }

    void chunky(const std::string &name, CoreId core, Cycles chunk,
                int count)
    {
        spawnChunky(engine, run.trace, name, core, chunk, count);
    }
};

IdleRun
runIdleScenario(Engine::Config config, Mode mode,
                const std::function<void(IdleBed &)> &scenario)
{
    Engine engine(config);
    engine.setInterruptHandler([](CoreId, Cycles) { return Cycles{37}; });
    IdleRun run;
    UseClock clock;
    IdleBed bed{engine, run, clock, mode};
    scenario(bed);
    engine.run();
    for (int c = 0; c < engine.numCores(); ++c)
        run.clocks.push_back(engine.coreNow(c));
    run.interrupts = engine.interruptCount();
    run.rngAfter = engine.rng().next();
    run.useClock = clock.now;
    run.inlineSteps = engine.inlineSteps();
    run.steadySteps = engine.steadySteps();
    return run;
}

/** Run @p scenario both ways: every observable must match, and the
 *  spin() run must have batched. */
void
expectSteadyMatchesReference(Engine::Config config,
                             const std::function<void(IdleBed &)> &scenario)
{
    const IdleRun spin = runIdleScenario(config, Mode::Spin, scenario);
    const IdleRun ref = runIdleScenario(config, Mode::Reference, scenario);
    for (const auto &[name, counts] : ref.counts) {
        const IdleCounts &got = spin.counts.at(name);
        EXPECT_EQ(got.heads, counts.heads) << name;
        EXPECT_EQ(got.probes, counts.probes) << name;
        EXPECT_EQ(got.pauses, counts.pauses) << name;
        EXPECT_EQ(got.lastHead, counts.lastHead) << name;
        EXPECT_EQ(got.lastStamp, counts.lastStamp) << name;
    }
    EXPECT_EQ(spin.trace, ref.trace);
    EXPECT_EQ(spin.clocks, ref.clocks);
    EXPECT_EQ(spin.interrupts, ref.interrupts);
    EXPECT_EQ(spin.rngAfter, ref.rngAfter);
    EXPECT_EQ(spin.useClock, ref.useClock);
    EXPECT_EQ(ref.steadySteps, 0u);
    EXPECT_GT(spin.steadySteps, 0u);
    EXPECT_LE(spin.steadySteps, spin.inlineSteps);
}

} // anonymous namespace

TEST(Steady, OneAndThreeProbeIterationsBesideAChunkyThread)
{
    Engine::Config config;
    config.numCores = 4;
    expectSteadyMatchesReference(config, [](IdleBed &bed) {
        bed.chunky("chunky", 0, 1'000, 40);
        bed.idler("one", 1, {});
        bed.idler("three", 2, {.probes = 3, .probeCycles = 9});
        bed.idler("slow", 3, {.pause = 80, .jitter = 5, .iterations = 200});
    });
}

TEST(Steady, HeadAndCycleLimitsEndBatches)
{
    Engine::Config config;
    config.numCores = 3;
    expectSteadyMatchesReference(config, [](IdleBed &bed) {
        bed.chunky("chunky", 0, 2'500, 10);
        bed.idler("capped", 1, {.probes = 3, .headCap = 5});
        bed.idler("limited", 2, {.iterations = 500, .limitEvery = 777});
    });
}

TEST(Steady, TiesBreakByCoreIndex)
{
    // Equal fixed iterations keep every clock tied, spawned out of core
    // order; the plain thread on core 2 ties with lanes on either side.
    Engine::Config config;
    config.numCores = 5;
    const IdleShape tied{.probes = 2, .probeCycles = 10, .pause = 30,
                         .jitter = 0, .iterations = 80};
    expectSteadyMatchesReference(config, [&tied](IdleBed &bed) {
        bed.idler("e", 4, tied);
        bed.idler("b", 1, tied);
        bed.chunky("plain", 2, 50, 100);
        bed.idler("d", 3, tied);
        bed.idler("a", 0, tied);
    });
}

TEST(Steady, InterruptsEndBatchesAndArriveOnTheStepPath)
{
    Engine::Config config;
    config.numCores = 4;
    config.seed = 5;
    config.interruptMeanCycles = 400;
    expectSteadyMatchesReference(config, [](IdleBed &bed) {
        bed.chunky("chunky", 0, 700, 20);
        bed.idler("a", 1, {.iterations = 400});
        bed.idler("b", 2, {.probes = 3});
        bed.idler("c", 3, {.pause = 45});
    });
}

TEST(Steady, TimeoutExpiresMidBatch)
{
    Engine::Config config;
    config.numCores = 4;
    WaitQueue never_notified;
    expectSteadyMatchesReference(config, [&never_notified](IdleBed &bed) {
        bed.idler("a", 0, {});
        bed.idler("b", 1, {.probes = 3, .pause = 43});
        bed.idler("c", 2, {.pause = 29});
        Engine &engine = bed.engine;
        std::vector<Tick> &trace = bed.run.trace;
        engine.spawn("waiter", 3, [&engine, &trace, &never_notified] {
            const bool notified = engine.waitUntil(never_notified, 1'234);
            trace.push_back({"waiter", engine.now(), notified});
            engine.advance(500);
            trace.push_back({"waiter", engine.now(), 0});
        });
    });
}

TEST(Steady, SharedCoreStepsOnTheFiber)
{
    // "a" shares core 0 with a plain thread until that one exits, so
    // its fiber steps it; "b" has core 1 to itself and batches.
    Engine::Config config;
    config.numCores = 2;
    expectSteadyMatchesReference(config, [](IdleBed &bed) {
        bed.idler("a", 0, {.probes = 3});
        Engine &engine = bed.engine;
        std::vector<Tick> &trace = bed.run.trace;
        engine.spawn("sharer", 0, [&engine, &trace] {
            for (int i = 0; i < 20; ++i) {
                trace.push_back({"sharer", engine.now(), 0});
                engine.advance(90);
                engine.yield();
            }
        });
        bed.idler("b", 1, {.iterations = 500});
    });
}

TEST(Steady, RandomShapesMatchReference)
{
    // Per seed: 2-5 idlers of random shape on their own cores, chunky
    // threads of random chunk sizes sharing core 0, and a timed waiter
    // whose deadline falls among the batches; interrupts on every
    // other seed.
    struct Chunky {
        Cycles chunk;
        int count;
    };
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng draw(seed);
        auto range = [&draw](std::int64_t lo, std::int64_t hi) {
            return static_cast<Cycles>(draw.nextRange(lo, hi));
        };
        std::vector<IdleShape> shapes(range(2, 5));
        for (IdleShape &shape : shapes) {
            shape.probes = static_cast<int>(range(1, 4));
            shape.probeCycles = range(1, 12);
            shape.pause = range(0, 80);
            shape.jitter = range(0, 30);
            shape.iterations = range(50, 400);
            if (draw.chance(0.5))
                shape.headCap = range(0, 6);
            if (draw.chance(0.5))
                shape.limitEvery = range(50, 2'000);
        }
        std::vector<Chunky> chunkies(range(1, 2));
        for (Chunky &chunky : chunkies)
            chunky = {range(1, 3'000), static_cast<int>(range(5, 40))};
        const Cycles deadline = range(100, 20'000);
        const Cycles after = range(1, 2'000);

        Engine::Config config;
        config.numCores = static_cast<int>(shapes.size()) + 2;
        config.seed = seed;
        if (seed % 2 == 0)
            config.interruptMeanCycles = static_cast<double>(range(200, 3'000));
        WaitQueue never_notified;
        expectSteadyMatchesReference(config, [&](IdleBed &bed) {
            for (std::size_t i = 0; i < chunkies.size(); ++i)
                bed.chunky("chunky" + std::to_string(i), 0,
                           chunkies[i].chunk, chunkies[i].count);
            for (std::size_t i = 0; i < shapes.size(); ++i)
                bed.idler("idler" + std::to_string(i),
                          static_cast<CoreId>(i + 1), shapes[i]);
            Engine &engine = bed.engine;
            std::vector<Tick> &trace = bed.run.trace;
            engine.spawn("waiter", static_cast<CoreId>(shapes.size() + 1),
                         [&engine, &trace, &never_notified, deadline,
                          after] {
                             const bool notified =
                                 engine.waitUntil(never_notified, deadline);
                             trace.push_back(
                                 {"waiter", engine.now(), notified});
                             engine.advance(after);
                             trace.push_back({"waiter", engine.now(), 0});
                         });
        });
    }
}

TEST(SteadyDeathTest, ZeroCostIterationIsRefused)
{
    // Probes and a PAUSE of no cycles (the jitter may draw 0 too): a
    // batch of them would never move the clock.
    Engine::Config config;
    config.numCores = 2;
    EXPECT_DEATH(runIdleScenario(config, Mode::Spin,
                                 [](IdleBed &bed) {
                                     bed.chunky("chunky", 0, 1'000, 4);
                                     bed.idler("free", 1,
                                               {.probeCycles = 0,
                                                .pause = 0});
                                 }),
                 "pauseCycles > 0");
}

namespace {

/** Two spinners on their own cores; from its third step (inline by
 *  then) "a" calls @p forbidden. */
void
stepCalls(const std::function<void(Engine &, WaitQueue &)> &forbidden)
{
    struct Caller final : Spin {
        Engine &engine;
        WaitQueue &queue;
        std::function<void(Engine &, WaitQueue &)> call;
        int steps = 0;

        Caller(Engine &e, WaitQueue &q,
               std::function<void(Engine &, WaitQueue &)> f)
            : engine(e), queue(q), call(std::move(f))
        {
        }

        Cycles step() override
        {
            if (++steps == 3)
                call(engine, queue);
            return steps < 10 ? 100 : kSpinDone;
        }
    };
    Engine engine;
    WaitQueue queue;
    engine.spawn("a", 0, [&] {
        Caller caller(engine, queue, forbidden);
        engine.spin(caller);
    });
    engine.spawn("b", 1, [&] {
        Caller caller(engine, queue, [](Engine &, WaitQueue &) {});
        engine.spin(caller);
    });
    engine.run();
}

} // anonymous namespace

TEST(SpinDeathTest, StepMustNotSuspend)
{
    const char *tripped = "stepping_";
    EXPECT_DEATH(stepCalls([](Engine &e, WaitQueue &) { e.advance(1); }),
                 tripped);
    EXPECT_DEATH(stepCalls([](Engine &e, WaitQueue &) { e.yield(); }),
                 tripped);
    EXPECT_DEATH(
        stepCalls([](Engine &e, WaitQueue &) { e.sleepUntil(1'000); }),
        tripped);
    EXPECT_DEATH(stepCalls([](Engine &e, WaitQueue &q) { e.wait(q); }),
                 tripped);
    EXPECT_DEATH(
        stepCalls([](Engine &e, WaitQueue &q) { e.waitUntil(q, 1'000); }),
        tripped);
    EXPECT_DEATH(stepCalls([](Engine &e, WaitQueue &q) { e.notifyOne(q); }),
                 tripped);
    EXPECT_DEATH(stepCalls([](Engine &e, WaitQueue &q) { e.notifyAll(q); }),
                 tripped);
    EXPECT_DEATH(stepCalls([](Engine &e, WaitQueue &) {
                     e.spawn("child", 2, [] {});
                 }),
                 tripped);
    // The same loop without the forbidden call runs to its end.
    stepCalls([](Engine &, WaitQueue &) {});
}
