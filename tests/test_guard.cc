/**
 * @file
 * Sentinel (src/guard) tests.
 *
 * Unit level: the latency estimator and the ChannelGuard state
 * machine — quarantine hysteresis (no flapping), probe backoff,
 * adaptive budget clamping, reclaim deadlines, liveness, and the
 * respawn budget. The guard is pure decision logic driven by
 * caller-supplied clocks, so these run without a Machine.
 *
 * Protocol level: seeded violations for the Sentinel transitions the
 * SimCheck shadow machines learned (abandon/discard on the single
 * line, the Zombie lifecycle on the ring) — both the legal sequences
 * (zero violations) and the ownership/state abuses each hook must
 * flag.
 *
 * Integration level: a stalled publisher retired through the publish
 * leash by the head scan, end to end on a real HotQueue.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/check.hh"
#include "fault/fault.hh"
#include "guard/guard.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/machine.hh"
#include "sdk/runtime.hh"
#include "sgx/platform.hh"

using namespace hc;

namespace {

/** A tight config so state-machine tests stay readable. */
guard::GuardConfig
tightConfig()
{
    guard::GuardConfig config;
    config.quarantineAfter = 3;
    config.probeInterval = 1'000;
    config.probeBackoff = 2.0;
    config.probeIntervalMax = 4'000;
    config.livenessWindow = 100;
    config.maxRespawns = 2;
    return config;
}

guard::TimeoutPolicy
tightPolicy()
{
    guard::TimeoutPolicy policy;
    policy.timeoutTries = 10;
    policy.maxTimeoutTries = 64;
    return policy;
}

mem::MachineConfig
checkedConfig()
{
    mem::MachineConfig config;
    config.engine.numCores = 4;
    config.engine.seed = 42;
    config.check.enabled = true; // record mode, never panics
    return config;
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Latency estimator.
// ----------------------------------------------------------------------

TEST(LatencyEstimator, FirstSampleSeedsMeanAndDeviation)
{
    guard::LatencyEstimator est;
    EXPECT_FALSE(est.primed());
    est.observe(1'000);
    EXPECT_TRUE(est.primed());
    EXPECT_DOUBLE_EQ(est.mean(), 1'000.0);
    EXPECT_DOUBLE_EQ(est.deviation(), 500.0);
    EXPECT_EQ(est.upperBound(), 3'000u); // mean + 4 deviations
}

TEST(LatencyEstimator, ConvergesOnASteadyStream)
{
    guard::LatencyEstimator est;
    for (int i = 0; i < 200; ++i)
        est.observe(500);
    // EWMA mean locks on; deviation decays toward zero, so the upper
    // bound closes in on the true latency.
    EXPECT_NEAR(est.mean(), 500.0, 1.0);
    EXPECT_LT(est.upperBound(), 600u);
    EXPECT_GE(est.upperBound(), 500u);
}

// ----------------------------------------------------------------------
// ChannelGuard: quarantine hysteresis.
// ----------------------------------------------------------------------

TEST(ChannelGuard, InterruptedStreaksNeverQuarantine)
{
    const guard::GuardConfig config = tightConfig();
    guard::ChannelGuard g(config, tightPolicy(), "unit");
    // K-1 fallbacks then a success, repeated: the streak keeps
    // resetting, so the channel never degrades (no flapping on a
    // merely glitchy responder).
    Cycles now = 0;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < config.quarantineAfter - 1; ++i)
            EXPECT_FALSE(g.onFallback(now += 100, false));
        g.onSuccess(now += 100, 600, 0, false);
        EXPECT_FALSE(g.degraded());
        EXPECT_EQ(g.route(now), guard::ChannelGuard::Route::Fast);
    }
    EXPECT_EQ(g.stats().quarantines, 0u);
    EXPECT_EQ(g.stats().fallbackStreakMax,
              static_cast<std::uint64_t>(config.quarantineAfter - 1));
}

TEST(ChannelGuard, QuarantineShedsThenProbesWithBackoff)
{
    const guard::GuardConfig config = tightConfig();
    guard::ChannelGuard g(config, tightPolicy(), "unit");
    Cycles now = 10'000;
    // The Kth consecutive fallback crosses into quarantine; exactly
    // that call reports entry (the respawn trigger).
    EXPECT_FALSE(g.onFallback(now, false));
    EXPECT_FALSE(g.onFallback(now, false));
    EXPECT_TRUE(g.onFallback(now, false));
    EXPECT_TRUE(g.degraded());
    EXPECT_EQ(g.stats().quarantines, 1u);

    // Degraded calls shed until the probe interval elapses.
    EXPECT_EQ(g.route(now + 1), guard::ChannelGuard::Route::Shed);
    g.onShed(now + 1);
    EXPECT_EQ(g.route(now + 999), guard::ChannelGuard::Route::Shed);

    // One probe per interval; while it is in flight everyone sheds.
    EXPECT_EQ(g.route(now + 1'000), guard::ChannelGuard::Route::Probe);
    EXPECT_EQ(g.route(now + 1'001), guard::ChannelGuard::Route::Shed);

    // A failed probe stays quarantined and doubles the interval.
    EXPECT_FALSE(g.onFallback(now + 1'100, true));
    EXPECT_TRUE(g.degraded());
    EXPECT_EQ(g.stats().probeFailures, 1u);
    EXPECT_EQ(g.route(now + 2'000), guard::ChannelGuard::Route::Shed);
    EXPECT_EQ(g.route(now + 3'100), guard::ChannelGuard::Route::Probe);

    // Another failure: interval doubles again, capped at the max.
    EXPECT_FALSE(g.onFallback(now + 3'200, true));
    EXPECT_EQ(g.route(now + 7'100), guard::ChannelGuard::Route::Shed);
    EXPECT_EQ(g.route(now + 7'200), guard::ChannelGuard::Route::Probe);

    // A successful probe restores the fast path.
    g.onSuccess(now + 7'500, 700, 0, true);
    EXPECT_FALSE(g.degraded());
    EXPECT_EQ(g.stats().restores, 1u);
    EXPECT_EQ(g.route(now + 7'501), guard::ChannelGuard::Route::Fast);
    EXPECT_GT(g.stats().degradedCycles, 0u);

    // Hysteresis after restore: a fresh full streak is needed to
    // re-enter quarantine — one fallback does not flap the channel.
    EXPECT_FALSE(g.onFallback(now + 8'000, false));
    EXPECT_FALSE(g.degraded());
    EXPECT_EQ(g.route(now + 8'001), guard::ChannelGuard::Route::Fast);
}

// ----------------------------------------------------------------------
// ChannelGuard: adaptive budget and deadlines.
// ----------------------------------------------------------------------

TEST(ChannelGuard, BudgetStaysAtFloorWhileHealthy)
{
    const guard::GuardConfig config = tightConfig();
    guard::ChannelGuard g(config, tightPolicy(), "unit");
    // Unprimed and healthy: the configured floor, bit-identical to
    // the fixed pre-Sentinel budget.
    EXPECT_EQ(g.attemptBudget(0), 10);
    // Primed with a huge latency but NO open fallback streak and a
    // fresh heartbeat: still the floor — the adaptive budget must not
    // perturb healthy runs.
    g.onSuccess(1'000, 100'000, 0, false);
    g.heartbeat(1'000);
    EXPECT_EQ(g.attemptBudget(1'010), 10);
    EXPECT_EQ(g.stats().adaptiveBudgetMax, 0u);
}

TEST(ChannelGuard, BudgetWidensUnderDistressAndClamps)
{
    const guard::GuardConfig config = tightConfig();
    guard::ChannelGuard g(config, tightPolicy(), "unit");
    // Huge observed latency + open streak: the derived budget blows
    // past the ceiling and must clamp to maxTimeoutTries.
    g.onSuccess(1'000, 100'000, 0, false);
    g.onFallback(2'000, false);
    EXPECT_EQ(g.attemptBudget(2'000), 64);
    EXPECT_EQ(g.stats().adaptiveBudgetMax, 64u);

    // Tiny observed latency + open streak: the derived budget is
    // below the floor and must clamp up to timeoutTries.
    guard::ChannelGuard h(config, tightPolicy(), "unit2");
    h.onSuccess(1'000, 46, 0, false);
    h.onFallback(2'000, false);
    EXPECT_EQ(h.attemptBudget(2'000), 10);
}

TEST(ChannelGuard, UnservedDeadlineClampsBothWays)
{
    const guard::GuardConfig config = tightConfig();
    const guard::TimeoutPolicy policy = tightPolicy();
    guard::ChannelGuard g(config, policy, "unit");
    // Unprimed: the minimum.
    EXPECT_EQ(g.unservedDeadline(), guard::kMinUnservedWait);
    // Tiny latency: still the minimum.
    g.onSuccess(1'000, 100, 0, false);
    EXPECT_EQ(g.unservedDeadline(), guard::kMinUnservedWait);
    // Huge latency: clamped to the maximum.
    guard::ChannelGuard h(config, policy, "unit2");
    h.onSuccess(1'000, 1'000'000, 0, false);
    EXPECT_EQ(h.unservedDeadline(), guard::kMaxUnservedWait);
}

TEST(ChannelGuard, LivenessWindowArmsLateness)
{
    const guard::GuardConfig config = tightConfig();
    guard::ChannelGuard g(config, tightPolicy(), "unit");
    // A channel whose responder never beat is NOT late (nothing to
    // compare against — e.g. before start()).
    EXPECT_FALSE(g.responderLate(1'000'000));
    g.heartbeat(1'000);
    EXPECT_FALSE(g.responderLate(1'050)); // inside the window
    EXPECT_FALSE(g.responderLate(1'100)); // exactly at the window
    EXPECT_TRUE(g.responderLate(1'101));  // past it
    g.heartbeat(1'200);
    EXPECT_FALSE(g.responderLate(1'250)); // progress re-arms
}

TEST(ChannelGuard, RespawnBudgetIsFinite)
{
    const guard::GuardConfig config = tightConfig();
    guard::ChannelGuard g(config, tightPolicy(), "unit");
    EXPECT_TRUE(g.respawnAllowed());
    EXPECT_TRUE(g.respawnAllowed());
    EXPECT_FALSE(g.respawnAllowed()); // maxRespawns = 2
    EXPECT_FALSE(g.respawnAllowed());
    EXPECT_EQ(g.stats().respawns, 2u);
}

TEST(ChannelGuard, DegradedTimeIsAccounted)
{
    const guard::GuardConfig config = tightConfig();
    guard::ChannelGuard g(config, tightPolicy(), "unit");
    for (int i = 0; i < config.quarantineAfter; ++i)
        g.onFallback(5'000, false);
    ASSERT_TRUE(g.degraded());
    // An open interval is included in the live view...
    EXPECT_EQ(g.degradedCycles(5'400), 400u);
    EXPECT_EQ(g.stats().degradedCycles, 0u);
    // ... and flush() (channel stop) closes it into the stats.
    g.flush(5'700);
    EXPECT_EQ(g.stats().degradedCycles, 700u);
}

// ----------------------------------------------------------------------
// Seeded protocol checks: the single-line abandon/discard shadow.
// ----------------------------------------------------------------------

TEST(GuardProtocol, HotCallAbandonDiscardLegalSequence)
{
    mem::Machine machine(checkedConfig());
    check::HotCallProtocol proto(*machine.check(), "seeded");
    machine.engine().spawn("requester", 0, [&] {
        proto.onLock();
        proto.onPublish();
        proto.onUnlock();
        machine.engine().advance(1'000);
        proto.onAbandon(); // nobody served within the deadline
    });
    machine.engine().spawn("responder", 1, [&] {
        machine.engine().advance(2'000);
        proto.onLock();
        proto.onDiscard(); // poisoned request dropped unserved
        proto.onUnlock();
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              0u);
}

TEST(GuardProtocol, HotCallFlagsDiscardWithoutAbandon)
{
    mem::Machine machine(checkedConfig());
    check::HotCallProtocol proto(*machine.check(), "seeded");
    machine.engine().spawn("requester", 0, [&] {
        proto.onLock();
        proto.onPublish();
        proto.onUnlock();
    });
    machine.engine().spawn("responder", 1, [&] {
        machine.engine().advance(500);
        proto.onLock();
        proto.onDiscard(); // live request thrown away
        proto.onUnlock();
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);
    const std::string &msg =
        machine.check()->violations().back().message;
    EXPECT_NE(msg.find("never abandoned"), std::string::npos) << msg;
}

TEST(GuardProtocol, HotCallFlagsAbandonAbuse)
{
    mem::Machine machine(checkedConfig());
    check::HotCallProtocol proto(*machine.check(), "seeded");
    machine.engine().spawn("publisher", 0, [&] {
        proto.onAbandon(); // nothing published yet: violation 1
        proto.onLock();
        proto.onPublish();
        proto.onUnlock();
        machine.engine().advance(1'000);
    });
    machine.engine().spawn("interloper", 1, [&] {
        machine.engine().advance(500);
        proto.onAbandon(); // someone else's request: violation 2
    });
    machine.engine().spawn("responder", 2, [&] {
        machine.engine().advance(800);
        proto.onServe(); // abandoned request served: violation 3
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              3u);
}

// ----------------------------------------------------------------------
// Seeded protocol checks: the ring's Zombie lifecycle shadow.
// ----------------------------------------------------------------------

TEST(GuardProtocol, HotQueueReclaimLegalLifecycles)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    machine.engine().spawn("claimer", 0, [&] {
        // Ready-reclaim: the claimer gives up on its own published
        // request, the head scan retires the Zombie later.
        proto.onClaim(0);
        proto.onPublish(0);
        proto.onReclaimReady(0);
        proto.onZombieRetire(0);

        // Serving-reclaim: the claimer gives up on a grabbed request
        // once the server wedged; whoever wraps to it retires it.
        proto.onClaim(1);
        proto.onPublish(1);
        machine.engine().advance(1'000); // server grabs meanwhile
        proto.onReclaimServing(1);
        machine.engine().advance(1'000);

        // Publishing-reclaim: the HEAD SCAN (not the claimer) retires
        // a stalled publisher's slot.
        proto.onClaim(2);
    });
    machine.engine().spawn("server", 1, [&] {
        machine.engine().advance(500);
        proto.onGrab(1);
        machine.engine().advance(2'000); // past the claim of slot 2
        proto.onZombieRetire(1); // stale-epoch retire by the server
        proto.onReclaimPublishing(2); // head scan, non-claimer: legal
        proto.onZombieRetire(2);
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              0u);
}

TEST(GuardProtocol, HotQueueFlagsServingReclaimByServer)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    machine.engine().spawn("claimer", 0, [&] {
        proto.onClaim(0);
        proto.onPublish(0);
        machine.engine().advance(1'000);
    });
    machine.engine().spawn("server", 1, [&] {
        machine.engine().advance(500);
        proto.onGrab(0);
        proto.onReclaimServing(0); // the server must complete, never
                                   // reclaim its own grab
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);
    const std::string &msg =
        machine.check()->violations().back().message;
    EXPECT_NE(msg.find("only the waiting claimer"), std::string::npos)
        << msg;
}

TEST(GuardProtocol, HotQueueFlagsPublishingReclaimByClaimer)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    machine.engine().spawn("claimer", 0, [&] {
        proto.onClaim(0);
        proto.onReclaimPublishing(0); // the claimer must publish or
                                      // keep the slot
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);
    const std::string &msg =
        machine.check()->violations().back().message;
    EXPECT_NE(msg.find("its own claimer"), std::string::npos) << msg;
}

TEST(GuardProtocol, HotQueueFlagsBadZombieTransitions)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    machine.engine().spawn("driver", 0, [&] {
        proto.onZombieRetire(3); // retire of a Free slot
        proto.onClaim(0);
        proto.onReclaimReady(0); // ready-reclaim of a Publishing slot
        proto.onReclaimServing(2); // serving-reclaim of a Free slot
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              3u);
}

// ----------------------------------------------------------------------
// Integration: a wedged publisher is retired through the publish
// leash by the head scan, and the ring keeps flowing.
// ----------------------------------------------------------------------

TEST(GuardIntegration, StalledPublisherRetiredThroughPublishLeash)
{
    mem::MachineConfig machine_config = checkedConfig();
    machine_config.guard.enabled = true;
    mem::Machine machine(machine_config);

    fault::FaultPlan plan = fault::FaultPlan::quiet(2024);
    plan.name = "publisher_stall";
    plan.site(fault::Site::PublisherStall).probability = 1.0;
    plan.site(fault::Site::PublisherStall).maxFires = 1;
    plan.site(fault::Site::PublisherStall).notBefore = 5'000;
    plan.site(fault::Site::PublisherStall).delayMean = 30'000;
    plan.site(fault::Site::PublisherStall).delayJitter = 20'000;
    plan.stopAtCycle = 500'000'000;
    fault::FaultInjector injector(machine.engine(), plan);
    machine.installFault(&injector);

    std::uint64_t sum = 0;
    std::uint64_t expected = 0;
    {
        sgx::SgxPlatform platform(machine);
        sdk::EnclaveRuntime runtime(platform, "guard-pubstall", R"(
            enclave {
                trusted {
                    public uint64_t ecall_add(uint64_t a, uint64_t b);
                };
                untrusted {
                    void ocall_empty();
                };
            };
        )",
                                    4);
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});

        hotcalls::HotQueueConfig config;
        config.numSlots = 4;
        config.responderCores = {1};
        config.minResponders = 1;
        config.hiccupChance = 0.0;
        // A leash short enough to trip during the injected stall but
        // far above legitimate scalar marshalling.
        config.timeout.publishLeash = 2'000;
        hotcalls::HotQueue hot(runtime, hotcalls::Kind::HotEcall,
                               config);
        auto &engine = machine.engine();
        int done = 0;
        hot.start();
        for (int r = 0; r < 2; ++r) {
            engine.spawn("req" + std::to_string(r), 2 + r, [&, r] {
                for (int i = 0; i < 40; ++i) {
                    sum += hot.call(
                        "ecall_add",
                        {edl::Arg::value(
                             static_cast<std::uint64_t>(r)),
                         edl::Arg::value(
                             static_cast<std::uint64_t>(i))});
                    expected += static_cast<std::uint64_t>(r) +
                                static_cast<std::uint64_t>(i);
                }
                if (++done == 2) {
                    hot.stop();
                    engine.stop();
                }
            });
        }
        engine.run();
        engine.unwindStranded();

        // The stalled claim was retired out from under its publisher
        // and the logical call still completed (on the SDK path).
        ASSERT_NE(hot.guard(), nullptr);
        const auto &g = hot.guard()->stats();
        EXPECT_EQ(g.reclaimedPublishing, 1u);
        EXPECT_GE(g.zombieRetires, 1u);
        EXPECT_EQ(hot.stats().calls + hot.stats().fallbacks, 80u);
        EXPECT_GE(hot.stats().fallbacks, 1u);
    }
    machine.auditLeaksNow();
    EXPECT_EQ(sum, expected);
    auto *ck = machine.check();
    ASSERT_NE(ck, nullptr);
    EXPECT_EQ(ck->count(check::ViolationKind::Race), 0u);
    EXPECT_EQ(ck->count(check::ViolationKind::Protocol), 0u);
    EXPECT_EQ(ck->count(check::ViolationKind::Leak), 0u);
    machine.installFault(nullptr);
}

TEST(GuardIntegration, IdlePollsKeepTheHeartbeatCurrent)
{
    // Idle responders stamp the heartbeat on every poll, also when the
    // polls run in steady batches: whenever the caller wakes, each
    // channel's last beat lies within one idle poll of the clock. The
    // window and the sleep threshold are out of reach, so nothing but
    // the heartbeat itself keeps the beat current.
    mem::MachineConfig machine_config;
    machine_config.engine.numCores = 4;
    machine_config.engine.seed = 42;
    machine_config.engine.interruptMeanCycles = 0;
    mem::Machine machine(machine_config);
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "guard-beat", R"(
        enclave {
            trusted { public void ecall_empty(); };
            untrusted { void ocall_empty(); };
        };
    )",
                                4);
    runtime.registerEcall("ecall_empty", [](edl::StagedCall &) {});
    runtime.registerOcall("ocall_empty", [](edl::StagedCall &) {});

    hotcalls::HotQueueConfig queue_config;
    queue_config.responderCores = {1};
    queue_config.scaleWindowPolls = 1'000'000;
    hotcalls::HotQueue queue(runtime, hotcalls::Kind::HotEcall,
                             queue_config);
    hotcalls::HotCallService line(runtime, hotcalls::Kind::HotEcall, 2);
    // An idle poll is a few probes and a jittered PAUSE, under 100
    // cycles; a late-by test this far inside the window fails once the
    // last beat is older than that.
    constexpr Cycles kPoll = 200;
    const auto current = [&](const hotcalls::Channel &channel) {
        const guard::ChannelGuard *g = channel.guard();
        return g && !g->responderLate(machine.now() +
                                      g->config().livenessWindow - kPoll);
    };
    auto &engine = machine.engine();
    engine.spawn("caller", 0, [&] {
        queue.start();
        line.start();
        for (const Cycles idle : {20'000, 300'000, 1'000'000}) {
            engine.sleepFor(idle);
            EXPECT_TRUE(current(queue)) << "after " << idle;
            EXPECT_TRUE(current(line)) << "after " << idle;
            queue.call("ecall_empty", {});
            line.call("ecall_empty", {});
        }
        queue.stop();
        line.stop();
        engine.stop();
    });
    engine.run();
    EXPECT_GT(queue.stats().responderPolls, 10'000u);
    EXPECT_GT(line.stats().responderPolls, 10'000u);
}
