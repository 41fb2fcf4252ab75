/**
 * @file
 * FaultLine campaign: seeded fault-injection scenarios over the hot
 * channels, the porting layer, and the engine's teardown paths.
 *
 * Every scenario installs a FaultInjector built from a seed-driven
 * FaultPlan and drives a workload (single-line HotCallService,
 * multi-slot HotQueue, or a full PortedApp) while SimCheck records
 * violations. The campaign asserts, for every scenario:
 *
 *  - termination: plans that can hang a run (responder never-wake,
 *    forced saturation) carry a stopAtCycle backstop, so every run
 *    ends in bounded virtual (and wall-clock) time;
 *  - accounting: every call that returned took exactly one exit —
 *    channel completion, SDK fallback, or abort — every counted exit
 *    belongs to an issued call, and a stop can strand at most one
 *    in-flight call per requester;
 *  - cleanliness: no race, protocol, or leak violations, including
 *    the fault-aware teardown assertions (aborted runs legitimately
 *    strand mid-protocol state and are exempt);
 *  - reproducibility: the same scenario re-run with the same seeds
 *    produces an identical outcome fingerprint.
 *
 * Separately, the *quiet* (paper-path) plan must be invisible: the
 * golden-digest scenarios re-run with a quiet injector installed must
 * reproduce both pinned hashes bit for bit (the injector's
 * determinism contract).
 *
 * Set HC_FAULT_JSON=<path> to write a JSON summary of every scenario
 * (the CI sanitize job uploads it as an artifact).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "determinism_scenarios.hh"
#include "fault/fault.hh"
#include "guard/guard.hh"
#include "os/kernel.hh"
#include "port/port.hh"
#include "support/hash.hh"

using namespace hc;
using namespace hc::fault;

namespace {

/** Everything a campaign scenario observes about one run. */
struct Outcome {
    std::uint64_t issued = 0;   //!< calls started by the drivers
    std::uint64_t returned = 0; //!< calls that came back (any exit)
    std::uint64_t channelCalls = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t aborts = 0;
    std::uint64_t timeoutAttempts = 0;
    std::uint64_t forcedFallbacks = 0; //!< port-plane reroutes
    std::uint64_t raceViolations = 0;
    std::uint64_t protocolViolations = 0;
    std::uint64_t leakViolations = 0;
    std::uint64_t stops = 0; //!< injector-issued Engine::stop()s
    bool channelWorkload = true; //!< channel-stats accounting applies
    guard::GuardStats guard; //!< Sentinel counters (guarded runs)
    std::string guardJson;   //!< Sentinel summary (guarded runs)
    std::string json;   //!< injector summary (artifact line)
    std::string digest; //!< reproducibility fingerprint
};

/**
 * Common teardown, run AFTER the workload has unwound stranded fibers
 * and destroyed its channels (their lines must be freed first): run
 * the leak audit, snapshot the verdicts, and build the
 * reproducibility fingerprint.
 */
void
finishOutcome(mem::Machine &machine, FaultInjector &injector,
              Outcome &out)
{
    machine.auditLeaksNow();
    if (auto *ck = machine.check()) {
        out.raceViolations = ck->count(check::ViolationKind::Race);
        out.protocolViolations =
            ck->count(check::ViolationKind::Protocol);
        out.leakViolations = ck->count(check::ViolationKind::Leak);
    }
    out.stops = injector.stats().stops;
    out.json = injector.summaryJson();

    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "issued=%llu returned=%llu calls=%llu fallbacks=%llu "
        "aborts=%llu attempts=%llu forced=%llu stops=%llu",
        static_cast<unsigned long long>(out.issued),
        static_cast<unsigned long long>(out.returned),
        static_cast<unsigned long long>(out.channelCalls),
        static_cast<unsigned long long>(out.fallbacks),
        static_cast<unsigned long long>(out.aborts),
        static_cast<unsigned long long>(out.timeoutAttempts),
        static_cast<unsigned long long>(out.forcedFallbacks),
        static_cast<unsigned long long>(out.stops));
    out.digest = buf;
    out.digest += " " + out.json;
    if (!out.guardJson.empty())
        out.digest += " " + out.guardJson;
    auto &engine = machine.engine();
    for (int c = 0; c < engine.numCores(); ++c) {
        std::snprintf(buf, sizeof(buf), " c%d=%llu", c,
                      static_cast<unsigned long long>(
                          engine.coreNow(c)));
        out.digest += buf;
    }
    machine.installFault(nullptr);
}

mem::MachineConfig
campaignMachineConfig()
{
    mem::MachineConfig config;
    config.engine.numCores = 8;
    config.engine.seed = 42;
    // Explicitly on => record mode even under HC_CHECK=1, so the
    // campaign can assert exact violation counts per scenario.
    config.check.enabled = true;
    // The legacy campaign pins the pre-Sentinel contract (full spin
    // budgets, backstop-driven termination of dead channels): guard
    // off. The recovery campaign below turns it back on and asserts
    // the opposite — that dead channels heal instead of aborting.
    config.guard.enabled = false;
    return config;
}

mem::MachineConfig
guardedMachineConfig()
{
    mem::MachineConfig config = campaignMachineConfig();
    config.guard.enabled = true;
    // The campaign workloads are a few hundred thousand cycles end to
    // end; probe on a matching scale so a quarantine window does not
    // swallow the whole run.
    config.guard.probeInterval = 50'000;
    return config;
}

/** EPC pressure spike: allocate and touch enclave memory. */
void
epcSpike(mem::Machine &machine)
{
    mem::Buffer spike(machine, mem::Domain::Epc, 64_KiB);
    spike.write(false);
    spike.read();
}

/** Single-line HotCallService under @p plan. */
Outcome
runHotCallWorkload(const FaultPlan &plan, int calls,
                   bool responder_sleep, bool guarded = false)
{
    Outcome out;
    mem::Machine machine(guarded ? guardedMachineConfig()
                                 : campaignMachineConfig());
    FaultInjector injector(machine.engine(), plan);
    machine.installFault(&injector);
    {
        sgx::SgxPlatform platform(machine);
        sdk::EnclaveRuntime runtime(platform, "fault-hotcall",
                                    dtest::kEdl, 4);
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
        hotcalls::HotCallConfig config;
        config.hiccupChance = 0.0;
        config.responderSleep = responder_sleep;
        if (responder_sleep)
            config.idlePollsBeforeSleep = 40;
        hotcalls::HotCallService hot(
            runtime, hotcalls::Kind::HotEcall, 1, config);
        machine.engine().spawn("driver", 0, [&] {
            hot.start();
            for (int i = 0; i < calls; ++i) {
                ++out.issued;
                hot.call(
                    "ecall_add",
                    {edl::Arg::value(static_cast<std::uint64_t>(i)),
                     edl::Arg::value(1)});
                ++out.returned;
                if (injector.fire(Site::EpcPressure))
                    epcSpike(machine);
            }
            hot.stop();
            machine.engine().stop();
        });
        machine.engine().run();
        // Unwind stranded fibers while the channel they reference is
        // still alive; their RAII state frees itself.
        machine.engine().unwindStranded();
        const auto &s = hot.stats();
        out.channelCalls = s.calls;
        out.fallbacks = s.fallbacks;
        out.aborts = s.aborts;
        out.timeoutAttempts = s.timeoutAttempts;
        if (const auto *g = hot.guard())
            out.guard = g->stats();
        if (auto *sentinel = machine.guard())
            out.guardJson = sentinel->summaryJson();
    }
    finishOutcome(machine, injector, out);
    return out;
}

/** 4-requester HotQueue under @p plan. @p serving_leash, when
 *  non-zero, lowers the Serving-reclaim deadline (recovery tests —
 *  the default 4M-cycle leash outlasts the whole workload). */
Outcome
runHotQueueWorkload(const FaultPlan &plan, int calls_each,
                    std::vector<CoreId> responder_cores,
                    int min_responders, bool guarded = false,
                    Cycles serving_leash = 0)
{
    Outcome out;
    mem::Machine machine(guarded ? guardedMachineConfig()
                                 : campaignMachineConfig());
    FaultInjector injector(machine.engine(), plan);
    machine.installFault(&injector);
    {
        sgx::SgxPlatform platform(machine);
        sdk::EnclaveRuntime runtime(platform, "fault-hotq",
                                    dtest::kEdl, 4);
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
        hotcalls::HotQueueConfig config;
        config.numSlots = 8;
        config.responderCores = std::move(responder_cores);
        config.minResponders = min_responders;
        config.scaleWindowPolls = 64; // park/wake traffic
        config.hiccupChance = 0.0;
        if (serving_leash > 0)
            config.timeout.servingLeash = serving_leash;
        hotcalls::HotQueue hot(runtime, hotcalls::Kind::HotEcall,
                               config);
        auto &engine = machine.engine();
        int done = 0;
        constexpr int kRequesters = 4;
        hot.start();
        for (int r = 0; r < kRequesters; ++r) {
            engine.spawn("req" + std::to_string(r), 3 + r, [&, r] {
                for (int i = 0; i < calls_each; ++i) {
                    ++out.issued;
                    hot.call(
                        "ecall_add",
                        {edl::Arg::value(
                             static_cast<std::uint64_t>(r)),
                         edl::Arg::value(
                             static_cast<std::uint64_t>(i))});
                    ++out.returned;
                    if (r == 0 && injector.fire(Site::EpcPressure))
                        epcSpike(machine);
                }
                if (++done == kRequesters) {
                    hot.stop();
                    engine.stop();
                }
            });
        }
        engine.run();
        machine.engine().unwindStranded();
        const auto &s = hot.stats();
        out.channelCalls = s.calls;
        out.fallbacks = s.fallbacks;
        out.aborts = s.aborts;
        out.timeoutAttempts = s.timeoutAttempts;
        if (const auto *g = hot.guard())
            out.guard = g->stats();
        if (auto *sentinel = machine.guard())
            out.guardJson = sentinel->summaryJson();
    }
    finishOutcome(machine, injector, out);
    return out;
}

/** Full porting stack: hot ocalls through PortedApp under @p plan. */
Outcome
runPortWorkload(const FaultPlan &plan, int calls)
{
    Outcome out;
    out.channelWorkload = false; // channel stats live inside the app
    mem::Machine machine(campaignMachineConfig());
    FaultInjector injector(machine.engine(), plan);
    machine.installFault(&injector);
    {
        sgx::SgxPlatform platform(machine);
        os::Kernel kernel(machine);
        port::PortConfig config;
        config.mode = port::Mode::SgxHotCalls;
        config.hotEcallCore = 1;
        config.hotOcallCore = 2;
        port::PortedApp app(platform, kernel, "fault-port", config);
        machine.engine().spawn("app", 0, [&] {
            app.startHotCalls();
            const int fn =
                app.registerFunction([&](std::uint64_t) {
                    for (int i = 0; i < calls; ++i) {
                        ++out.issued;
                        app.getpid();
                        ++out.returned;
                    }
                });
            app.runEnclaveFunction(fn, 0);
            app.stopHotCalls();
            machine.engine().stop();
        });
        machine.engine().run();
        machine.engine().unwindStranded();
        out.forcedFallbacks = app.forcedFallbacks();
    }
    finishOutcome(machine, injector, out);
    return out;
}

/** Which workload a scenario drives. */
enum class Work {
    HotCall,      //!< single-line channel, responder always polling
    HotCallSleep, //!< single-line channel with idle sleep/wake
    HotQueue,     //!< 4 requesters, 2 always-on responders
    HotQueuePool, //!< 4 requesters, adaptive 3-core pool
    Port,         //!< full PortedApp stack (hot ocalls + hot ecalls)
};

struct Scenario {
    std::string name;
    Work work;
    FaultPlan plan;
    std::uint64_t requesters; //!< stranding bound per aborted run
};

Outcome
runScenario(const Scenario &sc)
{
    switch (sc.work) {
      case Work::HotCall:
        return runHotCallWorkload(sc.plan, 250, false);
      case Work::HotCallSleep:
        return runHotCallWorkload(sc.plan, 250, true);
      case Work::HotQueue:
        return runHotQueueWorkload(sc.plan, 80, {1, 2}, 2);
      case Work::HotQueuePool:
        return runHotQueueWorkload(sc.plan, 80, {1, 2, 3}, 1);
      case Work::Port:
        return runPortWorkload(sc.plan, 150);
    }
    return {};
}

/** The seeded campaign matrix (>= 25 scenarios). */
std::vector<Scenario>
campaign()
{
    std::vector<Scenario> list;
    std::uint64_t seed = 101;
    auto add = [&](std::string name, Work work, FaultPlan plan,
                   std::uint64_t requesters) {
        list.push_back(
            {std::move(name), work, std::move(plan), requesters});
    };

    // Responder oversleep sweep (single-line channel, both polling
    // and sleep/wake responders).
    for (Cycles mean : {Cycles(500), Cycles(2'000), Cycles(8'000),
                        Cycles(30'000)}) {
        for (double prob : {0.002, 0.02}) {
            FaultPlan plan = FaultPlan::oversleep(
                seed++, mean, prob, 200'000'000);
            plan.site(Site::ResponderOversleep).delayJitter = 64;
            const Work work = (mean >= 8'000) ? Work::HotCallSleep
                                              : Work::HotCall;
            add("hotcall_oversleep_m" + std::to_string(mean) + "_p" +
                    std::to_string(static_cast<int>(prob * 1000)),
                work, plan, 1);
        }
    }

    // Oversleep plans on the ring: the same plan arms CursorStall,
    // which the HotQueue responders visit per poll.
    for (Cycles mean : {Cycles(1'000), Cycles(12'000)}) {
        for (double prob : {0.005, 0.02}) {
            add("hotqueue_stall_m" + std::to_string(mean) + "_p" +
                    std::to_string(static_cast<int>(prob * 1000)),
                Work::HotQueue,
                FaultPlan::oversleep(seed++, mean, prob,
                                     200'000'000),
                4);
        }
    }

    // Responder never wakes: requesters live off the SDK fallback
    // (or hang in the completion wait) until the backstop aborts.
    add("hotcall_neverwake_cold", Work::HotCall,
        FaultPlan::neverWake(seed++, 0, 3'000'000), 1);
    add("hotcall_neverwake_warm", Work::HotCallSleep,
        FaultPlan::neverWake(seed++, 400'000, 4'000'000), 1);

    // Fallback storms: forced claim expiries at every retry attempt.
    for (double prob : {0.35, 0.9}) {
        add("hotcall_storm_p" +
                std::to_string(static_cast<int>(prob * 100)),
            Work::HotCall,
            FaultPlan::fallbackStorm(seed++, prob, 200'000'000), 1);
        add("hotqueue_storm_p" +
                std::to_string(static_cast<int>(prob * 100)),
            Work::HotQueue,
            FaultPlan::fallbackStorm(seed++, prob, 200'000'000), 4);
    }
    for (double prob : {0.25, 0.75}) {
        add("port_storm_p" +
                std::to_string(static_cast<int>(prob * 100)),
            Work::Port,
            FaultPlan::fallbackStorm(seed++, prob, 200'000'000), 1);
    }

    // Slot aborts: Engine::stop() with a slot mid-Publishing or
    // mid-Serving. The teardown path (fault-aware protocol dtors,
    // stranded-fiber unwinding, leak audit) must absorb both.
    for (int rep = 0; rep < 2; ++rep) {
        FaultPlan publishing = FaultPlan::quiet(seed++);
        publishing.name = "slot_abort_publishing";
        publishing.site(Site::SlotAbortPublishing).probability =
            0.003;
        publishing.site(Site::SlotAbortPublishing).notBefore =
            150'000;
        publishing.stopAtCycle = 200'000'000;
        add("hotqueue_abort_publishing_" + std::to_string(rep),
            Work::HotQueue, publishing, 4);

        FaultPlan serving = FaultPlan::quiet(seed++);
        serving.name = "slot_abort_serving";
        serving.site(Site::SlotAbortServing).probability = 0.003;
        serving.site(Site::SlotAbortServing).notBefore = 150'000;
        serving.stopAtCycle = 200'000'000;
        add("hotqueue_abort_serving_" + std::to_string(rep),
            Work::HotQueue, serving, 4);
    }

    // Engine::stop() at a seed-derived scheduler wake (landing at
    // scheduling points no channel-level site reaches) and at fixed
    // virtual times.
    for (int rep = 0; rep < 3; ++rep) {
        FaultPlan plan = FaultPlan::quiet(seed);
        plan.name = "stop_after_wakes";
        plan.stopAfterWakes = 5 + (seed * 7919) % 60;
        plan.stopAtCycle = 200'000'000;
        ++seed;
        add("hotqueue_stop_wakes_" + std::to_string(rep),
            Work::HotQueuePool, plan, 4);
    }
    for (Cycles at : {Cycles(120'000), Cycles(700'000)}) {
        FaultPlan plan = FaultPlan::quiet(seed++);
        plan.name = "stop_at_cycle";
        plan.stopAtCycle = at;
        add("hotcall_stop_at_" + std::to_string(at), Work::HotCall,
            plan, 1);
    }

    // EPC pressure spikes between calls.
    for (double prob : {0.05, 0.2}) {
        FaultPlan plan = FaultPlan::quiet(seed++);
        plan.name = "epc_pressure";
        plan.site(Site::EpcPressure).probability = prob;
        plan.stopAtCycle = 200'000'000;
        add("hotcall_epc_p" +
                std::to_string(static_cast<int>(prob * 100)),
            Work::HotCall, plan, 1);
        add("hotqueue_epc_p" +
                std::to_string(static_cast<int>(prob * 100)),
            Work::HotQueue, plan, 4);
    }

    return list;
}

void
writeArtifact(const std::vector<std::string> &lines,
              const char *env = "HC_FAULT_JSON")
{
    const char *path = std::getenv(env);
    if (!path || !*path)
        return;
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        ADD_FAILURE() << "cannot write " << env << "=" << path;
        return;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < lines.size(); ++i)
        std::fprintf(f, "  %s%s\n", lines[i].c_str(),
                     i + 1 < lines.size() ? "," : "");
    std::fprintf(f, "]\n");
    std::fclose(f);
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Injector unit behaviour (no simulation needed).
// ----------------------------------------------------------------------

TEST(FaultInjector, FireBudgetIsRespected)
{
    sim::Engine engine;
    FaultPlan plan = FaultPlan::quiet(3);
    plan.name = "unit";
    plan.site(Site::RequesterAttempt).probability = 1.0;
    plan.site(Site::RequesterAttempt).maxFires = 2;
    FaultInjector injector(engine, plan);
    int fires = 0;
    for (int i = 0; i < 5; ++i)
        fires += injector.fire(Site::RequesterAttempt) ? 1 : 0;
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(injector.stats().visits[static_cast<std::size_t>(
                  Site::RequesterAttempt)],
              5u);
    const std::string json = injector.summaryJson();
    EXPECT_NE(json.find("\"requester_attempt\""), std::string::npos);
    EXPECT_NE(json.find("\"plan\": \"unit\""), std::string::npos);
}

TEST(FaultInjector, QuietPlanNeverFires)
{
    sim::Engine engine;
    FaultInjector injector(engine, FaultPlan::quiet(7));
    for (std::size_t s = 0; s < kSiteCount; ++s)
        for (int i = 0; i < 100; ++i)
            EXPECT_FALSE(injector.fire(static_cast<Site>(s)));
    for (std::size_t s = 0; s < kSiteCount; ++s)
        EXPECT_EQ(injector.stats().fires[s], 0u);
    EXPECT_EQ(injector.stats().stops, 0u);
}

TEST(FaultInjector, DelayStaysWithinJitterBound)
{
    sim::Engine engine;
    FaultPlan plan = FaultPlan::quiet(11);
    plan.site(Site::ResponderOversleep).delayJitter = 10;
    FaultInjector injector(engine, plan);
    for (int i = 0; i < 64; ++i)
        EXPECT_LE(injector.delay(Site::ResponderOversleep), 10u);
}

// ----------------------------------------------------------------------
// Determinism contract: a quiet (paper-path) plan is invisible — the
// pinned golden digests reproduce bit for bit with it installed.
// ----------------------------------------------------------------------

TEST(FaultCampaign, QuietPlanReproducesGoldenDigest)
{
    const FaultPlan plan = FaultPlan::quiet(1234);
    EXPECT_EQ(fastHash64(dtest::goldenText(&plan)),
              dtest::kGoldenHash)
        << "a quiet FaultPlan perturbed the golden scenarios; the "
           "injector must draw and charge nothing at "
           "zero-probability sites";
}

TEST(FaultCampaign, QuietPlanReproducesFastPathGoldenDigest)
{
    const FaultPlan plan = FaultPlan::quiet(5678);
    EXPECT_EQ(fastHash64(dtest::fastPathGoldenText(&plan)),
              dtest::kFastPathGoldenHash)
        << "a quiet FaultPlan perturbed the FastPath golden scenario";
}

// ----------------------------------------------------------------------
// The seeded campaign.
// ----------------------------------------------------------------------

TEST(FaultCampaign, SeededScenariosTerminateCleanly)
{
    const std::vector<Scenario> scenarios = campaign();
    ASSERT_GE(scenarios.size(), 25u);

    std::vector<std::string> artifact;
    for (const Scenario &sc : scenarios) {
        SCOPED_TRACE(sc.name);
        const Outcome a = runScenario(sc);

        // Accounting. Every counted exit belongs to an issued call,
        // and no call returns without counting an exit (a stop can
        // strand a call after its exit was counted but before it
        // returned, so the two bounds are not a single equality).
        if (a.channelWorkload) {
            const std::uint64_t exits =
                a.channelCalls + a.fallbacks + a.aborts;
            EXPECT_LE(a.returned, exits);
            EXPECT_LE(exits, a.issued);
            if (a.stops == 0) {
                // Clean completion: everything issued returned
                // through exactly one exit.
                EXPECT_EQ(exits, a.issued);
                EXPECT_EQ(a.returned, a.issued);
            }
        }
        EXPECT_LE(a.returned, a.issued);
        // A stop can strand at most one in-flight call per requester.
        EXPECT_LE(a.issued - a.returned, sc.requesters);
        // Plans that cannot cut the run short made full progress.
        const bool may_abort_early =
            sc.plan.stopAfterWakes > 0 ||
            (sc.plan.stopAtCycle > 0 &&
             sc.plan.stopAtCycle < 10'000'000) ||
            sc.plan.site(Site::SlotAbortPublishing).probability > 0 ||
            sc.plan.site(Site::SlotAbortServing).probability > 0;
        if (!may_abort_early) {
            EXPECT_EQ(a.returned, a.issued);
        }

        // Cleanliness under SimCheck (record mode, exact counts).
        EXPECT_EQ(a.raceViolations, 0u);
        EXPECT_EQ(a.protocolViolations, 0u);
        EXPECT_EQ(a.leakViolations, 0u);

        // Same-seed reproducibility: the whole outcome fingerprint
        // (stats, injector counters, per-core clocks) must match.
        const Outcome b = runScenario(sc);
        EXPECT_EQ(a.digest, b.digest) << "same-seed re-run diverged";

        artifact.push_back(
            "{\"scenario\": \"" + sc.name + "\", \"issued\": " +
            std::to_string(a.issued) + ", \"returned\": " +
            std::to_string(a.returned) + ", \"calls\": " +
            std::to_string(a.channelCalls) + ", \"fallbacks\": " +
            std::to_string(a.fallbacks) + ", \"aborts\": " +
            std::to_string(a.aborts) + ", \"timeout_attempts\": " +
            std::to_string(a.timeoutAttempts) +
            ", \"forced_fallbacks\": " +
            std::to_string(a.forcedFallbacks) + ", \"summary\": " +
            a.json + "}");
    }
    writeArtifact(artifact);
}

// ----------------------------------------------------------------------
// Targeted behavioural checks for individual sites.
// ----------------------------------------------------------------------

TEST(FaultCampaign, FallbackStormForcesSdkPath)
{
    // With every claim attempt forced to expire, every call must fall
    // back — and count exactly one fallback per logical call, however
    // many attempts expired (the satellite accounting fix).
    const Outcome out = runHotCallWorkload(
        FaultPlan::fallbackStorm(4242, 1.0, 2'000'000'000), 100,
        false);
    EXPECT_EQ(out.returned, 100u);
    EXPECT_EQ(out.fallbacks, out.returned);
    EXPECT_EQ(out.channelCalls, 0u);
    // Every attempt of every call expired (timeoutTries = 10).
    EXPECT_EQ(out.timeoutAttempts, out.returned * 10);
}

TEST(FaultCampaign, NeverWakeAbortsThroughBackstop)
{
    const Outcome out = runHotCallWorkload(
        FaultPlan::neverWake(777, 0, 2'000'000), 200, false);
    // The run cannot finish: the backstop stop must have fired, once.
    EXPECT_EQ(out.stops, 1u);
    // And at most the one in-flight call was stranded.
    EXPECT_LE(out.issued - out.returned, 1u);
    EXPECT_EQ(out.raceViolations, 0u);
    EXPECT_EQ(out.protocolViolations, 0u);
    EXPECT_EQ(out.leakViolations, 0u);
}

TEST(FaultCampaign, PortFallbackReroutesHotOcalls)
{
    FaultPlan plan = FaultPlan::quiet(31337);
    plan.name = "port_reroute";
    plan.site(Site::PortFallback).probability = 1.0;
    plan.stopAtCycle = 2'000'000'000;
    const Outcome out = runPortWorkload(plan, 60);
    // Every hot-eligible ocall went down the conventional path.
    EXPECT_EQ(out.returned, 60u);
    EXPECT_EQ(out.forcedFallbacks, out.returned);
    EXPECT_EQ(out.raceViolations, 0u);
    EXPECT_EQ(out.protocolViolations, 0u);
    EXPECT_EQ(out.leakViolations, 0u);
}

// ----------------------------------------------------------------------
// Sentinel recovery campaign: the same dead-channel faults the legacy
// campaign can only survive by aborting, re-run with the guard ON and
// a backstop far beyond the full run. The run must COMPLETE — every
// call returns, nothing aborts — and the guard counters must show the
// designed recovery path, cleanly under SimCheck.
//
// Set HC_GUARD_JSON=<path> to write a JSON summary of the recovery
// scenarios (the CI sanitize job uploads it as an artifact).
// ----------------------------------------------------------------------

namespace {

std::vector<std::string> &
guardArtifact()
{
    static std::vector<std::string> lines;
    return lines;
}

void
pushGuardArtifact(const std::string &name, const Outcome &out)
{
    guardArtifact().push_back(
        "{\"scenario\": \"" + name + "\", \"issued\": " +
        std::to_string(out.issued) + ", \"returned\": " +
        std::to_string(out.returned) + ", \"calls\": " +
        std::to_string(out.channelCalls) + ", \"fallbacks\": " +
        std::to_string(out.fallbacks) + ", \"timeout_attempts\": " +
        std::to_string(out.timeoutAttempts) + ", \"stops\": " +
        std::to_string(out.stops) + ", \"guard\": " + out.guardJson +
        ", \"summary\": " + out.json + "}");
}

} // anonymous namespace

TEST(GuardRecovery, NeverWakeHealsSingleLineChannel)
{
    // The NeverWakeAbortsThroughBackstop scenario, guarded: the
    // responder wedges on its very first poll, so the channel must
    // heal end to end — the stuck request is abandoned and reissued
    // on the SDK path, the fallback streak quarantines the channel,
    // quarantine entry respawns the responder fiber, the respawned
    // responder discards the poisoned request, and a scheduled probe
    // restores the fast path.
    const FaultPlan plan =
        FaultPlan::neverWake(777, 0, 2'000'000'000);
    const Outcome out =
        runHotCallWorkload(plan, 200, false, /*guarded=*/true);

    // The run completed instead of hanging until the backstop.
    EXPECT_EQ(out.stops, 0u);
    EXPECT_EQ(out.issued, 200u);
    EXPECT_EQ(out.returned, out.issued);
    EXPECT_EQ(out.aborts, 0u);
    EXPECT_EQ(out.channelCalls + out.fallbacks, out.issued);

    // The designed recovery sequence, step by step.
    EXPECT_EQ(out.guard.abandons, 1u);
    EXPECT_EQ(out.guard.discards, 1u);
    EXPECT_EQ(out.guard.respawns, 1u);
    EXPECT_EQ(out.guard.quarantines, 1u);
    EXPECT_EQ(out.guard.restores, 1u);
    EXPECT_GT(out.guard.sheds, 0u);
    EXPECT_GT(out.guard.degradedCycles, 0u);

    // Degradation is bounded: O(K) spin budgets and one quarantine
    // window, not O(calls) — the guard-off contract burns the full
    // budget on every one of the 200 calls (timeoutAttempts = 2000).
    EXPECT_LT(out.fallbacks, out.issued / 4);
    EXPECT_GT(out.channelCalls, out.issued / 2);
    EXPECT_LT(out.timeoutAttempts, 200u);

    // Clean under SimCheck through abandon, discard, and respawn.
    EXPECT_EQ(out.raceViolations, 0u);
    EXPECT_EQ(out.protocolViolations, 0u);
    EXPECT_EQ(out.leakViolations, 0u);

    // Same-seed reproducibility, guard state included.
    const Outcome again =
        runHotCallWorkload(plan, 200, false, /*guarded=*/true);
    EXPECT_EQ(out.digest, again.digest)
        << "guarded same-seed re-run diverged";

    pushGuardArtifact("neverwake_singleline", out);
}

TEST(GuardRecovery, NeverWakeMidBatchReclaimsServingSlots)
{
    // One of the two pool responders wedges for good mid-batch,
    // leaving grabbed-but-undispatched slots behind. Their requesters
    // must reclaim them past the (lowered) serving leash and reissue
    // on the SDK path, the retired Zombies must not wedge the ring
    // once the producer cursor wraps back to them, and the surviving
    // responder must keep the channel healthy for everyone else.
    const FaultPlan plan =
        FaultPlan::neverWake(909, 20'000, 2'000'000'000);
    const Outcome out = runHotQueueWorkload(
        plan, 80, {1, 2}, 2, /*guarded=*/true,
        /*serving_leash=*/40'000);

    EXPECT_EQ(out.stops, 0u);
    EXPECT_EQ(out.issued, 320u);
    EXPECT_EQ(out.returned, out.issued);
    EXPECT_EQ(out.aborts, 0u);
    EXPECT_EQ(out.channelCalls + out.fallbacks, out.issued);

    // At least one Serving-reclaim happened and its Zombie was
    // retired (stale-epoch path or a wrapping claimer).
    EXPECT_GE(out.guard.reclaimedServing, 1u);
    EXPECT_GE(out.guard.zombieRetires, 1u);

    // The surviving responder kept the ring fast: reclaims and ring
    // pressure cost a bounded number of fallbacks.
    EXPECT_LT(out.fallbacks, out.issued / 4);
    EXPECT_GT(out.channelCalls, out.issued / 2);

    EXPECT_EQ(out.raceViolations, 0u);
    EXPECT_EQ(out.protocolViolations, 0u);
    EXPECT_EQ(out.leakViolations, 0u);

    const Outcome again = runHotQueueWorkload(
        plan, 80, {1, 2}, 2, /*guarded=*/true,
        /*serving_leash=*/40'000);
    EXPECT_EQ(out.digest, again.digest)
        << "guarded same-seed re-run diverged";

    pushGuardArtifact("neverwake_hotqueue_midbatch", out);
    writeArtifact(guardArtifact(), "HC_GUARD_JSON");
}
