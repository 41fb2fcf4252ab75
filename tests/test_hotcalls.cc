/**
 * @file
 * HotCalls tests: functional round trips in both directions, data
 * integrity through the shared marshalling, latency versus the SDK
 * path, the timeout fallback, responder sleep, and sharing one
 * responder among several requesters.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/buffer.hh"
#include "support/stats.hh"

using namespace hc;
using namespace hc::hotcalls;

namespace {

const char *kEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_add(uint64_t a, uint64_t b);
            public void ecall_empty();
        };
        untrusted {
            uint64_t ocall_double(uint64_t v);
            void ocall_empty();
            void ocall_fill([out, size=len] uint8_t* buf, size_t len);
            void ocall_consume([in, size=len] uint8_t* buf,
                               size_t len);
        };
    };
)";

struct Fixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;
    std::vector<std::uint8_t> consumed;

    explicit Fixture(bool guard = true, edl::MarshalOptions options = {})
        : machine([&] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              config.guard.enabled = guard;
              return config;
          }()),
          platform(machine),
          runtime(platform, "hot-test", kEdl, 4, options)
    {
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_double", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) * 2);
        });
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_fill", [](edl::StagedCall &c) {
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                c.data(0)[i] =
                    static_cast<std::uint8_t>(0xc0 + (i & 0xf));
        });
        runtime.registerOcall(
            "ocall_consume", [this](edl::StagedCall &c) {
                consumed.assign(c.data(0), c.data(0) + c.size(0));
            });
    }

    /** Run @p body as the "application" fiber on core 0. */
    void run(std::function<void()> body)
    {
        machine.engine().spawn("app", 0, std::move(body));
        machine.engine().run();
    }

    /** Enter the enclave around @p body (for HotOcall requesters). */
    void inEnclave(std::function<void()> body)
    {
        sgx::Tcs *tcs = runtime.enclave().acquireTcs();
        platform.eenter(runtime.enclave(), *tcs);
        body();
        platform.eexit();
        runtime.enclave().releaseTcs(tcs);
    }
};

} // anonymous namespace

TEST(HotEcall, RoundtripReturnsValue)
{
    Fixture f;
    HotCallService hot(f.runtime, Kind::HotEcall, 1);
    f.run([&] {
        hot.start();
        EXPECT_EQ(hot.call("ecall_add",
                           {edl::Arg::value(40), edl::Arg::value(2)}),
                  42u);
        EXPECT_EQ(hot.stats().calls, 1u);
        EXPECT_EQ(hot.stats().fallbacks, 0u);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotOcall, RoundtripFromEnclave)
{
    Fixture f;
    HotCallService hot(f.runtime, Kind::HotOcall, 2);
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            EXPECT_EQ(hot.call("ocall_double", {edl::Arg::value(21)}),
                      42u);
        });
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotOcall, RequiresEnclaveMode)
{
    Fixture f;
    HotCallService hot(f.runtime, Kind::HotOcall, 2);
    f.run([&] {
        hot.start();
        EXPECT_THROW(hot.call("ocall_empty", {}), sgx::SgxFault);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotOcall, BuffersMarshalledBothWays)
{
    for (const bool fast_path : {true, false}) {
        SCOPED_TRACE(fast_path ? "fastPath on" : "fastPath off");
        Fixture f;
        HotCallConfig config;
        config.fastPath = fast_path;
        HotCallService hot(f.runtime, Kind::HotOcall, 2, config);
        f.run([&] {
            hot.start();
            f.inEnclave([&] {
                mem::Buffer out(f.machine, mem::Domain::Epc, 32);
                hot.call("ocall_fill",
                         {edl::Arg::buffer(out), edl::Arg::value(32)});
                for (int i = 0; i < 32; ++i)
                    EXPECT_EQ(out.data()[i], 0xc0 + (i & 0xf));

                mem::Buffer in(f.machine, mem::Domain::Epc, 16);
                std::memcpy(in.data(), "hotcall-payload", 15);
                hot.call("ocall_consume",
                         {edl::Arg::buffer(in), edl::Arg::value(15)});
            });
            hot.stop();
            f.machine.engine().stop();
        });
        EXPECT_EQ(hot.stats().calls, 2u);
        EXPECT_EQ(hot.stats().fastCalls, fast_path ? 2u : 0u);
        ASSERT_EQ(f.consumed.size(), 15u);
        EXPECT_EQ(std::memcmp(f.consumed.data(), "hotcall-payload", 15),
                  0);
    }
}

TEST(HotCalls, MuchFasterThanSdkPath)
{
    Fixture f;
    HotCallService hot(f.runtime, Kind::HotEcall, 1);
    f.run([&] {
        hot.start();
        // Warm up both paths.
        for (int i = 0; i < 50; ++i) {
            hot.call("ecall_empty", {});
            f.runtime.ecall("ecall_empty", {});
        }
        SampleSet hot_lat, sdk_lat;
        for (int i = 0; i < 1'000; ++i) {
            Cycles t0 = f.machine.now();
            hot.call("ecall_empty", {});
            hot_lat.add(static_cast<double>(f.machine.now() - t0));
            t0 = f.machine.now();
            f.runtime.ecall("ecall_empty", {});
            sdk_lat.add(static_cast<double>(f.machine.now() - t0));
        }
        // Paper: 620 vs 8,640 median -> 13-27x. Allow a wide band.
        const double speedup = sdk_lat.median() / hot_lat.median();
        EXPECT_GT(speedup, 10.0);
        EXPECT_LT(speedup, 30.0);
        EXPECT_LT(hot_lat.median(), 700.0);
        EXPECT_GT(hot_lat.median(), 300.0);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotCalls, FallbackWhenResponderSaturated)
{
    // Paper Section 4.2, "Preventing starvation": if the requester
    // cannot hand its request to the responder within `timeoutTries`
    // attempts, it falls back to the conventional SDK call. Saturate
    // the responder with a long-running call and watch a second
    // requester take the fallback path.
    Fixture f;
    f.runtime.registerEcall("ecall_empty", [&](edl::StagedCall &) {
        f.machine.engine().advance(3'000'000); // hog the responder
    });
    HotCallConfig config;
    config.timeout.timeoutTries = 3;
    HotCallService hot(f.runtime, Kind::HotEcall, 1, config);
    auto &engine = f.machine.engine();

    hot.start();
    engine.spawn("hog", 2, [&] {
        hot.call("ecall_empty", {}); // occupies the responder long
    });
    engine.spawn("victim", 3, [&] {
        engine.sleepFor(200'000); // responder is mid-call now
        const std::uint64_t r = hot.call(
            "ecall_add", {edl::Arg::value(1), edl::Arg::value(2)});
        EXPECT_EQ(r, 3u); // still served, via the SDK fallback
        EXPECT_GE(hot.stats().fallbacks, 1u);
        hot.stop();
        engine.stop();
    });
    engine.run();
}

TEST(HotCalls, FallbackCountedOncePerLogicalCall)
{
    // Regression: however many back-to-back attempts expire, one
    // logical call that takes the SDK path must count exactly ONE
    // fallback — while timeoutAttempts records every expired attempt
    // individually.
    Fixture f;
    f.runtime.registerEcall("ecall_empty", [&](edl::StagedCall &) {
        f.machine.engine().advance(3'000'000); // hog the responder
    });
    HotCallConfig config;
    config.timeout.timeoutTries = 7;
    HotCallService hot(f.runtime, Kind::HotEcall, 1, config);
    auto &engine = f.machine.engine();

    hot.start();
    engine.spawn("hog", 2, [&] {
        hot.call("ecall_empty", {});
    });
    engine.spawn("victim", 3, [&] {
        engine.sleepFor(200'000); // responder is mid-call now
        const std::uint64_t r = hot.call(
            "ecall_add", {edl::Arg::value(20), edl::Arg::value(22)});
        EXPECT_EQ(r, 42u);
        // The victim burned all its attempts on the busy channel:
        // every one counted as an expired attempt, the call as a
        // single fallback.
        EXPECT_EQ(hot.stats().fallbacks, 1u);
        EXPECT_EQ(hot.stats().timeoutAttempts,
                  static_cast<std::uint64_t>(config.timeout.timeoutTries));
        hot.stop();
        engine.stop();
    });
    engine.run();
}

// ----------------------------------------------------------------------
// A call issued after stop(): the responders have exited, so nothing
// would ever serve it on the channel. It must take the SDK path at
// once — not wait for Sentinel to reclaim it (guard on) or for the
// engine to stop (guard off).
// ----------------------------------------------------------------------

namespace {

/**
 * Serve one call on @p channel and stop it, then time one SDK call and
 * one call on the stopped channel (ecall_add or ocall_double, by its
 * kind). A watchdog stops the engine should the call wait for a
 * responder.
 */
void
expectCallAfterStopTakesSdk(Fixture &f, Channel &channel,
                            const ChannelStats &stats)
{
    const bool ocall = channel.kind() == Kind::HotOcall;
    const char *name = ocall ? "ocall_double" : "ecall_add";
    const edl::Args args = ocall ? edl::Args{edl::Arg::value(21)}
                                 : edl::Args{edl::Arg::value(40),
                                             edl::Arg::value(2)};
    std::uint64_t retval = 0;
    Cycles sdk_cycles = 0, hot_cycles = 0;
    f.run([&] {
        auto &engine = f.machine.engine();
        engine.spawn("watchdog", 7, [&] {
            engine.sleepUntil(50'000'000);
            engine.stop();
        });
        channel.start();
        const auto calls = [&] {
            EXPECT_EQ(channel.call(name, args), 42u); // served
            channel.stop();
            const auto sdk = [&] {
                return ocall ? f.runtime.ocall(name, args)
                             : f.runtime.ecall(name, args);
            };
            sdk(); // warm the SDK path
            Cycles start = f.machine.now();
            EXPECT_EQ(sdk(), 42u);
            sdk_cycles = f.machine.now() - start;
            start = f.machine.now();
            retval = channel.call(name, args);
            hot_cycles = f.machine.now() - start;
        };
        if (ocall)
            f.inEnclave(calls);
        else
            calls();
        engine.stop();
    });
    EXPECT_EQ(retval, 42u);
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_EQ(stats.fallbacks, 1u);
    EXPECT_EQ(stats.timeoutAttempts, 0u);
    EXPECT_EQ(stats.aborts, 0u);
    // One SDK call plus glue, not a reclaim deadline.
    EXPECT_LE(hot_cycles, sdk_cycles + 200);
}

} // anonymous namespace

TEST(HotCalls, CallAfterStopGoesStraightToSdk)
{
    for (const Kind kind : {Kind::HotEcall, Kind::HotOcall}) {
        for (const bool guard : {true, false}) {
            SCOPED_TRACE(std::string(kind == Kind::HotEcall ? "HotEcall"
                                                            : "HotOcall") +
                         (guard ? " guard on" : " guard off"));
            {
                SCOPED_TRACE("HotCallService");
                Fixture f(guard);
                HotCallService line(f.runtime, kind, 1);
                expectCallAfterStopTakesSdk(f, line, line.stats());
            }
            {
                SCOPED_TRACE("HotQueue");
                Fixture f(guard);
                HotQueueConfig config;
                config.responderCores = {1};
                HotQueue ring(f.runtime, kind, config);
                expectCallAfterStopTakesSdk(f, ring, ring.stats());
            }
        }
    }
}

TEST(HotCalls, SharedResponderServesManyRequesters)
{
    Fixture f;
    HotCallService hot(f.runtime, Kind::HotEcall, 1);
    auto &engine = f.machine.engine();
    std::uint64_t sum = 0;
    int done = 0;
    constexpr int kRequesters = 4;
    constexpr int kCallsEach = 200;

    hot.start();
    for (int r = 0; r < kRequesters; ++r) {
        engine.spawn("req" + std::to_string(r), 2 + r, [&, r] {
            for (int i = 0; i < kCallsEach; ++i) {
                sum += hot.call(
                    "ecall_add",
                    {edl::Arg::value(static_cast<std::uint64_t>(r)),
                     edl::Arg::value(static_cast<std::uint64_t>(i))});
            }
            if (++done == kRequesters) {
                hot.stop();
                engine.stop();
            }
        });
    }
    engine.run();

    std::uint64_t expected = 0;
    for (int r = 0; r < kRequesters; ++r)
        for (int i = 0; i < kCallsEach; ++i)
            expected += static_cast<std::uint64_t>(r + i);
    EXPECT_EQ(sum, expected);
    EXPECT_EQ(hot.stats().calls + hot.stats().fallbacks,
              static_cast<std::uint64_t>(kRequesters * kCallsEach));
}

TEST(HotCalls, ResponderSleepsWhenIdleAndWakes)
{
    Fixture f;
    HotCallConfig config;
    config.responderSleep = true;
    config.idlePollsBeforeSleep = 100;
    HotCallService hot(f.runtime, Kind::HotEcall, 1, config);
    f.run([&] {
        hot.start();
        // Let the responder go idle long enough to park.
        f.machine.engine().sleepFor(3'000'000);
        EXPECT_GE(hot.stats().responderSleeps, 1u);

        // A call while parked must wake it and still succeed.
        EXPECT_EQ(hot.call("ecall_add",
                           {edl::Arg::value(5), edl::Arg::value(6)}),
                  11u);
        EXPECT_GE(hot.stats().wakeups, 1u);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotCalls, SleepingResponderWokenOncePerBurst)
{
    // The sleeping_ handoff happens under sleepMutex_: within one
    // back-to-back burst only the first call finds the responder
    // parked, every later call sees it awake — exactly one wakeup
    // (and one condvar signal) per burst, never one per call.
    Fixture f;
    HotCallConfig config;
    config.responderSleep = true;
    config.idlePollsBeforeSleep = 100;
    HotCallService hot(f.runtime, Kind::HotEcall, 1, config);
    f.run([&] {
        hot.start();
        f.machine.engine().sleepFor(3'000'000); // let it park
        EXPECT_GE(hot.stats().responderSleeps, 1u);
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(
                hot.call("ecall_add",
                         {edl::Arg::value(
                              static_cast<std::uint64_t>(i)),
                          edl::Arg::value(1)}),
                static_cast<std::uint64_t>(i) + 1);
        }
        EXPECT_EQ(hot.stats().wakeups, 1u);

        // Idle again: it re-parks; a second burst wakes it once more.
        f.machine.engine().sleepFor(3'000'000);
        EXPECT_GE(hot.stats().responderSleeps, 2u);
        for (int i = 0; i < 8; ++i)
            hot.call("ecall_empty", {});
        EXPECT_EQ(hot.stats().wakeups, 2u);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotCalls, DestructionJoinsResponder)
{
    // ~HotCallService must stop() and join the responder before
    // freeing the channel line: after the scope below the line is
    // gone, so a responder still polling it would read freed memory.
    Fixture f;
    f.run([&] {
        {
            HotCallService hot(f.runtime, Kind::HotEcall, 1);
            hot.start();
            EXPECT_EQ(hot.call("ecall_add", {edl::Arg::value(20),
                                             edl::Arg::value(22)}),
                      42u);
            hot.stop();
            hot.stop(); // idempotent
        } // destructor (re-)stops and frees the channel line
        f.machine.engine().sleepFor(100'000);
        {
            // No explicit stop at all: the destructor joins.
            HotCallService hot(f.runtime, Kind::HotOcall, 2);
            hot.start();
            f.machine.engine().sleepFor(10'000);
        }
        f.machine.engine().sleepFor(100'000);
        f.machine.engine().stop();
    });
}

TEST(HotCalls, DestroyAfterEngineRunFreesChannelLine)
{
    // stop() mid-run strands the responder frozen in its poll loop,
    // never reaching Done. Destroying the service afterwards must
    // still free the channel line — once Engine::run() has returned,
    // no fiber can ever touch it again. The destructor used to skip
    // the free whenever the responder was not Done and leak the line.
    Fixture f;
    const std::uint64_t baseline =
        f.machine.space().untrusted().bytesInUse();
    {
        HotCallService hot(f.runtime, Kind::HotEcall, 1);
        EXPECT_GT(f.machine.space().untrusted().bytesInUse(), baseline);
        f.run([&] {
            hot.start();
            EXPECT_EQ(hot.call("ecall_add", {edl::Arg::value(40),
                                             edl::Arg::value(2)}),
                      42u);
            f.machine.engine().stop(); // strand the responder mid-poll
        });
    } // destructor runs outside the simulation
    EXPECT_EQ(f.machine.space().untrusted().bytesInUse(), baseline);
}

TEST(HotCalls, AbortedRunUnblocksRequesterMidCall)
{
    // A responder stuck forever inside a handler never clears the
    // busy flag. When stop() is then requested from an interrupt
    // while the spinning requester is the only runnable fiber left,
    // the completion wait must bail out (bounded, like the join loop
    // in stop()) — it used to spin on the flag forever, keeping the
    // host process alive.
    mem::MachineConfig config;
    config.engine.numCores = 4;
    config.engine.interruptMeanCycles = 50'000;
    mem::Machine machine(config);
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "hot-abort", kEdl, 4);
    sim::WaitQueue never;
    runtime.registerEcall("ecall_add", [&](edl::StagedCall &) {
        machine.engine().wait(never); // blocks forever
    });
    machine.engine().setInterruptHandler(
        [&](CoreId, Cycles now) -> Cycles {
            if (now > 1'000'000)
                machine.engine().stop();
            return 0;
        });

    HotCallService hot(runtime, Kind::HotEcall, 1);
    bool returned = false;
    machine.engine().spawn("app", 0, [&] {
        hot.start();
        hot.call("ecall_add",
                 {edl::Arg::value(1), edl::Arg::value(2)});
        returned = true;
    });
    machine.engine().run();
    EXPECT_TRUE(returned);
    EXPECT_EQ(hot.stats().aborts, 1u);
    EXPECT_EQ(hot.stats().calls, 0u);
}

TEST(HotCalls, IdleResponderBurnsFewCyclesPerPoll)
{
    Fixture f;
    HotCallService hot(f.runtime, Kind::HotEcall, 1);
    f.run([&] {
        hot.start();
        f.machine.engine().sleepFor(1'000'000);
        const auto &stats = hot.stats();
        // Idle polling should be dominated by PAUSE + an owned-line
        // probe: well under 150 cycles per poll.
        const double per_poll =
            1'000'000.0 / static_cast<double>(stats.responderPolls);
        EXPECT_LT(per_poll, 150.0);
        EXPECT_GT(per_poll, 30.0);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotCalls, BusyCyclesAccounted)
{
    Fixture f;
    HotCallService hot(f.runtime, Kind::HotOcall, 2);
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            for (int i = 0; i < 10; ++i)
                hot.call("ocall_double", {edl::Arg::value(7)});
        });
        EXPECT_GT(hot.stats().responderBusyCycles, 0u);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotCalls, DeterministicAcrossRuns)
{
    auto run_once = [](std::uint64_t seed) {
        Fixture f; // fixed engine seed inside
        (void)seed;
        HotCallService hot(f.runtime, Kind::HotEcall, 1);
        std::vector<Cycles> latencies;
        f.run([&] {
            hot.start();
            for (int i = 0; i < 200; ++i) {
                const Cycles t0 = f.machine.now();
                hot.call("ecall_add",
                         {edl::Arg::value(1), edl::Arg::value(2)});
                latencies.push_back(f.machine.now() - t0);
            }
            hot.stop();
            f.machine.engine().stop();
        });
        return latencies;
    };
    EXPECT_EQ(run_once(1), run_once(1));
}

TEST(HotOcall, NrzChangesCostNotData)
{
    // With No-Redundant-Zeroing the out-buffer contents delivered to
    // the enclave are identical; only the zeroing cycles disappear.
    // Pinned to the legacy data plane: its byte-wise memset is what
    // NRZ elides (the FastPath plane zeroes word-wise to begin with,
    // so the delta there is two orders of magnitude smaller).
    auto run_once = [](bool nrz) {
        Fixture f(true, {.noRedundantZeroing = nrz});
        HotCallConfig config;
        config.fastPath = 0;
        HotCallService hot(f.runtime, Kind::HotOcall, 2, config);
        std::vector<std::uint8_t> data;
        Cycles cost = 0;
        f.run([&] {
            hot.start();
            f.inEnclave([&] {
                mem::Buffer out(f.machine, mem::Domain::Epc, 2048);
                for (int i = 0; i < 5; ++i) { // warm
                    hot.call("ocall_fill", {edl::Arg::buffer(out),
                                            edl::Arg::value(2048)});
                }
                const Cycles t0 = f.machine.now();
                hot.call("ocall_fill", {edl::Arg::buffer(out),
                                        edl::Arg::value(2048)});
                cost = f.machine.now() - t0;
                data.assign(out.data(), out.data() + 2048);
            });
            hot.stop();
            f.machine.engine().stop();
        });
        return std::make_pair(cost, data);
    };
    const auto plain = run_once(false);
    const auto nrz = run_once(true);
    EXPECT_EQ(plain.second, nrz.second); // same bytes delivered
    // The 2 KiB byte-wise memset (~2.5k cycles) is gone.
    EXPECT_GT(plain.first, nrz.first + 2'000);
}
