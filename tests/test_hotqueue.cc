/**
 * @file
 * HotQueue tests: functional round trips in both directions through
 * the multi-slot ring, concurrent requesters with batching, the
 * ring-full fallback, adaptive pool scale-up/scale-down, teardown,
 * and determinism.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

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

    Fixture()
        : machine([] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              return config;
          }()),
          platform(machine),
          runtime(platform, "hotq-test", kEdl, 4)
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

TEST(HotQueueEcall, RoundtripReturnsValue)
{
    Fixture f;
    HotQueueConfig config;
    config.responderCores = {1};
    HotQueue hot(f.runtime, Kind::HotEcall, config);
    f.run([&] {
        hot.start();
        EXPECT_EQ(hot.call("ecall_add",
                           {edl::Arg::value(40), edl::Arg::value(2)}),
                  42u);
        EXPECT_EQ(hot.stats().calls, 1u);
        EXPECT_EQ(hot.stats().fallbacks, 0u);
        EXPECT_EQ(hot.stats().batches, 1u);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotQueueOcall, RoundtripFromEnclave)
{
    Fixture f;
    HotQueueConfig config;
    config.responderCores = {2};
    HotQueue hot(f.runtime, Kind::HotOcall, config);
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

TEST(HotQueueOcall, RequiresEnclaveMode)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall);
    f.run([&] {
        hot.start();
        EXPECT_THROW(hot.call("ocall_empty", {}), sgx::SgxFault);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotQueueOcall, BuffersMarshalledBothWays)
{
    for (const bool fast_path : {true, false}) {
        SCOPED_TRACE(fast_path ? "fastPath on" : "fastPath off");
        Fixture f;
        HotQueueConfig config;
        config.fastPath = fast_path;
        HotQueue hot(f.runtime, Kind::HotOcall, config);
        f.run([&] {
            hot.start();
            f.inEnclave([&] {
                mem::Buffer out(f.machine, mem::Domain::Epc, 32);
                hot.call("ocall_fill",
                         {edl::Arg::buffer(out), edl::Arg::value(32)});
                for (int i = 0; i < 32; ++i)
                    EXPECT_EQ(out.data()[i], 0xc0 + (i & 0xf));

                mem::Buffer in(f.machine, mem::Domain::Epc, 16);
                std::memcpy(in.data(), "hotqueue-payload", 16);
                hot.call("ocall_consume",
                         {edl::Arg::buffer(in), edl::Arg::value(16)});
            });
            hot.stop();
            f.machine.engine().stop();
        });
        EXPECT_EQ(hot.stats().calls, 2u);
        EXPECT_EQ(hot.stats().fastCalls, fast_path ? 2u : 0u);
        ASSERT_EQ(f.consumed.size(), 16u);
        EXPECT_EQ(std::memcmp(f.consumed.data(), "hotqueue-payload", 16),
                  0);
    }
}

TEST(HotQueue, ManyRequestersAllServedWithBatching)
{
    Fixture f;
    HotQueueConfig config;
    config.numSlots = 4;
    config.responderCores = {1};
    HotQueue hot(f.runtime, Kind::HotEcall, config);
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
    const auto &stats = hot.stats();
    EXPECT_EQ(stats.calls + stats.fallbacks,
              static_cast<std::uint64_t>(kRequesters * kCallsEach));
    // Every ring call leaves one depth sample; with 4 concurrent
    // requesters on one responder, multi-entry batches must occur.
    EXPECT_EQ(stats.depth.total(), stats.calls);
    EXPECT_GE(stats.batchSize.max(), 2u);
    EXPECT_LE(stats.batches, stats.calls);
}

TEST(HotQueue, FallbackWhenRingSaturated)
{
    // With one slot and the only responder hogged by a long call, a
    // second requester exhausts timeoutTries and takes the SDK path,
    // which must still return the right value and be counted.
    Fixture f;
    f.runtime.registerEcall("ecall_empty", [&](edl::StagedCall &) {
        f.machine.engine().advance(3'000'000); // hog the responder
    });
    HotQueueConfig config;
    config.numSlots = 1;
    config.timeout.timeoutTries = 3;
    config.responderCores = {1};
    HotQueue hot(f.runtime, Kind::HotEcall, config);
    auto &engine = f.machine.engine();

    hot.start();
    engine.spawn("hog", 2, [&] {
        hot.call("ecall_empty", {}); // occupies slot and responder
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

TEST(HotQueue, ScaleWakeCountedOncePerLogicalCall)
{
    // Regression: a call that burns several failed claim attempts
    // back-to-back used to fire wakeOneResponder once per ATTEMPT,
    // waking (and counting a scale-up for) every parked pool member.
    // One logical call now performs at most one successful scale-up
    // wake and counts exactly one fallback, however many attempts
    // expired.
    Fixture f;
    f.runtime.registerEcall("ecall_empty", [&](edl::StagedCall &) {
        f.machine.engine().advance(3'000'000); // hog the responder
    });
    HotQueueConfig config;
    config.numSlots = 1; // the hog's slot blocks every claim
    config.timeout.timeoutTries = 8;
    config.responderCores = {1, 2, 3}; // two parked pool members
    config.minResponders = 1;
    HotQueue hot(f.runtime, Kind::HotEcall, config);
    auto &engine = f.machine.engine();

    hot.start();
    engine.spawn("hog", 4, [&] {
        hot.call("ecall_empty", {}); // occupies slot and responder
    });
    engine.spawn("victim", 5, [&] {
        engine.sleepFor(200'000); // responder is mid-call now
        const std::uint64_t r = hot.call(
            "ecall_add", {edl::Arg::value(20), edl::Arg::value(22)});
        EXPECT_EQ(r, 42u); // still served, via the SDK fallback
        // All claim attempts expired; the call counted one fallback
        // and woke ONE parked responder (the pre-fix code woke the
        // second parked member on the next attempt too).
        EXPECT_EQ(hot.stats().fallbacks, 1u);
        EXPECT_EQ(hot.stats().timeoutAttempts,
                  static_cast<std::uint64_t>(config.timeout.timeoutTries));
        EXPECT_EQ(hot.stats().scaleUps, 1u);
        EXPECT_EQ(hot.stats().wakeups, 1u);
        hot.stop();
        engine.stop();
    });
    engine.run();
}

TEST(HotQueue, AdaptivePoolScalesUpAndDown)
{
    Fixture f;
    HotQueueConfig config;
    config.numSlots = 4;
    config.responderCores = {1, 2}; // pool of 2, min 1
    config.scaleUpDepth = 2;
    config.scaleWindowPolls = 64; // fast reaction for the test
    HotQueue hot(f.runtime, Kind::HotEcall, config);
    auto &engine = f.machine.engine();

    hot.start();
    engine.spawn("driver", 7, [&] {
        // The surplus responder starts parked.
        engine.sleepFor(50'000);
        EXPECT_EQ(hot.activeResponders(), 1);

        // Burst: 3 back-to-back requesters build queue depth >= 2,
        // which wakes the parked responder (a scale-up).
        bool stop_flag = false;
        std::vector<sim::Thread *> reqs;
        for (int r = 0; r < 3; ++r) {
            reqs.push_back(engine.spawn(
                "req" + std::to_string(r), 3 + r, [&] {
                    while (!stop_flag)
                        hot.call("ecall_empty", {});
                }));
        }
        engine.sleepFor(300'000);
        EXPECT_GE(hot.stats().scaleUps, 1u);
        EXPECT_EQ(hot.activeResponders(), 2);
        stop_flag = true;
        for (auto *t : reqs) {
            while (t->state() != sim::ThreadState::Done)
                engine.advance(sdk::kPauseCycles);
        }

        // Light load: one requester with think time. The occupancy
        // window drops below the threshold and the surplus responder
        // parks again (a scale-down) — but never below minResponders.
        for (int i = 0;
             i < 500 && hot.stats().scaleDowns == 0; ++i) {
            hot.call("ecall_empty", {});
            engine.sleepFor(2'000);
        }
        EXPECT_GE(hot.stats().scaleDowns, 1u);
        EXPECT_EQ(hot.activeResponders(), 1);

        // The parked responder still wakes up for the next burst.
        EXPECT_EQ(hot.call("ecall_add", {edl::Arg::value(30),
                                         edl::Arg::value(12)}),
                  42u);
        hot.stop();
        engine.stop();
    });
    engine.run();
}

TEST(HotQueue, MuchFasterThanSdkPath)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotEcall);
    f.run([&] {
        hot.start();
        for (int i = 0; i < 50; ++i) { // warm both paths
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
        // The ring costs a few more line transfers per call than the
        // single-line channel (separate cursor and slot lines) but
        // must stay in the same order of magnitude — far below the
        // ~8.6k-cycle SDK ecall.
        const double speedup = sdk_lat.median() / hot_lat.median();
        EXPECT_GT(speedup, 7.0);
        EXPECT_LT(hot_lat.median(), 1'200.0);
        EXPECT_GT(hot_lat.median(), 300.0);
        hot.stop();
        f.machine.engine().stop();
    });
}

TEST(HotQueue, DestructionJoinsResponderPool)
{
    Fixture f;
    f.run([&] {
        {
            HotQueueConfig config;
            config.responderCores = {1, 2};
            HotQueue hot(f.runtime, Kind::HotEcall, config);
            hot.start();
            EXPECT_EQ(hot.call("ecall_add", {edl::Arg::value(40),
                                             edl::Arg::value(2)}),
                      42u);
            hot.stop();
            hot.stop(); // idempotent
        } // destructor frees the ring lines after the join
        f.machine.engine().sleepFor(100'000);
        {
            // No explicit stop: the destructor joins the whole pool
            // (including the parked surplus responder).
            HotQueueConfig config;
            config.responderCores = {1, 2};
            HotQueue hot(f.runtime, Kind::HotEcall, config);
            hot.start();
            f.machine.engine().sleepFor(10'000);
        }
        f.machine.engine().sleepFor(100'000);
        f.machine.engine().stop();
    });
}

TEST(HotQueue, DestroyAfterEngineRunFreesRingLines)
{
    // stop() mid-run strands the responder pool: the responders are
    // frozen in their loops, never reaching Done. Destroying the
    // queue afterwards must still free the ring and cursor lines —
    // once Engine::run() has returned, no fiber can ever touch them
    // again. The destructor used to bail out on the first not-Done
    // responder and leak every line.
    Fixture f;
    const std::uint64_t baseline =
        f.machine.space().untrusted().bytesInUse();
    {
        HotQueueConfig config;
        config.responderCores = {1, 2};
        HotQueue hot(f.runtime, Kind::HotEcall, config);
        EXPECT_GT(f.machine.space().untrusted().bytesInUse(), baseline);
        f.run([&] {
            hot.start();
            EXPECT_EQ(hot.call("ecall_add", {edl::Arg::value(40),
                                             edl::Arg::value(2)}),
                      42u);
            f.machine.engine().stop(); // strand the pool mid-poll
        });
    } // destructor runs outside the simulation
    EXPECT_EQ(f.machine.space().untrusted().bytesInUse(), baseline);
}

TEST(HotQueue, AbortedRunUnblocksRequesterMidCall)
{
    // A responder stuck forever inside a handler never marks the slot
    // Done. When stop() is then requested from an interrupt while the
    // spinning requester is the only runnable fiber left, the
    // completion wait must bail out (bounded, like the join loops in
    // stop()) — it used to spin on the slot state forever, keeping
    // the host process alive.
    mem::MachineConfig config;
    config.engine.numCores = 4;
    config.engine.interruptMeanCycles = 50'000;
    mem::Machine machine(config);
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "hotq-abort", kEdl, 4);
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

    HotQueueConfig qconfig;
    qconfig.responderCores = {1};
    HotQueue hot(runtime, Kind::HotEcall, qconfig);
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

TEST(HotQueue, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Fixture f; // fixed engine seed inside
        HotQueue hot(f.runtime, Kind::HotEcall);
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
    EXPECT_EQ(run_once(), run_once());
}
