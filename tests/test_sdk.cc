/**
 * @file
 * SDK runtime tests: the composed ecall/ocall paths (functional
 * behaviour and calibrated costs), call counters, TCS handling, and
 * the trusted synchronization primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>

#include "mem/buffer.hh"
#include "support/stats.hh"
#include "sdk/runtime.hh"
#include "sdk/thread_sync.hh"

using namespace hc;
using namespace hc::sdk;

namespace {

const char *kTestEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_add(uint64_t a, uint64_t b);
            public void ecall_fill([out, size=len] uint8_t* buf,
                                   size_t len);
            public uint64_t ecall_with_ocall(uint64_t x);
            public void ecall_empty();
        };
        untrusted {
            uint64_t ocall_double(uint64_t v);
            void ocall_empty();
            void ocall_sink([in, size=len] uint8_t* buf, size_t len);
        };
    };
)";

struct Fixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    EnclaveRuntime runtime;

    explicit Fixture(edl::MarshalOptions options = {})
        : platform(machine),
          runtime(platform, "test-enclave", kTestEdl, 4, options)
    {
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerEcall("ecall_fill", [](edl::StagedCall &c) {
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                c.data(0)[i] = static_cast<std::uint8_t>(i & 0xff);
        });
        runtime.registerEcall(
            "ecall_with_ocall", [this](edl::StagedCall &c) {
                const std::uint64_t doubled = runtime.ocall(
                    "ocall_double", {edl::Arg::value(c.scalar(0))});
                c.setRetval(doubled + 1);
            });
        runtime.registerOcall("ocall_double", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) * 2);
        });
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_sink", [](edl::StagedCall &) {});
    }

    void run(std::function<void()> body)
    {
        machine.engine().spawn("test", 0, std::move(body));
        machine.engine().run();
    }
};

} // anonymous namespace

// ----------------------------------------------------------------------
// Functional behaviour.
// ----------------------------------------------------------------------

TEST(Runtime, EcallReturnsValue)
{
    Fixture f;
    f.run([&] {
        EXPECT_EQ(f.runtime.ecall("ecall_add", {edl::Arg::value(20),
                                                edl::Arg::value(22)}),
                  42u);
    });
}

TEST(Runtime, EcallOutBufferDelivered)
{
    Fixture f;
    f.run([&] {
        mem::Buffer buf(f.machine, mem::Domain::Untrusted, 64);
        f.runtime.ecall("ecall_fill",
                        {edl::Arg::buffer(buf), edl::Arg::value(64)});
        for (int i = 0; i < 64; ++i)
            EXPECT_EQ(buf.data()[i], i);
    });
}

TEST(Runtime, NestedOcallInsideEcall)
{
    Fixture f;
    f.run([&] {
        EXPECT_EQ(f.runtime.ecall("ecall_with_ocall",
                                  {edl::Arg::value(10)}),
                  21u);
        // Mode unwound correctly.
        EXPECT_FALSE(f.platform.inEnclave(0));
    });
}

TEST(Runtime, OcallOutsideEnclaveFaults)
{
    Fixture f;
    f.run([&] {
        EXPECT_THROW(f.runtime.ocall("ocall_empty", {}),
                     sgx::SgxFault);
    });
}

TEST(Runtime, CountsCalls)
{
    Fixture f;
    f.run([&] {
        f.runtime.ecall("ecall_empty", {});
        f.runtime.ecall("ecall_empty", {});
        f.runtime.ecall("ecall_with_ocall", {edl::Arg::value(1)});
        const auto id = f.runtime.ecallId("ecall_empty");
        EXPECT_EQ(f.runtime.ecallCounts()[static_cast<std::size_t>(
                      id)],
                  2u);
        const auto oid = f.runtime.ocallId("ocall_double");
        EXPECT_EQ(f.runtime.ocallCounts()[static_cast<std::size_t>(
                      oid)],
                  1u);
        f.runtime.resetCounters();
        EXPECT_EQ(f.runtime.ecallCounts()[static_cast<std::size_t>(
                      id)],
                  0u);
    });
}

TEST(Runtime, NamesRoundtrip)
{
    Fixture f;
    const int id = f.runtime.ecallId("ecall_add");
    EXPECT_EQ(f.runtime.ecallName(id), "ecall_add");
    const int oid = f.runtime.ocallId("ocall_sink");
    EXPECT_EQ(f.runtime.ocallName(oid), "ocall_sink");
}

// ----------------------------------------------------------------------
// Calibrated costs (Table 1 anchors, warm cache).
// ----------------------------------------------------------------------

TEST(Runtime, WarmEcallNearPaperMedian)
{
    Fixture f;
    f.run([&] {
        // Warm up.
        for (int i = 0; i < 50; ++i)
            f.runtime.ecall("ecall_empty", {});
        SampleSet samples;
        for (int i = 0; i < 500; ++i) {
            const Cycles t0 = f.machine.now();
            f.runtime.ecall("ecall_empty", {});
            samples.add(static_cast<double>(f.machine.now() - t0));
        }
        EXPECT_NEAR(samples.median(), 8'640.0, 200.0);
    });
}

TEST(Runtime, WarmOcallNearPaperMedian)
{
    Fixture f;
    f.runtime.registerEcall("ecall_empty", [&](edl::StagedCall &) {
        SampleSet samples;
        for (int i = 0; i < 500; ++i) {
            const Cycles t0 = f.machine.now();
            f.runtime.ocall("ocall_empty", {});
            samples.add(static_cast<double>(f.machine.now() - t0));
        }
        EXPECT_NEAR(samples.median(), 8'314.0, 200.0);
    });
    f.run([&] { f.runtime.ecall("ecall_empty", {}); });
}

TEST(Runtime, ColdEcallCostsMore)
{
    Fixture f;
    f.run([&] {
        for (int i = 0; i < 20; ++i)
            f.runtime.ecall("ecall_empty", {});
        SampleSet warm, cold;
        for (int i = 0; i < 200; ++i) {
            Cycles t0 = f.machine.now();
            f.runtime.ecall("ecall_empty", {});
            warm.add(static_cast<double>(f.machine.now() - t0));
        }
        for (int i = 0; i < 200; ++i) {
            f.machine.memory().evictAll();
            const Cycles t0 = f.machine.now();
            f.runtime.ecall("ecall_empty", {});
            cold.add(static_cast<double>(f.machine.now() - t0));
        }
        EXPECT_GT(cold.median(), warm.median() + 4'000);
        EXPECT_NEAR(cold.median(), 14'170.0, 1'200.0);
    });
}

// ----------------------------------------------------------------------
// sgx_thread_mutex / cond.
// ----------------------------------------------------------------------

TEST(ThreadSync, MutexBlocksSecondFiber)
{
    mem::Machine machine;
    auto &engine = machine.engine();
    SgxThreadMutex mutex(machine);
    std::vector<int> order;
    engine.spawn("first", 0, [&] {
        mutex.lock();
        order.push_back(1);
        engine.sleepFor(10'000);
        order.push_back(2);
        mutex.unlock();
    });
    engine.spawn("second", 1, [&] {
        engine.sleepFor(100);
        mutex.lock();
        order.push_back(3);
        mutex.unlock();
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadSync, CondSignalWakesWaiter)
{
    mem::Machine machine;
    auto &engine = machine.engine();
    SgxThreadMutex mutex(machine);
    SgxThreadCond cond(machine);
    bool flag = false;
    Cycles woke_at = 0;
    engine.spawn("waiter", 0, [&] {
        mutex.lock();
        while (!flag)
            cond.wait(mutex);
        woke_at = engine.now();
        mutex.unlock();
    });
    engine.spawn("signaler", 1, [&] {
        engine.sleepFor(5'000);
        mutex.lock();
        flag = true;
        cond.signal();
        mutex.unlock();
    });
    engine.run();
    EXPECT_GE(woke_at, 5'000u);
}

TEST(ThreadSync, CondWaitUntilTimesOut)
{
    mem::Machine machine;
    auto &engine = machine.engine();
    SgxThreadMutex mutex(machine);
    SgxThreadCond cond(machine);
    bool signalled = true;
    engine.spawn("waiter", 0, [&] {
        mutex.lock();
        signalled = cond.waitUntil(mutex, 2'000);
        mutex.unlock();
    });
    engine.run();
    EXPECT_FALSE(signalled);
}

TEST(ThreadSync, BroadcastWakesAll)
{
    mem::Machine machine;
    auto &engine = machine.engine();
    SgxThreadMutex mutex(machine);
    SgxThreadCond cond(machine);
    int woken = 0;
    for (int i = 0; i < 4; ++i) {
        engine.spawn("waiter" + std::to_string(i), i % 2, [&] {
            mutex.lock();
            cond.wait(mutex);
            ++woken;
            mutex.unlock();
        });
    }
    engine.spawn("caster", 2, [&] {
        engine.sleepFor(1'000);
        mutex.lock();
        cond.broadcast();
        mutex.unlock();
    });
    engine.run();
    EXPECT_EQ(woken, 4);
}

// ----------------------------------------------------------------------
// TCS pool under concurrency.
// ----------------------------------------------------------------------

TEST(Runtime, ConcurrentEcallsShareTcsPool)
{
    // More concurrent callers than TCSs: everyone must eventually be
    // served (acquireTcsBlocking backs off politely).
    mem::MachineConfig machine_config;
    machine_config.engine.numCores = 8;
    mem::Machine machine(machine_config);
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "tcs-test", R"(
        enclave {
            trusted { public void ecall_spin(uint64_t cycles); };
            untrusted {};
        };
    )", /*num_tcs=*/2);
    runtime.registerEcall("ecall_spin", [&](edl::StagedCall &c) {
        machine.engine().advance(c.scalar(0));
    });

    int completed = 0;
    for (int t = 0; t < 6; ++t) {
        machine.engine().spawn(
            "caller" + std::to_string(t), t % 7, [&] {
                for (int i = 0; i < 20; ++i) {
                    runtime.ecall("ecall_spin",
                                  {edl::Arg::value(20'000)});
                }
                ++completed;
            });
    }
    machine.engine().run();
    EXPECT_EQ(completed, 6);
}

TEST(RuntimeDeathTest, UnknownNamesAreFatal)
{
    Fixture f;
    EXPECT_EXIT(f.runtime.ecallId("no_such_ecall"),
                ::testing::ExitedWithCode(1), "unknown ecall");
    EXPECT_EXIT(f.runtime.ocallId("no_such_ocall"),
                ::testing::ExitedWithCode(1), "unknown ocall");
    EXPECT_EXIT(f.runtime.registerEcall("nope",
                                        [](edl::StagedCall &) {}),
                ::testing::ExitedWithCode(1), "unknown ecall");
}

TEST(RuntimeDeathTest, UnregisteredImplementationIsFatal)
{
    mem::Machine machine;
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "unbound", R"(
        enclave {
            trusted { public void ecall_unbound(); };
            untrusted {};
        };
    )");
    EXPECT_EXIT(
        {
            machine.engine().spawn("t", 0, [&] {
                runtime.ecall("ecall_unbound", {});
            });
            machine.engine().run();
        },
        ::testing::ExitedWithCode(1), "no registered implementation");
}
