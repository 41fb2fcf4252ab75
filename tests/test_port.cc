/**
 * @file
 * Porting-framework tests: the libc surface behaves identically in
 * all three modes, RunEnclaveFunction dispatches correctly, call
 * counters match Table 2 bookkeeping, and the import check plays
 * the linker.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "port/port.hh"

using namespace hc;
using namespace hc::port;

namespace {

struct Fixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    os::Kernel kernel;
    PortedApp app;

    explicit Fixture(Mode mode, edl::MarshalOptions marshal = {},
                     bool fast_path = true)
        : machine([] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              return config;
          }()),
          platform(machine), kernel(machine),
          app(platform, kernel, "test-app", [&] {
              PortConfig config;
              config.mode = mode;
              config.marshal = marshal;
              config.fastPath = fast_path;
              config.hotEcallCore = 1;
              config.hotOcallCore = 2;
              return config;
          }())
    {
    }

    void run(std::function<void()> body)
    {
        machine.engine().spawn("app", 0, [this, body] {
            app.startHotCalls();
            if (app.mode() == Mode::Native) {
                body();
            } else {
                // App code runs inside the enclave via the main ecall.
                const int fn = app.registerFunction(
                    [body](std::uint64_t) { body(); });
                app.runEnclaveFunction(fn, 0);
            }
            app.stopHotCalls();
            machine.engine().stop();
        });
        machine.engine().run();
    }
};

/** The functional scenario every mode must execute identically. */
void
exerciseSurface(Fixture &f)
{
    auto &app = f.app;
    f.kernel.addFile("/doc", {'d', 'o', 'c', '!'});

    // Files.
    const int file = static_cast<int>(app.open("/doc"));
    ASSERT_GE(file, 0);
    std::uint64_t size = 0;
    EXPECT_EQ(app.fstat(file, &size), 0);
    EXPECT_EQ(size, 4u);
    mem::Buffer buf(f.machine, app.dataDomain(), 64);
    EXPECT_EQ(app.read(file, buf, 64), 4);
    EXPECT_EQ(std::memcmp(buf.data(), "doc!", 4), 0);
    EXPECT_EQ(app.close(file), 0);

    // TCP loopback.
    const int listener = static_cast<int>(app.listen(7777));
    const int client = f.kernel.connectTcp(7777);
    const int server = static_cast<int>(app.accept(listener));
    ASSERT_GE(server, 0);
    const char *msg = "ping";
    f.kernel.send(client,
                  reinterpret_cast<const std::uint8_t *>(msg), 4);
    EXPECT_EQ(app.recv(server, buf, 64), 4);
    EXPECT_EQ(std::memcmp(buf.data(), "ping", 4), 0);
    std::memcpy(buf.data(), "pong", 4);
    EXPECT_EQ(app.send(server, buf, 4), 4);
    std::uint8_t reply[8];
    EXPECT_EQ(f.kernel.recv(client, reply, 8), 4);
    EXPECT_EQ(std::memcmp(reply, "pong", 4), 0);

    // Readiness.
    const int epfd = static_cast<int>(app.epollCreate());
    EXPECT_EQ(app.epollCtlAdd(epfd, server), 0);
    std::vector<int> ready;
    EXPECT_EQ(app.epollWait(epfd, ready, 8, 0), 0);
    f.kernel.send(client,
                  reinterpret_cast<const std::uint8_t *>(msg), 4);
    EXPECT_EQ(app.epollWait(epfd, ready, 8, 0), 1);
    EXPECT_EQ(ready[0], server);
    EXPECT_EQ(app.poll({server}, ready, 0), 1);
    EXPECT_EQ(app.epollCtlDel(epfd, server), 0);

    // Misc libc.
    EXPECT_EQ(app.getpid(), 4242);
    EXPECT_GE(app.time(), 0);
    EXPECT_GE(app.gettimeofday(), 0);
    app.inetNtop(0x7f000001u);
    app.inetAddr(1);
    app.fcntl(server, 1);
    app.setsockopt(server, 1);
    app.ioctl(server, 1);
    app.shutdown(server);
}

} // anonymous namespace

TEST(Port, SurfaceWorksNative)
{
    Fixture f(Mode::Native);
    f.run([&] { exerciseSurface(f); });
}

TEST(Port, SurfaceWorksSgx)
{
    Fixture f(Mode::Sgx);
    f.run([&] { exerciseSurface(f); });
}

TEST(Port, SurfaceWorksSgxHotCalls)
{
    for (const bool fast_path : {true, false}) {
        SCOPED_TRACE(fast_path ? "fastPath on" : "fastPath off");
        Fixture f(Mode::SgxHotCalls, {}, fast_path);
        f.run([&] { exerciseSurface(f); });
    }
}

TEST(Port, SurfaceWorksWithNoRedundantZeroing)
{
    for (const bool fast_path : {true, false}) {
        SCOPED_TRACE(fast_path ? "fastPath on" : "fastPath off");
        Fixture f(Mode::SgxHotCalls, {.noRedundantZeroing = true},
                  fast_path);
        f.run([&] { exerciseSurface(f); });
    }
}

TEST(Port, RunEnclaveFunctionDispatchesArg)
{
    for (Mode mode :
         {Mode::Native, Mode::Sgx, Mode::SgxHotCalls}) {
        Fixture f(mode);
        std::uint64_t seen = 0;
        const int fn = f.app.registerFunction(
            [&](std::uint64_t arg) { seen = arg; });
        f.machine.engine().spawn("driver", 0, [&] {
            f.app.startHotCalls();
            f.app.runEnclaveFunction(fn, 0xdead);
            f.app.stopHotCalls();
            f.machine.engine().stop();
        });
        f.machine.engine().run();
        EXPECT_EQ(seen, 0xdeadu) << modeName(mode);
    }
}

TEST(Port, CountersMatchCallMix)
{
    Fixture f(Mode::Sgx);
    f.run([&] {
        mem::Buffer buf(f.machine, f.app.dataDomain(), 64);
        f.kernel.addFile("/c", {'c'});
        const int file = static_cast<int>(f.app.open("/c"));
        f.app.read(file, buf, 64);
        f.app.read(file, buf, 64);
        f.app.getpid();
        f.app.getpid();
        f.app.getpid();
    });
    const auto counts = f.app.callCounts();
    EXPECT_EQ(counts.at("read"), 2u);
    EXPECT_EQ(counts.at("getpid"), 3u);
    EXPECT_EQ(counts.at("open"), 1u);
    // The main ecall shows up under the paper's name.
    EXPECT_EQ(counts.at("RunEnclaveFucntion"), 1u);
}

TEST(Port, ResetCountersClears)
{
    Fixture f(Mode::Native);
    f.run([&] {
        f.app.getpid();
        EXPECT_EQ(f.app.callCounts().at("getpid"), 1u);
        f.app.resetCounters();
        EXPECT_TRUE(f.app.callCounts().empty());
    });
}

TEST(Port, DataDomainFollowsMode)
{
    Fixture native(Mode::Native);
    Fixture sgx(Mode::Sgx);
    EXPECT_EQ(native.app.dataDomain(), mem::Domain::Untrusted);
    EXPECT_EQ(sgx.app.dataDomain(), mem::Domain::Epc);
}

TEST(Port, DeclareImportsAcceptsKnown)
{
    Fixture f(Mode::Sgx);
    f.app.declareImports({"read", "write", "sendmsg", "poll", "time",
                          "getpid", "sendfile", "epoll_wait"});
}

TEST(PortDeathTest, DeclareImportsRejectsUnknown)
{
    Fixture f(Mode::Sgx);
    EXPECT_EXIT(f.app.declareImports({"read", "mmap", "fork"}),
                ::testing::ExitedWithCode(1), "undefined reference");
}

TEST(Port, SgxModeIsSlowerThanNative)
{
    Cycles native_cost = 0, sgx_cost = 0;
    {
        Fixture f(Mode::Native);
        f.run([&] {
            const Cycles t0 = f.machine.now();
            for (int i = 0; i < 50; ++i)
                f.app.getpid();
            native_cost = f.machine.now() - t0;
        });
    }
    {
        Fixture f(Mode::Sgx);
        f.run([&] {
            const Cycles t0 = f.machine.now();
            for (int i = 0; i < 50; ++i)
                f.app.getpid();
            sgx_cost = f.machine.now() - t0;
        });
    }
    // Each getpid becomes an ~8.3k-cycle ocall instead of a 150-cycle
    // syscall (the paper's 54x).
    EXPECT_GT(sgx_cost, native_cost * 20);
}

TEST(Port, HotCallsRecoverMostOfTheGap)
{
    Cycles sgx_cost = 0, hot_cost = 0;
    {
        Fixture f(Mode::Sgx);
        f.run([&] {
            const Cycles t0 = f.machine.now();
            for (int i = 0; i < 50; ++i)
                f.app.getpid();
            sgx_cost = f.machine.now() - t0;
        });
    }
    {
        Fixture f(Mode::SgxHotCalls);
        f.run([&] {
            for (int i = 0; i < 10; ++i)
                f.app.getpid(); // warm the channel
            const Cycles t0 = f.machine.now();
            for (int i = 0; i < 50; ++i)
                f.app.getpid();
            hot_cost = f.machine.now() - t0;
        });
    }
    EXPECT_GT(sgx_cost, hot_cost * 8);
}

TEST(Port, UtilitiesInEnclaveSkipOcalls)
{
    Fixture f(Mode::Sgx);
    // Flip the §6.3/§6.4 optimization on.
    PortConfig config;
    config.mode = Mode::Sgx;
    config.utilitiesInEnclave = true;
    PortedApp app(f.platform, f.kernel, "utils", config);

    f.machine.engine().spawn("driver", 3, [&] {
        const int fn = app.registerFunction([&](std::uint64_t) {
            const Cycles t0 = f.machine.now();
            app.inetNtop(0x7f000001u);
            const Cycles in_enclave = f.machine.now() - t0;
            // In-enclave: a couple hundred cycles, no ocall.
            EXPECT_LT(in_enclave, 1'000u);
            app.inetAddr(7);
        });
        app.runEnclaveFunction(fn, 0);
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    const auto counts = app.callCounts();
    EXPECT_EQ(counts.count("inet_ntop"), 0u); // no ocall recorded
    EXPECT_EQ(counts.at("inet_ntop(enclave)"), 1u);
    EXPECT_EQ(counts.at("inet_addr(enclave)"), 1u);
}

TEST(Port, OcallChargesFarMoreThanUtilityCall)
{
    Fixture f(Mode::Sgx);
    Cycles ocall_cost = 0;
    f.run([&] {
        const Cycles t0 = f.machine.now();
        f.app.inetNtop(0x7f000001u); // via ocall in this config
        ocall_cost = f.machine.now() - t0;
    });
    EXPECT_GT(ocall_cost, 8'000u);
}
