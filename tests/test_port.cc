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

/**
 * What one run of exerciseSurface observed: every return value apart
 * from clock reads, the fds and sizes the calls reported, the bytes
 * the kernel still queues on each descriptor, and every byte the app
 * received.
 */
struct Transcript {
    std::vector<std::int64_t> values;
    std::string received;
};

/**
 * The functional scenario every mode must execute identically: all 30
 * libc methods, failing calls included, with each result noted in
 * @p t.
 */
void
exerciseSurface(Fixture &f, Transcript &t)
{
    auto &app = f.app;
    auto &kernel = f.kernel;
    const auto note = [&t](std::int64_t v) {
        t.values.push_back(v);
        return v;
    };
    mem::Buffer buf(f.machine, app.dataDomain(), 64);
    // Fill the app buffer with @p text; @return its length.
    const auto put = [&buf](const char *text) {
        const std::uint64_t n = std::strlen(text);
        std::memcpy(buf.data(), text, n);
        return n;
    };
    // Note a receive's result and the bytes it delivered.
    const auto got = [&](std::int64_t n) {
        note(n);
        if (n > 0)
            t.received.append(reinterpret_cast<const char *>(buf.data()),
                              static_cast<std::size_t>(n));
        return n;
    };

    // Files.
    kernel.addFile("/doc", {'d', 'o', 'c', '!'});
    const int file = static_cast<int>(note(app.open("/doc")));
    ASSERT_GE(file, 0);
    EXPECT_EQ(note(app.open("/missing")), os::kEnoent);
    std::uint64_t size = 0;
    EXPECT_EQ(note(app.fstat(file, &size)), 0);
    EXPECT_EQ(note(static_cast<std::int64_t>(size)), 4);
    EXPECT_EQ(got(app.read(file, buf, 64)), 4);
    EXPECT_EQ(std::memcmp(buf.data(), "doc!", 4), 0);
    EXPECT_EQ(note(app.write(file, buf, put("++"))), 2);
    EXPECT_EQ(note(app.fstat(file, &size)), 0);
    EXPECT_EQ(note(static_cast<std::int64_t>(size)), 6);
    EXPECT_EQ(note(app.fcntl(file, 1)), 0);
    EXPECT_EQ(note(app.ioctl(file, 1)), 0);
    EXPECT_EQ(note(app.close(file)), 0);
    EXPECT_EQ(note(app.close(file)), os::kEbadf);
    size = 99;
    EXPECT_EQ(note(app.fstat(file, &size)), os::kEbadf);
    note(static_cast<std::int64_t>(size));

    // TCP loopback.
    const int listener = static_cast<int>(note(app.listen(7777)));
    const int client = static_cast<int>(note(app.connect(7777)));
    const int server = static_cast<int>(note(app.accept(listener)));
    ASSERT_GE(client, 0);
    ASSERT_GE(server, 0);
    EXPECT_EQ(note(app.accept(listener)), os::kEagain);
    EXPECT_EQ(note(app.connect(7778)), os::kEconnRefused);
    EXPECT_EQ(note(app.send(client, buf, put("ping"))), 4);
    EXPECT_EQ(got(app.recv(server, buf, 64)), 4);
    EXPECT_EQ(std::memcmp(buf.data(), "ping", 4), 0);
    EXPECT_EQ(note(app.recv(server, buf, 64)), os::kEagain);
    EXPECT_EQ(note(app.sendmsg(server, buf, put("pong"))), 4);
    EXPECT_EQ(note(app.writev(server, buf, put("!!"))), 2);
    const int page = static_cast<int>(note(app.open("/doc")));
    EXPECT_EQ(note(app.sendfile(server, page, 1, 64)), 5);
    EXPECT_EQ(note(app.sendfile(page, server, 0, 64)), os::kEbadf);
    EXPECT_EQ(note(static_cast<std::int64_t>(kernel.pendingBytes(client))),
              11);
    EXPECT_EQ(got(app.recv(client, buf, 64)), 11);
    EXPECT_EQ(std::memcmp(buf.data(), "pong!!oc!++", 11), 0);

    // Readiness.
    const int epfd = static_cast<int>(note(app.epollCreate()));
    EXPECT_EQ(note(app.epollCtlAdd(epfd, server)), 0);
    std::vector<int> ready = {-7};
    EXPECT_EQ(note(app.epollWait(epfd, ready, 8, 0)), 0);
    EXPECT_TRUE(ready.empty());
    EXPECT_EQ(note(app.send(client, buf, put("x"))), 1);
    EXPECT_EQ(note(app.epollWait(epfd, ready, 8, 0)), 1);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(note(ready[0]), server);
    EXPECT_EQ(note(app.epollWait(server, ready, 8, 0)), os::kEbadf);
    note(static_cast<std::int64_t>(ready.size()));
    EXPECT_EQ(note(app.poll({client, server}, ready, 0)), 1);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(note(ready[0]), server);
    // A closed fd is reported at once, not slept on (Linux's POLLNVAL).
    EXPECT_EQ(note(app.poll({client, file}, ready, secondsToCycles(1.0))),
              1);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(note(ready[0]), file);
    EXPECT_EQ(note(app.epollCtlAdd(epfd, epfd)), os::kEinval);
    EXPECT_EQ(note(app.epollCtlDel(epfd, server)), 0);
    EXPECT_EQ(note(app.epollCtlDel(server, server)), os::kEbadf);
    EXPECT_EQ(note(app.epollWait(epfd, ready, 8, 0)), 0);

    // UDP over the link, to a remote peer the test drives directly.
    const int udp = static_cast<int>(note(app.udpSocket(0, 5000)));
    const int remote = kernel.udpSocket(1, 6000);
    EXPECT_EQ(note(app.sendto(udp, buf, put("dgram"), 6000)), 5);
    EXPECT_EQ(note(static_cast<std::int64_t>(kernel.pendingBytes(remote))),
              5);
    EXPECT_EQ(note(app.recvfrom(udp, buf, 64)), os::kEagain);
    const char *reply = "reply";
    kernel.sendto(remote, reinterpret_cast<const std::uint8_t *>(reply),
                  5, 5000);
    EXPECT_EQ(note(app.poll({udp}, ready, secondsToCycles(0.01))), 1);
    EXPECT_EQ(got(app.recvfrom(udp, buf, 64)), 5);
    EXPECT_EQ(std::memcmp(buf.data(), "reply", 5), 0);
    EXPECT_EQ(note(app.sendto(client, buf, 1, 6000)), os::kEbadf);

    // Socket options and teardown.
    EXPECT_EQ(note(app.setsockopt(server, 1)), 0);
    EXPECT_EQ(note(app.shutdown(server)), 0);
    EXPECT_EQ(note(app.shutdown(listener)), os::kEbadf);
    EXPECT_EQ(note(app.recv(client, buf, 64)), 0); // EOF

    // Misc libc. Clock reads differ by mode, so they are not noted.
    EXPECT_EQ(note(app.getpid()), 4242);
    EXPECT_EQ(note(app.inetNtop(0x7f000001u)), 0x17f000001);
    EXPECT_EQ(note(app.inetAddr(0x1234567890ull)), 0x34567890);
    EXPECT_GE(app.time(), 0);
    EXPECT_GE(app.gettimeofday(), 0);

    // What the kernel still queues on every descriptor.
    for (int fd = 0; fd <= remote; ++fd)
        note(static_cast<std::int64_t>(kernel.pendingBytes(fd)));
}

/** @return the transcript of exerciseSurface in one configuration. */
Transcript
surfaceTranscript(Mode mode, edl::MarshalOptions marshal, bool fast_path)
{
    Fixture f(mode, marshal, fast_path);
    Transcript t;
    f.run([&] { exerciseSurface(f, t); });
    return t;
}

} // anonymous namespace

TEST(Port, EveryModeGivesTheSameResults)
{
    // One script in every route a call can take: direct, SDK ocalls,
    // and the HotQueue with FastPath on and off, with and without
    // No-Redundant-Zeroing. Every result must match Native's.
    const Transcript native = surfaceTranscript(Mode::Native, {}, true);
    EXPECT_EQ(native.received, "doc!pingpong!!oc!++reply");
    struct Route {
        Mode mode;
        bool noRedundantZeroing;
        bool fastPath;
    };
    for (const Route route : {Route{Mode::Sgx, false, true},
                              Route{Mode::SgxHotCalls, false, true},
                              Route{Mode::SgxHotCalls, false, false},
                              Route{Mode::SgxHotCalls, true, true},
                              Route{Mode::SgxHotCalls, true, false}}) {
        SCOPED_TRACE(std::string(modeName(route.mode)) +
                     (route.noRedundantZeroing ? " nrz" : "") +
                     (route.fastPath ? " fastPath on" : " fastPath off"));
        const Transcript t = surfaceTranscript(
            route.mode, {.noRedundantZeroing = route.noRedundantZeroing},
            route.fastPath);
        ASSERT_EQ(t.values.size(), native.values.size());
        for (std::size_t i = 0; i < t.values.size(); ++i)
            EXPECT_EQ(t.values[i], native.values[i]) << "value #" << i;
        EXPECT_EQ(t.received, native.received);
    }
}

TEST(Port, EpollWaitWithNoRoomIsEinval)
{
    // A wait with max_events <= 0 fails with EINVAL in every mode and
    // reports nothing. Under SGX the zero-length [out] event array is
    // not staged, so a reported fd would be written straight into the
    // enclave's own buffer.
    for (const Mode mode : {Mode::Native, Mode::Sgx, Mode::SgxHotCalls}) {
        SCOPED_TRACE(modeName(mode));
        Fixture f(mode);
        f.run([&] {
            const int listener = static_cast<int>(f.app.listen(7000));
            ASSERT_GE(f.kernel.connectTcp(7000), 0); // listener ready
            const int epfd = static_cast<int>(f.app.epollCreate());
            ASSERT_EQ(f.app.epollCtlAdd(epfd, listener), 0);
            for (const int max_events : {0, -1}) {
                std::vector<int> ready = {-7};
                EXPECT_EQ(f.app.epollWait(epfd, ready, max_events, 0),
                          os::kEinval);
                EXPECT_EQ(ready, std::vector<int>{-7});
            }
            std::vector<int> ready;
            EXPECT_EQ(f.app.epollWait(epfd, ready, 1, 0), 1);
            EXPECT_EQ(ready, std::vector<int>{listener});
        });
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
