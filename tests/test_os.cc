/**
 * @file
 * Simulated-kernel tests: VFS, TCP streams, UDP over the link model,
 * TUN devices, epoll/poll readiness and fairness, and the clock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "os/kernel.hh"
#include "support/rng.hh"

using namespace hc;
using namespace hc::os;

namespace {

struct Fixture {
    mem::Machine machine;
    Kernel kernel;

    Fixture() : kernel(machine) {}

    void run(std::function<void()> body, CoreId core = 0)
    {
        machine.engine().spawn("test", core, std::move(body));
        machine.engine().run();
    }
};

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

} // anonymous namespace

// ----------------------------------------------------------------------
// VFS.
// ----------------------------------------------------------------------

TEST(Vfs, OpenReadClose)
{
    Fixture f;
    f.kernel.addFile("/etc/motd", bytes("hello world"));
    f.run([&] {
        const int fd = f.kernel.open("/etc/motd");
        ASSERT_GE(fd, 0);
        std::uint8_t buf[64];
        EXPECT_EQ(f.kernel.read(fd, buf, sizeof(buf)), 11);
        EXPECT_EQ(std::memcmp(buf, "hello world", 11), 0);
        EXPECT_EQ(f.kernel.read(fd, buf, sizeof(buf)), 0); // EOF
        EXPECT_EQ(f.kernel.close(fd), 0);
    });
}

TEST(Vfs, OpenMissingFileFails)
{
    Fixture f;
    f.run([&] { EXPECT_EQ(f.kernel.open("/nope"), kEnoent); });
}

TEST(Vfs, FstatReportsSize)
{
    Fixture f;
    f.kernel.addFile("/f", std::vector<std::uint8_t>(12345));
    f.run([&] {
        const int fd = f.kernel.open("/f");
        std::uint64_t size = 0;
        EXPECT_EQ(f.kernel.fstat(fd, &size), 0);
        EXPECT_EQ(size, 12345u);
    });
}

TEST(Vfs, PartialReadsAdvanceOffset)
{
    Fixture f;
    f.kernel.addFile("/f", bytes("abcdefgh"));
    f.run([&] {
        const int fd = f.kernel.open("/f");
        std::uint8_t buf[4];
        EXPECT_EQ(f.kernel.read(fd, buf, 3), 3);
        EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
        EXPECT_EQ(f.kernel.read(fd, buf, 3), 3);
        EXPECT_EQ(std::memcmp(buf, "def", 3), 0);
        EXPECT_EQ(f.kernel.read(fd, buf, 3), 2);
    });
}

TEST(Vfs, WriteExtendsFile)
{
    Fixture f;
    f.kernel.addFile("/w", {});
    f.run([&] {
        const int fd = f.kernel.open("/w");
        const auto data = bytes("written");
        EXPECT_EQ(f.kernel.write(fd, data.data(), data.size()), 7);
        std::uint64_t size = 0;
        f.kernel.fstat(fd, &size);
        EXPECT_EQ(size, 7u);
    });
}

// ----------------------------------------------------------------------
// TCP over loopback.
// ----------------------------------------------------------------------

TEST(Tcp, ConnectAcceptExchange)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(80);
        const int client = f.kernel.connectTcp(80);
        ASSERT_GE(client, 0);
        const int server = f.kernel.accept(listener);
        ASSERT_GE(server, 0);

        const auto msg = bytes("request");
        EXPECT_EQ(f.kernel.send(client, msg.data(), msg.size()), 7);
        std::uint8_t buf[16];
        EXPECT_EQ(f.kernel.recv(server, buf, sizeof(buf)), 7);
        EXPECT_EQ(std::memcmp(buf, "request", 7), 0);

        const auto reply = bytes("ok");
        EXPECT_EQ(f.kernel.send(server, reply.data(), 2), 2);
        EXPECT_EQ(f.kernel.recv(client, buf, sizeof(buf)), 2);
    });
}

TEST(Tcp, ConnectWithoutListenerRefused)
{
    Fixture f;
    f.run([&] {
        EXPECT_EQ(f.kernel.connectTcp(9999), kEconnRefused);
    });
}

TEST(Tcp, AcceptEmptyQueueEagain)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(81);
        EXPECT_EQ(f.kernel.accept(listener), kEagain);
    });
}

TEST(Tcp, RecvEmptyEagainThenEofAfterClose)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(82);
        const int client = f.kernel.connectTcp(82);
        const int server = f.kernel.accept(listener);
        std::uint8_t buf[8];
        EXPECT_EQ(f.kernel.recv(server, buf, 8), kEagain);
        f.kernel.close(client);
        EXPECT_EQ(f.kernel.recv(server, buf, 8), 0); // EOF
    });
}

TEST(Tcp, ShutdownDrainsBeforeEof)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(83);
        const int client = f.kernel.connectTcp(83);
        const int server = f.kernel.accept(listener);
        const auto data = bytes("tail");
        f.kernel.send(server, data.data(), 4);
        f.kernel.shutdown(server);
        std::uint8_t buf[8];
        EXPECT_EQ(f.kernel.recv(client, buf, 8), 4); // data first
        EXPECT_EQ(f.kernel.recv(client, buf, 8), 0); // then EOF
    });
}

TEST(Tcp, BackpressureOnFullBuffer)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(84);
        const int client = f.kernel.connectTcp(84);
        f.kernel.accept(listener);
        std::vector<std::uint8_t> big(512 * 1024, 1);
        const auto sent = f.kernel.send(client, big.data(),
                                        big.size());
        EXPECT_GT(sent, 0);
        EXPECT_LT(sent, static_cast<std::int64_t>(big.size()));
        // Buffer now full: further sends would block.
        EXPECT_EQ(f.kernel.send(client, big.data(), 100), kEagain);
    });
}

TEST(Tcp, SendfileMovesFileBytes)
{
    Fixture f;
    std::vector<std::uint8_t> page(1000);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i);
    f.kernel.addFile("/page", page);
    f.run([&] {
        const int listener = f.kernel.listenTcp(85);
        const int client = f.kernel.connectTcp(85);
        const int server = f.kernel.accept(listener);
        const int file = f.kernel.open("/page");
        EXPECT_EQ(f.kernel.sendfile(server, file, 0, 1000), 1000);
        std::vector<std::uint8_t> got(1000);
        EXPECT_EQ(f.kernel.recv(client, got.data(), 1000), 1000);
        EXPECT_EQ(got, page);
    });
}

// ----------------------------------------------------------------------
// UDP over the 1 Gbit link.
// ----------------------------------------------------------------------

TEST(Udp, DatagramCrossesLinkWithDelay)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        const auto msg = bytes("datagram");
        EXPECT_EQ(f.kernel.sendto(a, msg.data(), msg.size(), 2000),
                  8);

        // Not deliverable before serialization + propagation.
        std::uint8_t buf[16];
        EXPECT_EQ(f.kernel.recvfrom(b, buf, 16), kEagain);

        f.kernel.waitReadable(b);
        int src = 0;
        EXPECT_EQ(f.kernel.recvfrom(b, buf, 16, &src), 8);
        EXPECT_EQ(src, 1000);
        EXPECT_EQ(std::memcmp(buf, "datagram", 8), 0);
        // At least the propagation delay elapsed.
        EXPECT_GE(f.machine.now(),
                  f.kernel.params().linkPropagation);
    });
}

TEST(Udp, LinkSerializesBackToBackPackets)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        std::vector<std::uint8_t> pkt(1460);
        // 10 packets sent instantly serialize at ~32 cycles/byte:
        // the last is ready ~10 x 46.7k cycles after the first.
        for (int i = 0; i < 10; ++i)
            f.kernel.sendto(a, pkt.data(), pkt.size(), 2000);
        std::uint8_t buf[2048];
        int received = 0;
        const Cycles start = f.machine.now();
        while (received < 10) {
            if (f.kernel.recvfrom(b, buf, sizeof(buf)) > 0)
                ++received;
            else
                f.kernel.waitReadable(b);
        }
        const Cycles elapsed = f.machine.now() - start;
        const Cycles serialization =
            static_cast<Cycles>(10 * 1460 * 32.0);
        EXPECT_GE(elapsed, serialization);
    });
}

TEST(Udp, UnknownDestinationDropsSilently)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const auto msg = bytes("void");
        EXPECT_EQ(f.kernel.sendto(a, msg.data(), 4, 4242), 4);
    });
}

// ----------------------------------------------------------------------
// TUN.
// ----------------------------------------------------------------------

TEST(Tun, PacketsCrossBothWays)
{
    Fixture f;
    f.run([&] {
        const auto [app_fd, daemon_fd] = f.kernel.tunCreate();
        const auto pkt = bytes("ip-packet");
        EXPECT_EQ(f.kernel.write(app_fd, pkt.data(), pkt.size()), 9);
        std::uint8_t buf[32];
        EXPECT_EQ(f.kernel.read(daemon_fd, buf, 32), 9);
        EXPECT_EQ(std::memcmp(buf, "ip-packet", 9), 0);

        EXPECT_EQ(f.kernel.write(daemon_fd, pkt.data(), 9), 9);
        EXPECT_EQ(f.kernel.read(app_fd, buf, 32), 9);
        // Packet boundaries preserved (datagram semantics).
        EXPECT_EQ(f.kernel.read(app_fd, buf, 32), kEagain);
    });
}

// ----------------------------------------------------------------------
// epoll / poll.
// ----------------------------------------------------------------------

TEST(Epoll, ReportsReadableMembers)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(90);
        const int client = f.kernel.connectTcp(90);
        const int server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);

        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 0);

        const auto msg = bytes("x");
        f.kernel.send(client, msg.data(), 1);
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 1);
        EXPECT_EQ(ready[0], server);

        f.kernel.epollCtlDel(epfd, server);
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 0);
    });
}

TEST(Epoll, BlockingWaitWokenBySender)
{
    Fixture f;
    auto &engine = f.machine.engine();
    int listener = 0, client = 0, server = 0;
    engine.spawn("setup", 0, [&] {
        listener = f.kernel.listenTcp(91);
        client = f.kernel.connectTcp(91);
        server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);
        std::vector<int> ready;
        const int n = f.kernel.epollWait(epfd, ready,
                                         8, secondsToCycles(1.0));
        EXPECT_EQ(n, 1);
        EXPECT_GE(f.machine.now(), 500'000u);
    });
    engine.spawn("sender", 1, [&] {
        engine.sleepUntil(500'000);
        const auto msg = bytes("wake");
        f.kernel.send(client, msg.data(), 4);
    });
    engine.run();
}

TEST(Epoll, TimeoutExpires)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(92);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, listener);
        std::vector<int> ready;
        const Cycles t0 = f.machine.now();
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 100'000), 0);
        EXPECT_GE(f.machine.now() - t0, 100'000u);
    });
}

TEST(Epoll, FairnessRotatesLargeReadySets)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(93);
        const int epfd = f.kernel.epollCreate();
        std::vector<int> servers;
        const auto msg = bytes("y");
        for (int i = 0; i < 8; ++i) {
            const int c = f.kernel.connectTcp(93);
            const int s = f.kernel.accept(listener);
            f.kernel.epollCtlAdd(epfd, s);
            f.kernel.send(c, msg.data(), 1);
            servers.push_back(s);
        }
        // With max_events=2 and all 8 readable, repeated waits must
        // eventually report every member (no starvation).
        std::set<int> seen;
        std::vector<int> ready;
        for (int iter = 0; iter < 16; ++iter) {
            f.kernel.epollWait(epfd, ready, 2, 0);
            seen.insert(ready.begin(), ready.end());
        }
        EXPECT_EQ(seen.size(), servers.size());
    });
}

TEST(Epoll, NoRoomForEventsIsEinval)
{
    // epoll_wait(2): maxevents <= 0 is EINVAL, checked before the set.
    // The failed entry is charged and @p ready is left as it was.
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(94);
        ASSERT_GE(f.kernel.connectTcp(94), 0); // listener ready
        const int epfd = f.kernel.epollCreate();
        ASSERT_EQ(f.kernel.epollCtlAdd(epfd, listener), 0);
        const OsCostParams params;
        for (const int max_events : {0, -1}) {
            for (const int fd : {epfd, 777}) {
                std::vector<int> ready = {-7};
                const Cycles t0 = f.machine.now();
                EXPECT_EQ(f.kernel.epollWait(fd, ready, max_events, 0),
                          kEinval);
                EXPECT_EQ(f.machine.now() - t0,
                          params.syscall + params.epollWaitBase);
                EXPECT_EQ(ready, std::vector<int>{-7});
            }
        }
        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 1, 0), 1);
        EXPECT_EQ(ready, std::vector<int>{listener});
    });
}

TEST(Poll, ReportsReadySubset)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(94);
        const int c1 = f.kernel.connectTcp(94);
        const int s1 = f.kernel.accept(listener);
        const int c2 = f.kernel.connectTcp(94);
        const int s2 = f.kernel.accept(listener);
        (void)c2;
        const auto msg = bytes("z");
        f.kernel.send(c1, msg.data(), 1);

        std::vector<int> ready;
        EXPECT_EQ(f.kernel.poll({s1, s2}, ready, 0), 1);
        EXPECT_EQ(ready[0], s1);
    });
}

TEST(Poll, WakesOnFutureUdpAvailability)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        const auto msg = bytes("later");
        f.kernel.sendto(a, msg.data(), 5, 2000);
        // poll must wake when the in-flight datagram lands, before
        // the (long) timeout.
        std::vector<int> ready;
        const int n =
            f.kernel.poll({b}, ready, secondsToCycles(1.0));
        EXPECT_EQ(n, 1);
        EXPECT_LT(f.machine.now(), secondsToCycles(0.5));
    });
}

TEST(Poll, ReportsAnInvalidFdAtOnce)
{
    // Linux counts an fd with no descriptor as ready (POLLNVAL) and
    // returns at once: a closed fd must not leave poll() sleeping
    // until its timeout with nothing else readable.
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(96);
        const int client = f.kernel.connectTcp(96);
        const int server = f.kernel.accept(listener);
        const int closed = f.kernel.connectTcp(96);
        ASSERT_EQ(f.kernel.close(closed), 0);

        std::vector<int> ready;
        const Cycles start = f.machine.now();
        EXPECT_EQ(f.kernel.poll({server, 999, closed}, ready,
                                secondsToCycles(1.0)),
                  2);
        EXPECT_EQ(ready, (std::vector<int>{999, closed}));
        EXPECT_LT(f.machine.now(), start + secondsToCycles(0.001));

        // Beside a readable fd, in the order given.
        const auto msg = bytes("v");
        f.kernel.send(client, msg.data(), 1);
        EXPECT_EQ(f.kernel.poll({closed, server}, ready, 0), 2);
        EXPECT_EQ(ready, (std::vector<int>{closed, server}));
    });
}

// ----------------------------------------------------------------------
// Clock & misc.
// ----------------------------------------------------------------------

TEST(Clock, TracksVirtualTime)
{
    Fixture f;
    f.run([&] {
        EXPECT_EQ(f.kernel.timeSeconds(), 0u);
        f.machine.engine().sleepFor(secondsToCycles(2.5));
        EXPECT_EQ(f.kernel.timeSeconds(), 2u);
        EXPECT_NEAR(static_cast<double>(f.kernel.timeMicros()),
                    2.5e6, 1e3);
    });
}

TEST(Misc, SyscallsChargeKernelEntry)
{
    Fixture f;
    f.run([&] {
        const Cycles t0 = f.machine.now();
        f.kernel.getpid();
        EXPECT_GE(f.machine.now() - t0,
                  f.kernel.params().syscall);
    });
}

TEST(Misc, BadFdsReturnEbadf)
{
    Fixture f;
    f.run([&] {
        std::uint8_t buf[8];
        EXPECT_EQ(f.kernel.read(777, buf, 8), kEbadf);
        EXPECT_EQ(f.kernel.close(777), kEbadf);
        EXPECT_EQ(f.kernel.send(777, buf, 8), kEbadf);
        EXPECT_EQ(f.kernel.accept(777), kEbadf);
        std::uint64_t size;
        EXPECT_EQ(f.kernel.fstat(777, &size), kEbadf);
    });
}

TEST(Misc, PendingBytesTracksQueue)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(95);
        const int client = f.kernel.connectTcp(95);
        const int server = f.kernel.accept(listener);
        EXPECT_EQ(f.kernel.pendingBytes(server), 0u);
        const auto msg = bytes("12345");
        f.kernel.send(client, msg.data(), 5);
        EXPECT_EQ(f.kernel.pendingBytes(server), 5u);
        std::uint8_t buf[8];
        f.kernel.recv(server, buf, 8);
        EXPECT_EQ(f.kernel.pendingBytes(server), 0u);
    });
}

// ----------------------------------------------------------------------
// Failure injection and edge cases.
// ----------------------------------------------------------------------

TEST(Udp, RxQueueOverflowDropsSilently)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        std::vector<std::uint8_t> pkt(4096);
        // The receive queue holds socketBuf bytes; everything beyond
        // is dropped on the floor (UDP semantics).
        const int sent = 200; // 800 KiB >> 256 KiB queue
        for (int i = 0; i < sent; ++i)
            f.kernel.sendto(a, pkt.data(), pkt.size(), 2000);
        f.machine.engine().sleepFor(secondsToCycles(0.2));
        int received = 0;
        std::vector<std::uint8_t> buf(8192);
        while (f.kernel.recvfrom(b, buf.data(), buf.size()) > 0)
            ++received;
        EXPECT_GT(received, 0);
        EXPECT_LT(received, sent);
        EXPECT_LE(static_cast<std::uint64_t>(received) * pkt.size(),
                  f.kernel.params().socketBuf);
    });
}

TEST(Tun, DeviceQueueBackpressure)
{
    Fixture f;
    f.run([&] {
        const auto [app_fd, daemon_fd] = f.kernel.tunCreate();
        std::vector<std::uint8_t> pkt(64 * 1024);
        // Fill the peer queue to its cap, then expect EAGAIN.
        std::int64_t wrote = 0;
        int packets = 0;
        for (;;) {
            wrote = f.kernel.write(app_fd, pkt.data(), pkt.size());
            if (wrote == kEagain)
                break;
            ++packets;
            ASSERT_LT(packets, 100) << "no backpressure";
        }
        EXPECT_GT(packets, 0);
        // Draining one packet frees space again.
        std::vector<std::uint8_t> buf(64 * 1024);
        EXPECT_GT(f.kernel.read(daemon_fd, buf.data(), buf.size()),
                  0);
        EXPECT_GT(f.kernel.write(app_fd, pkt.data(), pkt.size()), 0);
    });
}

TEST(Tcp, CloseRemovesFromEpollSets)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(96);
        const int client = f.kernel.connectTcp(96);
        const int server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);
        const auto msg = bytes("x");
        f.kernel.send(client, msg.data(), 1);
        f.kernel.close(server); // close while registered
        std::vector<int> ready;
        // The closed fd must not be reported (nor crash the scan).
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 0);
    });
}

TEST(Epoll, NestedEpollOfEpoll)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(97);
        const int client = f.kernel.connectTcp(97);
        const int server = f.kernel.accept(listener);
        const int inner = f.kernel.epollCreate();
        const int outer = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(inner, server);
        f.kernel.epollCtlAdd(outer, inner);

        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(outer, ready, 8, 0), 0);
        const auto msg = bytes("z");
        f.kernel.send(client, msg.data(), 1);
        EXPECT_EQ(f.kernel.epollWait(outer, ready, 8, 0), 1);
        EXPECT_EQ(ready[0], inner);
    });
}

TEST(Misc, WritevChargesGatherCost)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(98);
        const int client = f.kernel.connectTcp(98);
        f.kernel.accept(listener);
        const auto msg = bytes("gather");
        const Cycles t0 = f.machine.now();
        f.kernel.send(client, msg.data(), msg.size());
        const Cycles send_cost = f.machine.now() - t0;
        const Cycles t1 = f.machine.now();
        f.kernel.writev(client, msg.data(), msg.size());
        const Cycles writev_cost = f.machine.now() - t1;
        EXPECT_GT(writev_cost, send_cost);
    });
}

// ----------------------------------------------------------------------
// Readiness bookkeeping against a naive full-scan model.
// ----------------------------------------------------------------------

TEST(Epoll, RejectsSelfAndCyclicMembership)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.epollCreate();
        const int b = f.kernel.epollCreate();
        const int c = f.kernel.epollCreate();
        EXPECT_EQ(f.kernel.epollCtlAdd(a, a), kEinval);
        EXPECT_EQ(f.kernel.epollCtlAdd(a, b), 0);
        EXPECT_EQ(f.kernel.epollCtlAdd(b, a), kEloop);
        EXPECT_EQ(f.kernel.epollCtlAdd(b, c), 0);
        EXPECT_EQ(f.kernel.epollCtlAdd(c, a), kEloop);

        // The rejected adds changed nothing: every wait returns.
        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(a, ready, 8, 0), 0);
        EXPECT_EQ(f.kernel.epollWait(a, ready, 8, 1'000), 0);
        std::vector<int> polled;
        EXPECT_EQ(f.kernel.poll({a, b, c}, polled, 0), 0);

        // Once the nesting is undone, the reverse add is legal.
        EXPECT_EQ(f.kernel.epollCtlDel(a, b), 0);
        EXPECT_EQ(f.kernel.epollCtlAdd(b, a), 0);
    });
}

TEST(Epoll, DeleteOfAMissingMemberFails)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(95);
        const int epfd = f.kernel.epollCreate();
        const int other = f.kernel.epollCreate();
        EXPECT_EQ(f.kernel.epollCtlAdd(epfd, listener), 0);
        // No such descriptor, as fd or as set.
        EXPECT_EQ(f.kernel.epollCtlDel(epfd, 999), kEbadf);
        EXPECT_EQ(f.kernel.epollCtlDel(999, listener), kEbadf);
        // A live fd that is not a member, then a double delete.
        EXPECT_EQ(f.kernel.epollCtlDel(other, listener), kEnoent);
        EXPECT_EQ(f.kernel.epollCtlDel(epfd, listener), 0);
        EXPECT_EQ(f.kernel.epollCtlDel(epfd, listener), kEnoent);
        // Each failure is charged like a success, as before.
        const Cycles t0 = f.machine.now();
        f.kernel.epollCtlDel(epfd, listener);
        const Cycles failed = f.machine.now() - t0;
        f.kernel.epollCtlAdd(epfd, listener);
        const Cycles t1 = f.machine.now();
        f.kernel.epollCtlDel(epfd, listener);
        EXPECT_EQ(failed, f.machine.now() - t1);
    });
}

namespace {

/**
 * The test's own model of every live descriptor: stream bytes in a
 * deque, accept queues, UDP datagrams with their link arrival times,
 * and each set's members and scan rotation. Readiness is recomputed
 * from this state on every query and every wait walks the whole set:
 * the reference the kernel's ready counts must reproduce.
 */
struct Model {
    enum class Kind { File, Listener, Stream, Udp, Set };
    struct Desc {
        Kind kind = Kind::File;
        std::deque<std::uint8_t> bytes; //!< stream: readable bytes
        int peer = -1;
        bool peerClosed = false;
        std::deque<int> pending;        //!< listener: accept queue
        std::deque<std::pair<Cycles, std::uint64_t>> datagrams;
        std::vector<int> members;       //!< set
        std::size_t scanStart = 0;
    };
    std::map<int, Desc> fds;

    bool ready(int fd, Cycles now) const
    {
        const Desc &d = fds.at(fd);
        switch (d.kind) {
          case Kind::File:
            return true;
          case Kind::Listener:
            return !d.pending.empty();
          case Kind::Stream:
            return !d.bytes.empty() || d.peerClosed;
          case Kind::Udp:
            return !d.datagrams.empty() &&
                   d.datagrams.front().first <= now;
          case Kind::Set:
            for (int m : d.members)
                if (ready(m, now))
                    return true;
            return false;
        }
        return false;
    }

    std::vector<int> wait(int epfd, int max_events, Cycles now)
    {
        Desc &e = fds.at(epfd);
        std::vector<int> out;
        const std::size_t count = e.members.size();
        if (count == 0)
            return out;
        e.scanStart = (e.scanStart + 1) % count;
        for (std::size_t k = 0; k < count; ++k) {
            const int fd = e.members[(e.scanStart + k) % count];
            if (ready(fd, now)) {
                out.push_back(fd);
                if (static_cast<int>(out.size()) >= max_events)
                    break;
            }
        }
        return out;
    }

    bool reaches(int set, int fd) const
    {
        for (int m : fds.at(set).members)
            if (m == fd || (fds.at(m).kind == Kind::Set && reaches(m, fd)))
                return true;
        return false;
    }

    std::uint64_t pending(int fd) const
    {
        const Desc &d = fds.at(fd);
        std::uint64_t n = d.bytes.size();
        for (const auto &dgram : d.datagrams)
            n += dgram.second;
        return n;
    }

    std::vector<int> live(Kind kind) const
    {
        std::vector<int> out;
        for (const auto &[fd, d] : fds)
            if (d.kind == kind)
                out.push_back(fd);
        return out;
    }

    void close(int fd)
    {
        const Desc &d = fds.at(fd);
        if (d.kind == Kind::Stream && fds.count(d.peer))
            fds.at(d.peer).peerClosed = true;
        for (auto &[efd, e] : fds) {
            auto &m = e.members;
            m.erase(std::remove(m.begin(), m.end(), fd), m.end());
        }
        fds.erase(fd);
    }
};

} // anonymous namespace

TEST(Epoll, ReadinessMatchesFullScan)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Fixture f;
        Kernel &k = f.kernel;
        const auto &params = k.params();
        std::vector<std::uint8_t> page(20'000);
        for (std::size_t i = 0; i < page.size(); ++i)
            page[i] = static_cast<std::uint8_t>(i * 13 + 5);
        k.addFile("/page", page);

        f.run([&] {
            Rng rng(seed);
            Model model;
            Cycles link_free = 0; // side 1 -> side 0
            std::map<int, int> ports; // listener fd -> port
            const auto pick = [&](const std::vector<int> &from) {
                return from[rng.nextBelow(from.size())];
            };
            const auto now = [&] { return f.machine.now(); };

            for (int port : {7000, 7001}) {
                const int fd = k.listenTcp(port);
                model.fds[fd].kind = Model::Kind::Listener;
                ports[fd] = port;
            }
            for (int s = 0; s < 3; ++s)
                model.fds[k.epollCreate()].kind = Model::Kind::Set;
            model.fds[k.open("/page")].kind = Model::Kind::File;
            const int rx = k.udpSocket(0, 9000);
            const int tx = k.udpSocket(1, 9001);
            model.fds[rx].kind = Model::Kind::Udp;

            std::vector<std::uint8_t> buf(300 * 1024);
            for (int op = 0; op < 400; ++op) {
                const auto streams = model.live(Model::Kind::Stream);
                const auto sets = model.live(Model::Kind::Set);
                const int what = static_cast<int>(rng.nextBelow(13));
                if (what == 0) {
                    // connect: the client end, then the server end.
                    const auto listeners =
                        model.live(Model::Kind::Listener);
                    if (listeners.empty())
                        continue;
                    const int l = pick(listeners);
                    const int c = k.connectTcp(ports[l]);
                    ASSERT_GE(c, 0);
                    model.fds[c].kind = Model::Kind::Stream;
                    model.fds[c + 1].kind = Model::Kind::Stream;
                    model.fds[c].peer = c + 1;
                    model.fds[c + 1].peer = c;
                    model.fds[l].pending.push_back(c + 1);
                } else if (what == 1) {
                    const auto listeners =
                        model.live(Model::Kind::Listener);
                    if (listeners.empty())
                        continue;
                    const int l = pick(listeners);
                    auto &q = model.fds[l].pending;
                    const int got = k.accept(l);
                    if (q.empty()) {
                        EXPECT_EQ(got, kEagain);
                    } else {
                        EXPECT_EQ(got, q.front());
                        q.pop_front();
                    }
                } else if (what <= 3 && !streams.empty()) {
                    // send: small, large, or past the buffer's room.
                    const int s = pick(streams);
                    const std::uint64_t sizes[] = {
                        1 + rng.nextBelow(64), 1 + rng.nextBelow(8192),
                        buf.size()};
                    const std::uint64_t n = sizes[rng.nextBelow(3)];
                    for (std::uint64_t i = 0; i < n; ++i)
                        buf[i] = static_cast<std::uint8_t>(rng.next());
                    const std::int64_t got = k.send(s, buf.data(), n);
                    const int peer = model.fds[s].peer;
                    if (!model.fds.count(peer)) {
                        EXPECT_EQ(got, 0);
                        continue;
                    }
                    auto &q = model.fds[peer].bytes;
                    const std::uint64_t room =
                        params.socketBuf - std::min<std::uint64_t>(
                                               params.socketBuf, q.size());
                    const std::uint64_t take = std::min(n, room);
                    EXPECT_EQ(got, take == 0
                                       ? std::int64_t{kEagain}
                                       : static_cast<std::int64_t>(take));
                    q.insert(q.end(), buf.begin(),
                             buf.begin() +
                                 static_cast<std::ptrdiff_t>(take));
                } else if (what <= 5 && !streams.empty()) {
                    // recv: partial or draining.
                    const int s = pick(streams);
                    const std::uint64_t n = rng.chance(0.5)
                                                ? 1 + rng.nextBelow(100)
                                                : buf.size();
                    const std::int64_t got = k.recv(s, buf.data(), n);
                    auto &d = model.fds[s];
                    if (d.bytes.empty()) {
                        EXPECT_EQ(got, d.peerClosed ? 0 : kEagain);
                        continue;
                    }
                    const std::uint64_t take = std::min<std::uint64_t>(
                        n, d.bytes.size());
                    ASSERT_EQ(got, static_cast<std::int64_t>(take));
                    for (std::uint64_t i = 0; i < take; ++i) {
                        ASSERT_EQ(buf[i], d.bytes.front());
                        d.bytes.pop_front();
                    }
                } else if (what == 6 && !streams.empty()) {
                    // sendfile: no room check, like the kernel's.
                    const int s = pick(streams);
                    const std::uint64_t off =
                        rng.nextBelow(page.size() + 10);
                    const std::uint64_t n = 1 + rng.nextBelow(30'000);
                    const std::int64_t got = k.sendfile(
                        s, model.live(Model::Kind::File)[0], off, n);
                    const int peer = model.fds[s].peer;
                    const std::uint64_t take =
                        off >= page.size() || !model.fds.count(peer)
                            ? 0
                            : std::min<std::uint64_t>(n,
                                                      page.size() - off);
                    ASSERT_EQ(got, static_cast<std::int64_t>(take));
                    if (take > 0) {
                        auto &q = model.fds[peer].bytes;
                        q.insert(q.end(), page.begin() + off,
                                 page.begin() + off + got);
                    }
                } else if (what == 7 && !streams.empty()) {
                    const int s = pick(streams);
                    EXPECT_EQ(k.shutdown(s), 0);
                    const int peer = model.fds[s].peer;
                    if (model.fds.count(peer))
                        model.fds[peer].peerClosed = true;
                } else if (what == 8) {
                    // close anything but the file and the UDP socket.
                    std::vector<int> closable;
                    for (const auto &[fd, d] : model.fds)
                        if (d.kind != Model::Kind::File &&
                            d.kind != Model::Kind::Udp)
                            closable.push_back(fd);
                    if (closable.empty() || !rng.chance(0.3))
                        continue;
                    const int fd = pick(closable);
                    EXPECT_EQ(k.close(fd), 0);
                    model.close(fd);
                    if (sets.size() < 2)
                        model.fds[k.epollCreate()].kind =
                            Model::Kind::Set;
                } else if (what == 9 && !sets.empty()) {
                    const int e = pick(sets);
                    std::vector<int> all;
                    for (const auto &entry : model.fds)
                        all.push_back(entry.first);
                    const int fd = pick(all);
                    int expect = 0;
                    if (fd == e)
                        expect = kEinval;
                    else if (model.fds[fd].kind == Model::Kind::Set &&
                             model.reaches(fd, e))
                        expect = kEloop;
                    EXPECT_EQ(k.epollCtlAdd(e, fd), expect);
                    auto &m = model.fds[e].members;
                    if (expect == 0 &&
                        std::find(m.begin(), m.end(), fd) == m.end())
                        m.push_back(fd);
                } else if (what == 10 && !sets.empty()) {
                    const int e = pick(sets);
                    auto &m = model.fds[e].members;
                    if (m.empty())
                        continue;
                    const int fd = pick(m);
                    EXPECT_EQ(k.epollCtlDel(e, fd), 0);
                    m.erase(std::find(m.begin(), m.end(), fd));
                } else if (what == 11 && !sets.empty()) {
                    // Delete a live non-member (kEnoent), or a closed
                    // or never-opened fd (kEbadf): the set is unchanged.
                    const int e = pick(sets);
                    const auto &m = model.fds[e].members;
                    std::vector<int> outside;
                    for (const auto &entry : model.fds)
                        if (std::find(m.begin(), m.end(), entry.first) ==
                            m.end())
                            outside.push_back(entry.first);
                    if (outside.empty() || rng.chance(0.3)) {
                        const int gone = model.fds.rbegin()->first + 1 +
                                         static_cast<int>(rng.nextBelow(4));
                        EXPECT_EQ(k.epollCtlDel(e, gone), kEbadf);
                    } else {
                        EXPECT_EQ(k.epollCtlDel(e, pick(outside)), kEnoent);
                    }
                } else {
                    // A datagram over the link, a receive, or time.
                    const int kind = static_cast<int>(rng.nextBelow(3));
                    auto &q = model.fds[rx].datagrams;
                    if (kind == 0) {
                        const std::uint64_t n = 1 + rng.nextBelow(2000);
                        EXPECT_EQ(k.sendto(tx, buf.data(), n, 9000),
                                  static_cast<std::int64_t>(n));
                        if (model.pending(rx) + n <= params.socketBuf) {
                            link_free = std::max(now(), link_free) +
                                        static_cast<Cycles>(
                                            static_cast<double>(n) *
                                            params.linkCyclesPerByte);
                            q.emplace_back(
                                link_free + params.linkPropagation, n);
                        }
                    } else if (kind == 1) {
                        const Cycles at = now() + params.syscall;
                        const std::int64_t got =
                            k.recvfrom(rx, buf.data(), buf.size());
                        if (!q.empty() && q.front().first <= at) {
                            EXPECT_EQ(got, static_cast<std::int64_t>(
                                               q.front().second));
                            q.pop_front();
                        } else {
                            EXPECT_EQ(got, kEagain);
                        }
                    } else {
                        f.machine.engine().sleepFor(
                            rng.nextBelow(400'000));
                    }
                }

                // Every set with a small and a large max_events, a
                // poll over every fd, and every fd's queued bytes.
                std::vector<int> ready, all;
                for (int e : model.live(Model::Kind::Set)) {
                    for (int max_events : {2, 64}) {
                        const int n = k.epollWait(e, ready, max_events, 0);
                        ASSERT_EQ(std::vector<int>(ready.begin(),
                                                   ready.begin() + n),
                                  model.wait(e, max_events, now()))
                            << "op " << op << " set " << e;
                    }
                }
                for (const auto &entry : model.fds)
                    all.push_back(entry.first);
                k.poll(all, ready, 0);
                std::vector<int> expect;
                for (int fd : all)
                    if (model.ready(fd, now()))
                        expect.push_back(fd);
                ASSERT_EQ(ready, expect) << "op " << op;
                for (int fd : all)
                    ASSERT_EQ(k.pendingBytes(fd), model.pending(fd))
                        << "op " << op << " fd " << fd;
            }
        });
    }
}

TEST(Tcp, LongLivedStreamKeepsByteOrder)
{
    // The reader takes small chunks while the writer keeps the buffer
    // near full, so the queue's read offset keeps passing half its
    // length and the queue compacts under live data.
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(99);
        const int client = f.kernel.connectTcp(99);
        const int server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);
        Rng rng(7);
        std::vector<std::uint8_t> chunk(4096), got(1024);
        std::uint64_t sent = 0, received = 0;
        const auto byte_at = [](std::uint64_t i) {
            return static_cast<std::uint8_t>(i * 7 + (i >> 9));
        };
        while (received < 2 * 1024 * 1024) {
            const std::uint64_t n = 1 + rng.nextBelow(chunk.size());
            for (std::uint64_t i = 0; i < n; ++i)
                chunk[i] = byte_at(sent + i);
            const std::int64_t w =
                f.kernel.send(client, chunk.data(), n);
            if (w > 0)
                sent += static_cast<std::uint64_t>(w);
            ASSERT_EQ(f.kernel.pendingBytes(server), sent - received);

            std::vector<int> ready;
            ASSERT_EQ(f.kernel.epollWait(epfd, ready, 8, 0),
                      sent > received ? 1 : 0);
            const std::int64_t r = f.kernel.recv(
                server, got.data(), 1 + rng.nextBelow(got.size()));
            for (std::int64_t i = 0; i < r; ++i)
                ASSERT_EQ(got[static_cast<std::size_t>(i)],
                          byte_at(received + static_cast<std::uint64_t>(i)))
                    << "byte " << received + static_cast<std::uint64_t>(i);
            if (r > 0)
                received += static_cast<std::uint64_t>(r);
        }
    });
}
