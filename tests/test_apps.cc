/**
 * @file
 * Application tests: protocol codecs, end-to-end request handling in
 * every port mode, and the VPN's real cryptographic protection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "apps/httpd.hh"
#include "apps/kvcache.hh"
#include "apps/vpn.hh"
#include "support/hash.hh"
#include "workloads/memtier.hh"
#include "workloads/vpn_traffic.hh"

using namespace hc;
using namespace hc::apps;

// ----------------------------------------------------------------------
// Protocol codecs.
// ----------------------------------------------------------------------

TEST(KvProtocol, EncodeDecodeRoundtrip)
{
    std::uint8_t wire[4096];
    std::uint8_t value[100];
    std::memset(value, 7, sizeof(value));
    const auto len = KvProtocol::encodeRequest(wire, KvOp::Set,
                                               0x1234, value, 100);
    KvOp op;
    std::uint64_t key;
    std::uint32_t value_len;
    ASSERT_TRUE(KvProtocol::decodeRequest(wire, len, &op, &key,
                                          &value_len));
    EXPECT_EQ(op, KvOp::Set);
    EXPECT_EQ(key, 0x1234u);
    EXPECT_EQ(value_len, 100u);
}

TEST(KvProtocol, RejectsTruncatedRequests)
{
    std::uint8_t wire[64];
    const auto len = KvProtocol::encodeRequest(wire, KvOp::Get, 1,
                                               nullptr, 0);
    KvOp op;
    std::uint64_t key;
    std::uint32_t value_len;
    EXPECT_FALSE(KvProtocol::decodeRequest(wire, len - 1, &op, &key,
                                           &value_len));
    EXPECT_FALSE(
        KvProtocol::decodeRequest(wire, 3, &op, &key, &value_len));
}

TEST(VpnFrame, SealOpenRoundtrip)
{
    crypto::ChaChaKey key{};
    key[0] = 1;
    std::uint8_t pt[100], frame[200], out[100];
    std::memset(pt, 0x42, sizeof(pt));
    const auto flen = VpnFrame::seal(key, 77, pt, 100, frame);
    EXPECT_EQ(flen, 100 + VpnFrame::kOverhead);
    EXPECT_EQ(VpnFrame::open(key, frame, flen, out), 100);
    EXPECT_EQ(std::memcmp(out, pt, 100), 0);
    // The wire bytes are actually encrypted.
    EXPECT_NE(std::memcmp(frame + 8, pt, 100), 0);
}

TEST(VpnFrame, RejectsTamperAndWrongKey)
{
    crypto::ChaChaKey key{}, other{};
    other[5] = 9;
    std::uint8_t pt[64] = {1, 2, 3}, frame[128], out[64];
    const auto flen = VpnFrame::seal(key, 1, pt, 64, frame);

    frame[20] ^= 1;
    EXPECT_EQ(VpnFrame::open(key, frame, flen, out), -1);
    frame[20] ^= 1;
    EXPECT_EQ(VpnFrame::open(other, frame, flen, out), -1);
    EXPECT_EQ(VpnFrame::open(key, frame, 10, out), -1); // short
    EXPECT_EQ(VpnFrame::open(key, frame, flen, out), 64);
}

// ----------------------------------------------------------------------
// End-to-end application scenarios per mode.
// ----------------------------------------------------------------------

namespace {

/** One app configuration: a port mode plus the hot-channel planes,
 *  which only SgxHotCalls consults. */
struct AppCase {
    port::Mode mode;
    bool fastPath = true;
    bool guard = true;
};

void
PrintTo(const AppCase &c, std::ostream *os)
{
    *os << port::modeName(c.mode) << (c.fastPath ? "" : " fastPath off")
        << (c.guard ? "" : " guard off");
}

struct AppFixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    os::Kernel kernel;
    port::PortedApp app;

    explicit AppFixture(const AppCase &c)
        : machine([&] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              config.guard.enabled = c.guard;
              return config;
          }()),
          platform(machine), kernel(machine),
          app(platform, kernel, "app", [&] {
              port::PortConfig config;
              config.mode = c.mode;
              config.fastPath = c.fastPath;
              config.hotEcallCore = 1;
              config.hotOcallCore = 2;
              return config;
          }())
    {
    }
};

/** Every mode, SgxHotCalls with FastPath on and off. */
const AppCase kAllCases[] = {{port::Mode::Native},
                             {port::Mode::Sgx},
                             {port::Mode::SgxHotCalls},
                             {port::Mode::SgxHotCalls, false}};

} // anonymous namespace

class KvCacheModes : public ::testing::TestWithParam<AppCase>
{
};

TEST_P(KvCacheModes, SetThenGetReturnsFingerprint)
{
    AppFixture f(GetParam());
    KvCacheConfig config;
    config.numSlots = 1'000; // keep the test machine small
    KvCacheServer server(f.app, config);
    std::uint64_t get_fp = 0, expected_fp = 0;

    f.machine.engine().spawn("client", 4, [&] {
        f.app.startHotCalls();
        server.start(0);
        f.machine.engine().sleepFor(secondsToCycles(0.001));

        const int fd = f.kernel.connectTcp(server.listenPort());
        ASSERT_GE(fd, 0);
        std::vector<std::uint8_t> wire(4096), value(2048);
        for (std::size_t i = 0; i < value.size(); ++i)
            value[i] = static_cast<std::uint8_t>(i * 31);
        expected_fp = fastHash64(value.data(), 64);

        // SET.
        auto len = KvProtocol::encodeRequest(
            wire.data(), KvOp::Set, 42, value.data(), 2048);
        f.kernel.send(fd, wire.data(), len);
        std::uint8_t resp[64];
        f.kernel.waitReadable(fd);
        ASSERT_GT(f.kernel.recv(fd, resp, sizeof(resp)), 0);
        EXPECT_EQ(resp[0], 0); // status ok

        // GET.
        len = KvProtocol::encodeRequest(wire.data(), KvOp::Get, 42,
                                        nullptr, 0);
        f.kernel.send(fd, wire.data(), len);
        std::vector<std::uint8_t> full;
        while (full.size() < KvProtocol::kResponseHeader + 2048) {
            f.kernel.waitReadable(fd);
            std::uint8_t chunk[4096];
            const auto n = f.kernel.recv(fd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            full.insert(full.end(), chunk, chunk + n);
        }
        ASSERT_GE(full.size(), KvProtocol::kResponseHeader + 8);
        std::memcpy(&get_fp,
                    full.data() + KvProtocol::kResponseHeader, 8);

        server.stop();
        f.app.stopHotCalls();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    EXPECT_EQ(get_fp, expected_fp);
    EXPECT_EQ(server.requestsServed(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Modes, KvCacheModes,
                         ::testing::ValuesIn(kAllCases));

class HttpdModes : public ::testing::TestWithParam<AppCase>
{
};

TEST_P(HttpdModes, ServesFullPage)
{
    AppFixture f(GetParam());
    HttpdConfig config;
    config.pageSize = 4'096;
    HttpServer server(f.app, config);
    std::uint64_t body_bytes = 0;
    bool header_ok = false;

    f.machine.engine().spawn("client", 4, [&] {
        f.app.startHotCalls();
        server.start(0);
        f.machine.engine().sleepFor(secondsToCycles(0.002));

        const int fd = f.kernel.connectTcp(server.listenPort());
        ASSERT_GE(fd, 0);
        const std::string req =
            "GET " + HttpServer::pagePath(1) + " HTTP/1.0\r\n\r\n";
        f.kernel.send(fd,
                      reinterpret_cast<const std::uint8_t *>(
                          req.data()),
                      req.size());

        std::vector<std::uint8_t> all;
        for (;;) {
            f.kernel.waitReadable(fd);
            std::uint8_t chunk[8192];
            const auto n = f.kernel.recv(fd, chunk, sizeof(chunk));
            if (n < 0)
                continue;
            if (n == 0)
                break;
            all.insert(all.end(), chunk, chunk + n);
        }
        f.kernel.close(fd);

        const std::string text(all.begin(), all.end());
        header_ok = text.rfind("HTTP/1.0 200 OK", 0) == 0;
        const auto split = text.find("\r\n\r\n");
        if (split != std::string::npos)
            body_bytes = all.size() - (split + 4);

        // Let the server finish its post-response bookkeeping (the
        // shutdown ocall completes after the client sees EOF).
        f.machine.engine().sleepFor(secondsToCycles(0.001));
        server.stop();
        f.app.stopHotCalls();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    EXPECT_TRUE(header_ok);
    EXPECT_EQ(body_bytes, 4'096u);
    EXPECT_EQ(server.pagesServed(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Modes, HttpdModes,
                         ::testing::ValuesIn(kAllCases));

class VpnModes : public ::testing::TestWithParam<AppCase>
{
};

TEST_P(VpnModes, TunnelDeliversEncryptedPackets)
{
    AppFixture f(GetParam());
    crypto::ChaChaKey key{};
    key[7] = 0x77;
    VpnConfig vpn_config;
    VpnTunnel tunnel(f.app, key, vpn_config);

    std::vector<std::uint8_t> delivered;
    f.machine.engine().spawn("driver", 4, [&] {
        f.app.startHotCalls();
        tunnel.start(0);
        f.machine.engine().sleepFor(secondsToCycles(0.001));

        // The remote peer sends one sealed frame over the link.
        const int peer =
            f.kernel.udpSocket(1, vpn_config.remoteUdpPort);
        std::uint8_t inner[64];
        std::memset(inner, 0x3c, sizeof(inner));
        std::uint8_t frame[128];
        const auto flen =
            VpnFrame::seal(key, 9, inner, sizeof(inner), frame);
        f.kernel.sendto(peer, frame, flen,
                        vpn_config.localUdpPort);

        // The decrypted packet must appear on the LAN side of TUN.
        f.kernel.waitReadable(tunnel.tunAppFd());
        std::uint8_t out[256];
        const auto n =
            f.kernel.read(tunnel.tunAppFd(), out, sizeof(out));
        if (n > 0)
            delivered.assign(out, out + n);

        // And a packet written to TUN must come back sealed.
        std::uint8_t reply[32];
        std::memset(reply, 0x5d, sizeof(reply));
        f.kernel.write(tunnel.tunAppFd(), reply, sizeof(reply));
        f.kernel.waitReadable(peer);
        std::uint8_t wire[256];
        const auto wn = f.kernel.recvfrom(peer, wire, sizeof(wire));
        ASSERT_GT(wn, 0);
        std::uint8_t opened[256];
        EXPECT_EQ(VpnFrame::open(key, wire,
                                 static_cast<std::uint64_t>(wn),
                                 opened),
                  32);
        EXPECT_EQ(opened[0], 0x5d);

        tunnel.stop();
        f.app.stopHotCalls();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    ASSERT_EQ(delivered.size(), 64u);
    EXPECT_EQ(delivered[0], 0x3c);
    EXPECT_EQ(tunnel.authFailures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, VpnModes,
                         ::testing::ValuesIn(kAllCases));

// The tunnel daemon issues hot ocalls until the app stops its
// channels, so it also runs with Sentinel off.
INSTANTIATE_TEST_SUITE_P(GuardOff, VpnModes,
                         ::testing::Values(AppCase{
                             port::Mode::SgxHotCalls, true, false}));

TEST(Vpn, DropsForgedFrames)
{
    AppFixture f({port::Mode::Native});
    crypto::ChaChaKey key{};
    VpnConfig vpn_config;
    VpnTunnel tunnel(f.app, key, vpn_config);

    f.machine.engine().spawn("driver", 4, [&] {
        tunnel.start(0);
        f.machine.engine().sleepFor(secondsToCycles(0.001));

        const int peer =
            f.kernel.udpSocket(1, vpn_config.remoteUdpPort);
        std::uint8_t inner[32] = {1};
        std::uint8_t frame[128];
        const auto flen =
            VpnFrame::seal(key, 3, inner, sizeof(inner), frame);
        frame[12] ^= 0xff; // corrupt ciphertext in flight
        f.kernel.sendto(peer, frame, flen,
                        vpn_config.localUdpPort);

        f.machine.engine().sleepFor(secondsToCycles(0.005));
        tunnel.stop();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    EXPECT_EQ(tunnel.authFailures(), 1u);
    EXPECT_EQ(tunnel.packetsIn(), 0u);
}

// ----------------------------------------------------------------------
// Multi-worker KvCache (§4.4 configuration).
// ----------------------------------------------------------------------

TEST(KvCacheWorkers, TwoWorkersServeCorrectly)
{
    AppFixture f({port::Mode::Sgx});
    KvCacheConfig config;
    config.numSlots = 1'000;
    config.numWorkers = 2;
    KvCacheServer server(f.app, config);

    workloads::MemtierConfig client_config;
    client_config.threads = 2;
    client_config.connectionsPerThread = 8;
    workloads::MemtierClient client(f.kernel, server.listenPort(),
                                    client_config);

    f.machine.engine().spawn("driver", 7, [&] {
        server.start(0); // workers on cores 0 and 1
        client.start(4);
        f.machine.engine().sleepFor(secondsToCycles(0.02));
        client.stop();
        server.stop();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    EXPECT_GT(client.completed(), 100u);
    EXPECT_EQ(client.corrupted(), 0u);
    EXPECT_GE(server.requestsServed(), client.completed());
}

// ----------------------------------------------------------------------
// VPN flood-ping path through the whole stack.
// ----------------------------------------------------------------------

TEST(VpnPing, EchoesThroughTunnelWithSaneRtt)
{
    AppFixture f({port::Mode::Native});
    crypto::ChaChaKey key{};
    key[3] = 0x33;
    VpnConfig vpn_config;
    VpnTunnel tunnel(f.app, key, vpn_config);

    workloads::VpnTrafficConfig traffic;
    traffic.mode = workloads::VpnTrafficConfig::Mode::Ping;
    traffic.pingOutstanding = 10;

    std::uint64_t pings = 0;
    double mean_rtt_ms = 0;
    f.machine.engine().spawn("driver", 7, [&] {
        tunnel.start(0);
        workloads::VpnLanHost host(f.kernel, tunnel.tunAppFd(),
                                   traffic);
        workloads::VpnRemotePeer peer(f.kernel, key,
                                      vpn_config.remoteUdpPort,
                                      vpn_config.localUdpPort,
                                      traffic);
        peer.recordRtts(true);
        host.start(3);
        peer.start(6);
        f.machine.engine().sleepFor(secondsToCycles(0.05));
        pings = peer.pingsCompleted();
        if (!peer.pingRtts().empty())
            mean_rtt_ms = cyclesToMillis(static_cast<Cycles>(
                peer.pingRtts().mean()));
        EXPECT_EQ(peer.authFailures(), 0u);
        peer.stop();
        host.stop();
        tunnel.stop();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    EXPECT_GT(pings, 100u);
    // RTT must at least cover two link propagations plus processing,
    // and stay well under a millisecond-scale queueing collapse for
    // only 10 outstanding pings.
    EXPECT_GT(mean_rtt_ms, 2 * 0.09);
    EXPECT_LT(mean_rtt_ms, 2.0);
}
