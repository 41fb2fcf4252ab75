/**
 * @file
 * Application-bench harness implementation.
 */

#include "bench/app_bench.hh"

#include "apps/httpd.hh"
#include "apps/kvcache.hh"
#include "apps/vpn.hh"
#include "workloads/httpload.hh"
#include "workloads/memtier.hh"
#include "workloads/vpn_traffic.hh"

namespace hc::bench {

namespace {

/** Build the paper's machine (8 logical cores, AEX armed). */
mem::MachineConfig
machineConfig(std::uint64_t seed)
{
    mem::MachineConfig config;
    config.engine.numCores = 8;
    config.engine.seed = seed;
    config.engine.interruptMeanCycles = 7'000'000;
    return config;
}

port::PortConfig
portConfig(const AppRunConfig &run,
           std::set<std::string> hot_ocalls)
{
    port::PortConfig config;
    config.mode = run.mode;
    config.marshal.noRedundantZeroing = run.noRedundantZeroing;
    config.fastPath = run.fastPath;
    config.hotOcallCore = 2;
    config.hotEcallCore = 1;
    // Core 5 is unused by every app testbed (server 0, client 4,
    // driver 7, VPN host 3 / peer 6): let the shared ocall HotQueue
    // scale a second responder onto it under load.
    config.extraHotOcallCores = {5};
    config.hotOcalls = std::move(hot_ocalls);
    return config;
}

std::map<std::string, double>
toRates(const std::map<std::string, std::uint64_t> &counts,
        double seconds, double *total)
{
    std::map<std::string, double> rates;
    *total = 0;
    for (const auto &entry : counts) {
        const double rate =
            static_cast<double>(entry.second) / seconds;
        rates[entry.first] = rate;
        *total += rate;
    }
    return rates;
}

} // anonymous namespace

std::vector<AppRunConfig>
standardConfigs(double measure_sec)
{
    std::vector<AppRunConfig> configs(4);
    configs[0].mode = port::Mode::Native;
    configs[1].mode = port::Mode::Sgx;
    configs[2].mode = port::Mode::SgxHotCalls;
    configs[3].mode = port::Mode::SgxHotCalls;
    configs[3].noRedundantZeroing = true;
    for (auto &c : configs)
        c.measureSec = measure_sec;
    return configs;
}

AppRunConfig
fastPathConfig(double measure_sec)
{
    AppRunConfig config;
    config.mode = port::Mode::SgxHotCalls;
    config.noRedundantZeroing = true;
    config.fastPath = true;
    config.measureSec = measure_sec;
    return config;
}

std::string
configLabel(const AppRunConfig &config)
{
    std::string label = port::modeName(config.mode);
    if (config.noRedundantZeroing)
        label += "+nrz";
    if (config.fastPath)
        label += "+fastpath";
    return label;
}

AppRunResult
runKvCache(const AppRunConfig &run)
{
    mem::Machine machine(machineConfig(run.seed));
    sgx::SgxPlatform platform(machine);
    platform.installAexHandler();
    os::Kernel kernel(machine);

    // Paper §6.2: HotCalls accelerate read, sendmsg (ocalls) and
    // RunEnclaveFunction (the HotEcall channel covers the latter).
    port::PortedApp app(platform, kernel, "memcached",
                        portConfig(run, {"ocall_read",
                                         "ocall_sendmsg"}));
    app.declareImports({"read", "sendmsg", "epoll_wait", "close",
                        "accept", "time"});

    apps::KvCacheServer server(app);
    workloads::MemtierClient client(kernel, server.listenPort());

    AppRunResult result;
    auto &engine = machine.engine();
    engine.spawn("driver", 7, [&] {
        app.startHotCalls();
        server.start(0);
        client.start(4);

        engine.sleepFor(secondsToCycles(run.warmupSec));
        app.resetCounters();
        client.recordLatencies(true);
        const std::uint64_t done0 = client.completed();
        const Cycles t0 = machine.now();

        engine.sleepFor(secondsToCycles(run.measureSec));
        const std::uint64_t done1 = client.completed();
        const Cycles t1 = machine.now();
        const double seconds = cyclesToSeconds(t1 - t0);

        result.throughput =
            static_cast<double>(done1 - done0) / seconds;
        if (!client.latencies().empty()) {
            result.latencyMs =
                cyclesToMillis(static_cast<Cycles>(
                    client.latencies().mean()));
        }
        result.callRatesPerSec = toRates(app.callCounts(), seconds,
                                         &result.totalCallsPerSec);
        result.integrityErrors = client.corrupted();

        client.stop();
        server.stop();
        app.stopHotCalls();
        engine.stop();
    });
    engine.run();
    return result;
}

AppRunResult
runHttpd(const AppRunConfig &run)
{
    mem::Machine machine(machineConfig(run.seed));
    sgx::SgxPlatform platform(machine);
    platform.installAexHandler();
    os::Kernel kernel(machine);

    // Paper §6.4: all 14 frequent calls go through HotCalls.
    port::PortedApp app(
        platform, kernel, "lighttpd",
        portConfig(run,
                   {"ocall_read", "ocall_fcntl", "ocall_epoll_ctl",
                    "ocall_close", "ocall_setsockopt",
                    "ocall_fxstat64", "ocall_inet_ntop",
                    "ocall_accept", "ocall_inet_addr", "ocall_ioctl",
                    "ocall_open", "ocall_sendfile", "ocall_shutdown",
                    "ocall_writev", "ocall_epoll_wait",
                    "ocall_listen", "ocall_epoll_create"}));
    app.declareImports({"read", "fcntl", "close", "setsockopt",
                        "accept", "ioctl", "shutdown", "writev",
                        "sendfile", "open"});

    apps::HttpServer server(app);
    workloads::HttpLoadClient client(kernel, server.listenPort());

    AppRunResult result;
    auto &engine = machine.engine();
    engine.spawn("driver", 7, [&] {
        app.startHotCalls();
        server.start(0);
        // Give the server a moment to open its listening socket.
        engine.sleepFor(secondsToCycles(0.001));
        client.start(4);

        engine.sleepFor(secondsToCycles(run.warmupSec));
        app.resetCounters();
        client.recordLatencies(true);
        const std::uint64_t done0 = client.completed();
        const Cycles t0 = machine.now();

        engine.sleepFor(secondsToCycles(run.measureSec));
        const std::uint64_t done1 = client.completed();
        const Cycles t1 = machine.now();
        const double seconds = cyclesToSeconds(t1 - t0);

        result.throughput =
            static_cast<double>(done1 - done0) / seconds;
        if (!client.latencies().empty()) {
            result.latencyMs = cyclesToMillis(static_cast<Cycles>(
                client.latencies().mean()));
        }
        result.callRatesPerSec = toRates(app.callCounts(), seconds,
                                         &result.totalCallsPerSec);
        result.integrityErrors = client.badFetches();

        client.stop();
        server.stop();
        app.stopHotCalls();
        engine.stop();
    });
    engine.run();
    return result;
}

namespace {

/** Common VPN testbed setup; runs either traffic mode. */
AppRunResult
runVpn(const AppRunConfig &run, workloads::VpnTrafficConfig traffic)
{
    mem::Machine machine(machineConfig(run.seed));
    sgx::SgxPlatform platform(machine);
    platform.installAexHandler();
    os::Kernel kernel(machine);

    // Paper §6.3: HotCalls for all seven frequent calls.
    port::PortedApp app(
        platform, kernel, "openvpn",
        portConfig(run, {"ocall_poll", "ocall_time", "ocall_getpid",
                         "ocall_write", "ocall_recvfrom",
                         "ocall_read", "ocall_sendto"}));
    app.declareImports({"poll", "time", "getpid", "write", "recvfrom",
                        "read", "sendto"});

    crypto::ChaChaKey key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(0x42 + i);

    apps::VpnConfig vpn_config;
    apps::VpnTunnel tunnel(app, key, vpn_config);

    AppRunResult result;
    auto &engine = machine.engine();
    engine.spawn("driver", 7, [&] {
        app.startHotCalls();
        tunnel.start(0);

        workloads::VpnLanHost host(kernel, tunnel.tunAppFd(),
                                   traffic);
        workloads::VpnRemotePeer peer(
            kernel, key, vpn_config.remoteUdpPort,
            vpn_config.localUdpPort, traffic);
        host.start(3);
        peer.start(6);

        engine.sleepFor(secondsToCycles(run.warmupSec));
        app.resetCounters();
        peer.recordRtts(true);
        const std::uint64_t bytes0 = host.payloadBytes();
        const Cycles t0 = machine.now();

        engine.sleepFor(secondsToCycles(run.measureSec));
        const std::uint64_t bytes1 = host.payloadBytes();
        const Cycles t1 = machine.now();
        const double seconds = cyclesToSeconds(t1 - t0);

        result.throughput = static_cast<double>(bytes1 - bytes0) *
                            8.0 / seconds / 1e6; // Mbit/s
        if (!peer.pingRtts().empty()) {
            result.latencyMs = cyclesToMillis(
                static_cast<Cycles>(peer.pingRtts().mean()));
        }
        result.callRatesPerSec = toRates(app.callCounts(), seconds,
                                         &result.totalCallsPerSec);
        result.integrityErrors =
            tunnel.authFailures() + peer.authFailures();

        peer.stop();
        host.stop();
        tunnel.stop();
        app.stopHotCalls();
        engine.stop();
    });
    engine.run();
    return result;
}

} // anonymous namespace

AppRunResult
runVpnIperf(const AppRunConfig &run)
{
    workloads::VpnTrafficConfig traffic;
    traffic.mode = workloads::VpnTrafficConfig::Mode::Iperf;
    return runVpn(run, traffic);
}

AppRunResult
runVpnPing(const AppRunConfig &run)
{
    workloads::VpnTrafficConfig traffic;
    traffic.mode = workloads::VpnTrafficConfig::Mode::Ping;
    return runVpn(run, traffic);
}

} // namespace hc::bench
