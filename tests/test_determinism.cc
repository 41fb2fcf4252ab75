/**
 * @file
 * Determinism regression tests and the golden-digest harness that
 * guards the host-side fast paths (TurboSim).
 *
 * Every optimisation of the simulator's host-side hot paths must keep
 * simulated results bit-identical: same seed -> same cycle counts,
 * same stats, same SimCheck verdicts. These tests enforce that three
 * ways:
 *
 *  1. run-twice determinism at full fidelity (interrupts armed,
 *     responder hiccups on) for the Fig 3 HotCall path and a
 *     4-requester HotQueue scenario;
 *  2. a golden digest: a text serialization of every observable
 *     simulated quantity (latency streams, per-core clocks, cache and
 *     MEE counters, channel stats) whose hash is pinned to the value
 *     captured BEFORE the fast paths were introduced. The golden
 *     scenarios disable the two libm-dependent noise sources
 *     (exponential interrupt arrivals and responder hiccups, both of
 *     which go through std::log) so the digest is a function of
 *     integer and IEEE-basic-ops arithmetic only and does not float
 *     with the host's libm version (the application golden keeps the
 *     port's responder hiccups; see AppBed);
 *  3. HC_CHECK invariance: enabling the SimCheck correctness layer
 *     must not move a single simulated cycle.
 *
 * The scenarios themselves live in determinism_scenarios.hh, shared
 * with the fault-injection campaign (test_fault.cc), which re-runs
 * them under a quiet FaultPlan and asserts the same pinned hashes.
 *
 * Rerun with HC_PRINT_DIGEST=1 to print the digest texts (e.g. to
 * re-capture the goldens after an intentional model change; any such
 * change must be called out in EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "apps/httpd.hh"
#include "apps/kvcache.hh"
#include "apps/vpn.hh"
#include "determinism_scenarios.hh"
#include "support/env.hh"
#include "support/hash.hh"
#include "workloads/httpload.hh"
#include "workloads/memtier.hh"
#include "workloads/spec.hh"
#include "workloads/vpn_traffic.hh"

using namespace hc;
using namespace hc::dtest;

namespace {

/** The pinned memory-pressure golden hash (see MemoryGoldenDigest). */
constexpr std::uint64_t kMemoryGoldenHash = 410715964193674229ull;

/** The pinned simulated-kernel golden hash (see AppGoldenDigest). */
constexpr std::uint64_t kAppGoldenHash = 18333372269750248354ull;

/** The pinned Native-mode application golden hash (see
 *  NativeAppGoldenDigest). */
constexpr std::uint64_t kNativeAppGoldenHash = 7794707534327269880ull;

void
maybePrint(const char *what, const std::string &text)
{
    const char *env = std::getenv("HC_PRINT_DIGEST");
    if (env && *env && std::strcmp(env, "0") != 0) {
        std::printf("==== %s ====\n%s==== hash=%llu ====\n", what,
                    text.c_str(),
                    static_cast<unsigned long long>(
                        fastHash64(text)));
    }
}

/**
 * The memory hierarchy past the LLC's capacity, which the two goldens
 * above never reach: scaled-down Fig 8 kernels over a 4 MiB physical
 * EPC, then an EPC write sweep with flush_after. libquantum runs first
 * and nothing flushes between kernel runs, so once its 12 MiB register
 * has filled the 8 MiB LLC every later fill evicts a valid line (dirty
 * EPC victims go through the MEE), and the register and the sweep
 * both page the EPC. Freed regions are reused, so later runs verify
 * lines an earlier run wrote back. Interrupts are off and nothing
 * draws from libm, like the other goldens.
 */
Digest
memoryPressureScenario()
{
    mem::MachineConfig config;
    config.engine.seed = 42;
    config.engine.interruptMeanCycles = 0;
    config.mem.epcSize = 4_MiB;
    mem::Machine machine(config);
    sgx::SgxPlatform platform(machine);
    auto &memory = machine.memory();
    std::uint64_t integrity_failures = 0;
    memory.setIntegrityFailureHook([&](Addr) { ++integrity_failures; });

    workloads::SpecConfig spec;
    spec.libqBytes = 12_MiB;
    spec.libqSweeps = 2;
    spec.mcfBytes = 12_MiB;
    spec.mcfSteps = 30'000;
    spec.astarBytes = 10_MiB;
    spec.astarSteps = 20'000;
    using Kernel = Cycles (*)(mem::Machine &, mem::Domain,
                              const workloads::SpecConfig &);
    const std::pair<const char *, Kernel> kernels[] = {
        {"libquantum", &workloads::runLibquantum},
        {"mcf", &workloads::runMcf},
        {"astar", &workloads::runAstar},
    };

    Digest d;
    const auto snapshot = [&](const std::string &run, Cycles cycles) {
        d.add(run + ".cycles", cycles);
        d.add(run + ".llc.hits", memory.cache().hits());
        d.add(run + ".llc.misses", memory.cache().misses());
        d.add(run + ".mee.nodeHits", memory.mee().nodeCacheHits());
        d.add(run + ".mee.nodeMisses", memory.mee().nodeCacheMisses());
        d.add(run + ".epc.faults", platform.epc().faults());
        d.add(run + ".epc.evictions", platform.epc().evictions());
        d.add(run + ".integrityFailures", integrity_failures);
    };
    machine.engine().spawn("pressure", 0, [&] {
        for (const auto &[name, run] : kernels) {
            for (const mem::Domain domain :
                 {mem::Domain::Epc, mem::Domain::Untrusted}) {
                const Cycles cycles = run(machine, domain, spec);
                snapshot(std::string(name) +
                             (domain == mem::Domain::Epc ? ".epc"
                                                         : ".untrusted"),
                         cycles);
            }
        }
        // More misses than the LLC has lines, with nothing flushed:
        // the kernels evicted valid lines.
        EXPECT_GT(memory.cache().misses(),
                  machine.memParams().llcSize / kCacheLineSize);

        // Write sweep in 64 KiB chunks: write then clflush each chunk
        // (span-memo flush of dirty lines, MEE write-back), read it
        // back (verifies the new versions), rewrite it (span replay
        // over resident lines), and evict the region at each pass end.
        constexpr std::uint64_t kSweep = 6_MiB;
        constexpr std::uint64_t kChunk = 64_KiB;
        const Addr region = machine.space().allocEpc(kSweep, kPageSize);
        for (int pass = 0; pass < 3; ++pass) {
            const Cycles start = machine.now();
            for (std::uint64_t off = 0; off < kSweep; off += kChunk) {
                memory.writeBuffer(region + off, kChunk,
                                   /*flush_after=*/true);
                memory.readBuffer(region + off, kChunk);
                memory.writeBuffer(region + off, kChunk);
            }
            memory.evictRange(region, kSweep);
            snapshot("sweep" + std::to_string(pass),
                     machine.now() - start);
        }
        machine.space().free(region);
    });
    machine.engine().run();
    return d;
}

/**
 * One ported application over the simulated kernel: the machine
 * (8 cores, interrupts off), the kernel and the port. The HotCalls
 * responders keep the port's hiccup model; its exponential draws are
 * truncated to whole cycles, so only a libm difference that crosses
 * an integer could move the digest.
 */
struct AppBed {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    os::Kernel kernel;
    port::PortedApp app;

    AppBed(const char *name, port::Mode mode,
           std::set<std::string> hot_ocalls, bool check_on = false)
        : machine([check_on] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              config.engine.seed = 42;
              config.engine.interruptMeanCycles = 0;
              config.check.enabled = check_on;
              return config;
          }()),
          platform(machine), kernel(machine),
          app(platform, kernel, name, [&] {
              port::PortConfig config;
              config.mode = mode;
              config.fastPath = false;
              config.hotOcallCore = 2;
              config.hotEcallCore = 1;
              config.hotOcalls = std::move(hot_ocalls);
              return config;
          }())
    {
    }

    /** Append the final core clocks and the port's call counters. */
    void digest(Digest &d, const std::string &prefix)
    {
        auto &engine = machine.engine();
        for (int c = 0; c < engine.numCores(); ++c)
            d.add(prefix + ".core" + std::to_string(c) + ".clock",
                  engine.coreNow(c));
        for (const auto &[name, count] : app.callCounts())
            d.add(prefix + ".calls." + name, count);
    }
};

void
addLatencies(Digest &d, const std::string &key, const SampleSet &set)
{
    std::vector<Cycles> samples;
    for (const double v : set.raw())
        samples.push_back(static_cast<Cycles>(v));
    d.addSamples(key, samples);
}

/** Warm up for 2 ms, record for 10 ms, then stop everything. */
void
runWindow(AppBed &bed, const std::function<void()> &start,
          const std::function<void()> &record,
          const std::function<void()> &stop)
{
    auto &engine = bed.machine.engine();
    engine.spawn("driver", 7, [&] {
        bed.app.startHotCalls();
        start();
        engine.sleepFor(secondsToCycles(0.002));
        record();
        engine.sleepFor(secondsToCycles(0.01));
        stop();
        bed.app.stopHotCalls();
        engine.stop();
    });
    engine.run();
}

/**
 * memcached under memtier: 2 threads x 20 connections, so the
 * server's epoll pass finds several members ready. Clients spend 5 us
 * per response, so responses queue up at them: a client's set
 * alternates between empty passes and passes with several members
 * ready, whose order follows the scan rotation.
 */
void
kvScenario(Digest &d, port::Mode mode, bool check_on = false)
{
    AppBed bed("memcached", mode, {"ocall_read", "ocall_sendmsg"},
               check_on);
    apps::KvCacheConfig server_config;
    server_config.numSlots = 4'096;
    apps::KvCacheServer server(bed.app, server_config);
    workloads::MemtierConfig client_config;
    client_config.threads = 2;
    client_config.connectionsPerThread = 20;
    client_config.clientWork = 20'000;
    workloads::MemtierClient client(bed.kernel, server.listenPort(),
                                    client_config);
    runWindow(
        bed,
        [&] {
            server.start(0);
            client.start(4);
        },
        [&] { client.recordLatencies(true); },
        [&] {
            client.stop();
            server.stop();
        });

    const std::string p = std::string("kv.") + port::modeName(mode);
    d.add(p + ".completed", client.completed());
    d.add(p + ".corrupted", client.corrupted());
    d.add(p + ".served", server.requestsServed());
    addLatencies(d, p + ".latency", client.latencies());
    bed.digest(d, p);
}

/** lighttpd under http_load: accept, epoll, sendfile, shutdown and
 *  close on every page. */
void
httpdScenario(Digest &d, port::Mode mode)
{
    AppBed bed("lighttpd", mode, {});
    apps::HttpServer server(bed.app);
    workloads::HttpLoadConfig load;
    load.connections = 20;
    load.clientThreads = 2;
    workloads::HttpLoadClient client(bed.kernel, server.listenPort(),
                                     load);
    runWindow(
        bed, [&] { server.start(0); },
        [&] {
            client.start(4);
            client.recordLatencies(true);
        },
        [&] {
            client.stop();
            server.stop();
        });

    d.add("httpd.completed", client.completed());
    d.add("httpd.bad", client.badFetches());
    d.add("httpd.served", server.pagesServed());
    addLatencies(d, "httpd.latency", client.latencies());
    bed.digest(d, "httpd");
}

/** openVPN under flood ping: poll and waitReadable over UDP (link
 *  delay) and TUN, whose readiness depends on the clock. */
void
vpnScenario(Digest &d, port::Mode mode)
{
    AppBed bed("openvpn", mode, {});
    crypto::ChaChaKey key{};
    key[0] = 0x42;
    apps::VpnConfig vpn_config;
    apps::VpnTunnel tunnel(bed.app, key, vpn_config);
    workloads::VpnTrafficConfig traffic;
    traffic.mode = workloads::VpnTrafficConfig::Mode::Ping;
    traffic.pingOutstanding = 10;
    std::unique_ptr<workloads::VpnLanHost> host;
    std::unique_ptr<workloads::VpnRemotePeer> peer;
    runWindow(
        bed,
        [&] {
            tunnel.start(0);
            host = std::make_unique<workloads::VpnLanHost>(
                bed.kernel, tunnel.tunAppFd(), traffic);
            peer = std::make_unique<workloads::VpnRemotePeer>(
                bed.kernel, key, vpn_config.remoteUdpPort,
                vpn_config.localUdpPort, traffic);
            host->start(3);
            peer->start(6);
        },
        [&] { peer->recordRtts(true); },
        [&] {
            peer->stop();
            host->stop();
            tunnel.stop();
        });

    d.add("vpn.pings", peer->pingsCompleted());
    d.add("vpn.authFailures",
          tunnel.authFailures() + peer->authFailures());
    d.add("vpn.packetsIn", tunnel.packetsIn());
    d.add("vpn.packetsOut", tunnel.packetsOut());
    addLatencies(d, "vpn.rtt", peer->pingRtts());
    bed.digest(d, "vpn");
}

/**
 * Idle channels beside a thread that churns a tiny LLC, the scenario
 * for the bounds of the idle loops' steady declarations: two
 * requesters burst on a HotQueue, whose surplus responder wakes on the
 * backlog and parks again after a short occupancy window of idle
 * polls; a single line's responder sleeps after a few idle polls
 * between a caller's calls; and a sweeper's buffer reads evict the
 * channel lines over and over from a 2 KiB, 4-set LLC, so the LRU
 * stamps that batched probes leave decide later victims. The
 * batch/step twin (CheckDoesNotChangeSimulatedCycles) runs it.
 */
Digest
idleChannelsScenario(bool check_on, std::uint64_t *steady_steps = nullptr)
{
    mem::MachineConfig machine_config;
    machine_config.engine.numCores = 8;
    machine_config.engine.seed = 42;
    machine_config.engine.interruptMeanCycles = 0;
    machine_config.mem.llcSize = 2_KiB;
    machine_config.mem.llcWays = 8;
    machine_config.check.enabled = check_on;
    mem::Machine machine(machine_config);
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "determinism", kEdl, 4);
    runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
        c.setRetval(c.scalar(0) + c.scalar(1));
    });
    runtime.registerEcall("ecall_empty", [](edl::StagedCall &) {});
    runtime.registerOcall("ocall_empty", [](edl::StagedCall &) {});

    hotcalls::HotQueueConfig queue_config;
    queue_config.numSlots = 4;
    queue_config.responderCores = {1, 2};
    queue_config.scaleUpDepth = 2;
    queue_config.scaleWindowPolls = 24;
    queue_config.hiccupChance = 0.0;
    hotcalls::HotQueue queue(runtime, hotcalls::Kind::HotEcall,
                             queue_config);
    hotcalls::HotCallConfig line_config;
    line_config.responderSleep = true;
    line_config.idlePollsBeforeSleep = 15;
    line_config.hiccupChance = 0.0;
    hotcalls::HotCallService line(runtime, hotcalls::Kind::HotEcall, 3,
                                  line_config);

    auto &engine = machine.engine();
    std::vector<Cycles> latencies;
    std::uint64_t sum = 0;
    bool done = false;
    int finished = 0;
    const auto timed = [&](auto &&call) {
        const Cycles t0 = machine.now();
        sum += call();
        latencies.push_back(machine.now() - t0);
    };
    queue.start();
    engine.spawn("sweeper", 7, [&] {
        mem::Buffer buf(machine, mem::Domain::Untrusted, 4_KiB);
        while (!done) {
            buf.read();
            engine.sleepFor(2'500);
        }
    });
    for (int r = 0; r < 2; ++r) {
        engine.spawn("req" + std::to_string(r), 4 + r, [&, r] {
            for (int round = 0; round < 12; ++round) {
                for (int i = 0; i < 6; ++i) {
                    timed([&] {
                        return queue.call(
                            "ecall_add",
                            {edl::Arg::value(static_cast<std::uint64_t>(r)),
                             edl::Arg::value(
                                 static_cast<std::uint64_t>(i))});
                    });
                }
                engine.sleepFor(4'000 + 700 * static_cast<Cycles>(round));
            }
            ++finished;
        });
    }
    engine.spawn("caller", 0, [&] {
        line.start();
        for (int i = 0; i < 40 || finished < 2; ++i) {
            timed([&] {
                return line.call("ecall_add",
                                 {edl::Arg::value(static_cast<std::uint64_t>(i)),
                                  edl::Arg::value(1)});
            });
            engine.sleepFor(1'500 + 90 * static_cast<Cycles>(i % 17));
        }
        done = true;
        queue.stop();
        line.stop();
        engine.stop();
    });
    engine.run();

    Digest d;
    d.add("idle.sum", sum);
    d.addSamples("idle.latency", latencies);
    const auto &q = queue.stats();
    d.add("idle.queue.polls", q.responderPolls);
    d.add("idle.queue.batches", q.batches);
    d.add("idle.queue.scaleUps", q.scaleUps);
    d.add("idle.queue.scaleDowns", q.scaleDowns);
    d.add("idle.queue.wakeups", q.wakeups);
    const auto &l = line.stats();
    d.add("idle.line.polls", l.responderPolls);
    d.add("idle.line.sleeps", l.responderSleeps);
    d.add("idle.line.wakeups", l.wakeups);
    for (int c = 0; c < engine.numCores(); ++c)
        d.add("core" + std::to_string(c) + ".clock", engine.coreNow(c));
    d.add("llc.hits", machine.memory().cache().hits());
    d.add("llc.misses", machine.memory().cache().misses());
    if (steady_steps)
        *steady_steps = engine.steadySteps();
    return d;
}

/** Every application scenario, in a fixed order. */
std::string
appGoldenText()
{
    Digest d;
    kvScenario(d, port::Mode::Sgx);
    kvScenario(d, port::Mode::SgxHotCalls);
    httpdScenario(d, port::Mode::Sgx);
    vpnScenario(d, port::Mode::Sgx);
    return d.text();
}

/** The same three applications without the enclave boundary. */
std::string
nativeAppGoldenText()
{
    Digest d;
    kvScenario(d, port::Mode::Native);
    httpdScenario(d, port::Mode::Native);
    vpnScenario(d, port::Mode::Native);
    return d.text();
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Run-twice determinism at full fidelity (interrupts + hiccups on).
// ----------------------------------------------------------------------

TEST(Determinism, Fig3ScenarioRunTwice)
{
    const Digest a = fig3Scenario(true, true, false, 400);
    const Digest b = fig3Scenario(true, true, false, 400);
    EXPECT_EQ(a.text(), b.text());
}

TEST(Determinism, HotQueueScenarioRunTwice)
{
    const Digest a = hotqueueScenario(true, true, false, 150);
    const Digest b = hotqueueScenario(true, true, false, 150);
    EXPECT_EQ(a.text(), b.text());
}

TEST(Determinism, MemorySweepRunTwice)
{
    const Digest a = memorySweepScenario(false);
    const Digest b = memorySweepScenario(false);
    EXPECT_EQ(a.text(), b.text());
}

TEST(Determinism, FastPathScenarioRunTwiceBothPlanes)
{
    // The FastPath data plane must be run-twice deterministic with
    // the switch in either position.
    const Digest on_a = fastPathScenario(false, 1, 120);
    const Digest on_b = fastPathScenario(false, 1, 120);
    EXPECT_EQ(on_a.text(), on_b.text());

    const Digest off_a = fastPathScenario(false, 0, 120);
    const Digest off_b = fastPathScenario(false, 0, 120);
    EXPECT_EQ(off_a.text(), off_b.text());

    // And the two planes must NOT be byte-identical to each other:
    // FastPath deliberately changes the cycle model (that is the
    // point), so a silent plane mix-up cannot hide here.
    EXPECT_NE(on_a.text(), off_a.text());
}

// ----------------------------------------------------------------------
// SimCheck invariance: instrumentation must not move simulated time.
// It is also the batch/step twin: with SimCheck attached the idle polls
// take the step path (every access must reach the checker), without it
// they run in steady batches, so each pair below compares the two.
// (Under an HC_CHECK=1 environment both runs have the checker on,
// which degrades this to run-twice determinism — still a valid
// invariant, and CI's plain ctest run covers the actual on/off pair.)
// ----------------------------------------------------------------------

TEST(Determinism, CheckDoesNotChangeSimulatedCycles)
{
    const Digest off = fig3Scenario(false, false, false, 200);
    const Digest on = fig3Scenario(false, false, true, 200);
    EXPECT_EQ(off.text(), on.text());

    const Digest qoff = hotqueueScenario(false, false, false, 100);
    const Digest qon = hotqueueScenario(false, false, true, 100);
    EXPECT_EQ(qoff.text(), qon.text());

    const Digest moff = memorySweepScenario(false);
    const Digest mon = memorySweepScenario(true);
    EXPECT_EQ(moff.text(), mon.text());

    const Digest foff = fastPathScenario(false, 1, 60);
    const Digest fon = fastPathScenario(true, 1, 60);
    EXPECT_EQ(foff.text(), fon.text());

    // memcached in SgxHotCalls: HotQueue responders and requesters
    // beside the kernel's sockets and the app's own threads.
    Digest koff, kon;
    kvScenario(koff, port::Mode::SgxHotCalls, false);
    kvScenario(kon, port::Mode::SgxHotCalls, true);
    EXPECT_EQ(koff.text(), kon.text());

    // The idle loops' bounds: a scale-down window, a sleep threshold,
    // and LRU victims among batched channel lines.
    const Digest ioff = idleChannelsScenario(false);
    const Digest ion = idleChannelsScenario(true);
    maybePrint("idle-channels", ioff.text());
    EXPECT_EQ(ioff.text(), ion.text());
    for (const char *zero : {"idle.queue.scaleDowns=0\n",
                             "idle.line.sleeps=0\n"})
        EXPECT_EQ(ioff.text().find(zero), std::string::npos) << zero;
}

TEST(Determinism, IdlePollsBatchOnlyWithoutTheChecker)
{
    // The channel scenarios' idle polls run in steady batches, and
    // never with SimCheck attached: it must see every access. (Under an
    // HC_CHECK=1 environment the checker is on in every run.)
    const bool forced = envFlagOr("HC_CHECK", false);
    const auto expect_batches = [forced](std::uint64_t off,
                                         std::uint64_t on) {
        if (forced)
            EXPECT_EQ(off, 0u);
        else
            EXPECT_GT(off, 0u);
        EXPECT_EQ(on, 0u);
    };
    std::uint64_t off = 0, on = 0;
    fig3Scenario(false, false, false, 100, nullptr, true, &off);
    fig3Scenario(false, false, true, 100, nullptr, true, &on);
    expect_batches(off, on);
    hotqueueScenario(false, false, false, 50, nullptr, true, &off);
    hotqueueScenario(false, false, true, 50, nullptr, true, &on);
    expect_batches(off, on);
    fastPathScenario(false, 1, 40, nullptr, true, &off);
    fastPathScenario(true, 1, 40, nullptr, true, &on);
    expect_batches(off, on);
    idleChannelsScenario(false, &off);
    idleChannelsScenario(true, &on);
    expect_batches(off, on);
}

// ----------------------------------------------------------------------
// Sentinel invariance: the supervision layer only ever acts on
// conditions a healthy run never produces (fallbacks, late
// responders, expired deadlines), so with the guard on vs off every
// quiet scenario — the full golden set, both FastPath planes — must
// digest byte-identically, and both positions must reproduce the
// pinned hashes. (The run-twice tests above run with the guard on,
// its default.)
// ----------------------------------------------------------------------

TEST(Determinism, GuardOnOffBitIdentical)
{
    const std::string golden_off = goldenText(nullptr, false);
    const std::string golden_on = goldenText(nullptr, true);
    EXPECT_EQ(golden_off, golden_on)
        << "Sentinel moved simulated cycles on a quiet run; the "
           "guard must not draw RNG, charge time, or touch simulated "
           "memory unless a fallback or deadline fires";
    EXPECT_EQ(fastHash64(golden_off), kGoldenHash);
    EXPECT_EQ(fastHash64(golden_on), kGoldenHash);

    const std::string fp_off = fastPathGoldenText(nullptr, false);
    const std::string fp_on = fastPathGoldenText(nullptr, true);
    EXPECT_EQ(fp_off, fp_on);
    EXPECT_EQ(fastHash64(fp_off), kFastPathGoldenHash);
    EXPECT_EQ(fastHash64(fp_on), kFastPathGoldenHash);
}

// ----------------------------------------------------------------------
// The golden digest. The pinned hash was captured on the seed
// implementation BEFORE the TurboSim fast paths (PR 4) and must never
// drift: any host-side optimisation has to reproduce these simulated
// outputs bit for bit. If a deliberate model change moves it, rerun
// with HC_PRINT_DIGEST=1, inspect the per-key diff, and update both
// the constant (determinism_scenarios.hh) and the EXPERIMENTS.md
// narrative.
// ----------------------------------------------------------------------

TEST(Determinism, GoldenDigest)
{
    const std::string text = goldenText();
    maybePrint("golden", text);
    EXPECT_EQ(fastHash64(text), kGoldenHash)
        << "Simulated outputs drifted from the pre-TurboSim golden "
           "digest. Rerun with HC_PRINT_DIGEST=1 to inspect; only a "
           "deliberate model change may update the golden.\n"
        << text;
}

// ----------------------------------------------------------------------
// The FastPath golden: both data planes of the buffer-carrying hot
// ocall scenario, pinned at the introduction of FastPath marshalling.
// The legacy half doubles as the bit-identity guard for the
// fastPath=0 switch; the fast half pins the new cost model.
// ----------------------------------------------------------------------

TEST(Determinism, FastPathGoldenDigest)
{
    const std::string text = fastPathGoldenText();
    maybePrint("fastpath-golden", text);
    EXPECT_EQ(fastHash64(text), kFastPathGoldenHash)
        << "FastPath scenario outputs drifted from the golden digest "
           "captured when FastPath marshalling was introduced. Rerun "
           "with HC_PRINT_DIGEST=1 to inspect; only a deliberate "
           "model change may update the golden.\n"
        << text;
}

// ----------------------------------------------------------------------
// The memory-pressure golden: LLC victim choice among valid lines,
// dirty EPC write-backs, MEE verification of written-back versions and
// EPC paging. Pinned on the per-set LLC ways and hashed MEE overlay,
// before both moved to flat, directly indexed arrays.
// ----------------------------------------------------------------------

TEST(Determinism, MemoryGoldenDigest)
{
    const std::string text = memoryPressureScenario().text();
    maybePrint("memory-golden", text);
    EXPECT_EQ(fastHash64(text), kMemoryGoldenHash)
        << "Memory-pressure outputs drifted from the golden digest. "
           "Rerun with HC_PRINT_DIGEST=1 to inspect; only a deliberate "
           "model change may update the golden.\n"
        << text;
}

// ----------------------------------------------------------------------
// The simulated-kernel golden: memcached, lighttpd and openVPN over
// the kernel's sockets, epoll, poll, sendfile and TUN. Which thread
// wakes and runs when, and the order a wait reports ready members in,
// move request latencies and core clocks, so this pins the kernel's
// schedule. Pinned on the hashed descriptor table and per-byte stream
// deques, before readiness moved to per-set ready counts.
// ----------------------------------------------------------------------

TEST(Determinism, AppGoldenDigest)
{
    const std::string text = appGoldenText();
    maybePrint("app-golden", text);
    EXPECT_EQ(fastHash64(text), kAppGoldenHash)
        << "Application outputs drifted from the golden digest. Rerun "
           "with HC_PRINT_DIGEST=1 to inspect; only a deliberate model "
           "change may update the golden.\n"
        << text;
}

// ----------------------------------------------------------------------
// The Native application golden: the same three applications with no
// enclave, so every libc call goes straight to the kernel and the
// call counters carry Native's names (sendfile64, open64_2, socket).
// It pins the route Native takes through the port, which the SGX-only
// golden above never runs. Pinned before Native moved onto the
// ocall landings.
// ----------------------------------------------------------------------

TEST(Determinism, NativeAppGoldenDigest)
{
    const std::string text = nativeAppGoldenText();
    maybePrint("native-app-golden", text);
    EXPECT_EQ(fastHash64(text), kNativeAppGoldenHash)
        << "Native application outputs drifted from the golden digest. "
           "Rerun with HC_PRINT_DIGEST=1 to inspect; only a deliberate "
           "model change may update the golden.\n"
        << text;
}
