/**
 * @file
 * kv-hotcalls and kv-sdk: the memcached port under memtier traffic.
 *
 * The testbed is the paper's memcached setup (Section 6.2), built here
 * from public APIs rather than shared with bench/ so that edits to the
 * paper benches cannot move this benchmark: KvCacheServer on core 0,
 * memtier (4 threads x 50 connections, 2 KiB values, SET:GET 1:1) on
 * cores 4-7, the harness fiber on core 7. In SgxHotCalls mode the ocall
 * HotQueue responders run on cores 2 and 5 and the HotEcall responder
 * on core 1. With seed 7 and the 0.25 s window, kv-hotcalls reproduces
 * bench_fig10_throughput's sgx+hotcalls+nrz memcached row exactly.
 */

#include <cmath>

#include "apps/kvcache.hh"
#include "harness.hh"
#include "os/kernel.hh"
#include "port/port.hh"
#include "workloads/memtier.hh"

namespace hcbench {

namespace {

struct KvSpec {
    hc::port::Mode mode;
    bool noRedundantZeroing;
    double windowSec;
    double paperReqPerSec; //!< Fig 10 memcached anchor
};

/** Closed loop: 200 connections, so Little's law predicts this many
 *  requests in flight. */
constexpr double kConnections = 200;

} // anonymous namespace

void
runKv(const Options &options, Tracer &tracer, Phases &phases,
      Result &result)
{
    const KvSpec spec =
        options.workload == "kv-hotcalls"
            ? KvSpec{hc::port::Mode::SgxHotCalls, true, 0.25, 185'000}
            : KvSpec{hc::port::Mode::Sgx, false, 2.0, 66'500};
    constexpr double kWarmupSec = 0.04;

    EventCounter events;
    hc::mem::Machine machine(paperMachine(options.seed));
    hc::sgx::SgxPlatform platform(machine);
    platform.installAexHandler();
    hc::os::Kernel kernel(machine);

    hc::port::PortConfig config;
    config.mode = spec.mode;
    config.marshal.noRedundantZeroing = spec.noRedundantZeroing;
    config.fastPath = 0;
    config.hotOcallCore = 2;
    config.hotEcallCore = 1;
    config.extraHotOcallCores = {5};
    // Paper 6.2: HotCalls accelerate read and sendmsg; the HotEcall
    // channel carries RunEnclaveFunction.
    config.hotOcalls = {"ocall_read", "ocall_sendmsg"};
    hc::port::PortedApp app(platform, kernel, "memcached", config);
    app.declareImports(
        {"read", "sendmsg", "epoll_wait", "close", "accept", "time"});

    hc::apps::KvCacheServer server(app);
    hc::workloads::MemtierClient client(kernel, server.listenPort());
    attachEvents(machine, events, options.traced);
    phases.end("build");

    auto &engine = machine.engine();
    engine.spawn("harness", 7, [&] {
        app.startHotCalls();
        server.start(0);
        client.start(4);

        engine.sleepFor(hc::secondsToCycles(kWarmupSec));
        app.resetCounters();
        client.recordLatencies(true);
        const std::uint64_t done0 = client.completed();
        phases.end("warmup");
        const Snapshot open = Snapshot::take(platform, &events);
        open.trace(tracer, "window_open");

        engine.sleepFor(hc::secondsToCycles(spec.windowSec));
        const Snapshot close = Snapshot::take(platform, &events);
        close.trace(tracer, "window_close");
        phases.end("window");
        const double ops =
            static_cast<double>(client.completed() - done0);
        windowMetrics(open, close, ops, machine, options.traced, result);
        latencyMetrics(client.latencies(), result);

        std::uint64_t calls = 0;
        for (const auto &[name, count] : app.callCounts())
            calls += count;
        const double mean_us = client.latencies().mean() / kCyclesPerUs;
        const double throughput = result.sim["sim_ops_per_s"];
        const double littles = mean_us * 1e-6 * throughput;
        result.sim["port.calls_per_op"] =
            ops > 0 ? static_cast<double>(calls) / ops : 0.0;
        result.sim["workloads.mean_latency_us"] = mean_us;
        result.sim["workloads.littles_law_conns"] = littles;
        result.sim["paper_err_pct"] =
            paperErrorPct({{throughput, spec.paperReqPerSec}});

        result.attempted = static_cast<std::uint64_t>(ops);
        result.check(ops > 0, "no request completed in the window");
        result.fail(client.corrupted(), "memtier saw corrupted responses");
        result.check(std::fabs(littles - kConnections) <=
                         0.02 * kConnections,
                     "Little's law: mean latency x throughput is " +
                         std::to_string(littles) + ", expected 200 +- 2%");

        client.stop();
        server.stop();
        app.stopHotCalls();
        engine.stop();
    });
    engine.run();
}

} // namespace hcbench
