/**
 * @file
 * The golden-digest scenarios shared by the determinism regression
 * suite (test_determinism.cc) and the fault-injection campaign
 * (test_fault.cc).
 *
 * Every scenario serializes its observable simulated quantities
 * (latency streams, per-core clocks, cache and MEE counters, channel
 * stats) into a Digest whose hash the determinism suite pins. The
 * fault campaign re-runs the same scenarios with a *quiet* FaultPlan
 * installed and asserts the pinned hashes still reproduce — the
 * injector's determinism contract (a zero-probability site draws
 * nothing and charges nothing) made mechanically checkable.
 *
 * Each scenario takes an optional FaultPlan; when given, a
 * FaultInjector built from it is installed into the Machine for the
 * duration of the run (and removed before teardown, since the
 * injector dies before the Machine does). The channel scenarios can
 * also report the engine's steady steps (sim::Engine::steadySteps()),
 * which stay out of the digest: they are host-side.
 */

#ifndef HC_TESTS_DETERMINISM_SCENARIOS_HH
#define HC_TESTS_DETERMINISM_SCENARIOS_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/buffer.hh"
#include "mem/machine.hh"
#include "sdk/runtime.hh"
#include "sgx/platform.hh"
#include "support/hash.hh"

namespace hc::dtest {

/** The pinned pre-TurboSim golden hash (see test_determinism.cc). */
inline constexpr std::uint64_t kGoldenHash = 5135674650735586745ull;

/** The pinned FastPath golden hash. */
inline constexpr std::uint64_t kFastPathGoldenHash =
    1573601871988929706ull;

inline const char *kEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_add(uint64_t a, uint64_t b);
            public void ecall_empty();
        };
        untrusted {
            void ocall_empty();
        };
    };
)";

/** Accumulates "key=value" lines; the hash pins the whole text. */
class Digest
{
  public:
    void add(const std::string &key, std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        text_ += key + "=" + buf + "\n";
    }

    /** Record a whole sample stream: its length and exact contents. */
    void addSamples(const std::string &key,
                    const std::vector<Cycles> &samples)
    {
        add(key + ".n", samples.size());
        add(key + ".hash",
            fastHash64(samples.data(),
                       samples.size() * sizeof(Cycles)));
    }

    const std::string &text() const { return text_; }
    std::uint64_t hash() const { return fastHash64(text_); }

  private:
    std::string text_;
};

/** Machine + enclave runtime used by every scenario. */
struct Fixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;
    std::unique_ptr<fault::FaultInjector> injector;

    /** @p guard switches Sentinel. A quiet run never trips a guard
     *  intervention, so both positions must digest identically. */
    explicit Fixture(bool with_interrupts, bool check_on,
                     const fault::FaultPlan *plan = nullptr,
                     bool guard = true)
        : machine([&] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              config.engine.seed = 42;
              config.engine.interruptMeanCycles =
                  with_interrupts ? 7'000'000 : 0;
              config.check.enabled = check_on;
              config.guard.enabled = guard;
              return config;
          }()),
          platform(machine), runtime(platform, "determinism", kEdl, 4)
    {
        if (plan) {
            injector = std::make_unique<fault::FaultInjector>(
                machine.engine(), *plan);
            machine.installFault(injector.get());
        }
        if (with_interrupts)
            platform.installAexHandler();
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
    }

    ~Fixture()
    {
        // The injector member dies before the machine: detach it so
        // teardown (stranded-fiber unwinding fires observer events)
        // cannot reach a dangling decorator.
        if (injector)
            machine.installFault(nullptr);
    }

    /** Append machine-level observables (clocks, memory counters). */
    void digestMachine(Digest &d)
    {
        auto &engine = machine.engine();
        for (int c = 0; c < engine.numCores(); ++c)
            d.add("core" + std::to_string(c) + ".clock",
                  engine.coreNow(c));
        d.add("llc.hits", machine.memory().cache().hits());
        d.add("llc.misses", machine.memory().cache().misses());
        d.add("mee.nodeHits", machine.memory().mee().nodeCacheHits());
        d.add("mee.nodeMisses",
              machine.memory().mee().nodeCacheMisses());
        d.add("interrupts", engine.interruptCount());
    }
};

/**
 * Fig 3 scenario: warm HotEcall latencies through the single-line
 * channel. @p hiccups feeds the CDF tail via nextExponential (libm);
 * the golden digest runs with it off.
 */
inline Digest
fig3Scenario(bool with_interrupts, bool hiccups, bool check_on,
             int calls, const fault::FaultPlan *plan = nullptr,
             bool guard = true, std::uint64_t *steady_steps = nullptr)
{
    Fixture f(with_interrupts, check_on, plan, guard);
    hotcalls::HotCallConfig config;
    if (!hiccups)
        config.hiccupChance = 0.0;
    hotcalls::HotCallService hot(f.runtime, hotcalls::Kind::HotEcall,
                                 1, config);
    std::vector<Cycles> latencies;
    latencies.reserve(static_cast<std::size_t>(calls));
    f.machine.engine().spawn("driver", 0, [&] {
        hot.start();
        for (int i = 0; i < calls; ++i) {
            const Cycles t0 = f.machine.now();
            hot.call("ecall_add",
                     {edl::Arg::value(static_cast<std::uint64_t>(i)),
                      edl::Arg::value(1)});
            latencies.push_back(f.machine.now() - t0);
        }
        hot.stop();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    Digest d;
    d.addSamples("fig3.latency", latencies);
    d.add("fig3.calls", hot.stats().calls);
    d.add("fig3.fallbacks", hot.stats().fallbacks);
    d.add("fig3.polls", hot.stats().responderPolls);
    d.add("fig3.busy", hot.stats().responderBusyCycles);
    f.digestMachine(d);
    if (steady_steps)
        *steady_steps = f.machine.engine().steadySteps();
    return d;
}

/** 4-requester HotQueue scenario with an adaptive 2-responder pool. */
inline Digest
hotqueueScenario(bool with_interrupts, bool hiccups, bool check_on,
                 int calls_each,
                 const fault::FaultPlan *plan = nullptr,
                 bool guard = true, std::uint64_t *steady_steps = nullptr)
{
    Fixture f(with_interrupts, check_on, plan, guard);
    hotcalls::HotQueueConfig config;
    config.numSlots = 8;
    config.responderCores = {1, 2};
    if (!hiccups)
        config.hiccupChance = 0.0;
    hotcalls::HotQueue hot(f.runtime, hotcalls::Kind::HotEcall,
                           config);
    auto &engine = f.machine.engine();
    std::uint64_t sum = 0;
    int done = 0;
    constexpr int kRequesters = 4;

    hot.start();
    std::vector<std::vector<Cycles>> latencies(kRequesters);
    for (int r = 0; r < kRequesters; ++r) {
        engine.spawn("req" + std::to_string(r), 3 + r, [&, r] {
            for (int i = 0; i < calls_each; ++i) {
                const Cycles t0 = f.machine.now();
                sum += hot.call(
                    "ecall_add",
                    {edl::Arg::value(static_cast<std::uint64_t>(r)),
                     edl::Arg::value(static_cast<std::uint64_t>(i))});
                latencies[static_cast<std::size_t>(r)].push_back(
                    f.machine.now() - t0);
            }
            if (++done == kRequesters) {
                hot.stop();
                engine.stop();
            }
        });
    }
    engine.run();

    Digest d;
    d.add("hotq.sum", sum);
    for (int r = 0; r < kRequesters; ++r)
        d.addSamples("hotq.req" + std::to_string(r),
                     latencies[static_cast<std::size_t>(r)]);
    const auto &s = hot.stats();
    d.add("hotq.calls", s.calls);
    d.add("hotq.fallbacks", s.fallbacks);
    d.add("hotq.polls", s.responderPolls);
    d.add("hotq.batches", s.batches);
    d.add("hotq.wakeups", s.wakeups);
    d.add("hotq.scaleUps", s.scaleUps);
    d.add("hotq.scaleDowns", s.scaleDowns);
    d.add("hotq.busy", s.responderBusyCycles);
    d.add("hotq.depth.hash", fastHash64(s.depth.summary()));
    d.add("hotq.batchSize.hash", fastHash64(s.batchSize.summary()));
    f.digestMachine(d);
    if (steady_steps)
        *steady_steps = engine.steadySteps();
    return d;
}

/**
 * Encrypted/plain buffer sweep: the priced memory system with no RNG
 * at all. Exercises hit fast paths, MEE walks, evictions, and the
 * flush-after write variant across working sets around the MEE node
 * cache capacity.
 */
inline Digest
memorySweepScenario(bool check_on,
                    const fault::FaultPlan *plan = nullptr,
                    bool guard = true)
{
    Fixture f(false, check_on, plan, guard);
    std::vector<Cycles> costs;
    f.machine.engine().spawn("sweep", 0, [&] {
        for (std::uint64_t size : {2_KiB, 8_KiB, 32_KiB, 128_KiB}) {
            mem::Buffer enc(f.machine, mem::Domain::Epc, size);
            mem::Buffer plain(f.machine, mem::Domain::Untrusted,
                              size);
            for (int rep = 0; rep < 6; ++rep) {
                costs.push_back(enc.read());
                costs.push_back(plain.read());
                costs.push_back(enc.write(rep % 2 == 1));
                costs.push_back(plain.write(false));
                if (rep == 3) {
                    enc.evict();
                    plain.evict();
                }
            }
            // Cold restart mid-sweep: evict data lines and drop the
            // MEE node cache so tree walks re-run end to end.
            f.machine.memory().evictAll();
            f.machine.memory().mee().clearNodeCache();
            costs.push_back(enc.read());
        }
    });
    f.machine.engine().run();

    Digest d;
    d.addSamples("sweep.costs", costs);
    f.digestMachine(d);
    return d;
}

/** Warm SDK ecall/ocall loop: the conventional call path. */
inline Digest
sdkLoopScenario(bool check_on, int calls,
                const fault::FaultPlan *plan = nullptr,
                bool guard = true)
{
    Fixture f(false, check_on, plan, guard);
    std::vector<Cycles> latencies;
    f.machine.engine().spawn("driver", 0, [&] {
        for (int i = 0; i < calls; ++i) {
            const Cycles t0 = f.machine.now();
            f.runtime.ecall("ecall_empty", {});
            latencies.push_back(f.machine.now() - t0);
        }
    });
    f.machine.engine().run();

    Digest d;
    d.addSamples("sdk.latency", latencies);
    f.digestMachine(d);
    return d;
}

/** Concatenation of every libm-free scenario (the golden input).
 *  @p plan applies to each scenario's machine in turn; @p guard
 *  switches Sentinel for each machine (both positions must reproduce
 *  the pinned hash — the guard is quiet on these scenarios). */
inline std::string
goldenText(const fault::FaultPlan *plan = nullptr, bool guard = true)
{
    std::string text;
    text += fig3Scenario(false, false, false, 400, plan, guard).text();
    text +=
        hotqueueScenario(false, false, false, 150, plan, guard).text();
    text += memorySweepScenario(false, plan, guard).text();
    text += sdkLoopScenario(false, 200, plan, guard).text();
    return text;
}

// ----------------------------------------------------------------------
// FastPath data-plane scenario. Separate EDL and fixture so the
// pre-FastPath golden scenarios above stay untouched (the enclave
// image content feeds the measurement cost model).
// ----------------------------------------------------------------------

inline const char *kFastPathEdl = R"(
    enclave {
        trusted {
            public void ecall_run();
        };
        untrusted {
            uint64_t ocall_bump([in, out, size=len] uint8_t* buf,
                                size_t len);
        };
    };
)";

/**
 * Hot ocalls carrying buffers sized to hit all three staging
 * placements (inline, arena, heap spill), libm-free. @p fast_path
 * selects the data plane: 0 must reproduce the legacy marshalling
 * bit for bit.
 */
inline Digest
fastPathScenario(bool check_on, int fast_path, int calls,
                 const fault::FaultPlan *plan = nullptr,
                 bool guard = true, std::uint64_t *steady_steps = nullptr)
{
    mem::MachineConfig machine_config;
    machine_config.engine.numCores = 8;
    machine_config.engine.seed = 42;
    machine_config.engine.interruptMeanCycles = 0;
    machine_config.check.enabled = check_on;
    machine_config.guard.enabled = guard;
    mem::Machine machine(machine_config);
    std::unique_ptr<fault::FaultInjector> injector;
    if (plan) {
        injector = std::make_unique<fault::FaultInjector>(
            machine.engine(), *plan);
        machine.installFault(injector.get());
    }
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "determinism-fp",
                                kFastPathEdl, 4);
    std::uint64_t sum = 0;
    runtime.registerEcall("ecall_run", [](edl::StagedCall &) {});
    runtime.registerOcall("ocall_bump", [&](edl::StagedCall &c) {
        for (std::uint64_t i = 0; i < c.size(0); ++i) {
            sum += c.data(0)[i];
            c.data(0)[i] =
                static_cast<std::uint8_t>(c.data(0)[i] + 1);
        }
        c.setRetval(sum);
    });

    hotcalls::HotQueueConfig config;
    config.numSlots = 4;
    config.responderCores = {1};
    config.hiccupChance = 0.0;
    config.fastPath = fast_path;
    hotcalls::HotQueue hot(runtime, hotcalls::Kind::HotOcall, config);

    static constexpr std::uint64_t kSizes[] = {16, 100, 300, 2048};
    std::vector<Cycles> latencies;
    latencies.reserve(static_cast<std::size_t>(calls));
    machine.engine().spawn("driver", 0, [&] {
        hot.start();
        sgx::Tcs *tcs = runtime.enclave().acquireTcs();
        platform.eenter(runtime.enclave(), *tcs);
        mem::Buffer buf(machine, mem::Domain::Epc, 2048);
        for (int i = 0; i < calls; ++i) {
            const std::uint64_t len =
                kSizes[static_cast<std::size_t>(i) % 4];
            const Cycles t0 = machine.now();
            sum += hot.call("ocall_bump", {edl::Arg::buffer(buf),
                                           edl::Arg::value(len)});
            latencies.push_back(machine.now() - t0);
        }
        platform.eexit();
        runtime.enclave().releaseTcs(tcs);
        hot.stop();
        machine.engine().stop();
    });
    machine.engine().run();
    if (injector)
        machine.installFault(nullptr);

    Digest d;
    d.add("fp.plane", static_cast<std::uint64_t>(fast_path));
    d.add("fp.sum", sum);
    d.addSamples("fp.latency", latencies);
    const auto &s = hot.stats();
    d.add("fp.calls", s.calls);
    d.add("fp.fallbacks", s.fallbacks);
    d.add("fp.fastCalls", s.fastCalls);
    d.add("fp.inlineStaged", s.inlineStaged);
    d.add("fp.arenaStaged", s.arenaStaged);
    d.add("fp.heapStaged", s.heapStaged);
    d.add("fp.busy", s.responderBusyCycles);
    auto &engine = machine.engine();
    for (int c = 0; c < engine.numCores(); ++c)
        d.add("core" + std::to_string(c) + ".clock",
              engine.coreNow(c));
    d.add("llc.hits", machine.memory().cache().hits());
    d.add("llc.misses", machine.memory().cache().misses());
    d.add("mee.nodeHits", machine.memory().mee().nodeCacheHits());
    d.add("mee.nodeMisses", machine.memory().mee().nodeCacheMisses());
    if (steady_steps)
        *steady_steps = engine.steadySteps();
    return d;
}

/** Both planes' digests back to back (the FastPath golden input). */
inline std::string
fastPathGoldenText(const fault::FaultPlan *plan = nullptr,
                   bool guard = true)
{
    return fastPathScenario(false, 0, 120, plan, guard).text() +
           fastPathScenario(false, 1, 120, plan, guard).text();
}

} // namespace hc::dtest

#endif // HC_TESTS_DETERMINISM_SCENARIOS_HH
