/**
 * @file
 * Host-side simulator throughput (google-benchmark): how many
 * simulated megacycles the discrete-event stack retires per host
 * second on representative workloads. This is the benchmark the
 * TurboSim fast paths are judged by; the golden-digest harness
 * (tests/test_determinism.cc) guarantees they change none of the
 * simulated outputs.
 *
 * Workloads:
 *  - warm SDK ecall loop: the conventional call path (single fiber,
 *    marshalling + context-line pricing, no interleaving),
 *  - HotCall ping-pong: the Fig 3 single-line channel (two fibers
 *    interleaving at every poll -> fiber-switch bound),
 *  - HotQueue at 4 requesters: the scaled channel (six fibers,
 *    batching responder pool),
 *  - encrypted-buffer sweep: readBuffer/writeBuffer over EPC working
 *    sets (cache + MEE model bound, no fiber switches),
 *  - steady lanes: two declared idle polls batched by the engine
 *    beside one thread that advances a fixed chunk per step (engine
 *    only; only Engine::run() is timed).
 *
 * Every benchmark reports sim_Mcycles_per_s (simulated Mcycles per
 * host second, the figure of merit) next to google-benchmark's
 * items_per_second (simulated calls or buffer passes). The two
 * interleaving workloads also report switches_per_call, the engine's
 * fiber swaps (Engine::fiberSwitches) per simulated call,
 * inline_steps_per_call, the polling phases the scheduler stepped
 * without resuming a fiber (Engine::inlineSteps), and
 * steady_steps_per_call, those of them it ran in batch from the loops'
 * idle-iteration declarations (Engine::steadySteps). The steady-lane
 * workload reports steps_per_batch and the host time per batch and
 * per step.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "hotcalls/channel.hh"
#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/buffer.hh"
#include "mem/cost_params.hh"
#include "mem/machine.hh"
#include "sdk/runtime.hh"
#include "sgx/platform.hh"

using namespace hc;

namespace {

const char *kBenchEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_add(uint64_t a, uint64_t b);
            public void ecall_empty();
        };
        untrusted { void ocall_empty(); };
    };
)";

/** Machine + microbench enclave (interrupts off: pure throughput). */
struct Bed {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;

    Bed()
        : machine([] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              config.engine.seed = 42;
              return config;
          }()),
          platform(machine), runtime(platform, "simspeed", kBenchEdl, 4)
    {
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
    }

    /** Total simulated time retired across every core. */
    Cycles totalSimCycles()
    {
        Cycles total = 0;
        for (int c = 0; c < machine.engine().numCores(); ++c)
            total += machine.engine().coreNow(c);
        return total;
    }
};

void
reportSimRate(benchmark::State &state, double sim_cycles,
              double items)
{
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
    state.counters["sim_Mcycles_per_s"] = benchmark::Counter(
        sim_cycles / 1e6, benchmark::Counter::kIsRate);
}

/** Host scheduler work of the interleaving runs, summed over runs. */
struct SchedulerCounts {
    double switches = 0;
    double inlineSteps = 0;
    double steadySteps = 0;

    void add(const sim::Engine &engine)
    {
        switches += static_cast<double>(engine.fiberSwitches());
        inlineSteps += static_cast<double>(engine.inlineSteps());
        steadySteps += static_cast<double>(engine.steadySteps());
    }

    void report(benchmark::State &state, double calls) const
    {
        state.counters["switches_per_call"] = switches / calls;
        state.counters["inline_steps_per_call"] = inlineSteps / calls;
        state.counters["steady_steps_per_call"] = steadySteps / calls;
    }
};

} // anonymous namespace

static void
BM_SimWarmEcallLoop(benchmark::State &state)
{
    constexpr int kCalls = 1'000;
    double sim_cycles = 0, calls = 0;
    for (auto _ : state) {
        Bed bed;
        bed.machine.engine().spawn("driver", 0, [&] {
            for (int i = 0; i < kCalls; ++i)
                bed.runtime.ecall("ecall_empty", {});
        });
        bed.machine.engine().run();
        sim_cycles += static_cast<double>(bed.totalSimCycles());
        calls += kCalls;
    }
    reportSimRate(state, sim_cycles, calls);
}
BENCHMARK(BM_SimWarmEcallLoop);

static void
BM_SimHotCallPingPong(benchmark::State &state)
{
    constexpr int kCalls = 1'000;
    double sim_cycles = 0, calls = 0;
    SchedulerCounts counts;
    for (auto _ : state) {
        Bed bed;
        hotcalls::HotCallService hot(bed.runtime,
                                     hotcalls::Kind::HotEcall, 1);
        auto &engine = bed.machine.engine();
        engine.spawn("driver", 0, [&] {
            hot.start();
            const int id = bed.runtime.ecallId("ecall_empty");
            for (int i = 0; i < kCalls; ++i)
                hot.call(id, {});
            hot.stop();
            engine.stop();
        });
        engine.run();
        sim_cycles += static_cast<double>(bed.totalSimCycles());
        counts.add(engine);
        calls += kCalls;
    }
    reportSimRate(state, sim_cycles, calls);
    counts.report(state, calls);
}
BENCHMARK(BM_SimHotCallPingPong);

static void
BM_SimHotQueue4Requesters(benchmark::State &state)
{
    constexpr int kRequesters = 4;
    constexpr int kCallsEach = 250;
    double sim_cycles = 0, calls = 0;
    SchedulerCounts counts;
    for (auto _ : state) {
        Bed bed;
        hotcalls::HotQueueConfig config;
        config.numSlots = 8;
        config.responderCores = {1, 2};
        hotcalls::HotQueue hot(bed.runtime,
                               hotcalls::Kind::HotEcall, config);
        auto &engine = bed.machine.engine();
        int done = 0;
        hot.start();
        for (int r = 0; r < kRequesters; ++r) {
            engine.spawn("req" + std::to_string(r), 3 + r, [&] {
                const int id = bed.runtime.ecallId("ecall_empty");
                for (int i = 0; i < kCallsEach; ++i)
                    hot.call(id, {});
                if (++done == kRequesters) {
                    hot.stop();
                    engine.stop();
                }
            });
        }
        engine.run();
        sim_cycles += static_cast<double>(bed.totalSimCycles());
        counts.add(engine);
        calls += kRequesters * kCallsEach;
    }
    reportSimRate(state, sim_cycles, calls);
    counts.report(state, calls);
}
BENCHMARK(BM_SimHotQueue4Requesters);

static void
BM_SimEncryptedBufferSweep(benchmark::State &state)
{
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(state.range(0));
    constexpr int kPasses = 50;
    double sim_cycles = 0, passes = 0;
    for (auto _ : state) {
        Bed bed;
        bed.machine.engine().spawn("sweep", 0, [&] {
            mem::Buffer enc(bed.machine, mem::Domain::Epc, bytes);
            mem::Buffer plain(bed.machine, mem::Domain::Untrusted,
                              bytes);
            for (int i = 0; i < kPasses; ++i) {
                enc.read();
                enc.write(i % 8 == 7);
                plain.read();
                plain.write(false);
                if (i % 16 == 15) {
                    bed.machine.memory().evictAll();
                    bed.machine.memory().mee().clearNodeCache();
                }
            }
        });
        bed.machine.engine().run();
        sim_cycles += static_cast<double>(bed.totalSimCycles());
        passes += kPasses;
    }
    reportSimRate(state, sim_cycles, passes);
}
BENCHMARK(BM_SimEncryptedBufferSweep)
    ->Arg(2048)
    ->Arg(32768)
    ->Arg(262144)
    ->Arg(1048576);

namespace {

/**
 * An idle poll as a HotCall responder's looks to the engine: `probes`
 * owned hits of its line, then a jittered PAUSE, declared steady
 * until the driver is done; then it exits at its next head.
 */
class IdleLane final : public sim::Spin
{
  public:
    IdleLane(sim::Engine &engine, const bool &done, int probes)
        : engine_(engine), done_(done), probes_(probes)
    {
    }

    Cycles step() override
    {
        if (at_ == 0 && done_)
            return sim::kSpinDone;
        if (at_ < probes_) {
            ++at_;
            return mem::CostParams{}.ownedHit;
        }
        at_ = 0;
        return sdk::kPauseCycles +
               engine_.rng().nextBelow(hotcalls::kPollJitter + 1);
    }

    bool steady(sim::Steady &s) override
    {
        if (done_)
            return false;
        s.probes = probes_;
        s.probeCycles = mem::CostParams{}.ownedHit;
        s.pauseCycles = sdk::kPauseCycles;
        s.pauseJitter = hotcalls::kPollJitter;
        s.at = at_;
        return true;
    }

    void advanceSteady(const sim::SteadyRun &run) override
    {
        at_ = run.at();
    }

  private:
    sim::Engine &engine_;
    const bool &done_;
    const int probes_;
    int at_ = 0;
};

} // anonymous namespace

/**
 * Steady batches alone: 1- and 3-probe idle lanes on cores 1 and 2
 * beside a driver on core 0 that advances range(0) cycles per step for
 * 2M cycles. The lanes run only in batches, each ending at the
 * driver's next step, so a batch holds range(0) cycles of both lanes'
 * iterations (about 6 steps at 60, 80 at 800).
 */
static void
BM_SimSteadyLanes(benchmark::State &state)
{
    const auto chunk = static_cast<Cycles>(state.range(0));
    constexpr Cycles kSpan = 2'000'000;
    const std::uint64_t driver_steps = kSpan / chunk;
    double batches = 0, steps = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::Engine::Config config;
        config.numCores = 3;
        config.seed = 42;
        auto engine = std::make_unique<sim::Engine>(config);
        bool done = false;
        engine->spawn("driver", 0, [&engine, &done, chunk, driver_steps] {
            for (std::uint64_t i = 0; i < driver_steps; ++i)
                engine->advance(chunk);
            done = true;
        });
        for (int probes : {1, 3}) {
            engine->spawn("lane", probes == 1 ? 1 : 2,
                          [&engine, &done, probes] {
                              IdleLane lane(*engine, done, probes);
                              engine->spin(lane);
                          });
        }
        state.ResumeTiming();
        engine->run();
        state.PauseTiming();
        batches += static_cast<double>(driver_steps);
        steps += static_cast<double>(engine->steadySteps());
        engine.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps));
    state.counters["steps_per_batch"] = steps / batches;
    state.counters["s_per_batch"] = benchmark::Counter(
        batches, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["s_per_step"] = benchmark::Counter(
        steps, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimSteadyLanes)->Arg(60)->Arg(800);

// Stamp the build type of *this* binary (the system benchmark
// library's own library_build_type says how the .so was compiled,
// which is useless for catching a debug-built simulator). The
// committed baseline was once recorded from a debug build and hid a
// 5x slowdown; scripts/check_simspeed.py refuses anything but
// hc_build_type == "release".
int main(int argc, char **argv) {
#ifdef NDEBUG
    benchmark::AddCustomContext("hc_build_type", "release");
#else
    benchmark::AddCustomContext("hc_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
