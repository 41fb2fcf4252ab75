/**
 * @file
 * epc-stream: the Fig 8 SPEC-like kernels, memory hierarchy only.
 *
 * Inside one ecall, mcf (random dependent loads over 40 MiB), then
 * libquantum (streaming read-modify-write over a 96 MiB register,
 * larger than the 93 MiB EPC, so it pages), then astar each run once
 * with their data in the EPC and once untrusted, each after evictAll()
 * so every run starts with a cold LLC. No edge call happens inside the
 * window: channels, SDK and port sit idle while mem (LLC, MEE tree,
 * EPC paging) does all the work. The OS timer stays armed, so the seed
 * moves AEX arrivals and nothing else.
 *
 * An operation is one LLC access. Latency samples are whole kernel
 * runs (six per process), so the reported p99 lies within 5% of the
 * slowest run, libquantum in the EPC.
 */

#include "harness.hh"
#include "sdk/runtime.hh"
#include "workloads/spec.hh"

namespace hcbench {

namespace {

const char *kCarrierEdl = R"EDL(
enclave {
    trusted {
        public void ecall_run();
    };
};
)EDL";

struct Kernel {
    const char *name;
    hc::Cycles (*run)(hc::mem::Machine &, hc::mem::Domain,
                      const hc::workloads::SpecConfig &);
    double paperRatio; //!< Fig 8 encrypted/plaintext, or 0
    bool pages;        //!< working set exceeds the EPC
};

} // anonymous namespace

void
runEpcStream(const Options &options, Tracer &tracer, Phases &phases,
             Result &result)
{
    const Kernel kernels[] = {
        {"mcf", &hc::workloads::runMcf, 1.55, false},
        {"libquantum", &hc::workloads::runLibquantum, 5.2, true},
        {"astar", &hc::workloads::runAstar, 0, false},
    };

    EventCounter events;
    hc::mem::Machine machine(paperMachine(options.seed));
    hc::sgx::SgxPlatform platform(machine);
    platform.installAexHandler();
    hc::sdk::EnclaveRuntime rt(platform, "epc-stream", kCarrierEdl, 1);
    std::uint64_t integrity_failures = 0;
    machine.memory().setIntegrityFailureHook(
        [&](hc::Addr) { ++integrity_failures; });

    hc::SampleSet run_cycles;
    std::vector<std::pair<double, double>> anchors;
    double ops = 0;
    rt.registerEcall("ecall_run", [&](hc::edl::StagedCall &) {
        auto &memory = machine.memory();
        const Snapshot open = Snapshot::take(platform, &events);
        open.trace(tracer, "window_open");
        const std::uint64_t window_span = tracer.nextId();
        for (const Kernel &kernel : kernels) {
            hc::Cycles cycles[2] = {};
            const std::uint64_t h0 = hostNs();
            const hc::mem::Domain domains[2] = {hc::mem::Domain::Epc,
                                                hc::mem::Domain::Untrusted};
            for (int d = 0; d < 2; ++d) {
                memory.evictAll();
                const std::uint64_t faults0 = platform.epc().faults();
                const std::uint64_t s0 = hostNs();
                cycles[d] = kernel.run(machine, domains[d], {});
                tracer.span(kernel.name, d == 0 ? "epc" : "untrusted", s0,
                            hostNs(), tracer.nextId(), window_span);
                run_cycles.add(static_cast<double>(cycles[d]));
                if (d == 0 && kernel.pages)
                    result.check(platform.epc().faults() > faults0,
                                 std::string(kernel.name) +
                                     " took no EPC fault");
            }
            const std::string prefix = std::string("mem.") + kernel.name;
            const double ratio = static_cast<double>(cycles[0]) /
                                 static_cast<double>(cycles[1]);
            result.sim[prefix + ".enc_plain_ratio"] = ratio;
            result.host[prefix + ".host_s"] =
                static_cast<double>(hostNs() - h0) / 1e9;
            if (kernel.paperRatio > 0)
                anchors.emplace_back(ratio, kernel.paperRatio);
        }
        const Snapshot close = Snapshot::take(platform, &events);
        close.trace(tracer, "window_close");
        tracer.span("kernels", "window", open.atNs, close.atNs,
                    window_span);
        ops = static_cast<double>(close.llcHits + close.llcMisses -
                                  open.llcHits - open.llcMisses);
        windowMetrics(open, close, ops, machine, options.traced, result);
    });
    attachEvents(machine, events, options.traced);
    phases.end("build");

    machine.engine().spawn("harness", 0, [&] {
        // No warm-up: every kernel run starts from an evicted LLC.
        phases.end("warmup");
        rt.ecall("ecall_run", {});
        phases.end("window");
        machine.engine().stop();
    });
    machine.engine().run();

    latencyMetrics(run_cycles, result);
    result.sim["paper_err_pct"] = paperErrorPct(anchors);
    result.attempted = static_cast<std::uint64_t>(ops);
    result.check(ops > 0, "the kernels made no memory access");
    result.fail(integrity_failures, "MEE integrity verification failed");
}

} // namespace hcbench
