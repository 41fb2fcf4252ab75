/**
 * @file
 * hcbench harness implementation.
 */

#include "harness.hh"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "sgx/epc_manager.hh"

namespace hcbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Initialised before main(): "process start" for every phase. */
const Clock::time_point kProcessStart = Clock::now();

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // anonymous namespace

void
Result::fail(std::uint64_t count, const std::string &what)
{
    if (count == 0)
        return;
    failed += count;
    errors.push_back(what + " (" + std::to_string(count) + ")");
}

std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - kProcessStart)
            .count());
}

void
Tracer::span(const char *name, const char *cat, std::uint64_t start_ns,
             std::uint64_t end_ns, std::uint64_t id,
             std::uint64_t parent)
{
    if (enabled_)
        spans_.push_back({name, cat, start_ns, end_ns, id, parent});
}

void
Tracer::counters(const char *name, std::uint64_t ts_ns,
                 std::vector<std::pair<std::string, double>> values)
{
    if (enabled_)
        counters_.push_back({name, ts_ns, std::move(values)});
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    for (const Span &s : spans_) {
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     first ? "" : ",\n", s.name, s.cat, s.start / 1e3,
                     (s.end - s.start) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
    }
    for (const Counter &c : counters_) {
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"args\":{",
                     first ? "" : ",\n", c.name, c.ts / 1e3);
        for (std::size_t i = 0; i < c.values.size(); ++i) {
            std::fprintf(out, "%s\"%s\":%.17g", i ? "," : "",
                         c.values[i].first.c_str(), c.values[i].second);
        }
        std::fprintf(out, "}}");
        first = false;
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

void
Phases::end(const char *name)
{
    const std::uint64_t now = hostNs();
    tracer_.span(name, "phase", lastNs_, now);
    result_.host[std::string("harness.") + name + "_s"] =
        static_cast<double>(now - lastNs_) / 1e9;
    if (std::string(name) == "warmup")
        result_.host["setup_s"] = static_cast<double>(now) / 1e9;
    lastNs_ = now;
}

Snapshot
Snapshot::take(hc::sgx::SgxPlatform &platform, const EventCounter *events)
{
    auto &machine = platform.machine();
    auto &memory = machine.memory();
    Snapshot s;
    s.atNs = hostNs();
    s.simCycles = machine.now();
    s.llcHits = memory.cache().hits();
    s.llcMisses = memory.cache().misses();
    s.meeHits = memory.mee().nodeCacheHits();
    s.meeMisses = memory.mee().nodeCacheMisses();
    s.aex = platform.aexCount();
    s.epcFaults = platform.epc().faults();
    s.epcEvictions = platform.epc().evictions();
    if (events) {
        s.wakes = events->wakes;
        s.timeouts = events->timeouts;
    }
    return s;
}

void
Snapshot::trace(Tracer &tracer, const char *name) const
{
    tracer.counters(
        name, atNs,
        {{"sim_cycles", static_cast<double>(simCycles)},
         {"llc_hits", static_cast<double>(llcHits)},
         {"llc_misses", static_cast<double>(llcMisses)},
         {"mee_node_hits", static_cast<double>(meeHits)},
         {"mee_node_misses", static_cast<double>(meeMisses)},
         {"aex", static_cast<double>(aex)},
         {"epc_faults", static_cast<double>(epcFaults)},
         {"epc_evictions", static_cast<double>(epcEvictions)},
         {"wakes", static_cast<double>(wakes)},
         {"timeouts", static_cast<double>(timeouts)}});
}

void
windowMetrics(const Snapshot &open, const Snapshot &close, double ops,
              hc::mem::Machine &machine, bool traced, Result &result)
{
    const double sim_s = hc::cyclesToSeconds(close.simCycles -
                                             open.simCycles);
    const double host_ns = static_cast<double>(close.atNs - open.atNs);
    const double hits = static_cast<double>(close.llcHits - open.llcHits);
    const double lines =
        hits + static_cast<double>(close.llcMisses - open.llcMisses);
    const double mee_hits =
        static_cast<double>(close.meeHits - open.meeHits);
    const double mee_all =
        mee_hits + static_cast<double>(close.meeMisses - open.meeMisses);

    auto &sim = result.sim;
    auto &host = result.host;
    sim["sim_ops_per_s"] = ratio(ops, sim_s);
    host["host_ops_per_s"] = ratio(ops, host_ns / 1e9);
    host["sim.host_ns_per_sim_us"] = ratio(host_ns, sim_s * 1e6);
    if (traced && machine.check() == nullptr) {
        sim["sim.wakes_per_op"] =
            ratio(static_cast<double>(close.wakes - open.wakes), ops);
        sim["sim.timeouts_per_op"] = ratio(
            static_cast<double>(close.timeouts - open.timeouts), ops);
    }
    sim["mem.llc_hit_ratio"] = ratio(hits, lines);
    sim["mem.llc_accesses_per_op"] = ratio(lines, ops);
    sim["mem.mee_node_hit_ratio"] = ratio(mee_hits, mee_all);
    host["mem.host_ns_per_line"] = ratio(host_ns, lines);
    sim["sgx.aex_per_kop"] =
        ratio(static_cast<double>(close.aex - open.aex) * 1e3, ops);
    sim["sgx.epc_faults"] =
        static_cast<double>(close.epcFaults - open.epcFaults);
    sim["sgx.epc_evictions"] =
        static_cast<double>(close.epcEvictions - open.epcEvictions);

    hc::guard::GuardStats guard;
    if (machine.guard())
        guard = machine.guard()->totals();
    sim["guard.sheds"] = static_cast<double>(guard.sheds);
    sim["guard.quarantines"] = static_cast<double>(guard.quarantines);
    sim["guard.abandons"] = static_cast<double>(guard.abandons);
}

void
latencyMetrics(const hc::SampleSet &cycles, Result &result)
{
    result.check(!cycles.empty(), "no latency samples recorded");
    if (cycles.empty())
        return;
    result.sim["sim_p50_us"] = cycles.percentile(50) / kCyclesPerUs;
    result.sim["sim_p99_us"] = cycles.percentile(99) / kCyclesPerUs;
    result.sim["latency_samples"] = static_cast<double>(cycles.count());
}

double
paperErrorPct(const std::vector<std::pair<double, double>> &measured_paper)
{
    double sum = 0;
    for (const auto &[measured, paper] : measured_paper)
        sum += std::fabs(measured - paper) / paper;
    return 100.0 * sum / static_cast<double>(measured_paper.size());
}

void
attachEvents(hc::mem::Machine &machine, EventCounter &events, bool traced)
{
    if (traced && machine.check() == nullptr)
        machine.engine().setObserver(&events);
}

hc::mem::MachineConfig
paperMachine(std::uint64_t seed)
{
    hc::mem::MachineConfig config;
    config.engine.numCores = 8;
    config.engine.seed = seed;
    config.engine.interruptMeanCycles = 7'000'000;
    return config;
}

} // namespace hcbench
