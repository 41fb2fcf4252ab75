/**
 * @file
 * hcbench harness: the result record every workload fills, the
 * in-memory span/counter tracer, and the window snapshot that turns
 * public simulator counters into per-layer metrics.
 *
 * The harness records spans only in its own code, around the calls it
 * makes into the simulator's public APIs; nothing inside src/ is
 * instrumented. Spans stay in memory and are written as Chrome
 * trace-event JSON when the process ends.
 */

#ifndef HC_BENCHMARK_HARNESS_HH
#define HC_BENCHMARK_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/machine.hh"
#include "sgx/platform.hh"
#include "support/stats.hh"

namespace hcbench {

/** Simulated cycles per microsecond (4 GHz cores). */
inline constexpr double kCyclesPerUs =
    static_cast<double>(hc::kCoreFreqHz) / 1e6;

/** Everything one hcbench process reports. */
struct Result {
    /** Operations measured, and those whose output check failed (plus
     *  one per failed run-level invariant). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Metrics that depend only on the seed: repetitions of one seed
     *  must agree on them byte for byte. */
    std::map<std::string, double> sim;
    /** Metrics that depend on the host (time, memory). */
    std::map<std::string, double> host;

    /** Count @p count failed operations (none: no-op). */
    void fail(std::uint64_t count, const std::string &what);

    /** Record a run-level check; a failure counts once in `failed`. */
    void check(bool ok, const std::string &what) { fail(!ok, what); }
};

/** Host nanoseconds since the process started. */
std::uint64_t hostNs();

/**
 * Span and counter recorder. When disabled every call is a branch on
 * a bool, so the untraced run pays nothing measurable.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Record a complete span. @p name and @p cat must be string
     *  literals (only the pointer is kept). @p parent is 0 for a root
     *  span; spans of one request share @p id's parent chain. */
    void span(const char *name, const char *cat, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint64_t id = 0,
              std::uint64_t parent = 0);

    /** Record a counter snapshot at host time @p ts_ns. */
    void counters(const char *name, std::uint64_t ts_ns,
                  std::vector<std::pair<std::string, double>> values);

    /** @return a fresh span id (1, 2, ...). */
    std::uint64_t nextId() { return ++lastId_; }

    /** Write Chrome trace-event JSON. @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span {
        const char *name;
        const char *cat;
        std::uint64_t start;
        std::uint64_t end;
        std::uint64_t id;
        std::uint64_t parent;
    };
    struct Counter {
        const char *name;
        std::uint64_t ts;
        std::vector<std::pair<std::string, double>> values;
    };

    bool enabled_;
    std::uint64_t lastId_ = 0;
    std::vector<Span> spans_;
    std::vector<Counter> counters_;
};

/**
 * The harness phases, each a host-time span: build (process start to
 * testbed ready), warmup, window (the measured interval) and teardown.
 * Each end() closes the current phase; setup_s is everything before
 * the window.
 */
class Phases
{
  public:
    Phases(Tracer &tracer, Result &result)
        : tracer_(tracer), result_(result)
    {
    }

    /** Close phase @p name (one of build, warmup, window, teardown). */
    void end(const char *name);

  private:
    Tracer &tracer_;
    Result &result_;
    std::uint64_t lastNs_ = 0;
};

/**
 * Scheduler event counter installed as the engine observer in traced
 * runs: wake-ups and waitUntil() expiries, the scheduler events the
 * responders' polling and parking generate.
 */
class EventCounter : public hc::sim::EngineObserver
{
  public:
    void onSpawn(hc::sim::Thread *, hc::sim::Thread *) override {}
    void onWake(hc::sim::Thread *, hc::sim::Thread *) override
    {
        ++wakes;
    }
    void onThreadExit(hc::sim::Thread *) override {}
    void onTimeout(hc::sim::Thread *) override { ++timeouts; }

    std::uint64_t wakes = 0;
    std::uint64_t timeouts = 0;
};

/** Public counters read at window open and close. */
struct Snapshot {
    std::uint64_t atNs = 0; //!< host time (hostNs())
    hc::Cycles simCycles = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t meeHits = 0;
    std::uint64_t meeMisses = 0;
    std::uint64_t aex = 0;
    std::uint64_t epcFaults = 0;
    std::uint64_t epcEvictions = 0;
    std::uint64_t wakes = 0;
    std::uint64_t timeouts = 0;

    /** Read every counter now (from inside the simulation). */
    static Snapshot take(hc::sgx::SgxPlatform &platform,
                         const EventCounter *events);

    /** Emit this snapshot as a trace counter event. */
    void trace(Tracer &tracer, const char *name) const;
};

/**
 * Fill the metrics every workload shares from the window [@p open,
 * @p close] in which @p ops operations completed: simulated and host
 * throughput, and the sim/mem/sgx/guard per-layer groups.
 */
void windowMetrics(const Snapshot &open, const Snapshot &close,
                   double ops, hc::mem::Machine &machine, bool traced,
                   Result &result);

/** Latency median and p99 (cycles in, microseconds out). */
void latencyMetrics(const hc::SampleSet &cycles, Result &result);

/** Mean |measured - paper| / paper over @p anchors, in percent. */
double paperErrorPct(
    const std::vector<std::pair<double, double>> &measured_paper);

/** Arm the engine observer for a traced run. SimCheck owns the slot
 *  when it is enabled; the counter then stays detached (and the
 *  per-op event metrics are not reported). */
void attachEvents(hc::mem::Machine &machine, EventCounter &events,
                  bool traced);

/** The paper's machine: 8 logical cores at 4 GHz, OS timer armed
 *  (one tick every ~7M cycles), engine seed from --seed. */
hc::mem::MachineConfig paperMachine(std::uint64_t seed);

/** What hcbench was asked to run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 7;
    bool traced = false;
};

// Workload entry points: runKv serves kv-hotcalls and kv-sdk.
void runKv(const Options &options, Tracer &tracer, Phases &phases,
           Result &result);
void runEdgeMix(const Options &options, Tracer &tracer, Phases &phases,
                Result &result);
void runEpcStream(const Options &options, Tracer &tracer,
                  Phases &phases, Result &result);

} // namespace hcbench

#endif // HC_BENCHMARK_HARNESS_HH
