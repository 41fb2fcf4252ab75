/**
 * @file
 * hcbench: run one benchmark workload once and write its metrics.
 *
 *   hcbench --workload=NAME --seed=N --json=PATH [--trace=PATH]
 *
 * NAME is kv-hotcalls, kv-sdk, edge-mix or epc-stream. The JSON file
 * holds the operation counts, the failed checks, the seed-determined
 * metrics ("sim") and the host-dependent ones ("host"). With --trace,
 * the run also counts scheduler events and times every harness span,
 * and writes the spans as Chrome trace-event JSON to PATH.
 * benchmark/run.py drives this binary; see benchmark/README.md.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.hh"

namespace {

using namespace hcbench;

void
writeMetrics(std::FILE *out, const char *key,
             const std::map<std::string, double> &metrics)
{
    std::fprintf(out, "  \"%s\": {", key);
    bool first = true;
    for (const auto &[name, value] : metrics) {
        if (std::isfinite(value))
            std::fprintf(out, "%s\n    \"%s\": %.17g", first ? "" : ",",
                         name.c_str(), value);
        else
            std::fprintf(out, "%s\n    \"%s\": null", first ? "" : ",",
                         name.c_str());
        first = false;
    }
    std::fprintf(out, "\n  }");
}

bool
writeJson(const std::string &path, const Result &result)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                 static_cast<unsigned long long>(result.attempted),
                 static_cast<unsigned long long>(result.failed));
    std::fprintf(out, "  \"errors\": [");
    for (std::size_t i = 0; i < result.errors.size(); ++i) {
        std::fprintf(out, "%s\"", i ? ", " : "");
        for (char c : result.errors[i]) {
            if (c == '"' || c == '\\')
                std::fputc('\\', out);
            std::fputc(c, out);
        }
        std::fputc('"', out);
    }
    std::fprintf(out, "],\n");
    writeMetrics(out, "sim", result.sim);
    std::fprintf(out, ",\n");
    writeMetrics(out, "host", result.host);
    std::fprintf(out, "\n}\n");
    return std::fclose(out) == 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hcbench: %s\nusage: hcbench --workload=NAME --seed=N "
                 "--json=PATH [--trace=PATH]\n",
                 why);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string json_path, trace_path;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--workload=", 11) == 0) {
            options.workload = arg + 11;
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            char *end = nullptr;
            options.seed = std::strtoull(arg + 7, &end, 10);
            if (end == arg + 7 || *end != '\0')
                usage("--seed takes a non-negative integer");
            have_seed = true;
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            json_path = arg + 7;
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            trace_path = arg + 8;
        } else {
            usage((std::string("unknown argument ") + arg).c_str());
        }
    }
    if (!have_seed || json_path.empty())
        usage("--seed and --json are required");
    options.traced = !trace_path.empty();

    void (*run)(const Options &, Tracer &, Phases &, Result &) = nullptr;
    if (options.workload == "kv-hotcalls" || options.workload == "kv-sdk")
        run = &runKv;
    else if (options.workload == "edge-mix")
        run = &runEdgeMix;
    else if (options.workload == "epc-stream")
        run = &runEpcStream;
    else
        usage("unknown --workload");

    Tracer tracer(options.traced);
    Result result;
    Phases phases(tracer, result);
    run(options, tracer, phases, result);
    phases.end("teardown");

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    result.host["peak_rss_mib"] =
        static_cast<double>(usage_now.ru_maxrss) / 1024.0;

    if (options.traced && !tracer.write(trace_path)) {
        std::fprintf(stderr, "hcbench: cannot write %s\n",
                     trace_path.c_str());
        return 1;
    }
    if (!writeJson(json_path, result)) {
        std::fprintf(stderr, "hcbench: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    return 0;
}
