/**
 * @file
 * Ablation: the FastPath data plane (cached call plans, per-slot
 * staging arenas, inline slot payloads) against the legacy
 * heap-staged marshalling, on a hot ocall carrying a buffer.
 *
 * Four phases:
 *  1. headline: a 2 KiB in&out hot ocall, legacy vs FastPath —
 *     the tentpole claim is a >= 25% median-cycle reduction,
 *  2. inline-threshold sweep: payload size x inlinePayloadBytes,
 *  3. arena-vs-heap: the same payload staged in the slot arena vs
 *     spilled to the legacy heap path (arena disabled),
 *  4. No-Redundant-Zeroing interaction on an out-only ocall.
 *
 * --runs=N scales the samples per batch; --json=PATH additionally
 * writes every row as JSON (consumed by the CI artifact upload).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "hotcalls/hotqueue.hh"

using namespace hc;
using namespace hc::bench;

namespace {

/** One measured configuration. */
struct Row {
    std::string section;
    std::string call;
    std::uint64_t payload = 0;
    int fastPath = 0;
    std::uint64_t inlineBytes = 0;
    std::uint64_t arenaBytes = 0;
    bool nrz = false;
    double medianCycles = 0;
    double meanCycles = 0;
    std::uint64_t inlineStaged = 0;
    std::uint64_t arenaStaged = 0;
    std::uint64_t heapStaged = 0;
};

/**
 * Measure one hot ocall configuration on a fresh testbed: a HotOcall
 * HotQueue (1 slot is enough — one requester), the named microbench
 * ocall with a @p payload byte buffer, oracle-timed round trips.
 */
Row
runPoint(const std::string &section, const char *call,
         std::uint64_t payload, int fast_path,
         std::uint64_t inline_bytes, std::uint64_t arena_bytes,
         bool nrz, const measure::MeasureConfig &config)
{
    TestBed bed(/*with_interrupts=*/true,
                {.noRedundantZeroing = nrz});
    auto &machine = *bed.machine;
    auto &platform = *bed.platform;

    hotcalls::HotQueueConfig queue_config;
    queue_config.responderCores = {2};
    queue_config.fastPath = fast_path;
    queue_config.inlinePayloadBytes = inline_bytes;
    queue_config.arenaBytes = arena_bytes;
    hotcalls::HotQueue hot(*bed.runtime, hotcalls::Kind::HotOcall,
                           queue_config);

    Row row;
    row.section = section;
    row.call = call;
    row.payload = payload;
    row.fastPath = fast_path;
    row.inlineBytes = inline_bytes;
    row.arenaBytes = arena_bytes;
    row.nrz = nrz;

    measure::MeasureResult result;
    machine.engine().spawn("driver", 0, [&] {
        hot.start();
        const int id = bed.runtime->ocallId(call);
        bed.runInEnclave([&] {
            mem::Buffer buf(machine, mem::Domain::Epc,
                            payload ? payload : 1);
            for (std::uint64_t i = 0; i < payload; ++i)
                buf.data()[i] = static_cast<std::uint8_t>(i);
            result = measure::measureOracleOp(
                platform,
                [&] {
                    hot.call(id, {edl::Arg::buffer(buf),
                                  edl::Arg::value(payload)});
                },
                config);
        });
        const auto &stats = hot.stats();
        row.inlineStaged = stats.inlineStaged;
        row.arenaStaged = stats.arenaStaged;
        row.heapStaged = stats.heapStaged;
        hot.stop();
        machine.engine().stop();
    });
    machine.engine().run();

    row.medianCycles = result.samples.median();
    row.meanCycles = result.samples.mean();
    return row;
}

void
writeJson(const char *path, const std::vector<Row> &rows)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_ablation_fastpath\",\n"
                    "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            f,
            "    {\"section\": \"%s\", \"call\": \"%s\", "
            "\"payload\": %llu, \"fastpath\": %d, "
            "\"inline_bytes\": %llu, \"arena_bytes\": %llu, "
            "\"nrz\": %s, \"median_cycles\": %.1f, "
            "\"mean_cycles\": %.1f, \"inline_staged\": %llu, "
            "\"arena_staged\": %llu, \"heap_staged\": %llu}%s\n",
            r.section.c_str(), r.call.c_str(),
            static_cast<unsigned long long>(r.payload), r.fastPath,
            static_cast<unsigned long long>(r.inlineBytes),
            static_cast<unsigned long long>(r.arenaBytes),
            r.nrz ? "true" : "false", r.medianCycles, r.meanCycles,
            static_cast<unsigned long long>(r.inlineStaged),
            static_cast<unsigned long long>(r.arenaStaged),
            static_cast<unsigned long long>(r.heapStaged),
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

std::string
placement(const Row &row)
{
    if (!row.fastPath)
        return "legacy heap";
    std::string out;
    if (row.inlineStaged)
        out += "inline ";
    if (row.arenaStaged)
        out += "arena ";
    if (row.heapStaged)
        out += "heap ";
    if (out.empty())
        return "none";
    out.pop_back();
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    auto config = parseMeasureConfig(argc, argv, 2'000);
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;

    std::printf("Ablation: FastPath marshalling (staging arenas, "
                "inline payloads, cached plans)\n(hot ocall via a "
                "HotQueue, %d x %d samples per point)\n",
                config.batches, config.runsPerBatch);

    std::vector<Row> rows;

    // --------------------------------------------------------------
    // 1. Headline: 2 KiB in&out hot ocall, legacy vs FastPath.
    // --------------------------------------------------------------
    const Row legacy = runPoint("headline", "ocall_buf_tofrom", 2048,
                                /*fast_path=*/0, 64, 4096, false,
                                config);
    const Row fast = runPoint("headline", "ocall_buf_tofrom", 2048,
                              /*fast_path=*/1, 64, 4096, false,
                              config);
    rows.push_back(legacy);
    rows.push_back(fast);
    const double cut =
        (1.0 - fast.medianCycles / legacy.medianCycles) * 100.0;
    std::printf("\n2 KiB in&out hot ocall, median cycles:\n"
                "  legacy data plane:   %8.0f\n"
                "  FastPath data plane: %8.0f (%s)\n"
                "  reduction: %.1f%% (tentpole target: >= 25%%)\n",
                legacy.medianCycles, fast.medianCycles,
                placement(fast).c_str(), cut);

    // --------------------------------------------------------------
    // 2. Inline-threshold sweep.
    // --------------------------------------------------------------
    std::printf("\nInline threshold sweep (in&out payloads; median "
                "cycles; 0 = inline staging off):\n");
    TextTable inline_table({"payload", "inline=0", "inline=64",
                            "inline=256", "inline=1024",
                            "placement@1024"});
    for (std::uint64_t payload : {16, 64, 256, 1024, 2048}) {
        std::vector<std::string> cells = {std::to_string(payload)};
        Row last;
        for (std::uint64_t inline_bytes : {0, 64, 256, 1024}) {
            last = runPoint("inline_sweep", "ocall_buf_tofrom",
                            payload, 1, inline_bytes, 4096, false,
                            config);
            rows.push_back(last);
            cells.push_back(TextTable::num(last.medianCycles, 0));
        }
        cells.push_back(placement(last));
        inline_table.addRow(cells);
    }
    inline_table.print();

    // --------------------------------------------------------------
    // 3. Arena vs heap spill (inline off isolates the arena term).
    // --------------------------------------------------------------
    std::printf("\nArena vs heap staging (2 KiB in&out, inline "
                "off):\n");
    TextTable arena_table(
        {"staging", "median cycles", "vs legacy"});
    const Row arena_on = runPoint("arena_vs_heap", "ocall_buf_tofrom",
                                  2048, 1, 0, 4096, false, config);
    const Row arena_off = runPoint("arena_vs_heap",
                                   "ocall_buf_tofrom", 2048, 1, 0, 0,
                                   false, config);
    rows.push_back(arena_on);
    rows.push_back(arena_off);
    auto vs_legacy = [&](const Row &r) {
        return TextTable::num(
                   (1.0 - r.medianCycles / legacy.medianCycles) *
                       100.0,
                   1) +
               "%";
    };
    arena_table.addRow({"slot arena",
                        TextTable::num(arena_on.medianCycles, 0),
                        vs_legacy(arena_on)});
    arena_table.addRow({"heap spill (arena off)",
                        TextTable::num(arena_off.medianCycles, 0),
                        vs_legacy(arena_off)});
    arena_table.addRow({"legacy plane",
                        TextTable::num(legacy.medianCycles, 0), "-"});
    arena_table.print();

    // --------------------------------------------------------------
    // 4. NRZ interaction on an out-only ocall (zeroing shows there).
    // --------------------------------------------------------------
    std::printf("\nNo-Redundant-Zeroing interaction (2 KiB out-only "
                "ocall, median cycles):\n");
    TextTable nrz_table({"data plane", "nrz off", "nrz on", "delta"});
    for (int fast_path : {0, 1}) {
        const Row off = runPoint("nrz", "ocall_buf_from", 2048,
                                 fast_path, 64, 4096, false, config);
        const Row on = runPoint("nrz", "ocall_buf_from", 2048,
                                fast_path, 64, 4096, true, config);
        rows.push_back(off);
        rows.push_back(on);
        nrz_table.addRow(
            {fast_path ? "fastpath" : "legacy",
             TextTable::num(off.medianCycles, 0),
             TextTable::num(on.medianCycles, 0),
             TextTable::num(off.medianCycles - on.medianCycles, 0)});
    }
    nrz_table.print();
    std::printf("\n(FastPath zeroes word-wise to begin with, so NRZ "
                "has little left to remove there.)\n");

    if (json_path)
        writeJson(json_path, rows);

    return cut >= 25.0 ? 0 : 1;
}
