/**
 * @file
 * Ablation (paper §4.2 "Preventing starvation" / "Maximizing
 * utilization"): timeout budgets and Sentinel quarantine under
 * responder oversleep.
 *
 * The paper sets the timeout to 10 attempts and reports it never
 * expired for its applications — but that holds only while the
 * responder actually polls. This ablation uses the FaultLine injector
 * (src/fault) to stall the responder's poll loop and compares the
 * recovery policies layered on the paper's design:
 *
 *  - fixed budgets (the paper's mechanism, swept at 2/10/50 attempts,
 *    Sentinel off),
 *  - fixed budget + quarantine (Sentinel on, adaptation clamped away
 *    by maxTimeoutTries = timeoutTries),
 *  - adaptive budget without quarantine (Sentinel on, the streak
 *    threshold pushed out of reach),
 *  - the full Sentinel (adaptive budget + quarantine + probes).
 *
 * The final section kills the responder outright (ResponderNeverWake,
 * respawn disabled) and measures the steady-state cycles-per-call on
 * the dead channel: the fixed-timeout baseline burns its full spin
 * budget on every call forever, while a quarantined channel sheds
 * straight to the SDK path. The bench self-checks the headline claim
 * (SELF-CHECK line, non-zero exit on failure): steady-state overhead
 * above the raw SDK floor must be at least 5x lower with quarantine.
 *
 * Pass --json for machine-readable output (one object per row plus
 * the self-check verdict), --runs=N to scale the per-point call count.
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "fault/fault.hh"

using namespace hc;
using namespace hc::bench;

namespace {

/** How the channel defends itself at one sweep point. */
struct Policy {
    const char *name;
    int timeoutTries;   //!< fixed budget / adaptive floor
    bool adaptive;      //!< widen the budget from the latency EWMA
    bool quarantine;    //!< shed to the SDK after a fallback streak
};

struct Result {
    std::uint64_t calls = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t timeoutAttempts = 0;
    std::uint64_t sheds = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t restores = 0;
    double meanLatency = 0;
    double tailLatency = 0; //!< mean over the steady-state tail
};

/** Calls to drop from the front of the tail mean: quarantine entry
 *  (the K-fallback streak) is a transient, the interesting number is
 *  the per-call cost after the channel settled. */
constexpr int kWarmup = 60;

/** One sweep point: a single requester against a responder whose
 *  poll loop stalls per @p plan, defended per @p policy. */
Result
runPoint(const fault::FaultPlan &plan, const Policy &policy, int calls)
{
    TestBed bed(/*with_interrupts=*/false, {}, /*seed=*/42,
                [&](mem::MachineConfig &mc) {
                    mc.guard.enabled =
                        policy.adaptive || policy.quarantine;
                    if (!policy.quarantine) {
                        // Push the streak threshold out of reach: the
                        // budget adapts but the channel never degrades.
                        mc.guard.quarantineAfter = 1 << 30;
                    }
                    // Steady-state economics, not healing: a respawned
                    // responder would revive the dead channel and the
                    // comparison below would measure recovery instead.
                    mc.guard.respawn = false;
                });
    auto &machine = *bed.machine;
    auto &engine = machine.engine();

    fault::FaultInjector injector(engine, plan);
    machine.installFault(&injector);

    hotcalls::HotCallConfig config;
    config.timeout.timeoutTries = policy.timeoutTries;
    if (!policy.adaptive)
        config.timeout.maxTimeoutTries = policy.timeoutTries;
    hotcalls::HotCallService hot(*bed.runtime,
                                 hotcalls::Kind::HotEcall, 1, config);
    hot.start();

    const int id = bed.runtime->ecallId("ecall_empty");
    SampleSet latencies;
    SampleSet tail;
    engine.spawn("req", 2, [&] {
        for (int i = 0; i < calls; ++i) {
            const Cycles t0 = machine.now();
            hot.call(id, {});
            const double d = static_cast<double>(machine.now() - t0);
            latencies.add(d);
            if (i >= kWarmup)
                tail.add(d);
        }
        hot.stop();
        engine.stop();
    });
    engine.run();
    engine.unwindStranded();

    Result result;
    result.calls = hot.stats().calls;
    result.fallbacks = hot.stats().fallbacks;
    result.timeoutAttempts = hot.stats().timeoutAttempts;
    if (const auto *g = hot.guard()) {
        result.sheds = g->stats().sheds;
        result.quarantines = g->stats().quarantines;
        result.restores = g->stats().restores;
    }
    result.meanLatency = latencies.mean();
    result.tailLatency = tail.mean();
    machine.installFault(nullptr);
    return result;
}

/** Raw SDK floor: the same calls with no channel at all. */
double
runSdkBaseline(int calls)
{
    TestBed bed(/*with_interrupts=*/false);
    auto &machine = *bed.machine;
    auto &engine = machine.engine();
    SampleSet tail;
    engine.spawn("req", 2, [&] {
        for (int i = 0; i < calls; ++i) {
            const Cycles t0 = machine.now();
            bed.runtime->ecall("ecall_empty", {});
            if (i >= kWarmup)
                tail.add(static_cast<double>(machine.now() - t0));
        }
        engine.stop();
    });
    engine.run();
    return tail.mean();
}

std::string
jsonRow(const char *plan_name, Cycles stall_mean, double fire_pct,
        const Policy &policy, const Result &r)
{
    std::string out = "{\"plan\":\"";
    out += plan_name;
    out += "\",\"stall_mean\":" + std::to_string(stall_mean);
    out += ",\"fire_pct\":" + std::to_string(fire_pct);
    out += ",\"policy\":\"";
    out += policy.name;
    out += "\",\"timeout_tries\":" + std::to_string(policy.timeoutTries);
    out += std::string(",\"adaptive\":") +
           (policy.adaptive ? "true" : "false");
    out += std::string(",\"quarantine\":") +
           (policy.quarantine ? "true" : "false");
    out += ",\"hot_calls\":" + std::to_string(r.calls);
    out += ",\"fallbacks\":" + std::to_string(r.fallbacks);
    out += ",\"timeout_attempts\":" + std::to_string(r.timeoutAttempts);
    out += ",\"sheds\":" + std::to_string(r.sheds);
    out += ",\"quarantines\":" + std::to_string(r.quarantines);
    out += ",\"restores\":" + std::to_string(r.restores);
    out += ",\"mean_latency\":" + std::to_string(r.meanLatency);
    out += ",\"tail_latency\":" + std::to_string(r.tailLatency);
    out += "}";
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int calls = 500;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--runs=", 7) == 0)
            calls = std::atoi(argv[i] + 7);
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
    }
    if (calls < kWarmup + 50)
        calls = kWarmup + 50;

    const Policy policies[] = {
        {"fixed-2", 2, false, false},
        {"fixed-10", 10, false, false},
        {"fixed-50", 50, false, false},
        {"fixed-10+quar", 10, false, true},
        {"adaptive", 10, true, false},
        {"sentinel", 10, true, true},
    };

    struct Sweep {
        const char *name;
        Cycles mean;        //!< exponential stall mean (0 = quiet)
        double probability; //!< per-poll fire chance
    };
    const Sweep sweeps[] = {
        {"quiet", 0, 0.0},
        {"light", 10'000, 0.05},
        {"heavy", 40'000, 0.25},
    };

    std::vector<std::string> rows;
    if (!json) {
        std::printf("Ablation: timeout budgets and quarantine under "
                    "responder oversleep\n");
        std::printf("(FaultLine stalls the responder poll loop; one "
                    "requester, %d calls/point)\n\n", calls);
    }

    TextTable table({"plan", "policy", "hot calls", "fallbacks",
                     "timeout attempts", "sheds", "quar", "restores",
                     "mean latency", "tail latency"});
    std::uint64_t seed = 1100;
    for (const Sweep &sweep : sweeps) {
        for (const Policy &policy : policies) {
            const fault::FaultPlan plan =
                sweep.mean == 0
                    ? fault::FaultPlan::quiet(++seed)
                    : fault::FaultPlan::oversleep(++seed, sweep.mean,
                                                  sweep.probability);
            const Result r = runPoint(plan, policy, calls);
            rows.push_back(jsonRow(sweep.name, sweep.mean,
                                   sweep.probability * 100, policy, r));
            table.addRow({sweep.name, policy.name,
                          std::to_string(r.calls),
                          std::to_string(r.fallbacks),
                          std::to_string(r.timeoutAttempts),
                          std::to_string(r.sheds),
                          std::to_string(r.quarantines),
                          std::to_string(r.restores),
                          TextTable::cycles(r.meanLatency),
                          TextTable::cycles(r.tailLatency)});
        }
    }

    // ------------------------------------------------------------------
    // Dead channel: the responder never wakes and is never respawned.
    // Pre-Sentinel (guard off) the first published request is never
    // served and the requester waits forever — the paper's budget
    // only covers *claiming* the channel — so that baseline wedges
    // until the FaultLine backstop aborts the run. With the guard on
    // but quarantine out of reach, every call pays the full timeout
    // dance (spin budget, unserved-deadline wait, abandon, SDK
    // reissue). Quarantine pays that O(K) times total and sheds the
    // rest straight to the SDK path at (near) zero channel cost.
    // ------------------------------------------------------------------

    const double sdk_floor = runSdkBaseline(calls);
    const Policy fixed10 = {"fixed-10 (wedges)", 10, false, false};
    const Policy timeouts = {"per-call timeouts", 10, true, false};
    const Policy sentinel = {"sentinel", 10, true, true};
    // Short backstop for the wedged baseline: the point is *that* it
    // wedges, no need to simulate two billion idle cycles.
    const Result r_wedge = runPoint(
        fault::FaultPlan::neverWake(4242, 0, 20'000'000), fixed10,
        calls);
    const fault::FaultPlan dead =
        fault::FaultPlan::neverWake(4242, 0, 2'000'000'000);
    const Result r_timeo = runPoint(dead, timeouts, calls);
    const Result r_guard = runPoint(dead, sentinel, calls);

    const double over_timeo = r_timeo.tailLatency - sdk_floor;
    const double over_guard = r_guard.tailLatency - sdk_floor;
    // Floor the quarantined overhead at one cycle so a sub-cycle (or
    // measurement-noise negative) denominator cannot inflate the
    // ratio into nonsense.
    const double ratio =
        over_timeo / (over_guard > 1.0 ? over_guard : 1.0);
    const bool ok = over_timeo > 0 && ratio >= 5.0;

    for (const auto &pair :
         {std::make_pair(&fixed10, &r_wedge),
          std::make_pair(&timeouts, &r_timeo),
          std::make_pair(&sentinel, &r_guard)}) {
        const Policy &p = *pair.first;
        const Result &r = *pair.second;
        table.addRow({"dead", p.name, std::to_string(r.calls),
                      std::to_string(r.fallbacks),
                      std::to_string(r.timeoutAttempts),
                      std::to_string(r.sheds),
                      std::to_string(r.quarantines),
                      std::to_string(r.restores),
                      TextTable::cycles(r.meanLatency),
                      TextTable::cycles(r.tailLatency)});
        rows.push_back(jsonRow("dead", 0, 0, p, r));
    }

    if (json) {
        std::printf("[\n");
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::printf("  %s%s\n", rows[i].c_str(),
                        i + 1 < rows.size() ? "," : ",");
        std::printf(
            "  {\"self_check\":\"dead_channel_overhead\","
            "\"sdk_floor\":%.1f,\"overhead_per_call_timeouts\":%.1f,"
            "\"overhead_sentinel\":%.1f,\"ratio\":%.1f,"
            "\"pass\":%s}\n]\n",
            sdk_floor, over_timeo, over_guard, ratio,
            ok ? "true" : "false");
    } else {
        table.print();
        std::printf("\nwith a quiet plan the paper's 10-attempt budget "
                    "never falls back (its\nobservation); oversleep "
                    "shows the trade: small fixed budgets shed load "
                    "early,\nlarge ones ride out stalls at spin cost, "
                    "the adaptive budget widens only under\ndistress, "
                    "and quarantine caps the dead-channel bill at O(K) "
                    "timeouts total\n");
        std::printf("\ndead channel: guard-off wedges on the first "
                    "unserved request (aborted by\nthe backstop after "
                    "%s cycles); steady-state cycles/call above the "
                    "%.0f-cycle\nSDK floor: per-call timeouts burn "
                    "%.0f, sentinel %.0f -> %.1fx cheaper\n",
                    TextTable::cycles(r_wedge.meanLatency).c_str(),
                    sdk_floor, over_timeo, over_guard, ratio);
        std::printf("SELF-CHECK %s: quarantined calls %s at least 5x "
                    "cheaper than the fixed\ntimeout on a dead "
                    "channel\n",
                    ok ? "PASSED" : "FAILED", ok ? "are" : "are NOT");
    }
    return ok ? 0 : 1;
}
