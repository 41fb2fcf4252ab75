/**
 * @file
 * Shared harness for the application experiments (Table 2, Figures
 * 10 and 11): builds the paper's testbed for one application in one
 * configuration, runs warmup + a measured window, and reports
 * throughput, latency, and per-call rates.
 *
 * Configurations map to the paper's bars:
 *   native          - the unmodified application
 *   sgx             - straightforward port, SDK ecalls/ocalls
 *   sgx+hotcalls    - HotCalls for the app's frequent calls
 *   sgx+hotcalls+nrz- additionally No-Redundant-Zeroing
 */

#ifndef HC_BENCH_APP_BENCH_HH
#define HC_BENCH_APP_BENCH_HH

#include <map>
#include <string>

#include "port/port.hh"

namespace hc::bench {

/** One application-run configuration. */
struct AppRunConfig {
    port::Mode mode = port::Mode::Native;
    bool noRedundantZeroing = false;
    /** FastPath data plane for the hot channels (forwarded to
     *  PortConfig). Off by default: the paper bars measure the SDK's
     *  own marshalling, the data plane the paper ran. */
    bool fastPath = false;
    double warmupSec = 0.04;
    double measureSec = 0.25;
    std::uint64_t seed = 7;
};

/** Results of one application run. */
struct AppRunResult {
    /** requests/s (KvCache, Httpd) or Mbit/s (Vpn iperf). */
    double throughput = 0;
    /** Mean response latency / ping RTT, in milliseconds. */
    double latencyMs = 0;
    /** API calls per second by name (Table 2). */
    std::map<std::string, double> callRatesPerSec;
    /** Sum of the above. */
    double totalCallsPerSec = 0;
    /** Responses failing end-to-end payload verification. */
    std::uint64_t integrityErrors = 0;
};

/** The four standard configurations, in paper order. */
std::vector<AppRunConfig> standardConfigs(double measure_sec = 0.25);

/** The beyond-paper bar: sgx+hotcalls+nrz with the FastPath data
 *  plane (staging arenas + inline payloads + cached call plans). */
AppRunConfig fastPathConfig(double measure_sec = 0.25);

/** Label for a configuration. */
std::string configLabel(const AppRunConfig &config);

/** memcached-like KV store under memtier (throughput: req/s). */
AppRunResult runKvCache(const AppRunConfig &config);

/** lighttpd-like web server under http_load (throughput: pages/s). */
AppRunResult runHttpd(const AppRunConfig &config);

/** openVPN-like tunnel under iperf (throughput: Mbit/s). */
AppRunResult runVpnIperf(const AppRunConfig &config);

/** openVPN-like tunnel under flood ping (latencyMs: mean RTT). */
AppRunResult runVpnPing(const AppRunConfig &config);

} // namespace hc::bench

#endif // HC_BENCH_APP_BENCH_HH
