/**
 * @file
 * edge-mix: every edge-call layer's public call, timed directly.
 *
 * One requester on core 0 runs, per iteration, three calls from
 * outside the enclave (SDK ecall empty, SDK ecall 2 KiB in&out,
 * HotEcall empty through a HotCallService whose responder sits on
 * core 1) and then, inside one carrier ecall, three calls from inside
 * (SDK ocall empty, SDK ocall 2 KiB to&from, HotOcall 2 KiB to&from
 * through a FastPath HotQueue whose responder sits on core 2). The OS
 * timer is armed, so AEXs land as in Table 1's methodology: calls
 * outside the enclave are timed with RDTSCP, calls inside with the
 * simulator's clock, and the per-call-type medians drop samples an
 * interrupt touched, as the paper does. The end-to-end latency is
 * that of one iteration (the six timed calls plus the carrier ecall),
 * with the same rule. About 2% of iterations see an interrupt on some
 * core and about 1% are slowed by one, so keeping them would put p99
 * on the edge of the AEX tail, where it jumps between seeds;
 * sgx.aex_per_kop reports their rate instead.
 * Single calls are no alternative: their cycle counts sit on plateaus,
 * so their p99 would not move with the seed at all.
 *
 * The EDL bodies are not empty: they digest, fill or transform the
 * staged bytes, and the harness checks every return value and every
 * copied-back byte, so a marshalling bug shows as failed calls.
 */

#include <cstring>
#include <functional>

#include "harness.hh"
#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/buffer.hh"
#include "sdk/runtime.hh"
#include "support/rng.hh"

namespace hcbench {

namespace {

const char *kEdgeEdl = R"EDL(
enclave {
    trusted {
        public uint64_t ecall_empty();
        public uint64_t ecall_buf_in([in, size=len] uint8_t* buf,
                                     size_t len);
        public uint64_t ecall_buf_out([out, size=len] uint8_t* buf,
                                      size_t len);
        public uint64_t ecall_buf_inout([in, out, size=len] uint8_t* buf,
                                        size_t len);
        public void ecall_run();
    };
    untrusted {
        uint64_t ocall_empty();
        uint64_t ocall_buf_to([in, size=len] uint8_t* buf, size_t len);
        uint64_t ocall_buf_from([out, size=len] uint8_t* buf,
                                size_t len);
        uint64_t ocall_buf_tofrom([in, out, size=len] uint8_t* buf,
                                  size_t len);
    };
};
)EDL";

constexpr std::uint64_t kBytes = 2048;
constexpr std::uint64_t kEmptyTag = 0x600d;
constexpr int kWarmupIterations = 1'000;
constexpr int kIterations = 12'000;
constexpr int kCallsPerIteration = 6;

/** FNV-1a over @p len bytes. */
std::uint64_t
digest(const std::uint8_t *data, std::uint64_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t i = 0; i < len; ++i)
        h = (h ^ data[i]) * 0x100000001b3ull;
    return h;
}

/** What an `out` body writes at byte @p i. */
std::uint8_t
fillByte(std::uint64_t i)
{
    return static_cast<std::uint8_t>(i * 131 + 7);
}

/** What an `in&out` body turns input byte @p b at @p i into. */
std::uint8_t
transformByte(std::uint8_t b, std::uint64_t i)
{
    return static_cast<std::uint8_t>(~b ^ static_cast<std::uint8_t>(i));
}

// The bodies shared by trusted and untrusted implementations.
void
bodyEmpty(hc::edl::StagedCall &call)
{
    call.setRetval(kEmptyTag);
}

void
bodyIn(hc::edl::StagedCall &call)
{
    call.setRetval(digest(call.data(0), call.size(0)));
}

void
bodyOut(hc::edl::StagedCall &call)
{
    std::uint8_t *data = call.data(0);
    for (std::uint64_t i = 0; i < call.size(0); ++i)
        data[i] = fillByte(i);
    call.setRetval(call.size(0));
}

void
bodyInOut(hc::edl::StagedCall &call)
{
    std::uint8_t *data = call.data(0);
    call.setRetval(digest(data, call.size(0)));
    for (std::uint64_t i = 0; i < call.size(0); ++i)
        data[i] = transformByte(data[i], i);
}

/** A 2 KiB argument buffer plus the input it was last loaded with. */
class Payload
{
  public:
    Payload(hc::mem::Machine &machine, hc::mem::Domain domain)
        : buffer_(machine, domain, kBytes), input_(kBytes)
    {
    }

    /** Load fresh input bytes (host side only; no cycles). */
    void load(hc::Rng &rng)
    {
        for (std::uint64_t i = 0; i < kBytes; i += 8) {
            const std::uint64_t word = rng.next();
            std::memcpy(input_.data() + i, &word, 8);
        }
        std::memcpy(buffer_.data(), input_.data(), kBytes);
    }

    hc::edl::Args args()
    {
        return {hc::edl::Arg::buffer(buffer_), hc::edl::Arg::value(kBytes)};
    }

    /** @return true when an `in` call returned the input's digest. */
    bool checkIn(std::uint64_t retval) const
    {
        return retval == digest(input_.data(), kBytes);
    }

    /** @return true when an `out` call filled the whole buffer. */
    bool checkOut(std::uint64_t retval) const
    {
        for (std::uint64_t i = 0; i < kBytes; ++i)
            if (buffer_.data()[i] != fillByte(i))
                return false;
        return retval == kBytes;
    }

    /** @return true when an `in&out` call saw the input and its
     *  transform was copied back. */
    bool checkInOut(std::uint64_t retval) const
    {
        for (std::uint64_t i = 0; i < kBytes; ++i)
            if (buffer_.data()[i] != transformByte(input_[i], i))
                return false;
        return checkIn(retval);
    }

  private:
    hc::mem::Buffer buffer_;
    std::vector<std::uint8_t> input_;
};

/** Samples of one call type. */
struct CallStats {
    const char *name;
    double paperCycles; //!< Table 1 median, or 0 when not in Table 1
    hc::SampleSet cycles;  //!< samples no interrupt touched
    hc::SampleSet hostNs;  //!< traced runs only
};

} // anonymous namespace

void
runEdgeMix(const Options &options, Tracer &tracer, Phases &phases,
           Result &result)
{
    EventCounter events;
    hc::mem::Machine machine(paperMachine(options.seed));
    hc::sgx::SgxPlatform platform(machine);
    platform.installAexHandler();
    hc::sdk::EnclaveRuntime rt(platform, "edge-mix", kEdgeEdl, 4);

    std::function<void()> in_enclave;
    rt.registerEcall("ecall_empty", bodyEmpty);
    rt.registerEcall("ecall_buf_in", bodyIn);
    rt.registerEcall("ecall_buf_out", bodyOut);
    rt.registerEcall("ecall_buf_inout", bodyInOut);
    rt.registerEcall("ecall_run",
                     [&](hc::edl::StagedCall &) { in_enclave(); });
    rt.registerOcall("ocall_empty", bodyEmpty);
    rt.registerOcall("ocall_buf_to", bodyIn);
    rt.registerOcall("ocall_buf_from", bodyOut);
    rt.registerOcall("ocall_buf_tofrom", bodyInOut);

    hc::hotcalls::HotCallConfig ecall_config;
    ecall_config.fastPath = 1;
    hc::hotcalls::HotCallService hot_ecall(
        rt, hc::hotcalls::Kind::HotEcall, 1, ecall_config);
    hc::hotcalls::HotQueueConfig ocall_config;
    ocall_config.responderCores = {2};
    ocall_config.fastPath = 1;
    hc::hotcalls::HotQueue hot_ocall(rt, hc::hotcalls::Kind::HotOcall,
                                     ocall_config);

    Payload ubuf(machine, hc::mem::Domain::Untrusted);
    Payload ebuf(machine, hc::mem::Domain::Epc);
    hc::Rng rng(options.seed ^ 0xed6e);

    const int e_empty = rt.ecallId("ecall_empty");
    const int e_in = rt.ecallId("ecall_buf_in");
    const int e_out = rt.ecallId("ecall_buf_out");
    const int e_inout = rt.ecallId("ecall_buf_inout");
    const int e_run = rt.ecallId("ecall_run");
    const int o_empty = rt.ocallId("ocall_empty");
    const int o_to = rt.ocallId("ocall_buf_to");
    const int o_from = rt.ocallId("ocall_buf_from");
    const int o_tofrom = rt.ocallId("ocall_buf_tofrom");

    // Table 1 anchors: rows 1, 3 (in&out), 4 and 6 (to&from).
    CallStats sdk_ecall{"sdk.ecall", 8'640, {}, {}};
    CallStats edl_ecall{"edl.ecall_inout_2k", 10'827, {}, {}};
    CallStats hot_ecall_stats{"hotcalls.hotecall", 0, {}, {}};
    CallStats sdk_ocall{"sdk.ocall", 8'314, {}, {}};
    CallStats edl_ocall{"edl.ocall_tofrom_2k", 9'801, {}, {}};
    CallStats hot_ocall_stats{"hotcalls.hotqueue_ocall_2k", 0, {}, {}};
    hc::SampleSet iteration_cycles; //!< interrupt-free iterations
    attachEvents(machine, events, options.traced);
    phases.end("build");

    auto &engine = machine.engine();
    bool recording = false;
    std::uint64_t iteration_span = 0;

    // Time one call. Outside the enclave RDTSCP is the clock (as in
    // Table 1); inside it faults, so the simulator's clock stands in.
    // Returns the callee's return value.
    auto timed = [&](CallStats &stats, bool inside, const char *span,
                     auto &&call) {
        const std::uint64_t intr0 = engine.interruptCount();
        const std::uint64_t h0 = options.traced ? hostNs() : 0;
        const hc::Cycles t0 =
            inside ? machine.now() : platform.rdtscp();
        const std::uint64_t retval = call();
        const hc::Cycles t1 =
            inside ? machine.now() : platform.rdtscp();
        if (!recording)
            return retval;
        if (engine.interruptCount() == intr0)
            stats.cycles.add(static_cast<double>(t1 - t0));
        if (options.traced) {
            const std::uint64_t h1 = hostNs();
            stats.hostNs.add(static_cast<double>(h1 - h0));
            tracer.span(span, "edge", h0, h1, tracer.nextId(),
                        iteration_span);
        }
        return retval;
    };

    std::uint64_t bad_calls = 0;
    auto expect = [&](bool ok) { bad_calls += ok ? 0 : 1; };

    in_enclave = [&] {
        expect(timed(sdk_ocall, true, "sdk.ocall", [&] {
                   return rt.ocall(o_empty, {});
               }) == kEmptyTag);
        ebuf.load(rng);
        expect(ebuf.checkInOut(timed(edl_ocall, true, "edl.ocall_tofrom_2k",
                                     [&] {
                                         return rt.ocall(o_tofrom,
                                                         ebuf.args());
                                     })));
        ebuf.load(rng);
        expect(ebuf.checkInOut(
            timed(hot_ocall_stats, true, "hotcalls.hotqueue_ocall_2k",
                  [&] { return hot_ocall.call(o_tofrom, ebuf.args()); })));
    };

    auto iterate = [&] {
        const std::uint64_t h0 = options.traced ? hostNs() : 0;
        const hc::Cycles t0 = machine.now();
        const std::uint64_t intr0 = engine.interruptCount();
        iteration_span = recording ? tracer.nextId() : 0;
        expect(timed(sdk_ecall, false, "sdk.ecall", [&] {
                   return rt.ecall(e_empty, {});
               }) == kEmptyTag);
        ubuf.load(rng);
        expect(ubuf.checkInOut(
            timed(edl_ecall, false, "edl.ecall_inout_2k",
                  [&] { return rt.ecall(e_inout, ubuf.args()); })));
        expect(timed(hot_ecall_stats, false, "hotcalls.hotecall", [&] {
                   return hot_ecall.call(e_empty, {});
               }) == kEmptyTag);
        rt.ecall(e_run, {});
        if (recording) {
            if (engine.interruptCount() == intr0)
                iteration_cycles.add(
                    static_cast<double>(machine.now() - t0));
            tracer.span("iteration", "edge", h0, hostNs(),
                        iteration_span);
        }
    };

    // Every direction on every path once, outside the timing: the
    // SDK, the HotCall line (HotEcall) and the HotQueue ring
    // (HotOcall).
    auto self_check = [&] {
        using Call = std::function<std::uint64_t(int, hc::edl::Args)>;
        auto directions = [&](Payload &buf, const Call &call, int empty,
                              int in, int out, int inout) {
            expect(call(empty, {}) == kEmptyTag);
            buf.load(rng);
            expect(buf.checkIn(call(in, buf.args())));
            buf.load(rng);
            expect(buf.checkOut(call(out, buf.args())));
            buf.load(rng);
            expect(buf.checkInOut(call(inout, buf.args())));
        };
        directions(
            ubuf, [&](int id, hc::edl::Args a) { return rt.ecall(id, a); },
            e_empty, e_in, e_out, e_inout);
        directions(
            ubuf,
            [&](int id, hc::edl::Args a) { return hot_ecall.call(id, a); },
            e_empty, e_in, e_out, e_inout);
        auto saved = in_enclave;
        in_enclave = [&] {
            directions(
                ebuf,
                [&](int id, hc::edl::Args a) { return rt.ocall(id, a); },
                o_empty, o_to, o_from, o_tofrom);
            directions(
                ebuf,
                [&](int id, hc::edl::Args a) {
                    return hot_ocall.call(id, a);
                },
                o_empty, o_to, o_from, o_tofrom);
        };
        rt.ecall(e_run, {});
        in_enclave = saved;
    };

    engine.spawn("harness", 0, [&] {
        hot_ecall.start();
        hot_ocall.start();
        self_check();
        for (int i = 0; i < kWarmupIterations; ++i)
            iterate();
        phases.end("warmup");

        const auto ecall0 = hot_ecall.stats();
        const auto ocall0 = hot_ocall.stats();
        const Snapshot open = Snapshot::take(platform, &events);
        open.trace(tracer, "window_open");
        recording = true;
        for (int i = 0; i < kIterations; ++i)
            iterate();
        recording = false;
        const Snapshot close = Snapshot::take(platform, &events);
        close.trace(tracer, "window_close");
        phases.end("window");

        const double ops =
            static_cast<double>(kIterations) * kCallsPerIteration;
        windowMetrics(open, close, ops, machine, options.traced, result);
        latencyMetrics(iteration_cycles, result);

        std::vector<std::pair<double, double>> anchors;
        for (CallStats *stats : {&sdk_ecall, &edl_ecall, &hot_ecall_stats,
                                 &sdk_ocall, &edl_ocall,
                                 &hot_ocall_stats}) {
            const std::string name = stats->name;
            const double p50 = stats->cycles.percentile(50);
            result.sim[name + ".sim_cycles_p50"] = p50;
            result.sim[name + ".sim_cycles_p99"] =
                stats->cycles.percentile(99);
            if (options.traced)
                result.host[name + ".host_ns_p50"] =
                    stats->hostNs.percentile(50);
            if (stats->paperCycles > 0)
                anchors.emplace_back(p50, stats->paperCycles);
        }
        result.sim["paper_err_pct"] = paperErrorPct(anchors);

        const auto &ecall1 = hot_ecall.stats();
        const auto &ocall1 = hot_ocall.stats();
        const double hot_calls = static_cast<double>(
            ecall1.calls - ecall0.calls + ocall1.calls - ocall0.calls);
        const double fallbacks =
            static_cast<double>(ecall1.fallbacks - ecall0.fallbacks +
                                ocall1.fallbacks - ocall0.fallbacks);
        const double polls = static_cast<double>(
            ecall1.responderPolls - ecall0.responderPolls +
            ocall1.responderPolls - ocall0.responderPolls);
        const double fast =
            static_cast<double>(ocall1.fastCalls - ocall0.fastCalls);
        result.sim["hotcalls.responder_polls_per_call"] =
            polls / (hot_calls + fallbacks);
        result.sim["hotcalls.fallback_ratio"] =
            fallbacks / (hot_calls + fallbacks);
        result.sim["hotcalls.inline_share"] =
            fast > 0 ? static_cast<double>(ocall1.inlineStaged -
                                           ocall0.inlineStaged) /
                           fast
                     : 0.0;
        result.sim["hotcalls.arena_share"] =
            fast > 0 ? static_cast<double>(ocall1.arenaStaged -
                                           ocall0.arenaStaged) /
                           fast
                     : 0.0;

        result.attempted = static_cast<std::uint64_t>(ops);
        result.fail(bad_calls, "edge calls returned wrong values or bytes");

        hot_ecall.stop();
        hot_ocall.stop();
        engine.stop();
    });
    engine.run();
}

} // namespace hcbench
