/**
 * @file
 * FastPath data-plane tests: cached call plans, staging placement
 * (inline slot lines vs spill arena vs legacy heap), arena recycling
 * across calls, functional equality of every call path (SDK,
 * single line, ring; both planes; both directions), the single-channel
 * staging guard, SimCheck integration (a clean run and a seeded
 * premature-arena-recycle violation), and staging teardown next to a
 * wedged responder.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "check/check.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/arena.hh"
#include "mem/buffer.hh"

using namespace hc;
using namespace hc::hotcalls;

namespace {

const char *kEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_sum([in, size=len] uint8_t* buf,
                                      size_t len);
            public void ecall_fill([out, size=len] uint8_t* buf,
                                   size_t len);
            public void ecall_empty();
        };
        untrusted {
            void ocall_fill([out, size=len] uint8_t* buf, size_t len);
            void ocall_consume([in, size=len] uint8_t* buf,
                               size_t len);
            uint64_t ocall_bump([in, out, size=len] uint8_t* buf,
                                size_t len);
            void ocall_empty();
        };
    };
)";

struct Fixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;
    std::vector<std::uint8_t> consumed;

    explicit Fixture(mem::MachineConfig config = [] {
        mem::MachineConfig c;
        c.engine.numCores = 8;
        return c;
    }())
        : machine(config), platform(machine),
          runtime(platform, "fastpath-test", kEdl, 4)
    {
        runtime.registerEcall("ecall_sum", [](edl::StagedCall &c) {
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                sum += c.data(0)[i];
            c.setRetval(sum);
        });
        runtime.registerEcall("ecall_fill", [](edl::StagedCall &c) {
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                c.data(0)[i] =
                    static_cast<std::uint8_t>(0x5a ^ (i & 0xff));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_fill", [](edl::StagedCall &c) {
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                c.data(0)[i] =
                    static_cast<std::uint8_t>(0xc0 + (i & 0xf));
        });
        runtime.registerOcall(
            "ocall_consume", [this](edl::StagedCall &c) {
                consumed.assign(c.data(0), c.data(0) + c.size(0));
            });
        runtime.registerOcall("ocall_bump", [](edl::StagedCall &c) {
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < c.size(0); ++i) {
                sum += c.data(0)[i];
                c.data(0)[i] = static_cast<std::uint8_t>(
                    c.data(0)[i] + 1);
            }
            c.setRetval(sum);
        });
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
    }

    void run(std::function<void()> body)
    {
        machine.engine().spawn("app", 0, std::move(body));
        machine.engine().run();
    }

    void inEnclave(std::function<void()> body)
    {
        sgx::Tcs *tcs = runtime.enclave().acquireTcs();
        platform.eenter(runtime.enclave(), *tcs);
        body();
        platform.eexit();
        runtime.enclave().releaseTcs(tcs);
    }
};

/** HotOcall queue with explicit FastPath geometry. */
HotQueueConfig
fastConfig(std::uint64_t inline_bytes, std::uint64_t arena_bytes)
{
    HotQueueConfig config;
    config.responderCores = {2};
    config.fastPath = 1;
    config.inlinePayloadBytes = inline_bytes;
    config.arenaBytes = arena_bytes;
    return config;
}

} // anonymous namespace

// ----------------------------------------------------------------------
// The StagingArena itself.
// ----------------------------------------------------------------------

TEST(StagingArena, BumpAllocatesAlignedAndRecycles)
{
    mem::MachineConfig config;
    config.engine.numCores = 2;
    mem::Machine machine(config);
    mem::StagingArena arena(machine, mem::Domain::Untrusted, 256);
    EXPECT_EQ(arena.capacity(), 256u);
    EXPECT_EQ(arena.used(), 0u);

    mem::StagingArena::Piece a, b;
    ASSERT_TRUE(arena.tryAlloc(10, a));
    ASSERT_TRUE(arena.tryAlloc(10, b));
    EXPECT_NE(a.data, b.data);
    // Pieces are 16-byte aligned within the arena.
    EXPECT_EQ((b.addr - a.addr) % 16, 0u);
    EXPECT_GE(b.addr, a.addr + 10);

    // Exhaustion fails cleanly ...
    mem::StagingArena::Piece c;
    EXPECT_FALSE(arena.tryAlloc(256, c));
    // ... and reset() recycles the whole capacity.
    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    ASSERT_TRUE(arena.tryAlloc(256, c));
    EXPECT_EQ(c.addr, arena.base());
}

TEST(StagingArena, ZeroCapacityNeverAllocates)
{
    mem::MachineConfig config;
    config.engine.numCores = 2;
    mem::Machine machine(config);
    mem::StagingArena arena(machine, mem::Domain::Epc, 0);
    mem::StagingArena::Piece p;
    EXPECT_FALSE(arena.tryAlloc(1, p));
    EXPECT_FALSE(arena.tryAlloc(0, p));
}

// ----------------------------------------------------------------------
// Staging placement: inline -> arena -> heap by payload size.
// ----------------------------------------------------------------------

TEST(FastPath, PlacementFollowsPayloadSize)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 512);
            auto call = [&](std::uint64_t len) {
                hot.call("ocall_consume", {edl::Arg::buffer(buf),
                                           edl::Arg::value(len)});
            };
            call(32); // fits the inline lines
            EXPECT_EQ(hot.stats().inlineStaged, 1u);
            call(128); // too big inline, fits the arena
            EXPECT_EQ(hot.stats().arenaStaged, 1u);
            call(512); // too big for both, spills to the heap
            EXPECT_EQ(hot.stats().heapStaged, 1u);
            EXPECT_EQ(hot.stats().fastCalls, 3u);
        });
        hot.stop();
        f.machine.engine().stop();
    });
    // Data delivered intact regardless of placement (last call).
    ASSERT_EQ(f.consumed.size(), 512u);
}

TEST(FastPath, InlineSpillBoundarySizes)
{
    // Payloads straddling both thresholds: the inline capacity is
    // inlinePayloadBytes rounded up to whole cache lines (64 -> one
    // 64-byte line), the arena capacity is exact.
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 512);
            for (std::uint64_t i = 0; i < 512; ++i)
                buf.data()[i] = static_cast<std::uint8_t>(i * 7);
            std::uint64_t expect_inline = 0, expect_arena = 0,
                          expect_heap = 0;
            for (std::uint64_t len :
                 {63u, 64u, 65u, 255u, 256u, 257u}) {
                hot.call("ocall_consume", {edl::Arg::buffer(buf),
                                           edl::Arg::value(len)});
                if (len <= 64)
                    ++expect_inline;
                else if (len <= 256)
                    ++expect_arena;
                else
                    ++expect_heap;
                EXPECT_EQ(hot.stats().inlineStaged, expect_inline)
                    << len;
                EXPECT_EQ(hot.stats().arenaStaged, expect_arena)
                    << len;
                EXPECT_EQ(hot.stats().heapStaged, expect_heap)
                    << len;
                ASSERT_EQ(f.consumed.size(), len);
                EXPECT_EQ(std::memcmp(f.consumed.data(), buf.data(),
                                      len),
                          0)
                    << len;
            }
        });
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// Arena recycling: many calls through the same slots, all correct.
// ----------------------------------------------------------------------

TEST(FastPath, ArenaRecyclesAcrossManyCalls)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(0, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 128);
            for (int round = 0; round < 50; ++round) {
                for (std::uint64_t i = 0; i < 128; ++i)
                    buf.data()[i] = static_cast<std::uint8_t>(
                        round + static_cast<int>(i));
                const std::uint64_t got = hot.call(
                    "ocall_bump",
                    {edl::Arg::buffer(buf), edl::Arg::value(128)});
                std::uint64_t want = 0;
                for (std::uint64_t i = 0; i < 128; ++i)
                    want += static_cast<std::uint8_t>(
                        round + static_cast<int>(i));
                EXPECT_EQ(got, want) << round;
                // The inout copy-back delivered the bumped bytes.
                for (std::uint64_t i = 0; i < 128; ++i)
                    ASSERT_EQ(buf.data()[i],
                              static_cast<std::uint8_t>(
                                  round + static_cast<int>(i) + 1))
                        << round << ":" << i;
            }
        });
        // Every call staged into the recycled per-slot arena: no
        // per-call heap staging happened.
        EXPECT_EQ(hot.stats().arenaStaged, 50u);
        EXPECT_EQ(hot.stats().heapStaged, 0u);
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// Every call path delivers the SDK's bytes and retvals: SDK, the
// single line and the ring, both planes, both directions.
// ----------------------------------------------------------------------

namespace {

const char *kParityEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_in([in, size=len] uint8_t* buf,
                                     size_t len);
            public uint64_t ecall_out([out, size=len] uint8_t* buf,
                                      size_t len);
            public uint64_t ecall_inout([in, out, size=len] uint8_t* buf,
                                        size_t len);
            public uint64_t ecall_scalar(uint64_t v);
        };
        untrusted {
            uint64_t ocall_in([in, size=len] uint8_t* buf, size_t len);
            uint64_t ocall_out([out, size=len] uint8_t* buf, size_t len);
            uint64_t ocall_inout([in, out, size=len] uint8_t* buf,
                                 size_t len);
            uint64_t ocall_scalar(uint64_t v);
        };
    };
)";

constexpr std::uint64_t kParityBytes = 2048;

/** What a caller observes: each call's retval and buffer bytes. */
struct Observed {
    std::vector<std::uint64_t> retvals;
    std::vector<std::vector<std::uint8_t>> buffers;
    bool operator==(const Observed &) const = default;
};

enum class Path { Sdk, Line, Ring };

/** A runtime serving the parity EDL, called through @p path. */
struct ParityRig {
    const Kind kind;
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;
    std::unique_ptr<Channel> channel; //!< null on the SDK path
    const ChannelStats *stats = nullptr;

    ParityRig(Kind k, Path path, int fast_path)
        : kind(k), machine([] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              return config;
          }()),
          platform(machine), runtime(platform, "parity", kParityEdl, 4)
    {
        // The same bodies on both sides: in digests, out fills, in&out
        // digests then transforms, scalar computes.
        auto digest = [](edl::StagedCall &c) {
            std::uint64_t h = 0xcbf29ce484222325ull;
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                h = (h ^ c.data(0)[i]) * 0x100000001b3ull;
            return h;
        };
        const std::pair<const char *,
                        std::function<void(edl::StagedCall &)>>
            bodies[] = {
                {"in",
                 [=](edl::StagedCall &c) { c.setRetval(digest(c)); }},
                {"out",
                 [](edl::StagedCall &c) {
                     for (std::uint64_t i = 0; i < c.size(0); ++i)
                         c.data(0)[i] =
                             static_cast<std::uint8_t>(i * 131 + 7);
                     c.setRetval(c.size(0));
                 }},
                {"inout",
                 [=](edl::StagedCall &c) {
                     c.setRetval(digest(c));
                     for (std::uint64_t i = 0; i < c.size(0); ++i)
                         c.data(0)[i] =
                             static_cast<std::uint8_t>(~c.data(0)[i]);
                 }},
                {"scalar",
                 [](edl::StagedCall &c) {
                     c.setRetval(c.scalar(0) * 3 + 1);
                 }},
            };
        for (const auto &[name, body] : bodies) {
            runtime.registerEcall(std::string("ecall_") + name, body);
            runtime.registerOcall(std::string("ocall_") + name, body);
        }
        if (path == Path::Line) {
            HotCallConfig line;
            line.fastPath = fast_path;
            auto hot =
                std::make_unique<HotCallService>(runtime, kind, 1, line);
            stats = &hot->stats();
            channel = std::move(hot);
        } else if (path == Path::Ring) {
            HotQueueConfig ring;
            ring.responderCores = {1};
            ring.fastPath = fast_path;
            auto hot = std::make_unique<HotQueue>(runtime, kind, ring);
            stats = &hot->stats();
            channel = std::move(hot);
        }
    }

    bool ocall() const { return kind == Kind::HotOcall; }

    /** @return a kParityBytes caller buffer: on the requester's side
     *  of the enclave boundary, or across it when @p wrong_side. */
    mem::Buffer buffer(bool wrong_side = false)
    {
        return mem::Buffer(machine,
                           ocall() != wrong_side ? mem::Domain::Epc
                                                 : mem::Domain::Untrusted,
                           kParityBytes);
    }

    /** Call `<ecall|ocall>_<name>` through the channel or the SDK. */
    std::uint64_t issue(const char *name, const edl::Args &args)
    {
        const std::string fn =
            std::string(ocall() ? "ocall_" : "ecall_") + name;
        if (channel)
            return channel->call(fn, args);
        return ocall() ? runtime.ocall(fn, args) : runtime.ecall(fn, args);
    }

    /** Run @p calls as the requester on core 0 (in enclave mode for
     *  HotOcall) between the channel's start and stop. */
    void run(const std::function<void()> &calls)
    {
        machine.engine().spawn("app", 0, [&] {
            if (channel)
                channel->start();
            if (ocall()) {
                sgx::Tcs *tcs = runtime.enclave().acquireTcs();
                platform.eenter(runtime.enclave(), *tcs);
                calls();
                platform.eexit();
                runtime.enclave().releaseTcs(tcs);
            } else {
                calls();
            }
            if (channel)
                channel->stop();
            machine.engine().stop();
        });
        machine.engine().run();
    }
};

/** Issue the in, out, in&out and scalar calls of direction @p kind
 *  through @p path with FastPath @p fast_path. */
Observed
observeParity(Kind kind, Path path, int fast_path)
{
    ParityRig rig(kind, path, fast_path);
    Observed seen;
    rig.run([&] {
        mem::Buffer buf = rig.buffer();
        for (const char *name : {"in", "out", "inout"}) {
            for (std::uint64_t i = 0; i < kParityBytes; ++i)
                buf.data()[i] = static_cast<std::uint8_t>(i * 7 + 3);
            seen.retvals.push_back(rig.issue(
                name, {edl::Arg::buffer(buf), edl::Arg::value(kParityBytes)}));
            seen.buffers.emplace_back(buf.data(), buf.data() + kParityBytes);
        }
        seen.retvals.push_back(rig.issue("scalar", {edl::Arg::value(41)}));
    });
    return seen;
}

/** What a requester sees after a call the EDL checks reject. */
struct AfterRejection {
    std::string error;       //!< the rejected call's EdlError
    bool modeKept = false;   //!< requester still in its enclave mode
    bool coreInEnclave = false; //!< any core in enclave mode at the end
    std::string validError;  //!< what the valid call threw, if anything
    std::uint64_t retval = 0; //!< the valid call's
    Cycles latency = 0;       //!< the valid call's
    ChannelStats stats;       //!< the channel's, at the end
};

/**
 * Warm @p path with one valid [in] call, then (when @p reject) pass an
 * [in] buffer from the wrong side of the enclave boundary, then time
 * one more valid call. With @p reject false this is the control run.
 */
AfterRejection
observeRejection(Kind kind, Path path, int fast_path, bool reject)
{
    ParityRig rig(kind, path, fast_path);
    AfterRejection seen;
    rig.run([&] {
        mem::Buffer good = rig.buffer();
        mem::Buffer wrong = rig.buffer(true);
        const edl::Args valid = {edl::Arg::buffer(good),
                                 edl::Arg::value(kParityBytes)};
        rig.issue("in", valid);
        if (reject) {
            try {
                rig.issue("in", {edl::Arg::buffer(wrong),
                                 edl::Arg::value(kParityBytes)});
            } catch (const edl::EdlError &e) {
                seen.error = e.what();
            }
        }
        seen.modeKept =
            rig.platform.inEnclave(rig.machine.currentCore()) == rig.ocall();
        const Cycles t0 = rig.machine.now();
        try {
            seen.retval = rig.issue("in", valid);
        } catch (const std::exception &e) {
            seen.validError = e.what();
        }
        seen.latency = rig.machine.now() - t0;
    });
    for (CoreId core = 0; core < 8; ++core)
        seen.coreInEnclave |= rig.platform.inEnclave(core);
    if (rig.stats)
        seen.stats = *rig.stats;
    return seen;
}

} // anonymous namespace

TEST(FastPath, EveryPathMatchesTheSdk)
{
    for (Kind kind : {Kind::HotEcall, Kind::HotOcall}) {
        const Observed sdk = observeParity(kind, Path::Sdk, 0);
        ASSERT_EQ(sdk.retvals.size(), 4u);
        EXPECT_EQ(sdk.retvals[1], kParityBytes); // out filled it all
        EXPECT_EQ(sdk.retvals[3], 41u * 3 + 1);
        EXPECT_NE(sdk.buffers[0], sdk.buffers[1]);
        EXPECT_NE(sdk.buffers[0], sdk.buffers[2]);
        for (Path path : {Path::Line, Path::Ring}) {
            for (int fast_path : {0, 1}) {
                EXPECT_TRUE(observeParity(kind, path, fast_path) == sdk)
                    << (kind == Kind::HotOcall ? "ocall" : "ecall")
                    << (path == Path::Line ? " line" : " ring")
                    << " fastPath=" << fast_path;
            }
        }
    }
}

TEST(FastPath, RejectedCallLeavesNothingBehind)
{
    // Every path rejects the call before it takes a TCS, a lock or a
    // slot, with the same error, so the next valid call runs exactly
    // as if the rejected one had never been issued.
    for (Kind kind : {Kind::HotEcall, Kind::HotOcall}) {
        const bool ocall = kind == Kind::HotOcall;
        const std::string want =
            std::string(ocall ? "ocall_in" : "ecall_in") +
            ": parameter 'buf' crosses the enclave boundary (in buffer "
            "must be entirely " +
            (ocall ? "inside" : "outside") + " the enclave)";
        for (Path path : {Path::Sdk, Path::Line, Path::Ring}) {
            for (int fast_path : {0, 1}) {
                if (path == Path::Sdk && fast_path)
                    continue; // no channel, no plane
                SCOPED_TRACE(std::string(ocall ? "ocall" : "ecall") +
                             (path == Path::Sdk    ? " sdk"
                              : path == Path::Line ? " line"
                                                   : " ring") +
                             " fastPath=" + std::to_string(fast_path));
                const AfterRejection control =
                    observeRejection(kind, path, fast_path, false);
                const AfterRejection seen =
                    observeRejection(kind, path, fast_path, true);
                EXPECT_EQ(seen.error, want);
                EXPECT_TRUE(seen.modeKept);
                EXPECT_FALSE(seen.coreInEnclave);
                EXPECT_EQ(seen.validError, "");
                EXPECT_EQ(seen.retval, control.retval);
                EXPECT_EQ(seen.latency, control.latency);
                // Both valid calls went through the channel.
                EXPECT_EQ(seen.stats.calls, path == Path::Sdk ? 0u : 2u);
                EXPECT_EQ(seen.stats.fallbacks, 0u);
            }
        }
    }
}

// ----------------------------------------------------------------------
// HotEcall direction: staging lives in the EPC spill arena.
// ----------------------------------------------------------------------

TEST(FastPath, HotEcallBuffersThroughEpcArena)
{
    Fixture f;
    HotQueueConfig config = fastConfig(64, 4096);
    config.responderCores = {1};
    HotQueue hot(f.runtime, Kind::HotEcall, config);
    f.run([&] {
        hot.start();
        mem::Buffer buf(f.machine, mem::Domain::Untrusted, 200);
        std::uint64_t want = 0;
        for (std::uint64_t i = 0; i < 200; ++i) {
            buf.data()[i] = static_cast<std::uint8_t>(3 * i);
            want += buf.data()[i];
        }
        EXPECT_EQ(hot.call("ecall_sum", {edl::Arg::buffer(buf),
                                         edl::Arg::value(200)}),
                  want);
        hot.call("ecall_fill",
                 {edl::Arg::buffer(buf), edl::Arg::value(200)});
        for (std::uint64_t i = 0; i < 200; ++i)
            ASSERT_EQ(buf.data()[i],
                      static_cast<std::uint8_t>(0x5a ^ (i & 0xff)));
        // HotEcall has no inline slot staging (the slot lines are
        // untrusted); both calls used the EPC arena.
        EXPECT_EQ(hot.stats().inlineStaged, 0u);
        EXPECT_EQ(hot.stats().arenaStaged, 2u);
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// Scalar-only calls never enter the fast plane (cycle neutrality).
// ----------------------------------------------------------------------

TEST(FastPath, ScalarCallsBypassFastPlane)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 4096));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            for (int i = 0; i < 10; ++i)
                hot.call("ocall_empty", {});
        });
        EXPECT_EQ(hot.stats().calls, 10u);
        EXPECT_EQ(hot.stats().fastCalls, 0u);
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// The single-line channel: staging guarded across two requesters.
// ----------------------------------------------------------------------

TEST(FastPath, SingleChannelConcurrentRequestersStayCorrect)
{
    Fixture f;
    HotCallConfig config;
    config.fastPath = 1;
    HotCallService hot(f.runtime, Kind::HotOcall, 2, config);
    bool ok_a = true, ok_b = true;
    auto requester = [&](int salt, bool *ok) {
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 96);
            for (int round = 0; round < 25; ++round) {
                const std::uint8_t base = static_cast<std::uint8_t>(
                    salt * 100 + round);
                for (std::uint64_t i = 0; i < 96; ++i)
                    buf.data()[i] = static_cast<std::uint8_t>(
                        base + static_cast<int>(i));
                hot.call("ocall_bump", {edl::Arg::buffer(buf),
                                        edl::Arg::value(96)});
                for (std::uint64_t i = 0; i < 96; ++i) {
                    if (buf.data()[i] !=
                        static_cast<std::uint8_t>(
                            base + static_cast<int>(i) + 1)) {
                        *ok = false;
                        return;
                    }
                }
            }
        });
    };
    auto &engine = f.machine.engine();
    engine.spawn("driver", 7, [&] {
        hot.start();
        auto *a = engine.spawn("req-a", 0,
                               [&] { requester(1, &ok_a); });
        auto *b = engine.spawn("req-b", 1,
                               [&] { requester(2, &ok_b); });
        while (a->state() != sim::ThreadState::Done ||
               b->state() != sim::ThreadState::Done)
            engine.advance(sdk::kPauseCycles);
        hot.stop();
        engine.stop();
    });
    engine.run();
    // Both requesters saw their own bytes on every round: the second
    // requester could not recycle the channel staging while the first
    // was still harvesting.
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
}

// ----------------------------------------------------------------------
// SimCheck: a clean fast run, and the seeded arena-recycle violation.
// ----------------------------------------------------------------------

TEST(FastPath, CleanUnderSimCheck)
{
    mem::MachineConfig config;
    config.engine.numCores = 8;
    config.check.enabled = true; // record mode
    Fixture f(config);
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 512);
            for (std::uint64_t len : {16u, 128u, 512u})
                hot.call("ocall_bump", {edl::Arg::buffer(buf),
                                        edl::Arg::value(len)});
        });
        hot.stop();
        f.machine.engine().stop();
    });
    auto &ck = *f.machine.check();
    EXPECT_EQ(ck.count(check::ViolationKind::Race), 0u);
    EXPECT_EQ(ck.count(check::ViolationKind::Protocol), 0u);
    EXPECT_EQ(ck.count(check::ViolationKind::Leak), 0u);
}

TEST(FastPath, SeededPrematureArenaRecycleFlagged)
{
    mem::MachineConfig config;
    config.engine.numCores = 4;
    config.check.enabled = true; // record mode, never panics
    mem::Machine machine(config);
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);

    proto.onClaim(0);
    proto.onArenaRecycle(0); // legal: claimer, slot Publishing
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              0u);

    proto.onPublish(0);
    proto.onArenaRecycle(0); // illegal: slot Ready, not yet grabbed
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);

    proto.onGrab(0);
    proto.onArenaRecycle(0); // legal: server, slot Serving
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);

    proto.onComplete(0);
    proto.onArenaRecycle(0); // illegal: Done, requester still owed
                             // the results staged there
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              2u);
    const std::string &msg =
        machine.check()->violations().back().message;
    EXPECT_NE(msg.find("staging arena recycled"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("Done"), std::string::npos) << msg;
}

// ----------------------------------------------------------------------
// Teardown next to a responder that cannot be joined.
// ----------------------------------------------------------------------

namespace {

/**
 * Untrusted and EPC bytes still allocated after the HotEcall channel
 * @p make() builds is destroyed inside the simulation while its
 * responder is wedged (the app holds every TCS, so the responder never
 * enters the enclave and can never be joined).
 */
template <class Make>
std::pair<std::uint64_t, std::uint64_t>
wedgedTeardownLeak(bool check_on, Make make)
{
    mem::MachineConfig config;
    config.engine.numCores = 8;
    config.check.enabled = check_on;
    Fixture f(config);
    auto &engine = f.machine.engine();
    const auto &space = f.machine.space();
    std::pair<std::uint64_t, std::uint64_t> leaked;
    engine.spawn("app", 0, [&] {
        std::vector<sgx::Tcs *> held;
        while (sgx::Tcs *tcs = f.runtime.enclave().acquireTcs())
            held.push_back(tcs);
        const std::uint64_t untrusted = space.untrusted().bytesInUse();
        const std::uint64_t epc = space.epc().bytesInUse();
        {
            std::unique_ptr<Channel> channel = make(f.runtime);
            channel->start();
            engine.sleepFor(10'000);
        }
        leaked = {space.untrusted().bytesInUse() - untrusted,
                  space.epc().bytesInUse() - epc};
        engine.stop();
        for (sgx::Tcs *tcs : held)
            f.runtime.enclave().releaseTcs(tcs);
    });
    engine.run();
    return leaked;
}

} // anonymous namespace

TEST(FastPath, WedgedTeardownLeaksAlikeWithCheckerOnOrOff)
{
    // The protocol lines and the FastPath staging share the responder's
    // fate: both are leaked, so later allocations land at the same
    // addresses (and cache sets) whether or not SimCheck watches. The
    // staging used to be freed with the checker off.
    auto line = [](sdk::EnclaveRuntime &runtime) {
        HotCallConfig config;
        config.fastPath = 1;
        return std::make_unique<HotCallService>(runtime, Kind::HotEcall,
                                                1, config);
    };
    auto ring = [](sdk::EnclaveRuntime &runtime) {
        HotQueueConfig config;
        config.responderCores = {1};
        config.fastPath = 1;
        return std::make_unique<HotQueue>(runtime, Kind::HotEcall, config);
    };
    const auto line_off = wedgedTeardownLeak(false, line);
    const auto line_on = wedgedTeardownLeak(true, line);
    EXPECT_EQ(line_off, line_on);
    EXPECT_GT(line_off.second, 0u); // the EPC staging stayed
    const auto ring_off = wedgedTeardownLeak(false, ring);
    const auto ring_on = wedgedTeardownLeak(true, ring);
    EXPECT_EQ(ring_off, ring_on);
    EXPECT_GT(ring_off.second, line_off.second); // one arena per slot
}
