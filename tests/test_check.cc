/**
 * @file
 * SimCheck tests: seeded violations for each detector (data race,
 * illegal protocol transition, leak), the happens-before sources that
 * must suppress false positives (spawn, mutex, sync words), and a
 * full HotQueue run under the checker that must stay violation-free.
 *
 * Every Machine here enables the checker explicitly
 * (MachineConfig::check.enabled), which keeps the record-only default
 * even when the suite itself runs under HC_CHECK=1 — seeded
 * violations must not panic the test binary.
 */

#include <gtest/gtest.h>

#include <functional>

#include "check/check.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/machine.hh"
#include "sdk/thread_sync.hh"

using namespace hc;

namespace {

mem::MachineConfig
checkedConfig(int cores = 4)
{
    mem::MachineConfig config;
    config.engine.numCores = cores;
    config.check.enabled = true; // record mode, never panics
    return config;
}

std::uint64_t
totalViolations(check::SimCheck &ck)
{
    return ck.count(check::ViolationKind::Race) +
           ck.count(check::ViolationKind::Protocol) +
           ck.count(check::ViolationKind::Leak);
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Race detector.
// ----------------------------------------------------------------------

TEST(RaceDetector, FlagsUnorderedConflictingWrites)
{
    mem::Machine machine(checkedConfig());
    const Addr word = machine.space().allocUntrusted(8, 8);
    machine.engine().spawn("writer-a", 0, [&] {
        machine.memory().accessWord(word, true);
        machine.engine().advance(1'000);
    });
    machine.engine().spawn("writer-b", 1, [&] {
        machine.engine().advance(100);
        machine.memory().accessWord(word, true);
    });
    machine.engine().run();

    auto *ck = machine.check();
    ASSERT_NE(ck, nullptr);
    EXPECT_GE(ck->count(check::ViolationKind::Race), 1u);
    ASSERT_FALSE(ck->violations().empty());
    // The report must name both threads so it is actionable.
    const std::string &msg = ck->violations()[0].message;
    EXPECT_NE(msg.find("writer-a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("writer-b"), std::string::npos) << msg;
    EXPECT_NE(msg.find("data race"), std::string::npos) << msg;
    machine.space().free(word);
}

TEST(RaceDetector, FlagsReadWriteConflict)
{
    mem::Machine machine(checkedConfig());
    const Addr word = machine.space().allocUntrusted(8, 8);
    machine.engine().spawn("reader", 0, [&] {
        machine.memory().accessWord(word, false);
        machine.engine().advance(1'000);
    });
    machine.engine().spawn("writer", 1, [&] {
        machine.engine().advance(100);
        machine.memory().accessWord(word, true);
    });
    machine.engine().run();
    EXPECT_GE(machine.check()->count(check::ViolationKind::Race), 1u);
    machine.space().free(word);
}

TEST(RaceDetector, SpawnEdgeOrdersParentAndChild)
{
    mem::Machine machine(checkedConfig());
    const Addr word = machine.space().allocUntrusted(8, 8);
    machine.engine().spawn("parent", 0, [&] {
        machine.memory().accessWord(word, true);
        machine.engine().spawn("child", 1, [&] {
            machine.memory().accessWord(word, true);
        });
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Race), 0u);
    machine.space().free(word);
}

TEST(RaceDetector, MutexOrdersCriticalSections)
{
    mem::Machine machine(checkedConfig());
    const Addr word = machine.space().allocUntrusted(8, 8);
    sdk::SgxThreadMutex mutex(machine);
    auto critical = [&] {
        mutex.lock();
        machine.memory().accessWord(word, false);
        machine.memory().accessWord(word, true);
        mutex.unlock();
    };
    machine.engine().spawn("locker-a", 0, critical);
    machine.engine().spawn("locker-b", 1, critical);
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Race), 0u);
    machine.space().free(word);
}

TEST(RaceDetector, SyncWordPublishesPlainData)
{
    // The message-passing idiom the HotCalls channels rely on: the
    // producer fills a plain word, then raises a flag that lives on a
    // registered sync word; the consumer polls the flag and reads the
    // data. The flag's acquire/release semantics must order the
    // plain-word accesses.
    mem::Machine machine(checkedConfig());
    auto &memory = machine.memory();
    const Addr data = machine.space().allocUntrusted(8, 8);
    const Addr flag_line = machine.space().allocUntrusted(64, 64);
    machine.check()->registerSyncWord(flag_line);
    int flag = 0; // the value the flag line holds
    machine.engine().spawn("producer", 0, [&] {
        machine.engine().advance(200);
        memory.accessWord(data, true);
        memory.accessWord(flag_line, true);
        flag = 1;
    });
    machine.engine().spawn("consumer", 1, [&] {
        for (;;) {
            memory.accessWord(flag_line, false);
            if (flag != 0)
                break;
            machine.engine().advance(50);
        }
        memory.accessWord(data, false);
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Race), 0u);
    machine.space().free(flag_line);
    machine.space().free(data);
}

TEST(RaceDetector, ExemptWordNeverFlagged)
{
    mem::Machine machine(checkedConfig());
    const Addr word = machine.space().allocUntrusted(8, 8);
    machine.check()->markExempt(word);
    machine.engine().spawn("writer-a", 0, [&] {
        machine.memory().accessWord(word, true);
        machine.engine().advance(1'000);
    });
    machine.engine().spawn("writer-b", 1, [&] {
        machine.engine().advance(100);
        machine.memory().accessWord(word, true);
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Race), 0u);
    machine.space().free(word);
}

TEST(RaceDetector, FreedWordForgetsHistory)
{
    // Address reuse across free() must not connect the old and the
    // new allocation's access history.
    mem::Machine machine(checkedConfig());
    Addr word = machine.space().allocUntrusted(8, 8);
    machine.engine().spawn("first", 0, [&] {
        machine.memory().accessWord(word, true);
        machine.space().free(word);
    });
    machine.engine().run();
    const Addr again = machine.space().allocUntrusted(8, 8);
    EXPECT_EQ(again, word); // the allocator reuses the slot
    machine.engine().spawn("second", 1, [&] {
        machine.memory().accessWord(again, true);
    });
    machine.engine().run();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Race), 0u);
    machine.space().free(again);
}

// ----------------------------------------------------------------------
// Protocol shadow machines.
// ----------------------------------------------------------------------

TEST(ProtocolChecker, HotQueueSlotLifecycleLegalPath)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    proto.onClaim(0);
    proto.onCursors(0, 1);
    proto.onPublish(0);
    proto.onGrab(0);
    proto.onCursors(1, 1);
    proto.onComplete(0);
    proto.onHarvest(0);
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              0u);
}

TEST(ProtocolChecker, HotQueueFlagsDoubleClaim)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    proto.onClaim(2);
    proto.onClaim(2); // double-claim of a busy slot
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);
    const std::string &msg =
        machine.check()->violations().back().message;
    EXPECT_NE(msg.find("slot 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("claim"), std::string::npos) << msg;
}

TEST(ProtocolChecker, HotQueueFlagsDoubleHarvestAndBadGrab)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    proto.onClaim(0);
    proto.onPublish(0);
    proto.onGrab(0);
    proto.onComplete(0);
    proto.onHarvest(0);
    proto.onHarvest(0); // double-harvest: slot already Free
    proto.onGrab(1);    // grab of a slot that was never published
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              2u);
}

TEST(ProtocolChecker, HotQueueFlagsCursorViolation)
{
    mem::Machine machine(checkedConfig());
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);
    proto.onCursors(3, 2); // head ran past tail
    proto.onCursors(0, 5); // more in flight than slots
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              2u);
}

TEST(ProtocolChecker, HotCallFlagsRelockAndUnheldPublish)
{
    mem::Machine machine(checkedConfig());
    check::HotCallProtocol proto(*machine.check(), "seeded");
    proto.onLock();
    proto.onLock(); // lock taken while already held
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);
    proto.onUnlock();
    proto.onPublish(); // publish without holding the lock
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              2u);
}

TEST(ProtocolChecker, HotCallFlagsCompletionWithoutServe)
{
    mem::Machine machine(checkedConfig());
    check::HotCallProtocol proto(*machine.check(), "seeded");
    proto.onLock();
    proto.onPublish();
    proto.onUnlock();
    proto.onComplete(); // never served
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);
}

// ----------------------------------------------------------------------
// Leak audit.
// ----------------------------------------------------------------------

TEST(LeakAudit, FlagsUnfreedAllocation)
{
    mem::Machine machine(checkedConfig());
    const Addr addr = machine.space().allocUntrusted(64, 64);
    machine.auditLeaksNow();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Leak), 1u);
    const std::string &msg =
        machine.check()->violations().back().message;
    EXPECT_NE(msg.find("untrusted"), std::string::npos) << msg;

    // Freed: the destructor's audit must not flag it again.
    machine.space().free(addr);
    machine.auditLeaksNow();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Leak), 1u);
}

TEST(LeakAudit, DeliberateLeakIsExempt)
{
    mem::Machine machine(checkedConfig());
    const Addr addr = machine.space().allocEpc(4096, 4096);
    machine.check()->registerDeliberateLeak(addr, "seeded test leak");
    machine.auditLeaksNow();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Leak), 0u);
}

TEST(LeakAudit, SkippedWhenRunWasAborted)
{
    // stop() strands fibers mid-execution; allocations held on their
    // frozen stacks can never be released, so the audit stays quiet.
    mem::Machine machine(checkedConfig());
    machine.engine().spawn("holder", 0, [&] {
        const Addr addr = machine.space().allocUntrusted(256, 64);
        machine.engine().stop();
        machine.engine().advance(1'000); // never reached past here
        machine.space().free(addr);
    });
    machine.engine().run();
    machine.auditLeaksNow();
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Leak), 0u);
}

// ----------------------------------------------------------------------
// Full stack under the checker.
// ----------------------------------------------------------------------

namespace {

const char *kEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_add(uint64_t a, uint64_t b);
        };
        untrusted {
            void ocall_empty();
        };
    };
)";

} // anonymous namespace

TEST(FullStack, HotQueueRunIsViolationFree)
{
    mem::Machine machine(checkedConfig(8));
    {
        sgx::SgxPlatform platform(machine);
        sdk::EnclaveRuntime runtime(platform, "check-test", kEdl, 4);
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerOcall("ocall_empty", [](edl::StagedCall &) {});

        hotcalls::HotQueueConfig qconfig;
        qconfig.responderCores = {2, 3};
        hotcalls::HotQueue hot(runtime, hotcalls::Kind::HotEcall,
                               qconfig);
        for (int r = 0; r < 2; ++r) {
            machine.engine().spawn(
                "req" + std::to_string(r), r, [&, r] {
                    if (r == 0)
                        hot.start();
                    else
                        machine.engine().sleepFor(5'000);
                    for (int i = 0; i < 50; ++i) {
                        EXPECT_EQ(
                            hot.call("ecall_add",
                                     {edl::Arg::value(
                                          static_cast<std::uint64_t>(i)),
                                      edl::Arg::value(1)}),
                            static_cast<std::uint64_t>(i) + 1);
                    }
                    if (r == 0) {
                        // Long enough for the other requester's last
                        // call to complete before the pool stops.
                        machine.engine().sleepFor(2'000'000);
                        hot.stop();
                    }
                });
        }
        machine.engine().run();
        EXPECT_GE(hot.stats().calls, 90u);
    } // queue, runtime, platform torn down: all their memory is freed

    machine.auditLeaksNow();
    // The race detector, both protocol shadows, and the leak audit
    // all stayed quiet: the channel protocol is clean end to end.
    const auto &vs = machine.check()->violations();
    EXPECT_EQ(totalViolations(*machine.check()), 0u)
        << (vs.empty() ? std::string() : vs[0].message);
}
