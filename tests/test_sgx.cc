/**
 * @file
 * SGX platform tests: enclave build and measurement, entry/exit
 * rules, enclave-mode enforcement (RDTSC fault), AEX accounting,
 * EPC paging, keys, reports, and attestation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <list>
#include <map>
#include <set>

#include "sgx/attestation.hh"
#include "sgx/platform.hh"
#include "support/rng.hh"

using namespace hc;
using namespace hc::sgx;

namespace {

struct Fixture {
    mem::Machine machine;
    SgxPlatform platform;

    explicit Fixture(std::uint64_t seed = 1)
        : machine([&] {
              mem::MachineConfig config;
              config.engine.seed = seed;
              return config;
          }()),
          platform(machine)
    {
    }

    Enclave &buildEnclave(const std::string &name = "test",
                          int num_tcs = 2)
    {
        Enclave &enclave = platform.ecreate(name);
        const std::string code = "code-image-of-" + name;
        platform.addCode(enclave, code.data(), code.size());
        platform.einit(enclave, num_tcs);
        return enclave;
    }

    void run(std::function<void()> body)
    {
        machine.engine().spawn("test", 0, std::move(body));
        machine.engine().run();
    }
};

} // anonymous namespace

// ----------------------------------------------------------------------
// Build flow and measurement.
// ----------------------------------------------------------------------

TEST(SgxBuild, MeasurementIsDeterministic)
{
    Fixture a, b;
    const auto &ea = a.buildEnclave("same");
    const auto &eb = b.buildEnclave("same");
    EXPECT_EQ(ea.measurement(), eb.measurement());
}

TEST(SgxBuild, MeasurementSensitiveToContent)
{
    Fixture f;
    Enclave &e1 = f.platform.ecreate("x");
    f.platform.addCode(e1, "AAAA", 4);
    f.platform.einit(e1, 1);

    Enclave &e2 = f.platform.ecreate("x");
    f.platform.addCode(e2, "AAAB", 4);
    f.platform.einit(e2, 1);

    EXPECT_NE(e1.measurement(), e2.measurement());
}

TEST(SgxBuild, MeasurementSensitiveToPageFlags)
{
    Fixture f;
    Enclave &e1 = f.platform.ecreate("x");
    f.platform.eadd(e1, "data", 4, PageFlags::Reg);
    f.platform.einit(e1, 1);

    Enclave &e2 = f.platform.ecreate("x");
    f.platform.eadd(e2, "data", 4, PageFlags::Code);
    f.platform.einit(e2, 1);

    EXPECT_NE(e1.measurement(), e2.measurement());
}

TEST(SgxBuild, UniqueEnclaveIds)
{
    Fixture f;
    Enclave &a = f.buildEnclave("a");
    Enclave &b = f.buildEnclave("b");
    EXPECT_NE(a.id(), b.id());
}

TEST(SgxBuild, TcsPoolSizedByEinit)
{
    Fixture f;
    Enclave &e = f.buildEnclave("t", 3);
    EXPECT_EQ(e.tcsCount(), 3u);
    Tcs *t1 = e.acquireTcs();
    Tcs *t2 = e.acquireTcs();
    Tcs *t3 = e.acquireTcs();
    EXPECT_NE(t1, nullptr);
    EXPECT_NE(t2, nullptr);
    EXPECT_NE(t3, nullptr);
    EXPECT_EQ(e.acquireTcs(), nullptr); // exhausted
    e.releaseTcs(t2);
    EXPECT_EQ(e.acquireTcs(), t2);
}

// ----------------------------------------------------------------------
// Entry/exit rules.
// ----------------------------------------------------------------------

TEST(SgxEntry, EenterRequiresInit)
{
    Fixture f;
    Enclave &e = f.platform.ecreate("uninit");
    f.run([&] {
        Tcs dummy;
        EXPECT_THROW(f.platform.eenter(e, dummy), SgxFault);
    });
}

TEST(SgxEntry, EnterExitTracksMode)
{
    Fixture f;
    Enclave &e = f.buildEnclave();
    f.run([&] {
        EXPECT_FALSE(f.platform.inEnclave(0));
        Tcs *tcs = e.acquireTcs();
        f.platform.eenter(e, *tcs);
        EXPECT_TRUE(f.platform.inEnclave(0));
        EXPECT_EQ(f.platform.currentEnclave(0), &e);
        f.platform.eexit();
        EXPECT_FALSE(f.platform.inEnclave(0));
        e.releaseTcs(tcs);
    });
}

TEST(SgxEntry, NoNestedEenter)
{
    Fixture f;
    Enclave &e = f.buildEnclave();
    f.run([&] {
        Tcs *t1 = e.acquireTcs();
        f.platform.eenter(e, *t1);
        Tcs *t2 = e.acquireTcs();
        EXPECT_THROW(f.platform.eenter(e, *t2), SgxFault);
        f.platform.eexit();
    });
}

TEST(SgxEntry, OcallExitResumeRoundtrip)
{
    Fixture f;
    Enclave &e = f.buildEnclave();
    f.run([&] {
        Tcs *tcs = e.acquireTcs();
        f.platform.eenter(e, *tcs);
        f.platform.eexitForOcall();
        EXPECT_FALSE(f.platform.inEnclave(0)); // outside during ocall
        f.platform.eresume();
        EXPECT_TRUE(f.platform.inEnclave(0));
        f.platform.eexit();
    });
}

TEST(SgxEntry, NestedEcallDuringOcall)
{
    Fixture f;
    Enclave &e = f.buildEnclave();
    f.run([&] {
        Tcs *t1 = e.acquireTcs();
        f.platform.eenter(e, *t1);
        f.platform.eexitForOcall();
        // A re-entrant ecall while the outer frame waits in an ocall.
        Tcs *t2 = e.acquireTcs();
        f.platform.eenter(e, *t2);
        EXPECT_TRUE(f.platform.inEnclave(0));
        f.platform.eexit();
        f.platform.eresume();
        f.platform.eexit();
        EXPECT_FALSE(f.platform.inEnclave(0));
    });
}

TEST(SgxEntry, MismatchedExitFaults)
{
    Fixture f;
    f.buildEnclave();
    f.run([&] {
        EXPECT_THROW(f.platform.eexit(), SgxFault);
        EXPECT_THROW(f.platform.eresume(), SgxFault);
        EXPECT_THROW(f.platform.eexitForOcall(), SgxFault);
    });
}

TEST(SgxEntry, EnterChargesCycles)
{
    Fixture f;
    Enclave &e = f.buildEnclave();
    f.run([&] {
        Tcs *tcs = e.acquireTcs();
        // Warm the SECS/TCS/SSA lines first.
        f.platform.eenter(e, *tcs);
        f.platform.eexit();
        const Cycles t0 = f.machine.now();
        f.platform.eenter(e, *tcs);
        f.platform.eexit();
        const Cycles cost = f.machine.now() - t0;
        // EENTER+EEXIT microcode is the bulk of the ~8.6k ecall.
        EXPECT_GT(cost, 5'000u);
        EXPECT_LT(cost, 9'000u);
        e.releaseTcs(tcs);
    });
}

// ----------------------------------------------------------------------
// RDTSC rule and AEX.
// ----------------------------------------------------------------------

TEST(SgxRules, RdtscpFaultsInEnclave)
{
    Fixture f;
    Enclave &e = f.buildEnclave();
    f.run([&] {
        EXPECT_NO_THROW(f.platform.rdtscp());
        Tcs *tcs = e.acquireTcs();
        f.platform.eenter(e, *tcs);
        EXPECT_THROW(f.platform.rdtscp(), SgxFault);
        f.platform.eexit();
        EXPECT_NO_THROW(f.platform.rdtscp());
    });
}

TEST(SgxRules, AexCountsOnlyEnclaveInterrupts)
{
    mem::MachineConfig config;
    config.engine.interruptMeanCycles = 50'000;
    mem::Machine machine(config);
    SgxPlatform platform(machine);
    platform.installAexHandler();

    Enclave &enclave = platform.ecreate("aex");
    platform.addCode(enclave, "x", 1);
    platform.einit(enclave, 1);

    machine.engine().spawn("test", 0, [&] {
        // Busy outside the enclave: interrupts but no AEX.
        for (int i = 0; i < 2'000; ++i)
            machine.engine().advance(1'000);
        EXPECT_EQ(platform.aexCount(), 0u);
        EXPECT_GT(machine.engine().interruptCount(), 10u);

        // Busy inside: AEX events accumulate.
        Tcs *tcs = enclave.acquireTcs();
        platform.eenter(enclave, *tcs);
        for (int i = 0; i < 2'000; ++i)
            machine.engine().advance(1'000);
        platform.eexit();
        EXPECT_GT(platform.aexCount(), 10u);
    });
    machine.engine().run();
}

// ----------------------------------------------------------------------
// EPC paging.
// ----------------------------------------------------------------------

TEST(EpcManager, FaultsOnlyAfterEviction)
{
    mem::MachineConfig config;
    config.mem.epcSize = 1_MiB; // tiny physical EPC: 256 pages
    config.mem.epcVirtualSize = 8_MiB;
    mem::Machine machine(config);
    SgxPlatform platform(machine);
    auto &epc = platform.epc();

    machine.engine().spawn("test", 0, [&] {
        const Addr base = machine.space().allocEpc(2_MiB, kPageSize);
        // First touch of each page: EAUG, no reload faults.
        for (Addr a = base; a < base + 2_MiB; a += kPageSize)
            machine.memory().accessWord(a, true);
        EXPECT_EQ(epc.faults(), 0u);
        EXPECT_GT(epc.evictions(), 0u); // 512 pages > 256 capacity
        EXPECT_LE(epc.residentPages(), epc.capacityPages());

        // Second sweep: reloading previously evicted pages faults.
        for (Addr a = base; a < base + 2_MiB; a += kPageSize)
            machine.memory().accessWord(a, false);
        EXPECT_GT(epc.faults(), 0u);
        machine.space().free(base);
    });
    machine.engine().run();
}

TEST(EpcManager, FitsWithinCapacityNoThrash)
{
    mem::MachineConfig config;
    config.mem.epcSize = 4_MiB;
    config.mem.epcVirtualSize = 8_MiB;
    mem::Machine machine(config);
    SgxPlatform platform(machine);

    machine.engine().spawn("test", 0, [&] {
        const Addr base = machine.space().allocEpc(1_MiB, kPageSize);
        for (int sweep = 0; sweep < 3; ++sweep)
            for (Addr a = base; a < base + 1_MiB; a += kPageSize)
                machine.memory().accessWord(a, false);
        EXPECT_EQ(platform.epc().faults(), 0u);
        EXPECT_EQ(platform.epc().evictions(), 0u);
        machine.space().free(base);
    });
    machine.engine().run();
}

TEST(EpcManager, MatchesReferenceLru)
{
    // A naive LRU over 96 pages of capacity, fed seeded touches over
    // 320 pages: a hot set, sweeps and random pages.
    mem::MachineConfig config;
    config.mem.epcSize = 96 * kPageSize;
    config.mem.epcVirtualSize = 8_MiB;
    mem::Machine machine(config);
    SgxPlatform platform(machine);
    auto &epc = platform.epc();
    const Cycles ewb = platform.params().ewb;
    const Cycles eldu = platform.params().eldu;

    std::list<Addr> lru; // front = most recently used
    std::map<Addr, std::list<Addr>::iterator> resident;
    std::set<Addr> paged_out;
    std::uint64_t faults = 0, evictions = 0;
    const auto reference = [&](Addr page) {
        auto it = resident.find(page);
        if (it != resident.end()) {
            lru.splice(lru.begin(), lru, it->second);
            return Cycles{0};
        }
        Cycles cost = 0;
        if (paged_out.erase(page) > 0) {
            ++faults;
            cost += eldu;
        }
        if (resident.size() >= epc.capacityPages()) {
            resident.erase(lru.back());
            paged_out.insert(lru.back());
            lru.pop_back();
            ++evictions;
            cost += ewb;
        }
        lru.push_front(page);
        resident[page] = lru.begin();
        return cost;
    };

    Rng rng(2017);
    for (int i = 0; i < 20'000; ++i) {
        std::uint64_t index;
        switch (rng.nextBelow(3)) {
          case 0:
            index = rng.nextBelow(40); // hot set
            break;
          case 1:
            index = static_cast<std::uint64_t>(i) % 320; // sweep
            break;
          default:
            index = rng.nextBelow(320);
        }
        const Addr page =
            mem::AddressSpace::kEpcBase + index * kPageSize;
        ASSERT_EQ(epc.touch(page, rng.chance(0.5)), reference(page))
            << "touch " << i;
        ASSERT_EQ(epc.faults(), faults);
        ASSERT_EQ(epc.evictions(), evictions);
        ASSERT_EQ(epc.residentPages(), resident.size());
    }
    EXPECT_GT(faults, 1'000u);
}

TEST(EpcManager, DisableSwitch)
{
    mem::MachineConfig config;
    config.mem.epcSize = 1_MiB;
    config.mem.epcVirtualSize = 8_MiB;
    mem::Machine machine(config);
    SgxPlatform platform(machine);
    platform.epc().setEnabled(false);

    machine.engine().spawn("test", 0, [&] {
        const Addr base = machine.space().allocEpc(4_MiB, kPageSize);
        for (Addr a = base; a < base + 4_MiB; a += kPageSize)
            machine.memory().accessWord(a, false);
        EXPECT_EQ(platform.epc().faults(), 0u);
        EXPECT_EQ(platform.epc().evictions(), 0u);
        machine.space().free(base);
    });
    machine.engine().run();
}

// ----------------------------------------------------------------------
// Keys, reports, attestation.
// ----------------------------------------------------------------------

TEST(SgxKeys, SealKeyBoundToMeasurementAndDevice)
{
    Fixture f1(1), f2(2);
    Enclave &e1 = f1.buildEnclave("sealer");
    Enclave &e1b = f1.buildEnclave("other");
    Enclave &e2 = f2.buildEnclave("sealer");

    crypto::Sha256Digest k1, k1_again, k1b, k2;
    f1.run([&] {
        Tcs *tcs = e1.acquireTcs();
        f1.platform.eenter(e1, *tcs);
        k1 = f1.platform.egetkeySeal();
        k1_again = f1.platform.egetkeySeal();
        f1.platform.eexit();
        e1.releaseTcs(tcs);

        tcs = e1b.acquireTcs();
        f1.platform.eenter(e1b, *tcs);
        k1b = f1.platform.egetkeySeal();
        f1.platform.eexit();
    });
    f2.run([&] {
        Tcs *tcs = e2.acquireTcs();
        f2.platform.eenter(e2, *tcs);
        k2 = f2.platform.egetkeySeal();
        f2.platform.eexit();
    });

    EXPECT_EQ(k1, k1_again);   // stable
    EXPECT_NE(k1, k1b);        // different enclave -> different key
    EXPECT_NE(k1, k2);         // different CPU -> different key
}

TEST(SgxKeys, EgetkeyFaultsOutsideEnclave)
{
    Fixture f;
    f.buildEnclave();
    f.run([&] { EXPECT_THROW(f.platform.egetkeySeal(), SgxFault); });
}

TEST(SgxReport, VerifiesAndDetectsTampering)
{
    Fixture f;
    Enclave &e = f.buildEnclave();
    f.run([&] {
        Tcs *tcs = e.acquireTcs();
        f.platform.eenter(e, *tcs);
        std::array<std::uint8_t, 64> data{};
        data[0] = 0xaa;
        Report report = f.platform.ereport(data);
        f.platform.eexit();

        EXPECT_EQ(report.mrenclave, e.measurement());
        EXPECT_TRUE(f.platform.verifyReport(report));
        report.reportData[0] ^= 1;
        EXPECT_FALSE(f.platform.verifyReport(report));
    });
}

TEST(Attestation, IasAcceptsRegisteredDeviceOnly)
{
    Fixture genuine(1), rogue(2);
    Enclave &e = genuine.buildEnclave("attested");
    Enclave &re = rogue.buildEnclave("attested");

    AttestationService ias;
    ias.registerDevice(genuine.platform);

    Report report, rogue_report;
    genuine.run([&] {
        Tcs *tcs = e.acquireTcs();
        genuine.platform.eenter(e, *tcs);
        report = genuine.platform.ereport({});
        genuine.platform.eexit();
    });
    rogue.run([&] {
        Tcs *tcs = re.acquireTcs();
        rogue.platform.eenter(re, *tcs);
        rogue_report = rogue.platform.ereport({});
        rogue.platform.eexit();
    });

    const Quote good = makeQuote(genuine.platform, report);
    EXPECT_TRUE(ias.verifyQuote(good));

    // Unregistered device: rejected even with a self-consistent quote.
    const Quote bad = makeQuote(rogue.platform, rogue_report);
    EXPECT_FALSE(ias.verifyQuote(bad));

    // Forged signature on a genuine device: rejected.
    Quote forged = good;
    forged.signature[0] ^= 1;
    EXPECT_FALSE(ias.verifyQuote(forged));

    // Quote bound to a different report: rejected.
    Quote swapped = good;
    swapped.report.reportData[5] ^= 1;
    EXPECT_FALSE(ias.verifyQuote(swapped));
}

// ----------------------------------------------------------------------
// Sealing.
// ----------------------------------------------------------------------

#include "sgx/sealing.hh"

TEST(Sealing, RoundtripInSameEnclave)
{
    Fixture f;
    Enclave &e = f.buildEnclave("sealer");
    f.run([&] {
        Tcs *tcs = e.acquireTcs();
        f.platform.eenter(e, *tcs);
        const std::string secret = "the enclave's private state";
        const auto blob = sealData(
            f.platform,
            reinterpret_cast<const std::uint8_t *>(secret.data()),
            secret.size());
        EXPECT_EQ(blob.size(), secret.size() + kSealOverhead);
        // The blob is actually encrypted.
        EXPECT_EQ(std::string(blob.begin(), blob.end())
                      .find(secret),
                  std::string::npos);

        std::vector<std::uint8_t> out;
        ASSERT_TRUE(
            unsealData(f.platform, blob.data(), blob.size(), &out));
        EXPECT_EQ(std::string(out.begin(), out.end()), secret);
        f.platform.eexit();
    });
}

TEST(Sealing, OtherEnclaveCannotUnseal)
{
    Fixture f;
    Enclave &sealer = f.buildEnclave("sealer");
    Enclave &other = f.buildEnclave("other");
    std::vector<std::uint8_t> blob;
    f.run([&] {
        Tcs *tcs = sealer.acquireTcs();
        f.platform.eenter(sealer, *tcs);
        const std::uint8_t secret[4] = {1, 2, 3, 4};
        blob = sealData(f.platform, secret, 4);
        f.platform.eexit();
        sealer.releaseTcs(tcs);

        // A different enclave derives a different seal key.
        tcs = other.acquireTcs();
        f.platform.eenter(other, *tcs);
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(
            unsealData(f.platform, blob.data(), blob.size(), &out));
        f.platform.eexit();
    });
}

TEST(Sealing, OtherCpuCannotUnseal)
{
    Fixture a(1), b(2);
    Enclave &ea = a.buildEnclave("same-name");
    Enclave &eb = b.buildEnclave("same-name");
    std::vector<std::uint8_t> blob;
    a.run([&] {
        Tcs *tcs = ea.acquireTcs();
        a.platform.eenter(ea, *tcs);
        const std::uint8_t secret[8] = {9, 9, 9, 9, 9, 9, 9, 9};
        blob = sealData(a.platform, secret, 8);
        a.platform.eexit();
    });
    b.run([&] {
        Tcs *tcs = eb.acquireTcs();
        b.platform.eenter(eb, *tcs);
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(
            unsealData(b.platform, blob.data(), blob.size(), &out));
        b.platform.eexit();
    });
}

TEST(Sealing, TamperedBlobRejected)
{
    Fixture f;
    Enclave &e = f.buildEnclave("sealer");
    f.run([&] {
        Tcs *tcs = e.acquireTcs();
        f.platform.eenter(e, *tcs);
        const std::uint8_t secret[16] = {0x42};
        auto blob = sealData(f.platform, secret, 16);
        blob[14] ^= 1; // flip a ciphertext bit
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(
            unsealData(f.platform, blob.data(), blob.size(), &out));
        // Truncated blobs are rejected without crashing.
        EXPECT_FALSE(unsealData(f.platform, blob.data(), 10, &out));
        f.platform.eexit();
    });
}

TEST(Sealing, FaultsOutsideEnclave)
{
    Fixture f;
    f.buildEnclave();
    f.run([&] {
        const std::uint8_t secret[4] = {1, 2, 3, 4};
        EXPECT_THROW(sealData(f.platform, secret, 4), SgxFault);
    });
}
