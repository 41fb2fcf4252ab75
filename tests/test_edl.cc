/**
 * @file
 * EDL tests: the parser (grammar, attributes, diagnostics) and the
 * marshaller (functional copies, zeroing, security checks, options).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>

#include "edl/marshal.hh"
#include "mem/arena.hh"
#include "edl/parser.hh"
#include "mem/buffer.hh"
#include "sgx/sgx_cost_params.hh"
#include "support/rng.hh"

using namespace hc;
using namespace hc::edl;

// ----------------------------------------------------------------------
// Parser: accepted grammar.
// ----------------------------------------------------------------------

TEST(EdlParser, ParsesTrustedAndUntrusted)
{
    const auto file = parseEdl(R"(
        enclave {
            trusted {
                public void ecall_a();
                public int ecall_b(int x, size_t y);
            };
            untrusted {
                void ocall_c();
            };
        };
    )");
    ASSERT_EQ(file.trusted.size(), 2u);
    ASSERT_EQ(file.untrusted.size(), 1u);
    EXPECT_EQ(file.trusted[0].name, "ecall_a");
    EXPECT_TRUE(file.trusted[0].isPublic);
    EXPECT_TRUE(file.trusted[0].params.empty());
    EXPECT_EQ(file.trusted[1].returnType, "int");
    EXPECT_EQ(file.trusted[1].params.size(), 2u);
    EXPECT_EQ(file.untrusted[0].name, "ocall_c");
    EXPECT_FALSE(file.untrusted[0].trusted);
    EXPECT_NE(file.findTrusted("ecall_b"), nullptr);
    EXPECT_EQ(file.findTrusted("nope"), nullptr);
    EXPECT_NE(file.findUntrusted("ocall_c"), nullptr);
}

TEST(EdlParser, ParsesBufferAttributes)
{
    const auto file = parseEdl(R"(
        enclave {
            trusted {
                public void f([in, size=len] uint8_t* a, size_t len,
                              [out, count=n] int* b, size_t n,
                              [in, out, size=128] void* c,
                              [user_check] void* d);
            };
            untrusted {};
        };
    )");
    const auto &params = file.trusted[0].params;
    ASSERT_EQ(params.size(), 6u);
    EXPECT_EQ(params[0].direction, Direction::In);
    EXPECT_EQ(params[0].sizeParamIndex, 1);
    EXPECT_FALSE(params[0].sizeIsCount);
    EXPECT_EQ(params[2].direction, Direction::Out);
    EXPECT_TRUE(params[2].sizeIsCount);
    EXPECT_EQ(params[2].elementSize(), 4u);
    EXPECT_EQ(params[4].direction, Direction::InOut);
    EXPECT_EQ(params[4].sizeLiteral, 128);
    EXPECT_EQ(params[5].direction, Direction::UserCheck);
    EXPECT_TRUE(params[5].userCheckExplicit);
}

TEST(EdlParser, ParsesStringsConstAndComments)
{
    const auto file = parseEdl(R"(
        enclave {
            // line comment
            untrusted {
                /* block
                   comment */
                int64_t ocall_log([in, string] const char* msg);
            };
        };
    )");
    const auto &param = file.untrusted[0].params[0];
    EXPECT_TRUE(param.isString);
    EXPECT_TRUE(param.isConst);
    EXPECT_EQ(param.direction, Direction::In);
}

TEST(EdlParser, VoidParameterList)
{
    const auto file = parseEdl(
        "enclave { trusted { public void f(void); }; };");
    EXPECT_TRUE(file.trusted[0].params.empty());
}

// ----------------------------------------------------------------------
// Parser: diagnostics (property-style over bad inputs).
// ----------------------------------------------------------------------

struct BadEdlCase {
    const char *label;
    const char *text;
};

class EdlParserRejects : public ::testing::TestWithParam<BadEdlCase>
{
};

TEST_P(EdlParserRejects, ThrowsEdlError)
{
    EXPECT_THROW(parseEdl(GetParam().text), EdlError)
        << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EdlParserRejects,
    ::testing::Values(
        BadEdlCase{"missing-enclave", "trusted { };"},
        BadEdlCase{"unterminated",
                   "enclave { trusted { public void f()"},
        BadEdlCase{"bare-pointer",
                   "enclave { trusted { public void f(int* p); }; };"},
        BadEdlCase{"public-on-ocall",
                   "enclave { untrusted { public void f(); }; };"},
        BadEdlCase{"unknown-attribute",
                   "enclave { trusted { public void f([inout, "
                   "size=4] int* p); }; };"},
        BadEdlCase{"size-names-missing-param",
                   "enclave { trusted { public void f([in, "
                   "size=len] int* p); }; };"},
        BadEdlCase{"size-names-pointer",
                   "enclave { trusted { public void f([in, size=q] "
                   "int* p, [user_check] int* q); }; };"},
        BadEdlCase{"user-check-plus-in",
                   "enclave { trusted { public void f([user_check, "
                   "in] int* p); }; };"},
        BadEdlCase{"string-out",
                   "enclave { trusted { public void f([out, string] "
                   "char* p); }; };"},
        BadEdlCase{"attr-on-scalar",
                   "enclave { trusted { public void f([in] int x); "
                   "}; };"},
        BadEdlCase{"trailing-garbage",
                   "enclave { trusted { }; }; extra"},
        BadEdlCase{"pointer-return",
                   "enclave { trusted { public int* f(); }; };"}));

TEST(EdlParser, ErrorCarriesLineNumber)
{
    try {
        parseEdl("enclave {\n  trusted {\n    broken(((\n  };\n};");
        FAIL() << "expected EdlError";
    } catch (const EdlError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
}

// ----------------------------------------------------------------------
// Marshaller.
// ----------------------------------------------------------------------

namespace {

struct MarshalFixture {
    mem::Machine machine;
    sgx::SgxCostParams params;
    Marshaller marshaller;
    EdlFile edl;
    std::vector<CallPlan> plans;
    /** Staging as a FastPath channel slot lends it. */
    mem::StagingArena inlineArena{machine, mem::Domain::Untrusted, 64};
    mem::StagingArena spill{machine, mem::Domain::Untrusted, 4096};
    FastStaging lent{&inlineArena, &spill};

    explicit MarshalFixture(MarshalOptions options = {})
        : marshaller(machine, params, options),
          edl(parseEdl(R"(
            enclave {
                trusted {
                    public void t_in([in, size=len] uint8_t* b,
                                     size_t len);
                    public void t_out([out, size=len] uint8_t* b,
                                      size_t len);
                    public void t_inout([in, out, size=len] uint8_t* b,
                                        size_t len);
                    public void t_check([user_check] void* p);
                };
                untrusted {
                    void u_to([in, size=len] uint8_t* b, size_t len);
                    void u_from([out, size=len] uint8_t* b,
                                size_t len);
                    void u_str([in, string] const char* s);
                    void u_count([in, count=n] uint64_t* b,
                                 size_t n);
                };
            };
          )"))
    {
        for (const auto *fns : {&edl.trusted, &edl.untrusted})
            for (const auto &fn : *fns)
                plans.emplace_back(fn);
    }

    /** @return the plan of edge function @p name. */
    const CallPlan &plan(const std::string &name) const
    {
        for (const auto &p : plans)
            if (p.fn->name == name)
                return p;
        throw std::out_of_range(name);
    }

    void run(std::function<void()> body)
    {
        machine.engine().spawn("test", 0, std::move(body));
        machine.engine().run();
    }

    /**
     * Stage @p name with @p args in both placements, with no staging
     * lent and with the inline + spill arenas lent, expecting stage()
     * to reject the call the same way in both.
     * @return the EdlError message
     */
    std::string rejection(const std::string &name, const Args &args)
    {
        std::string seen[2];
        FastStaging *placements[] = {nullptr, &lent};
        for (int i = 0; i < 2; ++i) {
            StagedCall call;
            try {
                marshaller.stage(plan(name), args, placements[i], call);
                ADD_FAILURE() << name << " staged, lent=" << i;
            } catch (const EdlError &e) {
                seen[i] = e.what();
            }
        }
        EXPECT_EQ(seen[0], seen[1]) << name;
        return seen[0];
    }
};

/** @return whether @p text contains @p part. */
bool
mentions(const std::string &text, const char *part)
{
    return text.find(part) != std::string::npos;
}

} // anonymous namespace

TEST(Marshal, EcallInCopiesIntoEnclaveStaging)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer src(f.machine, mem::Domain::Untrusted, 64);
        std::memcpy(src.data(), "hello-marshalling", 17);
        StagedCall call;
        f.marshaller.stage(f.plan("t_in"), {Arg::buffer(src), Arg::value(17)},
                           nullptr, call);
        // The callee sees a staged EPC copy, not the caller memory.
        EXPECT_NE(call.data(0), src.data());
        EXPECT_TRUE(f.machine.space().isEpc(call.addr(0)));
        EXPECT_EQ(std::memcmp(call.data(0), "hello-marshalling", 17),
                  0);
        EXPECT_EQ(call.size(0), 17u);
        // Callee writes are NOT copied back for `in`.
        call.data(0)[0] = 'X';
        f.marshaller.finish(call);
        EXPECT_EQ(src.data()[0], 'h');
    });
}

TEST(Marshal, EcallOutZeroesAndCopiesBack)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer dst(f.machine, mem::Domain::Untrusted, 32);
        std::memset(dst.data(), 0xee, 32);
        StagedCall call;
        f.marshaller.stage(f.plan("t_out"), {Arg::buffer(dst), Arg::value(32)},
                           nullptr, call);
        // Staging starts zeroed (no heap-secret leakage).
        for (int i = 0; i < 32; ++i)
            ASSERT_EQ(call.data(0)[i], 0);
        std::memcpy(call.data(0), "result", 6);
        f.marshaller.finish(call);
        EXPECT_EQ(std::memcmp(dst.data(), "result", 6), 0);
        EXPECT_EQ(dst.data()[10], 0); // zeroed tail copied back
    });
}

TEST(Marshal, EcallInOutRoundtrips)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer buf(f.machine, mem::Domain::Untrusted, 16);
        std::memcpy(buf.data(), "ping", 4);
        StagedCall call;
        f.marshaller.stage(f.plan("t_inout"),
                           {Arg::buffer(buf), Arg::value(16)}, nullptr, call);
        EXPECT_EQ(std::memcmp(call.data(0), "ping", 4), 0);
        std::memcpy(call.data(0), "pong", 4);
        f.marshaller.finish(call);
        EXPECT_EQ(std::memcmp(buf.data(), "pong", 4), 0);
    });
}

TEST(Marshal, UserCheckIsZeroCopy)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer buf(f.machine, mem::Domain::Untrusted, 16);
        StagedCall call;
        f.marshaller.stage(f.plan("t_check"), {Arg::buffer(buf)},
                           nullptr, call);
        EXPECT_EQ(call.data(0), buf.data()); // same memory
        EXPECT_EQ(call.addr(0), buf.addr());
        f.marshaller.finish(call);
    });
}

TEST(Marshal, NullPointerPassesThrough)
{
    MarshalFixture f;
    f.run([&] {
        StagedCall call;
        f.marshaller.stage(f.plan("t_in"), {Arg::null(), Arg::value(0)},
                           nullptr, call);
        EXPECT_EQ(call.data(0), nullptr);
        f.marshaller.finish(call);
    });
}

TEST(Marshal, EcallRejectsEnclaveBuffer)
{
    MarshalFixture f;
    f.run([&] {
        // An ecall input structure must lie outside the enclave.
        mem::Buffer inside(f.machine, mem::Domain::Epc, 64);
        EXPECT_TRUE(mentions(
            f.rejection("t_in", {Arg::buffer(inside), Arg::value(64)}),
            "must be entirely outside the enclave"));
    });
}

TEST(Marshal, OcallRejectsUntrustedBuffer)
{
    MarshalFixture f;
    f.run([&] {
        // Ocall buffers must come from inside the enclave.
        mem::Buffer outside(f.machine, mem::Domain::Untrusted, 64);
        EXPECT_TRUE(mentions(
            f.rejection("u_to", {Arg::buffer(outside), Arg::value(64)}),
            "must be entirely inside the enclave"));
    });
}

TEST(Marshal, RejectsSizeBeyondCapacity)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer small(f.machine, mem::Domain::Untrusted, 16);
        EXPECT_TRUE(mentions(
            f.rejection("t_in", {Arg::buffer(small), Arg::value(17)}),
            "declares 17 bytes but the buffer holds only 16"));
    });
}

TEST(Marshal, RejectsArgumentCountMismatch)
{
    MarshalFixture f;
    f.run([&] {
        EXPECT_TRUE(mentions(f.rejection("t_in", {Arg::value(1)}),
                             "expected 2 arguments, got 1"));
    });
}

TEST(Marshal, ZeroLengthBufferIsZeroCopy)
{
    MarshalFixture f;
    f.run([&] {
        // len = 0 stages nothing: the callee sees the caller pointer
        // and finish copies nothing back. Deterministic for every
        // direction.
        mem::Buffer buf(f.machine, mem::Domain::Untrusted, 16);
        std::memset(buf.data(), 0xab, 16);
        for (const char *name : {"t_in", "t_out", "t_inout"}) {
            StagedCall call;
            f.marshaller.stage(f.plan(name), {Arg::buffer(buf), Arg::value(0)},
                               nullptr, call);
            EXPECT_EQ(call.size(0), 0u) << name;
            EXPECT_EQ(call.data(0), buf.data()) << name;
            f.marshaller.finish(call);
            EXPECT_EQ(buf.data()[0], 0xab) << name;
        }
    });
}

TEST(Marshal, UnstagedCallSeesCallerBytes)
{
    MarshalFixture f;
    f.run([&] {
        // An unstaged call resolves sizes like stage() but copies
        // nothing: the callee writes the caller's own bytes, whatever
        // domain they live in, and no cycle is charged.
        mem::Buffer buf(f.machine, mem::Domain::Untrusted, 32);
        const Cycles t0 = f.machine.now();
        StagedCall call(f.plan("u_count"),
                        {Arg::buffer(buf), Arg::value(3)});
        EXPECT_EQ(call.data(0), buf.data());
        EXPECT_EQ(call.addr(0), buf.addr());
        EXPECT_EQ(call.size(0), 24u);
        EXPECT_EQ(call.scalar(1), 3u);
        call.data(0)[0] = 0x5a;
        call.setRetval(7);
        EXPECT_EQ(buf.data()[0], 0x5a);
        EXPECT_EQ(call.retval(), 7u);
        EXPECT_EQ(f.machine.now(), t0);
    });
}

TEST(Marshal, NullOutAndInOutPointersPassThrough)
{
    MarshalFixture f;
    f.run([&] {
        // NULL marshals as NULL even for out/inout: nothing is
        // staged, zeroed, or copied back.
        for (const char *name : {"t_out", "t_inout"}) {
            StagedCall call;
            f.marshaller.stage(f.plan(name), {Arg::null(), Arg::value(64)},
                               nullptr, call);
            EXPECT_EQ(call.data(0), nullptr) << name;
            f.marshaller.finish(call);
        }
        StagedCall ocall;
        f.marshaller.stage(f.plan("u_from"), {Arg::null(), Arg::value(64)},
                           nullptr, ocall);
        EXPECT_EQ(ocall.data(0), nullptr);
        f.marshaller.finish(ocall);
    });
}

TEST(Marshal, CountTimesSizeOverflowRejected)
{
    MarshalFixture f;
    f.run([&] {
        // count * sizeof(uint64_t) wrapping past 2^64 must throw, not
        // wrap to a small byte length that passes the bounds check.
        mem::Buffer buf(f.machine, mem::Domain::Epc, 64);
        const std::uint64_t count = UINT64_MAX / 4;
        EXPECT_TRUE(mentions(
            f.rejection("u_count", {Arg::buffer(buf), Arg::value(count)}),
            "overflows"));
    });
}

TEST(Marshal, OcallStagesIntoUntrustedMemory)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer src(f.machine, mem::Domain::Epc, 64);
        std::memcpy(src.data(), "secretless-copy", 15);
        StagedCall call;
        f.marshaller.stage(f.plan("u_to"), {Arg::buffer(src), Arg::value(15)},
                           nullptr, call);
        EXPECT_FALSE(f.machine.space().isEpc(call.addr(0)));
        EXPECT_EQ(std::memcmp(call.data(0), "secretless-copy", 15),
                  0);
        f.marshaller.finish(call);
    });
}

TEST(Marshal, StringLengthFromNul)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer s(f.machine, mem::Domain::Epc, 32);
        std::strcpy(reinterpret_cast<char *>(s.data()), "path");
        StagedCall call;
        f.marshaller.stage(f.plan("u_str"), {Arg::buffer(s)}, nullptr,
                           call);
        EXPECT_EQ(call.size(0), 5u); // includes NUL
        EXPECT_STREQ(reinterpret_cast<char *>(call.data(0)), "path");
        f.marshaller.finish(call);
    });
}

TEST(Marshal, StringWithoutNulRejected)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer s(f.machine, mem::Domain::Epc, 8);
        std::memset(s.data(), 'a', 8); // no terminator
        EXPECT_TRUE(mentions(f.rejection("u_str", {Arg::buffer(s)}),
                             "is not NUL-terminated"));
    });
}

TEST(Marshal, OcallFromZeroesUntrustedStaging)
{
    MarshalFixture f;
    f.run([&] {
        mem::Buffer dst(f.machine, mem::Domain::Epc, 32);
        StagedCall call;
        f.marshaller.stage(f.plan("u_from"),
                           {Arg::buffer(dst), Arg::value(32)}, nullptr,
                           call);
        for (int i = 0; i < 32; ++i)
            ASSERT_EQ(call.data(0)[i], 0);
        std::memcpy(call.data(0), "filled", 6);
        f.marshaller.finish(call);
        EXPECT_EQ(std::memcmp(dst.data(), "filled", 6), 0);
    });
}

TEST(Marshal, NoRedundantZeroingSkipsCostButStaysFunctional)
{
    MarshalFixture plain;
    MarshalFixture nrz({.noRedundantZeroing = true});
    Cycles with_zero = 0, without_zero = 0;
    plain.run([&] {
        mem::Buffer dst(plain.machine, mem::Domain::Epc, 4096);
        const Cycles t0 = plain.machine.now();
        StagedCall call;
        plain.marshaller.stage(plain.plan("u_from"),
                               {Arg::buffer(dst), Arg::value(4096)},
                               nullptr, call);
        with_zero = plain.machine.now() - t0;
        plain.marshaller.finish(call);
    });
    nrz.run([&] {
        mem::Buffer dst(nrz.machine, mem::Domain::Epc, 4096);
        const Cycles t0 = nrz.machine.now();
        StagedCall call;
        nrz.marshaller.stage(nrz.plan("u_from"),
                             {Arg::buffer(dst), Arg::value(4096)},
                             nullptr, call);
        without_zero = nrz.machine.now() - t0;
        std::memcpy(call.data(0), "data", 4);
        nrz.marshaller.finish(call);
    });
    // The byte-wise memset of 4 KiB costs ~1.23 cycles/B.
    EXPECT_GT(with_zero, without_zero + 4'000);
}

TEST(Marshal, WordWiseMemsetIsCheaper)
{
    MarshalFixture bytewise;
    MarshalFixture wordwise({.wordWiseMemset = true});
    Cycles slow = 0, fast = 0;
    bytewise.run([&] {
        mem::Buffer dst(bytewise.machine, mem::Domain::Untrusted,
                        4096);
        const Cycles t0 = bytewise.machine.now();
        StagedCall call;
        bytewise.marshaller.stage(bytewise.plan("t_out"),
                                  {Arg::buffer(dst), Arg::value(4096)},
                                  nullptr, call);
        slow = bytewise.machine.now() - t0;
        bytewise.marshaller.finish(call);
    });
    wordwise.run([&] {
        mem::Buffer dst(wordwise.machine, mem::Domain::Untrusted,
                        4096);
        const Cycles t0 = wordwise.machine.now();
        StagedCall call;
        wordwise.marshaller.stage(wordwise.plan("t_out"),
                                  {Arg::buffer(dst), Arg::value(4096)},
                                  nullptr, call);
        fast = wordwise.machine.now() - t0;
        wordwise.marshaller.finish(call);
    });
    EXPECT_GT(slow, fast + 2'000);
}

/** Property: in&out round-trips arbitrary payloads of many sizes. */
class MarshalRoundtrip : public ::testing::TestWithParam<int>
{
};

TEST_P(MarshalRoundtrip, InOutPreservesPayload)
{
    MarshalFixture f;
    const auto len = static_cast<std::uint64_t>(GetParam());
    f.run([&] {
        mem::Buffer buf(f.machine, mem::Domain::Untrusted,
                        std::max<std::uint64_t>(len, 1));
        Rng rng(len);
        for (std::uint64_t i = 0; i < len; ++i)
            buf.data()[i] = static_cast<std::uint8_t>(rng.next());
        std::vector<std::uint8_t> original(buf.data(),
                                           buf.data() + len);

        StagedCall call;
        f.marshaller.stage(f.plan("t_inout"),
                           {Arg::buffer(buf), Arg::value(len)}, nullptr, call);
        for (std::uint64_t i = 0; i < len; ++i)
            call.data(0)[i] ^= 0x5a;
        f.marshaller.finish(call);
        for (std::uint64_t i = 0; i < len; ++i)
            EXPECT_EQ(buf.data()[i], original[i] ^ 0x5a);
    });
}

INSTANTIATE_TEST_SUITE_P(Sizes, MarshalRoundtrip,
                         ::testing::Values(1, 7, 64, 65, 2048, 4096,
                                           16384));

// ----------------------------------------------------------------------
// Code generation (the edger8r output shape).
// ----------------------------------------------------------------------

#include "edl/codegen.hh"

namespace {

const char *kCodegenEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_work([in, size=len] uint8_t* buf,
                                       size_t len);
            public void ecall_nop();
        };
        untrusted {
            int64_t ocall_read(int64_t fd, [out, size=n] void* b,
                               size_t n);
            void ocall_log([in, string] const char* msg);
        };
    };
)";

} // anonymous namespace

TEST(Codegen, UntrustedHeaderShape)
{
    const auto file = parseEdl(kCodegenEdl);
    const std::string out =
        generateUntrustedHeader(file, "demo_enclave");
    // ecall proxies take the enclave id and a retval out-param.
    EXPECT_NE(out.find("sgx_status_t ecall_work(sgx_enclave_id_t "
                       "eid, uint64_t* retval, uint8_t* buf, "
                       "size_t len);"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("sgx_status_t ecall_nop(sgx_enclave_id_t "
                       "eid);"),
              std::string::npos);
    // ocall landings keep the plain signature.
    EXPECT_NE(out.find("int64_t ocall_read(int64_t fd, void* b, "
                       "size_t n);"),
              std::string::npos);
    EXPECT_NE(out.find("const char* msg"), std::string::npos);
    // Buffer attributes are documented at the declaration.
    EXPECT_NE(out.find("[in, size=len]"), std::string::npos);
    // Include guard derives from the enclave name.
    EXPECT_NE(out.find("#ifndef DEMO_ENCLAVE_UNTRUSTED_H"),
              std::string::npos);
    EXPECT_NE(out.find("demo_enclave_ocall_table[2]"),
              std::string::npos);
}

TEST(Codegen, TrustedHeaderShape)
{
    const auto file = parseEdl(kCodegenEdl);
    const std::string out =
        generateTrustedHeader(file, "demo_enclave");
    // Trusted side implements the ecalls plainly...
    EXPECT_NE(out.find("uint64_t ecall_work(uint8_t* buf, "
                       "size_t len);"),
              std::string::npos)
        << out;
    // ... and calls ocall proxies that return a status.
    EXPECT_NE(out.find("sgx_status_t ocall_read(int64_t* retval, "
                       "int64_t fd, void* b, size_t n);"),
              std::string::npos);
    EXPECT_NE(out.find("#ifndef DEMO_ENCLAVE_TRUSTED_H"),
              std::string::npos);
}

TEST(Codegen, DescribeFlagsUncheckedPointers)
{
    const auto file = parseEdl(R"(
        enclave {
            trusted {
                public void f([user_check] void* raw,
                              [in, size=4] uint8_t* safe);
            };
            untrusted {};
        };
    )");
    const std::string out = describeInterface(file);
    EXPECT_NE(out.find("!! zero-copy, unchecked"),
              std::string::npos);
    // The audited-safe parameter is not flagged.
    const auto safe_pos = out.find("safe");
    EXPECT_EQ(out.find("!!", safe_pos), std::string::npos);
}

TEST(Codegen, GeneratedForOsSurfaceIsNonTrivial)
{
    // The porting framework's full OS EDL generates cleanly.
    const auto file = parseEdl(R"(
        enclave {
            trusted { public uint64_t ecall_run_function(
                          uint64_t handle, uint64_t arg); };
            untrusted {
                int64_t ocall_read(int64_t fd,
                                   [out, size=count] void* buf,
                                   size_t count);
                int64_t ocall_poll([in, out, count=nfds] int64_t* fds,
                                   size_t nfds, uint64_t timeout);
            };
        };
    )");
    const std::string untrusted =
        generateUntrustedHeader(file, "os");
    const std::string trusted = generateTrustedHeader(file, "os");
    EXPECT_GT(untrusted.size(), 400u);
    EXPECT_GT(trusted.size(), 300u);
    EXPECT_NE(untrusted.find("[in&out, count=nfds]"),
              std::string::npos);
}
