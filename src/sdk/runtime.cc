/**
 * @file
 * EnclaveRuntime implementation.
 */

#include "sdk/runtime.hh"

#include "support/logging.hh"

namespace hc::sdk {

EnclaveRuntime::EnclaveRuntime(sgx::SgxPlatform &platform,
                               const std::string &name,
                               std::string_view edl_text, int num_tcs,
                               edl::MarshalOptions options)
    : platform_(platform), machine_(platform.machine()),
      edl_(edl::parseEdl(edl_text)),
      marshaller_(machine_, platform.params(), options)
{
    // Build the enclave: the EDL text stands in for the trusted code
    // image (it determines the edge interface, which is what the
    // measurement must pin down for this model).
    enclave_ = &platform_.ecreate(name);
    std::string image = "trusted-image:" + name + "\n";
    image.append(edl_text);
    platform_.addCode(*enclave_, image.data(), image.size());
    platform_.einit(*enclave_, num_tcs);

    trustedImpl_.resize(edl_.trusted.size());
    untrustedImpl_.resize(edl_.untrusted.size());
    ecallCount_.assign(edl_.trusted.size(), 0);
    ocallCount_.assign(edl_.untrusted.size(), 0);

    // Build every edge function's marshalling plan once, here: every
    // call path looks its plan up by dispatch id and never re-walks
    // the spec.
    ecallPlans_.reserve(edl_.trusted.size());
    for (const auto &fn : edl_.trusted)
        ecallPlans_.emplace_back(fn);
    ocallPlans_.reserve(edl_.untrusted.size());
    for (const auto &fn : edl_.untrusted)
        ocallPlans_.emplace_back(fn);

    // Trusted-runtime ocall frame (marshalling scratch in the EPC).
    const int frame_lines = 1;
    ocallFrameAddr_ = machine_.space().allocEpc(
        frame_lines * kCacheLineSize, kCacheLineSize);
    for (int i = 0; i < frame_lines; ++i)
        ocallFrameLines_.push_back(ocallFrameAddr_ +
                                   static_cast<Addr>(i) *
                                       kCacheLineSize);
}

EnclaveRuntime::~EnclaveRuntime()
{
    if (ocallFrameAddr_)
        machine_.space().free(ocallFrameAddr_);
}

void
EnclaveRuntime::registerEcall(const std::string &name, TrustedFn fn)
{
    const int id = ecallId(name);
    trustedImpl_[static_cast<std::size_t>(id)] = std::move(fn);
}

void
EnclaveRuntime::registerOcall(const std::string &name, UntrustedFn fn)
{
    const int id = ocallId(name);
    untrustedImpl_[static_cast<std::size_t>(id)] = std::move(fn);
}

int
EnclaveRuntime::ecallId(const std::string &name) const
{
    for (std::size_t i = 0; i < edl_.trusted.size(); ++i)
        if (edl_.trusted[i].name == name)
            return static_cast<int>(i);
    fatal("unknown ecall '%s'", name.c_str());
}

int
EnclaveRuntime::ocallId(const std::string &name) const
{
    for (std::size_t i = 0; i < edl_.untrusted.size(); ++i)
        if (edl_.untrusted[i].name == name)
            return static_cast<int>(i);
    fatal("unknown ocall '%s'", name.c_str());
}

const std::string &
EnclaveRuntime::ecallName(int id) const
{
    hc_assert(id >= 0 &&
              static_cast<std::size_t>(id) < edl_.trusted.size());
    return edl_.trusted[static_cast<std::size_t>(id)].name;
}

const std::string &
EnclaveRuntime::ocallName(int id) const
{
    hc_assert(id >= 0 &&
              static_cast<std::size_t>(id) < edl_.untrusted.size());
    return edl_.untrusted[static_cast<std::size_t>(id)].name;
}

void
EnclaveRuntime::resetCounters()
{
    ecallCount_.assign(ecallCount_.size(), 0);
    ocallCount_.assign(ocallCount_.size(), 0);
}

sgx::Tcs *
EnclaveRuntime::acquireTcsBlocking()
{
    auto &engine = machine_.engine();
    for (;;) {
        sgx::Tcs *tcs = enclave_->acquireTcs();
        if (tcs)
            return tcs;
        // All TCSs busy: the real SDK fails or blocks depending on
        // configuration; we model a short backoff and retry.
        engine.advance(kPauseCycles);
        engine.yield();
    }
}

std::uint64_t
EnclaveRuntime::ecall(const std::string &name, const edl::Args &args)
{
    return ecall(ecallId(name), args);
}

std::uint64_t
EnclaveRuntime::ecall(int id, const edl::Args &args)
{
    hc_assert(id >= 0 &&
              static_cast<std::size_t>(id) < edl_.trusted.size());
    const auto &fn = edl_.trusted[static_cast<std::size_t>(id)];
    auto &impl = trustedImpl_[static_cast<std::size_t>(id)];
    if (!impl)
        fatal("ecall '%s' has no registered implementation",
              fn.name.c_str());
    // Reject a call that breaks its EDL contract before it is counted
    // or takes a TCS (the check costs no cycles and draws no RNG).
    const auto &plan = ecallPlans_[static_cast<std::size_t>(id)];
    marshaller_.validate(plan, args);
    ++ecallCount_[static_cast<std::size_t>(id)];

    // Untrusted wrapper: find the enclave, take the reader lock, pick
    // a TCS, save extended state, check FP exceptions.
    platform_.chargeStage(platform_.params().sdkEcallSoftware,
                          enclave_->untrustedCtxLines(),
                          /*write=*/false);
    sgx::Tcs *tcs = acquireTcsBlocking();

    platform_.eenter(*enclave_, *tcs);

    // Trusted wrapper: dispatch-table lookup, then marshal the call's
    // buffers into the enclave (copies happen inside).
    platform_.chargeStage(platform_.params().sdkTrustedDispatch, {},
                          /*write=*/false);
    edl::StagedCall staged;
    marshaller_.stage(plan, args, nullptr, staged);
    impl(staged);
    marshaller_.finish(staged);

    platform_.eexit();
    enclave_->releaseTcs(tcs);
    return staged.retval();
}

std::uint64_t
EnclaveRuntime::ocall(const std::string &name, const edl::Args &args)
{
    return ocall(ocallId(name), args);
}

std::uint64_t
EnclaveRuntime::ocall(int id, const edl::Args &args)
{
    hc_assert(id >= 0 &&
              static_cast<std::size_t>(id) < edl_.untrusted.size());
    if (!platform_.inEnclave(machine_.currentCore()))
        throw sgx::SgxFault("ocall issued outside enclave mode");
    const auto &fn = edl_.untrusted[static_cast<std::size_t>(id)];
    auto &impl = untrustedImpl_[static_cast<std::size_t>(id)];
    if (!impl)
        fatal("ocall '%s' has no registered landing function",
              fn.name.c_str());
    const auto &plan = ocallPlans_[static_cast<std::size_t>(id)];
    marshaller_.validate(plan, args); // as in ecall()
    ++ocallCount_[static_cast<std::size_t>(id)];

    // Trusted wrapper: marshal outgoing buffers (inside the enclave),
    // push the ocall frame.
    platform_.chargeStage(platform_.params().sdkOcallSoftware,
                          ocallFrameLines_, /*write=*/true);
    edl::StagedCall staged;
    marshaller_.stage(plan, args, nullptr, staged);

    platform_.eexitForOcall();

    // Untrusted dispatcher: route ocall_index to the landing function.
    platform_.chargeStage(platform_.params().sdkOcallDispatch,
                          enclave_->untrustedCtxLines(),
                          /*write=*/false);
    impl(staged);

    platform_.eresume();

    // Back inside: copy `out` buffers into the enclave, pop frame.
    marshaller_.finish(staged);
    return staged.retval();
}

void
EnclaveRuntime::dispatchOcallDirect(int id, edl::StagedCall &call)
{
    hc_assert(id >= 0 &&
              static_cast<std::size_t>(id) < edl_.untrusted.size());
    auto &impl = untrustedImpl_[static_cast<std::size_t>(id)];
    if (!impl)
        fatal("ocall id %d has no registered landing function", id);
    ++ocallCount_[static_cast<std::size_t>(id)];
    impl(call);
}

void
EnclaveRuntime::dispatchEcallDirect(int id, edl::StagedCall &call)
{
    hc_assert(id >= 0 &&
              static_cast<std::size_t>(id) < edl_.trusted.size());
    auto &impl = trustedImpl_[static_cast<std::size_t>(id)];
    if (!impl)
        fatal("ecall id %d has no registered implementation", id);
    ++ecallCount_[static_cast<std::size_t>(id)];
    impl(call);
}

} // namespace hc::sdk
