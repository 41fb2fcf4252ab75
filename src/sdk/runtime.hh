/**
 * @file
 * EnclaveRuntime: the SDK's untrusted + trusted runtime pair.
 *
 * Mirrors the Intel SGX SDK workflow the paper studies:
 *  - the developer writes an EDL file; here it is parsed at runtime
 *    and drives the same marshalling the edger8r would generate,
 *  - ecall(): untrusted wrapper (enclave lookup, R/W lock, TCS
 *    selection, AVX save) -> EENTER -> trusted dispatch -> the
 *    registered trusted function -> EEXIT,
 *  - ocall(): trusted wrapper (marshal, security checks) -> EEXIT ->
 *    untrusted landing function -> ERESUME.
 *
 * Every stage charges its calibrated cost and touches its modelled
 * data structures, so warm/cold behaviour follows the cache state.
 * Per-function call counters feed the paper's Table 2.
 */

#ifndef HC_SDK_RUNTIME_HH
#define HC_SDK_RUNTIME_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "edl/marshal.hh"
#include "edl/parser.hh"
#include "sgx/platform.hh"
#include "support/logging.hh"

namespace hc::sdk {

/** Cost of one PAUSE instruction in a spin loop (TCS backoff, HotCall
 *  polling). */
constexpr Cycles kPauseCycles = 35;

/** Implementation of a trusted (ecall) function. */
using TrustedFn = std::function<void(edl::StagedCall &)>;

/** Implementation of an untrusted (ocall landing) function. */
using UntrustedFn = std::function<void(edl::StagedCall &)>;

/** The per-enclave runtime. */
class EnclaveRuntime
{
  public:
    /**
     * Create, measure and initialize the enclave.
     *
     * @param platform  SGX processor model
     * @param name      enclave name (measured)
     * @param edl_text  EDL declaring every ecall and ocall
     * @param num_tcs   TCS pool size (max concurrent enclave threads)
     * @param options   marshalling options (NRZ, word-wise memset)
     */
    EnclaveRuntime(sgx::SgxPlatform &platform, const std::string &name,
                   std::string_view edl_text, int num_tcs = 4,
                   edl::MarshalOptions options = {});

    ~EnclaveRuntime();

    EnclaveRuntime(const EnclaveRuntime &) = delete;
    EnclaveRuntime &operator=(const EnclaveRuntime &) = delete;

    // ------------------------------------------------------------------
    // Implementation registration.
    // ------------------------------------------------------------------

    /** Bind the trusted implementation of ecall @p name. */
    void registerEcall(const std::string &name, TrustedFn fn);

    /** Bind the untrusted landing function of ocall @p name. */
    void registerOcall(const std::string &name, UntrustedFn fn);

    /** @return the dispatch id of ecall @p name; fatal when unknown. */
    int ecallId(const std::string &name) const;

    /** @return the dispatch id of ocall @p name; fatal when unknown. */
    int ocallId(const std::string &name) const;

    // ------------------------------------------------------------------
    // Calls.
    // ------------------------------------------------------------------

    /** Full SDK ecall by name (see class comment for the stages). */
    std::uint64_t ecall(const std::string &name, const edl::Args &args);

    /** Full SDK ecall by dispatch id (no name lookup). */
    std::uint64_t ecall(int id, const edl::Args &args);

    /**
     * Full SDK ocall by name. Must be issued from enclave mode (i.e.
     * from inside a trusted function); faults otherwise.
     */
    std::uint64_t ocall(const std::string &name, const edl::Args &args);

    /** Full SDK ocall by dispatch id. */
    std::uint64_t ocall(int id, const edl::Args &args);

    /**
     * Execute only the untrusted side of ocall @p id on an
     * already-staged call. Used by the HotCalls responder, which
     * replaces the EEXIT/ERESUME transport but reuses the dispatch.
     */
    void dispatchOcallDirect(int id, edl::StagedCall &call);

    /** Execute only the trusted side of ecall @p id (HotCalls). */
    void dispatchEcallDirect(int id, edl::StagedCall &call);

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    sgx::Enclave &enclave() { return *enclave_; }
    sgx::SgxPlatform &platform() { return platform_; }
    edl::Marshaller &marshaller() { return marshaller_; }
    const edl::EdlFile &edlFile() const { return edl_; }

    /** @return the marshalling plan of ecall @p id. */
    const edl::CallPlan &ecallPlan(int id) const
    {
        hc_assert(id >= 0 &&
                  static_cast<std::size_t>(id) < ecallPlans_.size());
        return ecallPlans_[static_cast<std::size_t>(id)];
    }

    /** @return the marshalling plan of ocall @p id. */
    const edl::CallPlan &ocallPlan(int id) const
    {
        hc_assert(id >= 0 &&
                  static_cast<std::size_t>(id) < ocallPlans_.size());
        return ocallPlans_[static_cast<std::size_t>(id)];
    }

    /** Per-ecall invocation counts (index = dispatch id). */
    const std::vector<std::uint64_t> &ecallCounts() const
    {
        return ecallCount_;
    }

    /** Per-ocall invocation counts (index = dispatch id). */
    const std::vector<std::uint64_t> &ocallCounts() const
    {
        return ocallCount_;
    }

    /** Reset the call counters (between warmup and measurement). */
    void resetCounters();

    /** @return the ocall name for dispatch id @p id. */
    const std::string &ocallName(int id) const;

    /** @return the ecall name for dispatch id @p id. */
    const std::string &ecallName(int id) const;

  private:
    /** Block (politely) until a TCS is free, then take it. */
    sgx::Tcs *acquireTcsBlocking();

    sgx::SgxPlatform &platform_;
    mem::Machine &machine_;
    edl::EdlFile edl_;
    edl::Marshaller marshaller_;
    /** Marshalling plans by dispatch id (they point into edl_). */
    std::vector<edl::CallPlan> ecallPlans_;
    std::vector<edl::CallPlan> ocallPlans_;
    sgx::Enclave *enclave_ = nullptr;

    std::vector<TrustedFn> trustedImpl_;
    std::vector<UntrustedFn> untrustedImpl_;
    std::vector<std::uint64_t> ecallCount_;
    std::vector<std::uint64_t> ocallCount_;

    /** Modelled trusted-runtime ocall frame lines (EPC). */
    std::vector<Addr> ocallFrameLines_;
    Addr ocallFrameAddr_ = 0;
};

} // namespace hc::sdk

#endif // HC_SDK_RUNTIME_HH
