/**
 * @file
 * Application porting framework (paper Section 6.1).
 *
 * The paper ports applications into an enclave wholesale: the main
 * ecall simply runs the application's main, and every call to a
 * function outside the code base (read, sendmsg, time, ...) — found
 * as an undefined reference at link time — becomes an ocall with
 * generated wrapper code. This module reproduces that workflow:
 *
 *  - kOsEdl declares the ocall for every supported OS API,
 *  - PortedApp::declareImports() plays the linker: every external
 *    function the application names must resolve to a generated
 *    wrapper, or the "link" fails listing the undefined references,
 *  - every libc-style method packs its ocall arguments once, and one
 *    dispatcher routes them to the call's landing, the only place its
 *    syscall is made: Sgx through a full SDK ocall, SgxHotCalls
 *    through a HotCall channel for the configured hot set (SDK ocalls
 *    for the rest), and Native straight to the landing on the
 *    caller's own bytes,
 *  - RunEnclaveFunction (the paper's corner-case ecall for callbacks
 *    landing inside the enclave, e.g. libevent handlers) dispatches
 *    registered trusted callbacks, accelerated by a HotEcall channel
 *    in SgxHotCalls mode,
 *  - per-call counters feed Table 2.
 */

#ifndef HC_PORT_PORT_HH
#define HC_PORT_PORT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hotcalls/hotqueue.hh"
#include "mem/buffer.hh"
#include "os/kernel.hh"
#include "sdk/runtime.hh"

namespace hc::port {

/** How the application reaches the OS. */
enum class Mode {
    Native,      //!< unmodified application, direct syscalls
    Sgx,         //!< in-enclave, SDK ecalls/ocalls
    SgxHotCalls, //!< in-enclave, HotCalls for the configured hot set
};

/** @return a human-readable mode name. */
const char *modeName(Mode mode);

/** Porting configuration. */
struct PortConfig {
    Mode mode = Mode::Native;
    /** Marshalling options (No-Redundant-Zeroing, word-wise memset). */
    edl::MarshalOptions marshal;
    /** FastPath data plane of both hot channels
     *  (ChannelConfig::fastPath). */
    bool fastPath = true;
    /** Responder cores of the two HotQueue channels: all app threads
     *  share one multi-slot ring per direction (hotqueue.hh). */
    CoreId hotOcallCore = 2;
    CoreId hotEcallCore = 3;
    /** Additional cores the ocall responder pool may scale onto. */
    std::vector<CoreId> extraHotOcallCores;
    /**
     * Ocalls accelerated in SgxHotCalls mode; empty = all of them.
     * The paper accelerates each application's frequent calls
     * (Table 2).
     */
    std::set<std::string> hotOcalls;
    /**
     * Implement pure-utility libc calls (inet_ntop, inet_addr)
     * inside the enclave instead of ocall-ing out: the paper's
     * suggested optimization for openVPN and lighttpd ("don't
     * require OS involvement and can be implemented inside the
     * enclave, reducing by 9% the number of ocalls", §6.3/§6.4).
     */
    bool utilitiesInEnclave = false;
};

/** The EDL generated for the OS API surface. */
extern const char *kOsEdl;

/** A ported application instance. */
class PortedApp
{
  public:
    /**
     * @param platform  SGX processor model (used by SGX modes)
     * @param kernel    the simulated OS
     * @param name      application name (becomes the enclave name)
     * @param config    mode and options
     */
    PortedApp(sgx::SgxPlatform &platform, os::Kernel &kernel,
              const std::string &name, PortConfig config);

    ~PortedApp();

    PortedApp(const PortedApp &) = delete;
    PortedApp &operator=(const PortedApp &) = delete;

    Mode mode() const { return config_.mode; }
    os::Kernel &kernel() { return kernel_; }
    mem::Machine &machine() { return kernel_.machine(); }

    /** @return the buffer domain app data lives in (EPC under SGX). */
    mem::Domain dataDomain() const
    {
        return config_.mode == Mode::Native ? mem::Domain::Untrusted
                                            : mem::Domain::Epc;
    }

    /**
     * Resolve the application's external references. Mirrors the
     * paper's link step: fatal()s listing any import with no
     * generated ocall wrapper.
     */
    void declareImports(const std::vector<std::string> &imports);

    /** Spawn the HotCall responders (SgxHotCalls mode only). */
    void startHotCalls();

    /** Stop the HotCall responders. */
    void stopHotCalls();

    // ------------------------------------------------------------------
    // RunEnclaveFunction.
    // ------------------------------------------------------------------

    /** Register a trusted callback; @return its handle. */
    int registerFunction(std::function<void(std::uint64_t)> fn);

    /**
     * Invoke callback @p handle inside the enclave (an ecall in SGX
     * modes, a HotEcall in SgxHotCalls mode, a direct call in
     * Native).
     */
    void runEnclaveFunction(int handle, std::uint64_t arg);

    // ------------------------------------------------------------------
    // The libc surface. Buffers are the app's own (EPC-resident under
    // SGX); marshalling to/from untrusted staging happens per mode.
    // ------------------------------------------------------------------

    std::int64_t read(int fd, mem::Buffer &buf, std::uint64_t count);
    std::int64_t write(int fd, mem::Buffer &buf, std::uint64_t count);
    std::int64_t send(int fd, mem::Buffer &buf, std::uint64_t count);
    std::int64_t sendmsg(int fd, mem::Buffer &buf, std::uint64_t count);
    std::int64_t recv(int fd, mem::Buffer &buf, std::uint64_t count);
    std::int64_t writev(int fd, mem::Buffer &buf, std::uint64_t count);
    std::int64_t sendto(int fd, mem::Buffer &buf, std::uint64_t count,
                        int dst_port);
    std::int64_t recvfrom(int fd, mem::Buffer &buf,
                          std::uint64_t count);
    std::int64_t sendfile(int out_fd, int in_fd, std::uint64_t offset,
                          std::uint64_t count);
    std::int64_t accept(int fd);
    std::int64_t close(int fd);
    std::int64_t open(const std::string &path);
    std::int64_t fstat(int fd, std::uint64_t *size_out);
    std::int64_t fcntl(int fd, int op);
    std::int64_t ioctl(int fd, int op);
    std::int64_t setsockopt(int fd, int opt);
    std::int64_t shutdown(int fd);
    std::int64_t epollCreate();
    std::int64_t epollCtlAdd(int epfd, int fd);
    std::int64_t epollCtlDel(int epfd, int fd);
    /** Reports at most 128 events; max_events <= 0 is os::kEinval,
     *  and a failed wait leaves @p ready as it was. */
    std::int64_t epollWait(int epfd, std::vector<int> &ready,
                           int max_events, Cycles timeout);
    /** @p fds holds at most 128 descriptors. */
    std::int64_t poll(const std::vector<int> &fds,
                      std::vector<int> &ready, Cycles timeout);
    std::int64_t listen(int port);
    std::int64_t connect(int port);
    std::int64_t udpSocket(int side, int port);
    std::int64_t time();
    std::int64_t gettimeofday();
    std::int64_t getpid();
    std::int64_t inetNtop(std::uint32_t addr);
    std::int64_t inetAddr(std::uint64_t packed);

    // ------------------------------------------------------------------
    // Statistics (Table 2).
    // ------------------------------------------------------------------

    /** Per-call-name invocation counts since the last reset. */
    std::map<std::string, std::uint64_t> callCounts() const;

    /** Reset the counters (between warmup and measurement). */
    void resetCounters();

    /** @return hot-eligible ocalls forced down the conventional SDK
     *  path by an installed fault plan (PortFallback site). */
    std::uint64_t forcedFallbacks() const { return forcedFallbacks_; }

    /** @return the SGX runtime (SGX modes only). */
    sdk::EnclaveRuntime &runtime() { return *runtime_; }

  private:
    /** Route ocall @p id to its landing: directly in Native, else as
     *  an SDK ocall or, when configured hot, through the HotQueue. */
    std::int64_t osCall(int id, const edl::Args &args);

    sgx::SgxPlatform &platform_;
    os::Kernel &kernel_;
    PortConfig config_;
    std::unique_ptr<sdk::EnclaveRuntime> runtime_;
    int runFunctionId_ = 0; //!< ecall_run_function's dispatch id
    /** The two fast-call channels. */
    std::unique_ptr<hotcalls::HotQueue> hotOcalls_;
    std::unique_ptr<hotcalls::HotQueue> hotEcalls_;
    std::vector<std::function<void(std::uint64_t)>> functions_;
    /** Native-mode calls by ocall id (the runtime counts the rest). */
    std::vector<std::uint64_t> nativeCounts_;
    std::uint64_t nativeRuns_ = 0; //!< Native runEnclaveFunction calls
    std::map<std::string, std::uint64_t> inEnclaveCounts_;
    /** Cached ocall-id -> hot routing decision. */
    std::vector<bool> hotById_;
    /** Hot-eligible ocalls rerouted to the SDK path by a fault plan. */
    std::uint64_t forcedFallbacks_ = 0;
    /** The fd array epoll_wait and poll pass (EPC under SGX). */
    std::unique_ptr<mem::Buffer> fdScratch_;
};

} // namespace hc::port

#endif // HC_PORT_PORT_HH
