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
 *  - the libc-style methods route by mode: Native calls the kernel
 *    directly; Sgx goes through full SDK ocalls; SgxHotCalls sends
 *    the configured hot set through a HotCall channel (everything
 *    else still uses SDK ocalls),
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
    int numTcs = 8;
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
    std::int64_t epollWait(int epfd, std::vector<int> &ready,
                           int max_events, Cycles timeout);
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
    /** Issue ocall @p name, hot when configured. */
    std::uint64_t osCall(const std::string &name, const edl::Args &args);

    /** Count a native-mode call. */
    void countNative(const std::string &name);

    /** Register every ocall landing function against the kernel. */
    void registerLandings();

    sgx::SgxPlatform &platform_;
    os::Kernel &kernel_;
    PortConfig config_;
    std::unique_ptr<sdk::EnclaveRuntime> runtime_;
    /** The two fast-call channels. */
    std::unique_ptr<hotcalls::HotQueue> hotOcalls_;
    std::unique_ptr<hotcalls::HotQueue> hotEcalls_;
    std::vector<std::function<void(std::uint64_t)>> functions_;
    std::map<std::string, std::uint64_t> nativeCounts_;
    std::map<std::string, std::uint64_t> inEnclaveCounts_;
    /** Cached ocall-id -> hot routing decision. */
    std::vector<bool> hotById_;
    /** Hot-eligible ocalls rerouted to the SDK path by a fault plan. */
    std::uint64_t forcedFallbacks_ = 0;
    /** Scratch staging for epoll/poll fd arrays (EPC under SGX). */
    std::unique_ptr<mem::Buffer> fdScratch_;
};

} // namespace hc::port

#endif // HC_PORT_PORT_HH
