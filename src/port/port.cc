/**
 * @file
 * Porting framework implementation.
 */

#include "port/port.hh"

#include <algorithm>
#include <cstring>

#include "fault/fault.hh"
#include "support/logging.hh"

namespace hc::port {

const char *kOsEdl = R"EDL(
enclave {
    trusted {
        public uint64_t ecall_run_function(uint64_t handle,
                                           uint64_t arg);
    };
    untrusted {
        int64_t ocall_read(int64_t fd, [out, size=count] void* buf,
                           size_t count);
        int64_t ocall_write(int64_t fd, [in, size=count] void* buf,
                            size_t count);
        int64_t ocall_send(int64_t fd, [in, size=count] void* buf,
                           size_t count);
        int64_t ocall_sendmsg(int64_t fd, [in, size=count] void* buf,
                              size_t count);
        int64_t ocall_recv(int64_t fd, [out, size=count] void* buf,
                           size_t count);
        int64_t ocall_writev(int64_t fd, [in, size=count] void* buf,
                             size_t count);
        int64_t ocall_sendto(int64_t fd, [in, size=count] void* buf,
                             size_t count, int64_t dst_port);
        int64_t ocall_recvfrom(int64_t fd, [out, size=count] void* buf,
                               size_t count);
        int64_t ocall_sendfile(int64_t out_fd, int64_t in_fd,
                               uint64_t offset, size_t count);
        int64_t ocall_accept(int64_t fd);
        int64_t ocall_close(int64_t fd);
        int64_t ocall_open([in, string] const char* path);
        int64_t ocall_fxstat64(int64_t fd, [out, size=8] void* size_out);
        int64_t ocall_fcntl(int64_t fd, int64_t op);
        int64_t ocall_ioctl(int64_t fd, int64_t op);
        int64_t ocall_setsockopt(int64_t fd, int64_t opt);
        int64_t ocall_shutdown(int64_t fd);
        int64_t ocall_epoll_create();
        int64_t ocall_epoll_ctl(int64_t epfd, int64_t op, int64_t fd);
        int64_t ocall_epoll_wait(int64_t epfd,
                                 [out, count=max_events] int64_t* ready,
                                 size_t max_events, uint64_t timeout);
        int64_t ocall_poll([in, out, count=nfds] int64_t* fds,
                           size_t nfds, uint64_t timeout);
        int64_t ocall_time();
        int64_t ocall_gettimeofday();
        int64_t ocall_getpid();
        int64_t ocall_inet_ntop(int64_t addr);
        int64_t ocall_inet_addr(int64_t packed);
        int64_t ocall_listen(int64_t port);
        int64_t ocall_connect(int64_t port);
        int64_t ocall_udp_socket(int64_t side, int64_t port);
    };
};
)EDL";

namespace {

using edl::Arg;
using edl::StagedCall;

/** epoll_ctl op codes carried through the generic ocall. */
constexpr int kEpollAdd = 1;
constexpr int kEpollDel = 2;

/** TCS pool of a ported enclave. */
constexpr int kNumTcs = 8;

/** Entries of the fd array epoll_wait and poll pass (fdScratch_). */
constexpr int kMaxFds = 128;

std::uint64_t
toUnsigned(std::int64_t v)
{
    return static_cast<std::uint64_t>(v);
}

/** A signed scalar argument (an fd, port or op) as an EDL int64_t. */
Arg
intArg(std::int64_t v)
{
    return Arg::value(toUnsigned(v));
}

/** Scalar parameter @p index of @p c read back as an int. */
int
intAt(const StagedCall &c, int index)
{
    return static_cast<int>(c.scalar(index));
}

/** A pointer argument over plain host bytes, with no simulated
 *  address: Native's own memory, which an unstaged call never prices. */
Arg
hostBytes(const void *data, std::uint64_t bytes)
{
    Arg a;
    a.data = static_cast<std::uint8_t *>(const_cast<void *>(data));
    a.capacity = bytes;
    return a;
}

/** Dispatch ids of kOsEdl's ocalls, in declaration order. */
enum OsCall : int {
    kRead, kWrite, kSend, kSendmsg, kRecv, kWritev, kSendto, kRecvfrom,
    kSendfile, kAccept, kClose, kOpen, kFxstat64, kFcntl, kIoctl,
    kSetsockopt, kShutdown, kEpollCreate, kEpollCtl, kEpollWait, kPoll,
    kTime, kGettimeofday, kGetpid, kInetNtop, kInetAddr, kListen,
    kConnect, kUdpSocket, kNumOsCalls
};

/** The untrusted side of an ocall, whichever route reaches it: the
 *  one place its syscall is made. */
using Landing = void (*)(os::Kernel &, StagedCall &);

struct OsCallInfo {
    const char *name;
    /** Table 2's name for the call in Native mode: the libc symbol an
     *  unmodified binary links, which for three calls is not the
     *  ocall's. */
    const char *nativeName;
    Landing land;
};

/** Every ocall of kOsEdl, indexed by OsCall. */
constexpr OsCallInfo kOsCalls[kNumOsCalls] = {
    {"ocall_read", "read", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.read(intAt(c, 0), c.data(1), c.scalar(2))));
     }},
    {"ocall_write", "write", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(
             toUnsigned(k.write(intAt(c, 0), c.data(1), c.scalar(2))));
     }},
    {"ocall_send", "send", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.send(intAt(c, 0), c.data(1), c.scalar(2))));
     }},
    {"ocall_sendmsg", "sendmsg", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.send(intAt(c, 0), c.data(1), c.scalar(2))));
     }},
    {"ocall_recv", "recv", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.recv(intAt(c, 0), c.data(1), c.scalar(2))));
     }},
    {"ocall_writev", "writev", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(
             toUnsigned(k.writev(intAt(c, 0), c.data(1), c.scalar(2))));
     }},
    {"ocall_sendto", "sendto", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.sendto(intAt(c, 0), c.data(1),
                                         c.scalar(2), intAt(c, 3))));
     }},
    {"ocall_recvfrom", "recvfrom", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(
             toUnsigned(k.recvfrom(intAt(c, 0), c.data(1), c.scalar(2))));
     }},
    {"ocall_sendfile", "sendfile64", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.sendfile(intAt(c, 0), intAt(c, 1),
                                           c.scalar(2), c.scalar(3))));
     }},
    {"ocall_accept", "accept", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.accept(intAt(c, 0))));
     }},
    {"ocall_close", "close", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.close(intAt(c, 0))));
     }},
    {"ocall_open", "open64_2", [](os::Kernel &k, StagedCall &c) {
         const std::string path(reinterpret_cast<const char *>(c.data(0)));
         c.setRetval(toUnsigned(k.open(path)));
     }},
    {"ocall_fxstat64", "fxstat64", [](os::Kernel &k, StagedCall &c) {
         std::uint64_t size = 0;
         const int rc = k.fstat(intAt(c, 0), &size);
         std::memcpy(c.data(1), &size, sizeof(size));
         c.setRetval(toUnsigned(rc));
     }},
    {"ocall_fcntl", "fcntl", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.fcntl(intAt(c, 0), intAt(c, 1))));
     }},
    {"ocall_ioctl", "ioctl", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.ioctl(intAt(c, 0), intAt(c, 1))));
     }},
    {"ocall_setsockopt", "setsockopt", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.setsockopt(intAt(c, 0), intAt(c, 1))));
     }},
    {"ocall_shutdown", "shutdown", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.shutdown(intAt(c, 0))));
     }},
    {"ocall_epoll_create", "epoll_create", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.epollCreate()));
     }},
    {"ocall_epoll_ctl", "epoll_ctl", [](os::Kernel &k, StagedCall &c) {
         const int epfd = intAt(c, 0);
         const int fd = intAt(c, 2);
         c.setRetval(toUnsigned(intAt(c, 1) == kEpollAdd
                                    ? k.epollCtlAdd(epfd, fd)
                                    : k.epollCtlDel(epfd, fd)));
     }},
    {"ocall_epoll_wait", "epoll_wait", [](os::Kernel &k, StagedCall &c) {
         std::vector<int> ready;
         const int n =
             k.epollWait(intAt(c, 0), ready, intAt(c, 2), c.scalar(3));
         auto *out = reinterpret_cast<std::int64_t *>(c.data(1));
         for (int i = 0; i < n; ++i)
             out[i] = ready[static_cast<std::size_t>(i)];
         c.setRetval(toUnsigned(n));
     }},
    {"ocall_poll", "poll", [](os::Kernel &k, StagedCall &c) {
         auto *fds = reinterpret_cast<std::int64_t *>(c.data(0));
         const std::size_t nfds = c.scalar(1);
         std::vector<int> in(nfds), ready;
         for (std::size_t i = 0; i < nfds; ++i)
             in[i] = static_cast<int>(fds[i]);
         const int n = k.poll(in, ready, c.scalar(2));
         for (int i = 0; i < n; ++i)
             fds[i] = ready[static_cast<std::size_t>(i)];
         c.setRetval(toUnsigned(n));
     }},
    {"ocall_time", "time", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(k.timeSeconds());
     }},
    {"ocall_gettimeofday", "gettimeofday", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(k.timeMicros());
     }},
    {"ocall_getpid", "getpid", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.getpid()));
     }},
    {"ocall_inet_ntop", "inet_ntop", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(k.inetNtop(static_cast<std::uint32_t>(c.scalar(0))));
     }},
    {"ocall_inet_addr", "inet_addr", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(k.inetAddr(c.scalar(0)));
     }},
    {"ocall_listen", "listen", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.listenTcp(intAt(c, 0))));
     }},
    {"ocall_connect", "connect", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.connectTcp(intAt(c, 0))));
     }},
    {"ocall_udp_socket", "socket", [](os::Kernel &k, StagedCall &c) {
         c.setRetval(toUnsigned(k.udpSocket(intAt(c, 0), intAt(c, 1))));
     }},
};

/** kOsEdl parsed once, with the plans by which Native's unstaged calls
 *  resolve their parameters. */
struct OsInterface {
    edl::EdlFile edl = edl::parseEdl(kOsEdl);
    std::vector<edl::CallPlan> plans;

    OsInterface()
    {
        // The OsCall ids must be kOsEdl's dispatch ids.
        hc_assert(edl.untrusted.size() == kNumOsCalls);
        for (int id = 0; id < kNumOsCalls; ++id) {
            hc_assert(edl.untrusted[id].name == kOsCalls[id].name);
            plans.emplace_back(edl.untrusted[id]);
        }
    }
};

const OsInterface &
osInterface()
{
    static const OsInterface iface;
    return iface;
}

} // anonymous namespace

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Native:
        return "native";
      case Mode::Sgx:
        return "sgx";
      case Mode::SgxHotCalls:
        return "sgx+hotcalls";
    }
    return "?";
}

PortedApp::PortedApp(sgx::SgxPlatform &platform, os::Kernel &kernel,
                     const std::string &name, PortConfig config)
    : platform_(platform), kernel_(kernel), config_(std::move(config))
{
    if (config_.mode == Mode::Native) {
        // No enclave to keep the utilities in: they are libc calls.
        config_.utilitiesInEnclave = false;
        nativeCounts_.assign(kNumOsCalls, 0);
    } else {
        runtime_ = std::make_unique<sdk::EnclaveRuntime>(
            platform_, name, kOsEdl, kNumTcs, config_.marshal);
        for (int id = 0; id < kNumOsCalls; ++id) {
            hc_assert(runtime_->ocallName(id) == kOsCalls[id].name);
            runtime_->registerOcall(
                kOsCalls[id].name,
                [land = kOsCalls[id].land, &k = kernel_](StagedCall &c) {
                    land(k, c);
                });
        }
        runFunctionId_ = runtime_->ecallId("ecall_run_function");
        runtime_->registerEcall(
            "ecall_run_function", [this](StagedCall &c) {
                const auto handle =
                    static_cast<std::size_t>(c.scalar(0));
                hc_assert(handle < functions_.size());
                functions_[handle](c.scalar(1));
                c.setRetval(0);
            });

        hotById_.assign(kNumOsCalls, false);
        if (config_.mode == Mode::SgxHotCalls) {
            for (int id = 0; id < kNumOsCalls; ++id) {
                hotById_[id] = config_.hotOcalls.empty() ||
                               config_.hotOcalls.contains(kOsCalls[id].name);
            }
            // All app threads share one multi-slot ring per direction;
            // the ocall pool may scale onto the configured extra cores
            // under load.
            hotcalls::HotQueueConfig ocall_cfg;
            ocall_cfg.fastPath = config_.fastPath;
            ocall_cfg.responderCores = {config_.hotOcallCore};
            ocall_cfg.responderCores.insert(
                ocall_cfg.responderCores.end(),
                config_.extraHotOcallCores.begin(),
                config_.extraHotOcallCores.end());
            hotOcalls_ = std::make_unique<hotcalls::HotQueue>(
                *runtime_, hotcalls::Kind::HotOcall, ocall_cfg);
            hotcalls::HotQueueConfig ecall_cfg = ocall_cfg;
            ecall_cfg.responderCores = {config_.hotEcallCore};
            hotEcalls_ = std::make_unique<hotcalls::HotQueue>(
                *runtime_, hotcalls::Kind::HotEcall, ecall_cfg);
        }
    }
    fdScratch_ = std::make_unique<mem::Buffer>(
        kernel_.machine(), dataDomain(), kMaxFds * sizeof(std::int64_t));
}

PortedApp::~PortedApp() = default;

void
PortedApp::declareImports(const std::vector<std::string> &imports)
{
    // Play the linker: every external reference must resolve to a
    // generated ocall wrapper (or a libc function we provide).
    const edl::EdlFile &edl = osInterface().edl;
    std::string missing;
    for (const auto &name : imports) {
        if (!edl.findUntrusted("ocall_" + name))
            missing += " " + name;
    }
    if (!missing.empty()) {
        fatal("undefined reference(s) while porting:%s "
              "(no generated ocall wrapper)",
              missing.c_str());
    }
}

void
PortedApp::startHotCalls()
{
    if (hotOcalls_)
        hotOcalls_->start();
    if (hotEcalls_)
        hotEcalls_->start();
}

void
PortedApp::stopHotCalls()
{
    if (hotOcalls_)
        hotOcalls_->stop();
    if (hotEcalls_)
        hotEcalls_->stop();
}

int
PortedApp::registerFunction(std::function<void(std::uint64_t)> fn)
{
    functions_.push_back(std::move(fn));
    return static_cast<int>(functions_.size() - 1);
}

void
PortedApp::runEnclaveFunction(int handle, std::uint64_t arg)
{
    const edl::Args args = {Arg::value(static_cast<std::uint64_t>(handle)),
                            Arg::value(arg)};
    switch (config_.mode) {
      case Mode::Native:
        ++nativeRuns_;
        kernel_.machine().engine().advance(25); // indirect call
        functions_[static_cast<std::size_t>(handle)](arg);
        break;
      case Mode::Sgx:
        runtime_->ecall(runFunctionId_, args);
        break;
      case Mode::SgxHotCalls:
        hotEcalls_->call(runFunctionId_, args);
        break;
    }
}

std::int64_t
PortedApp::osCall(int id, const edl::Args &args)
{
    const auto index = static_cast<std::size_t>(id);
    std::uint64_t rv;
    if (config_.mode == Mode::Native) {
        // No boundary to cross: the landing runs on the caller's own
        // bytes, with nothing staged or charged on the way.
        ++nativeCounts_[index];
        StagedCall call(osInterface().plans[index], args);
        kOsCalls[id].land(kernel_, call);
        rv = call.retval();
    } else if (!hotById_[index]) {
        rv = runtime_->ocall(id, args);
    } else if (auto *injector = kernel_.machine().fault();
               injector && injector->fire(fault::Site::PortFallback)) {
        // Fault plan reroutes this hot-eligible ocall down the
        // conventional SDK path (fallback-plane storm).
        ++forcedFallbacks_;
        rv = runtime_->ocall(id, args);
    } else {
        rv = hotOcalls_->call(id, args);
    }
    return static_cast<std::int64_t>(rv);
}

// ----------------------------------------------------------------------
// The libc surface: each method packs its arguments once and osCall()
// takes them to the call's landing in kOsCalls.
// ----------------------------------------------------------------------

std::int64_t
PortedApp::read(int fd, mem::Buffer &buf, std::uint64_t count)
{
    return osCall(kRead, {intArg(fd), Arg::buffer(buf), Arg::value(count)});
}

std::int64_t
PortedApp::write(int fd, mem::Buffer &buf, std::uint64_t count)
{
    return osCall(kWrite, {intArg(fd), Arg::buffer(buf), Arg::value(count)});
}

std::int64_t
PortedApp::send(int fd, mem::Buffer &buf, std::uint64_t count)
{
    return osCall(kSend, {intArg(fd), Arg::buffer(buf), Arg::value(count)});
}

std::int64_t
PortedApp::sendmsg(int fd, mem::Buffer &buf, std::uint64_t count)
{
    return osCall(kSendmsg,
                  {intArg(fd), Arg::buffer(buf), Arg::value(count)});
}

std::int64_t
PortedApp::recv(int fd, mem::Buffer &buf, std::uint64_t count)
{
    return osCall(kRecv, {intArg(fd), Arg::buffer(buf), Arg::value(count)});
}

std::int64_t
PortedApp::writev(int fd, mem::Buffer &buf, std::uint64_t count)
{
    return osCall(kWritev,
                  {intArg(fd), Arg::buffer(buf), Arg::value(count)});
}

std::int64_t
PortedApp::sendto(int fd, mem::Buffer &buf, std::uint64_t count,
                  int dst_port)
{
    return osCall(kSendto, {intArg(fd), Arg::buffer(buf),
                            Arg::value(count), intArg(dst_port)});
}

std::int64_t
PortedApp::recvfrom(int fd, mem::Buffer &buf, std::uint64_t count)
{
    return osCall(kRecvfrom,
                  {intArg(fd), Arg::buffer(buf), Arg::value(count)});
}

std::int64_t
PortedApp::sendfile(int out_fd, int in_fd, std::uint64_t offset,
                    std::uint64_t count)
{
    return osCall(kSendfile, {intArg(out_fd), intArg(in_fd),
                              Arg::value(offset), Arg::value(count)});
}

std::int64_t
PortedApp::accept(int fd)
{
    return osCall(kAccept, {intArg(fd)});
}

std::int64_t
PortedApp::close(int fd)
{
    return osCall(kClose, {intArg(fd)});
}

std::int64_t
PortedApp::open(const std::string &path)
{
    if (config_.mode == Mode::Native)
        return osCall(kOpen, {hostBytes(path.c_str(), path.size() + 1)});
    // Stage the path string through a temporary buffer argument.
    mem::Buffer path_buf(machine(), dataDomain(), path.size() + 1);
    std::memcpy(path_buf.data(), path.c_str(), path.size() + 1);
    return osCall(kOpen, {Arg::buffer(path_buf)});
}

std::int64_t
PortedApp::fstat(int fd, std::uint64_t *size_out)
{
    if (config_.mode == Mode::Native)
        return osCall(kFxstat64,
                      {intArg(fd), hostBytes(size_out, sizeof(*size_out))});
    mem::Buffer out(machine(), dataDomain(), sizeof(*size_out));
    const auto rc = osCall(kFxstat64, {intArg(fd), Arg::buffer(out)});
    std::memcpy(size_out, out.data(), sizeof(*size_out));
    return rc;
}

std::int64_t
PortedApp::fcntl(int fd, int op)
{
    return osCall(kFcntl, {intArg(fd), intArg(op)});
}

std::int64_t
PortedApp::ioctl(int fd, int op)
{
    return osCall(kIoctl, {intArg(fd), intArg(op)});
}

std::int64_t
PortedApp::setsockopt(int fd, int opt)
{
    return osCall(kSetsockopt, {intArg(fd), intArg(opt)});
}

std::int64_t
PortedApp::shutdown(int fd)
{
    return osCall(kShutdown, {intArg(fd)});
}

std::int64_t
PortedApp::epollCreate()
{
    return osCall(kEpollCreate, {});
}

std::int64_t
PortedApp::epollCtlAdd(int epfd, int fd)
{
    return osCall(kEpollCtl, {intArg(epfd), intArg(kEpollAdd), intArg(fd)});
}

std::int64_t
PortedApp::epollCtlDel(int epfd, int fd)
{
    return osCall(kEpollCtl, {intArg(epfd), intArg(kEpollDel), intArg(fd)});
}

std::int64_t
PortedApp::epollWait(int epfd, std::vector<int> &ready, int max_events,
                     Cycles timeout)
{
    // The event array is the fd scratch: at most kMaxFds events, and
    // a negative count asks for none.
    max_events = std::clamp(max_events, 0, kMaxFds);
    const auto n = osCall(kEpollWait,
                          {intArg(epfd), Arg::buffer(*fdScratch_),
                           intArg(max_events), Arg::value(timeout)});
    if (n < 0)
        return n; // a failed wait reports nothing
    ready.clear();
    const auto *out =
        reinterpret_cast<const std::int64_t *>(fdScratch_->data());
    for (std::int64_t i = 0; i < n; ++i)
        ready.push_back(static_cast<int>(out[i]));
    return n;
}

std::int64_t
PortedApp::poll(const std::vector<int> &fds, std::vector<int> &ready,
                Cycles timeout)
{
    hc_assert(fds.size() <= kMaxFds);
    auto *scratch =
        reinterpret_cast<std::int64_t *>(fdScratch_->data());
    for (std::size_t i = 0; i < fds.size(); ++i)
        scratch[i] = fds[i];
    const auto n = osCall(kPoll, {Arg::buffer(*fdScratch_),
                                  Arg::value(fds.size()),
                                  Arg::value(timeout)});
    ready.clear();
    for (std::int64_t i = 0; i < n; ++i)
        ready.push_back(static_cast<int>(scratch[i]));
    return n;
}

std::int64_t
PortedApp::listen(int port)
{
    return osCall(kListen, {intArg(port)});
}

std::int64_t
PortedApp::connect(int port)
{
    return osCall(kConnect, {intArg(port)});
}

std::int64_t
PortedApp::udpSocket(int side, int port)
{
    return osCall(kUdpSocket, {intArg(side), intArg(port)});
}

std::int64_t
PortedApp::time()
{
    return osCall(kTime, {});
}

std::int64_t
PortedApp::gettimeofday()
{
    return osCall(kGettimeofday, {});
}

std::int64_t
PortedApp::getpid()
{
    return osCall(kGetpid, {});
}

std::int64_t
PortedApp::inetNtop(std::uint32_t addr)
{
    if (config_.utilitiesInEnclave) {
        // Pure string formatting needs no OS: run it as trusted
        // code (slightly dearer per byte — it executes from
        // encrypted memory) and skip the ~8.3k-cycle ocall.
        ++inEnclaveCounts_["inet_ntop(enclave)"];
        kernel_.machine().engine().advance(180);
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(addr) | 0x100000000ull);
    }
    return osCall(kInetNtop, {Arg::value(addr)});
}

std::int64_t
PortedApp::inetAddr(std::uint64_t packed)
{
    if (config_.utilitiesInEnclave) {
        ++inEnclaveCounts_["inet_addr(enclave)"];
        kernel_.machine().engine().advance(160);
        return static_cast<std::int64_t>(
            static_cast<std::uint32_t>(packed & 0xffffffffu));
    }
    return osCall(kInetAddr, {Arg::value(packed)});
}

std::map<std::string, std::uint64_t>
PortedApp::callCounts() const
{
    const bool native = config_.mode == Mode::Native;
    std::map<std::string, std::uint64_t> counts = inEnclaveCounts_;
    const auto &ocalls = native ? nativeCounts_ : runtime_->ocallCounts();
    for (int id = 0; id < kNumOsCalls; ++id) {
        const std::uint64_t n = ocalls[static_cast<std::size_t>(id)];
        // Under SGX a call goes by its ocall's name less "ocall_".
        if (n > 0)
            counts[native ? kOsCalls[id].nativeName
                          : kOsCalls[id].name + 6] += n;
    }
    const std::uint64_t runs =
        native ? nativeRuns_
               : runtime_->ecallCounts()[static_cast<std::size_t>(
                     runFunctionId_)];
    if (runs > 0)
        counts["RunEnclaveFucntion"] = runs; // the paper's name (sic)
    return counts;
}

void
PortedApp::resetCounters()
{
    nativeCounts_.assign(nativeCounts_.size(), 0);
    nativeRuns_ = 0;
    inEnclaveCounts_.clear();
    if (runtime_)
        runtime_->resetCounters();
}

} // namespace hc::port
