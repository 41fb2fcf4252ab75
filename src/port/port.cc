/**
 * @file
 * Porting framework implementation.
 */

#include "port/port.hh"

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

/** epoll_ctl op codes carried through the generic ocall. */
constexpr int kEpollAdd = 1;
constexpr int kEpollDel = 2;

std::int64_t
toSigned(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

std::uint64_t
toUnsigned(std::int64_t v)
{
    return static_cast<std::uint64_t>(v);
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
    if (config_.mode != Mode::Native) {
        runtime_ = std::make_unique<sdk::EnclaveRuntime>(
            platform_, name, kOsEdl, config_.numTcs, config_.marshal);
        registerLandings();
        runtime_->registerEcall(
            "ecall_run_function", [this](edl::StagedCall &c) {
                const auto handle =
                    static_cast<std::size_t>(c.scalar(0));
                hc_assert(handle < functions_.size());
                functions_[handle](c.scalar(1));
                c.setRetval(0);
            });

        const auto &ocalls = runtime_->edlFile().untrusted;
        hotById_.assign(ocalls.size(), false);
        if (config_.mode == Mode::SgxHotCalls) {
            for (std::size_t i = 0; i < ocalls.size(); ++i) {
                hotById_[i] = config_.hotOcalls.empty() ||
                              config_.hotOcalls.count(ocalls[i].name) >
                                  0;
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
        kernel_.machine(), dataDomain(), 128 * sizeof(std::int64_t));
}

PortedApp::~PortedApp() = default;

void
PortedApp::declareImports(const std::vector<std::string> &imports)
{
    // Play the linker: every external reference must resolve to a
    // generated ocall wrapper (or a libc function we provide).
    const edl::EdlFile edl = edl::parseEdl(kOsEdl);
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
    const edl::Args args = {
        edl::Arg::value(static_cast<std::uint64_t>(handle)),
        edl::Arg::value(arg)};
    switch (config_.mode) {
      case Mode::Native:
        countNative("RunEnclaveFucntion");
        kernel_.machine().engine().advance(25); // indirect call
        functions_[static_cast<std::size_t>(handle)](arg);
        break;
      case Mode::Sgx:
        runtime_->ecall("ecall_run_function", args);
        break;
      case Mode::SgxHotCalls:
        hotEcalls_->call("ecall_run_function", args);
        break;
    }
}

void
PortedApp::countNative(const std::string &name)
{
    ++nativeCounts_[name];
}

std::uint64_t
PortedApp::osCall(const std::string &name, const edl::Args &args)
{
    const int id = runtime_->ocallId(name);
    if (config_.mode == Mode::SgxHotCalls &&
        hotById_[static_cast<std::size_t>(id)]) {
        auto *injector = kernel_.machine().fault();
        if (injector &&
            injector->fire(fault::Site::PortFallback)) {
            // Fault plan reroutes this hot-eligible ocall down the
            // conventional SDK path (fallback-plane storm).
            ++forcedFallbacks_;
            return runtime_->ocall(id, args);
        }
        return hotOcalls_->call(id, args);
    }
    return runtime_->ocall(id, args);
}

// ----------------------------------------------------------------------
// Landing functions: the untrusted side of every generated ocall.
// ----------------------------------------------------------------------

void
PortedApp::registerLandings()
{
    auto &rt = *runtime_;
    auto &k = kernel_;

    rt.registerOcall("ocall_read", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.read(static_cast<int>(c.scalar(0)),
                                      c.data(1), c.scalar(2))));
    });
    rt.registerOcall("ocall_write", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.write(static_cast<int>(c.scalar(0)),
                                       c.data(1), c.scalar(2))));
    });
    rt.registerOcall("ocall_send", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.send(static_cast<int>(c.scalar(0)),
                                      c.data(1), c.scalar(2))));
    });
    rt.registerOcall("ocall_sendmsg", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.send(static_cast<int>(c.scalar(0)),
                                      c.data(1), c.scalar(2))));
    });
    rt.registerOcall("ocall_recv", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.recv(static_cast<int>(c.scalar(0)),
                                      c.data(1), c.scalar(2))));
    });
    rt.registerOcall("ocall_writev", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.writev(static_cast<int>(c.scalar(0)),
                                        c.data(1), c.scalar(2))));
    });
    rt.registerOcall("ocall_sendto", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(
            k.sendto(static_cast<int>(c.scalar(0)), c.data(1),
                     c.scalar(2), static_cast<int>(c.scalar(3)))));
    });
    rt.registerOcall("ocall_recvfrom", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.recvfrom(
            static_cast<int>(c.scalar(0)), c.data(1), c.scalar(2))));
    });
    rt.registerOcall("ocall_sendfile", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(
            k.sendfile(static_cast<int>(c.scalar(0)),
                       static_cast<int>(c.scalar(1)), c.scalar(2),
                       c.scalar(3))));
    });
    rt.registerOcall("ocall_accept", [&k](edl::StagedCall &c) {
        c.setRetval(
            toUnsigned(k.accept(static_cast<int>(c.scalar(0)))));
    });
    rt.registerOcall("ocall_close", [&k](edl::StagedCall &c) {
        c.setRetval(
            toUnsigned(k.close(static_cast<int>(c.scalar(0)))));
    });
    rt.registerOcall("ocall_open", [&k](edl::StagedCall &c) {
        const std::string path(
            reinterpret_cast<const char *>(c.data(0)));
        c.setRetval(toUnsigned(k.open(path)));
    });
    rt.registerOcall("ocall_fxstat64", [&k](edl::StagedCall &c) {
        std::uint64_t size = 0;
        const int rc = k.fstat(static_cast<int>(c.scalar(0)), &size);
        std::memcpy(c.data(1), &size, sizeof(size));
        c.setRetval(toUnsigned(rc));
    });
    rt.registerOcall("ocall_fcntl", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.fcntl(static_cast<int>(c.scalar(0)),
                                       static_cast<int>(c.scalar(1)))));
    });
    rt.registerOcall("ocall_ioctl", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.ioctl(static_cast<int>(c.scalar(0)),
                                       static_cast<int>(c.scalar(1)))));
    });
    rt.registerOcall("ocall_setsockopt", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(
            k.setsockopt(static_cast<int>(c.scalar(0)),
                         static_cast<int>(c.scalar(1)))));
    });
    rt.registerOcall("ocall_shutdown", [&k](edl::StagedCall &c) {
        c.setRetval(
            toUnsigned(k.shutdown(static_cast<int>(c.scalar(0)))));
    });
    rt.registerOcall("ocall_epoll_create", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.epollCreate()));
    });
    rt.registerOcall("ocall_epoll_ctl", [&k](edl::StagedCall &c) {
        const int epfd = static_cast<int>(c.scalar(0));
        const int op = static_cast<int>(c.scalar(1));
        const int fd = static_cast<int>(c.scalar(2));
        c.setRetval(toUnsigned(op == kEpollAdd
                                   ? k.epollCtlAdd(epfd, fd)
                                   : k.epollCtlDel(epfd, fd)));
    });
    rt.registerOcall("ocall_epoll_wait", [&k](edl::StagedCall &c) {
        std::vector<int> ready;
        const int n = k.epollWait(static_cast<int>(c.scalar(0)), ready,
                                  static_cast<int>(c.scalar(2)),
                                  c.scalar(3));
        auto *out = reinterpret_cast<std::int64_t *>(c.data(1));
        for (int i = 0; i < n; ++i)
            out[i] = ready[static_cast<std::size_t>(i)];
        c.setRetval(toUnsigned(n));
    });
    rt.registerOcall("ocall_poll", [&k](edl::StagedCall &c) {
        auto *fds = reinterpret_cast<std::int64_t *>(c.data(0));
        const std::size_t nfds = c.scalar(1);
        std::vector<int> in(nfds), ready;
        for (std::size_t i = 0; i < nfds; ++i)
            in[i] = static_cast<int>(fds[i]);
        const int n = k.poll(in, ready, c.scalar(2));
        for (int i = 0; i < n; ++i)
            fds[i] = ready[static_cast<std::size_t>(i)];
        c.setRetval(toUnsigned(n));
    });
    rt.registerOcall("ocall_time", [&k](edl::StagedCall &c) {
        c.setRetval(k.timeSeconds());
    });
    rt.registerOcall("ocall_gettimeofday", [&k](edl::StagedCall &c) {
        c.setRetval(k.timeMicros());
    });
    rt.registerOcall("ocall_getpid", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(k.getpid()));
    });
    rt.registerOcall("ocall_inet_ntop", [&k](edl::StagedCall &c) {
        c.setRetval(
            k.inetNtop(static_cast<std::uint32_t>(c.scalar(0))));
    });
    rt.registerOcall("ocall_inet_addr", [&k](edl::StagedCall &c) {
        c.setRetval(k.inetAddr(c.scalar(0)));
    });
    rt.registerOcall("ocall_listen", [&k](edl::StagedCall &c) {
        c.setRetval(
            toUnsigned(k.listenTcp(static_cast<int>(c.scalar(0)))));
    });
    rt.registerOcall("ocall_connect", [&k](edl::StagedCall &c) {
        c.setRetval(
            toUnsigned(k.connectTcp(static_cast<int>(c.scalar(0)))));
    });
    rt.registerOcall("ocall_udp_socket", [&k](edl::StagedCall &c) {
        c.setRetval(toUnsigned(
            k.udpSocket(static_cast<int>(c.scalar(0)),
                        static_cast<int>(c.scalar(1)))));
    });
}

// ----------------------------------------------------------------------
// The libc surface.
// ----------------------------------------------------------------------

std::int64_t
PortedApp::read(int fd, mem::Buffer &buf, std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("read");
        return kernel_.read(fd, buf.data(), count);
    }
    return toSigned(osCall("ocall_read",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::write(int fd, mem::Buffer &buf, std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("write");
        return kernel_.write(fd, buf.data(), count);
    }
    return toSigned(osCall("ocall_write",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::send(int fd, mem::Buffer &buf, std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("send");
        return kernel_.send(fd, buf.data(), count);
    }
    return toSigned(osCall("ocall_send",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::sendmsg(int fd, mem::Buffer &buf, std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("sendmsg");
        return kernel_.send(fd, buf.data(), count);
    }
    return toSigned(osCall("ocall_sendmsg",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::recv(int fd, mem::Buffer &buf, std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("recv");
        return kernel_.recv(fd, buf.data(), count);
    }
    return toSigned(osCall("ocall_recv",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::writev(int fd, mem::Buffer &buf, std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("writev");
        return kernel_.writev(fd, buf.data(), count);
    }
    return toSigned(osCall("ocall_writev",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::sendto(int fd, mem::Buffer &buf, std::uint64_t count,
                  int dst_port)
{
    if (config_.mode == Mode::Native) {
        countNative("sendto");
        return kernel_.sendto(fd, buf.data(), count, dst_port);
    }
    return toSigned(osCall("ocall_sendto",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count),
                            edl::Arg::value(toUnsigned(dst_port))}));
}

std::int64_t
PortedApp::recvfrom(int fd, mem::Buffer &buf, std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("recvfrom");
        return kernel_.recvfrom(fd, buf.data(), count);
    }
    return toSigned(osCall("ocall_recvfrom",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::buffer(buf),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::sendfile(int out_fd, int in_fd, std::uint64_t offset,
                    std::uint64_t count)
{
    if (config_.mode == Mode::Native) {
        countNative("sendfile64");
        return kernel_.sendfile(out_fd, in_fd, offset, count);
    }
    return toSigned(osCall("ocall_sendfile",
                           {edl::Arg::value(toUnsigned(out_fd)),
                            edl::Arg::value(toUnsigned(in_fd)),
                            edl::Arg::value(offset),
                            edl::Arg::value(count)}));
}

std::int64_t
PortedApp::accept(int fd)
{
    if (config_.mode == Mode::Native) {
        countNative("accept");
        return kernel_.accept(fd);
    }
    return toSigned(
        osCall("ocall_accept", {edl::Arg::value(toUnsigned(fd))}));
}

std::int64_t
PortedApp::close(int fd)
{
    if (config_.mode == Mode::Native) {
        countNative("close");
        return kernel_.close(fd);
    }
    return toSigned(
        osCall("ocall_close", {edl::Arg::value(toUnsigned(fd))}));
}

std::int64_t
PortedApp::open(const std::string &path)
{
    if (config_.mode == Mode::Native) {
        countNative("open64_2");
        return kernel_.open(path);
    }
    // Stage the path string through a temporary buffer argument.
    mem::Buffer path_buf(machine(), dataDomain(), path.size() + 1);
    std::memcpy(path_buf.data(), path.c_str(), path.size() + 1);
    return toSigned(
        osCall("ocall_open", {edl::Arg::buffer(path_buf)}));
}

std::int64_t
PortedApp::fstat(int fd, std::uint64_t *size_out)
{
    if (config_.mode == Mode::Native) {
        countNative("fxstat64");
        return kernel_.fstat(fd, size_out);
    }
    mem::Buffer out(machine(), dataDomain(), 8);
    const auto rc = toSigned(
        osCall("ocall_fxstat64", {edl::Arg::value(toUnsigned(fd)),
                                  edl::Arg::buffer(out)}));
    std::memcpy(size_out, out.data(), 8);
    return rc;
}

std::int64_t
PortedApp::fcntl(int fd, int op)
{
    if (config_.mode == Mode::Native) {
        countNative("fcntl");
        return kernel_.fcntl(fd, op);
    }
    return toSigned(osCall("ocall_fcntl",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::value(toUnsigned(op))}));
}

std::int64_t
PortedApp::ioctl(int fd, int op)
{
    if (config_.mode == Mode::Native) {
        countNative("ioctl");
        return kernel_.ioctl(fd, op);
    }
    return toSigned(osCall("ocall_ioctl",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::value(toUnsigned(op))}));
}

std::int64_t
PortedApp::setsockopt(int fd, int opt)
{
    if (config_.mode == Mode::Native) {
        countNative("setsockopt");
        return kernel_.setsockopt(fd, opt);
    }
    return toSigned(osCall("ocall_setsockopt",
                           {edl::Arg::value(toUnsigned(fd)),
                            edl::Arg::value(toUnsigned(opt))}));
}

std::int64_t
PortedApp::shutdown(int fd)
{
    if (config_.mode == Mode::Native) {
        countNative("shutdown");
        return kernel_.shutdown(fd);
    }
    return toSigned(
        osCall("ocall_shutdown", {edl::Arg::value(toUnsigned(fd))}));
}

std::int64_t
PortedApp::epollCreate()
{
    if (config_.mode == Mode::Native) {
        countNative("epoll_create");
        return kernel_.epollCreate();
    }
    return toSigned(osCall("ocall_epoll_create", {}));
}

std::int64_t
PortedApp::epollCtlAdd(int epfd, int fd)
{
    if (config_.mode == Mode::Native) {
        countNative("epoll_ctl");
        return kernel_.epollCtlAdd(epfd, fd);
    }
    return toSigned(osCall("ocall_epoll_ctl",
                           {edl::Arg::value(toUnsigned(epfd)),
                            edl::Arg::value(kEpollAdd),
                            edl::Arg::value(toUnsigned(fd))}));
}

std::int64_t
PortedApp::epollCtlDel(int epfd, int fd)
{
    if (config_.mode == Mode::Native) {
        countNative("epoll_ctl");
        return kernel_.epollCtlDel(epfd, fd);
    }
    return toSigned(osCall("ocall_epoll_ctl",
                           {edl::Arg::value(toUnsigned(epfd)),
                            edl::Arg::value(kEpollDel),
                            edl::Arg::value(toUnsigned(fd))}));
}

std::int64_t
PortedApp::epollWait(int epfd, std::vector<int> &ready, int max_events,
                     Cycles timeout)
{
    if (config_.mode == Mode::Native) {
        countNative("epoll_wait");
        return kernel_.epollWait(epfd, ready, max_events, timeout);
    }
    max_events = std::min<int>(max_events, 128);
    const auto n = toSigned(osCall(
        "ocall_epoll_wait",
        {edl::Arg::value(toUnsigned(epfd)),
         edl::Arg::buffer(*fdScratch_),
         edl::Arg::value(static_cast<std::uint64_t>(max_events)),
         edl::Arg::value(timeout)}));
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
    if (config_.mode == Mode::Native) {
        countNative("poll");
        return kernel_.poll(fds, ready, timeout);
    }
    hc_assert(fds.size() <= 128);
    auto *scratch =
        reinterpret_cast<std::int64_t *>(fdScratch_->data());
    for (std::size_t i = 0; i < fds.size(); ++i)
        scratch[i] = fds[i];
    const auto n = toSigned(
        osCall("ocall_poll",
               {edl::Arg::buffer(*fdScratch_),
                edl::Arg::value(fds.size()),
                edl::Arg::value(timeout)}));
    ready.clear();
    for (std::int64_t i = 0; i < n; ++i)
        ready.push_back(static_cast<int>(scratch[i]));
    return n;
}

std::int64_t
PortedApp::listen(int port)
{
    if (config_.mode == Mode::Native) {
        countNative("listen");
        return kernel_.listenTcp(port);
    }
    return toSigned(
        osCall("ocall_listen", {edl::Arg::value(toUnsigned(port))}));
}

std::int64_t
PortedApp::connect(int port)
{
    if (config_.mode == Mode::Native) {
        countNative("connect");
        return kernel_.connectTcp(port);
    }
    return toSigned(
        osCall("ocall_connect", {edl::Arg::value(toUnsigned(port))}));
}

std::int64_t
PortedApp::udpSocket(int side, int port)
{
    if (config_.mode == Mode::Native) {
        countNative("socket");
        return kernel_.udpSocket(side, port);
    }
    return toSigned(osCall("ocall_udp_socket",
                           {edl::Arg::value(toUnsigned(side)),
                            edl::Arg::value(toUnsigned(port))}));
}

std::int64_t
PortedApp::time()
{
    if (config_.mode == Mode::Native) {
        countNative("time");
        return static_cast<std::int64_t>(kernel_.timeSeconds());
    }
    return toSigned(osCall("ocall_time", {}));
}

std::int64_t
PortedApp::gettimeofday()
{
    if (config_.mode == Mode::Native) {
        countNative("gettimeofday");
        return static_cast<std::int64_t>(kernel_.timeMicros());
    }
    return toSigned(osCall("ocall_gettimeofday", {}));
}

std::int64_t
PortedApp::getpid()
{
    if (config_.mode == Mode::Native) {
        countNative("getpid");
        return kernel_.getpid();
    }
    return toSigned(osCall("ocall_getpid", {}));
}

std::int64_t
PortedApp::inetNtop(std::uint32_t addr)
{
    if (config_.mode == Mode::Native) {
        countNative("inet_ntop");
        return static_cast<std::int64_t>(kernel_.inetNtop(addr));
    }
    if (config_.utilitiesInEnclave) {
        // Pure string formatting needs no OS: run it as trusted
        // code (slightly dearer per byte — it executes from
        // encrypted memory) and skip the ~8.3k-cycle ocall.
        ++inEnclaveCounts_["inet_ntop(enclave)"];
        kernel_.machine().engine().advance(180);
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(addr) | 0x100000000ull);
    }
    return toSigned(
        osCall("ocall_inet_ntop", {edl::Arg::value(addr)}));
}

std::int64_t
PortedApp::inetAddr(std::uint64_t packed)
{
    if (config_.mode == Mode::Native) {
        countNative("inet_addr");
        return static_cast<std::int64_t>(kernel_.inetAddr(packed));
    }
    if (config_.utilitiesInEnclave) {
        ++inEnclaveCounts_["inet_addr(enclave)"];
        kernel_.machine().engine().advance(160);
        return static_cast<std::int64_t>(
            static_cast<std::uint32_t>(packed & 0xffffffffu));
    }
    return toSigned(
        osCall("ocall_inet_addr", {edl::Arg::value(packed)}));
}

std::map<std::string, std::uint64_t>
PortedApp::callCounts() const
{
    std::map<std::string, std::uint64_t> counts;
    if (config_.mode == Mode::Native) {
        counts = nativeCounts_;
        return counts;
    }
    counts = inEnclaveCounts_;
    const auto &ocalls = runtime_->ocallCounts();
    for (std::size_t i = 0; i < ocalls.size(); ++i) {
        if (ocalls[i] == 0)
            continue;
        std::string name =
            runtime_->ocallName(static_cast<int>(i));
        if (name.rfind("ocall_", 0) == 0)
            name = name.substr(6);
        counts[name] += ocalls[i];
    }
    const auto &ecalls = runtime_->ecallCounts();
    for (std::size_t i = 0; i < ecalls.size(); ++i) {
        if (ecalls[i] == 0)
            continue;
        if (runtime_->ecallName(static_cast<int>(i)) ==
            "ecall_run_function") {
            // The paper's name (sic) for the callback ecall.
            counts["RunEnclaveFucntion"] += ecalls[i];
        }
    }
    return counts;
}

void
PortedApp::resetCounters()
{
    nativeCounts_.clear();
    inEnclaveCounts_.clear();
    if (runtime_)
        runtime_->resetCounters();
}

} // namespace hc::port
