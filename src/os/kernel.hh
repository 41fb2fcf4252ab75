/**
 * @file
 * Simulated operating system kernel.
 *
 * The applications the paper ports into SGX (memcached, openVPN,
 * lighttpd) are event-loop servers over POSIX: sockets, epoll/poll,
 * files, the clock. This kernel provides that surface for simulated
 * threads: a loopback TCP stack (memcached and lighttpd are driven
 * over loopback in the paper), UDP over a point-to-point 1 Gbit link
 * model (the openVPN testbed), a TUN device, an in-memory VFS, and
 * epoll/poll with fiber blocking. Every entry charges the 150-cycle
 * syscall cost the paper quotes from FlexSC plus per-byte copy costs.
 *
 * When an application runs inside an enclave, it reaches this kernel
 * only through ocalls (or HotCalls) via the porting layer in
 * src/port; in native mode it calls straight in.
 */

#ifndef HC_OS_KERNEL_HH
#define HC_OS_KERNEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/machine.hh"
#include "sim/engine.hh"

namespace hc::os {

/** Kernel cost parameters. */
struct OsCostParams {
    Cycles syscall = 150;       //!< base kernel entry/exit
    double copyPerByte = 0.08;  //!< kernel<->user copy
    Cycles epollWaitBase = 180;
    Cycles epollCtl = 160;
    Cycles pollBase = 160;
    Cycles pollPerFd = 25;
    Cycles acceptCost = 600;
    Cycles connectCost = 900;
    Cycles openCost = 450;
    Cycles closeCost = 250;
    Cycles sendfileBase = 300;
    /** Socket buffer capacity (bytes). */
    std::uint64_t socketBuf = 256 * 1024;
    /** Point-to-point link: 1 Gbit/s at 4 GHz = 32 cycles/byte. */
    double linkCyclesPerByte = 32.0;
    /** One-way link propagation + peer NIC/stack latency. */
    Cycles linkPropagation = 360'000; //!< 90 us
};

/** Errno-style results (negative return values). */
enum OsError : int {
    kEagain = -11,
    kEbadf = -9,
    kEnoent = -2,
    kEconnRefused = -111,
    kEmsgsize = -90,
    kEinval = -22, //!< epoll: a set added to itself, or no room for events
    kEloop = -40,  //!< epoll: nesting that would form a cycle
};

/** One datagram or stream chunk in flight. */
struct Packet {
    std::vector<std::uint8_t> data;
    Cycles availableAt = 0; //!< earliest receive time (link delay)
    int srcPort = 0;
};

/** The simulated kernel. */
class Kernel
{
  public:
    explicit Kernel(mem::Machine &machine, OsCostParams params = {});
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    mem::Machine &machine() { return machine_; }
    const OsCostParams &params() const { return params_; }

    // ------------------------------------------------------------------
    // VFS.
    // ------------------------------------------------------------------

    /** Populate a file (setup; no cycles charged). */
    void addFile(const std::string &path,
                 std::vector<std::uint8_t> contents);

    /** open(2). @return fd or kEnoent. */
    int open(const std::string &path);

    /** fstat(2): file size via @p size_out. */
    int fstat(int fd, std::uint64_t *size_out);

    // ------------------------------------------------------------------
    // Generic descriptor ops.
    // ------------------------------------------------------------------

    /** read(2): files, stream sockets, and TUN fds. */
    std::int64_t read(int fd, std::uint8_t *buf, std::uint64_t count);

    /** write(2). */
    std::int64_t write(int fd, const std::uint8_t *buf,
                       std::uint64_t count);

    /** close(2). */
    int close(int fd);

    /** fcntl(2) (flag bookkeeping only). */
    int fcntl(int fd, int op);

    /** ioctl(2) (charged; no-op). */
    int ioctl(int fd, int op);

    // ------------------------------------------------------------------
    // TCP over loopback.
    // ------------------------------------------------------------------

    /** Create a listening TCP socket on @p port. */
    int listenTcp(int port);

    /** Connect to a listening port; completes immediately. */
    int connectTcp(int port);

    /** accept(2): kEagain when no pending connection. */
    int accept(int listen_fd);

    /** send(2)/sendmsg(2): partial writes on full buffers. */
    std::int64_t send(int fd, const std::uint8_t *buf,
                      std::uint64_t count);

    /** recv(2): kEagain when empty (sockets are non-blocking). */
    std::int64_t recv(int fd, std::uint8_t *buf, std::uint64_t count);

    /** writev(2): as send, plus iovec gather cost. */
    std::int64_t writev(int fd, const std::uint8_t *buf,
                        std::uint64_t count);

    /** sendfile(2): file -> socket without a user-space copy. */
    std::int64_t sendfile(int out_fd, int in_fd, std::uint64_t offset,
                          std::uint64_t count);

    int setsockopt(int fd, int opt);
    int shutdown(int fd);

    // ------------------------------------------------------------------
    // UDP over the point-to-point link (the openVPN testbed).
    // ------------------------------------------------------------------

    /**
     * Create a UDP socket bound to @p port on one of the two link
     * endpoints (@p side 0 = device under test, 1 = remote peer).
     * Datagrams to the other side traverse the 1 Gbit link model.
     */
    int udpSocket(int side, int port);

    /** sendto(2): to @p dst_port on the other link side. */
    std::int64_t sendto(int fd, const std::uint8_t *buf,
                        std::uint64_t count, int dst_port);

    /** recvfrom(2): kEagain when nothing deliverable yet. */
    std::int64_t recvfrom(int fd, std::uint8_t *buf,
                          std::uint64_t count, int *src_port = nullptr);

    // ------------------------------------------------------------------
    // TUN device (paired packet queues).
    // ------------------------------------------------------------------

    /**
     * Create a TUN device. @return {app_fd, daemon_fd}: packets
     * written to one side are read from the other (read/write above).
     */
    std::pair<int, int> tunCreate();

    // ------------------------------------------------------------------
    // Readiness: epoll and poll.
    // ------------------------------------------------------------------

    int epollCreate();
    int epollCtlAdd(int epfd, int fd);
    /** Remove @p fd from set @p epfd. @return 0, kEbadf when either
     *  descriptor does not exist (or @p epfd is no set), or kEnoent
     *  when @p fd is not a member. */
    int epollCtlDel(int epfd, int fd);

    /**
     * Wait for readable fds.
     * @param ready     out: readable fds
     * @param max_events max entries to report; <= 0 is kEinval
     * @param timeout   cycles to wait (0 = poll, no blocking)
     * @return number of ready fds, or a negative OsError (@p ready is
     *         then left as it was)
     */
    int epollWait(int epfd, std::vector<int> &ready, int max_events,
                  Cycles timeout);

    /**
     * poll(2) over @p fds; @p ready gets the readable subset, plus
     * every fd with no descriptor (Linux's POLLNVAL), which makes the
     * call return at once.
     * @return number of ready fds (0 on timeout)
     */
    int poll(const std::vector<int> &fds, std::vector<int> &ready,
             Cycles timeout);

    /** Block the calling fiber until @p fd is readable. */
    void waitReadable(int fd);

    // ------------------------------------------------------------------
    // Clock and identity.
    // ------------------------------------------------------------------

    /** time(2): simulated seconds. */
    std::uint64_t timeSeconds();

    /** gettimeofday(2): simulated microseconds. */
    std::uint64_t timeMicros();

    /** getpid(2). */
    int getpid();

    /** inet_ntop/inet_addr stand-ins (libc work, no kernel entry). */
    std::uint64_t inetNtop(std::uint32_t addr);
    std::uint32_t inetAddr(std::uint64_t packed);

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /** @return bytes queued for reading on @p fd. */
    std::uint64_t pendingBytes(int fd) const;

  private:
    struct Desc;

    Desc *desc(int fd);
    const Desc *desc(int fd) const;
    int allocFd(std::unique_ptr<Desc> d);
    void charge(Cycles c);
    void chargeCopy(std::uint64_t bytes);

    /** True when a read on the descriptor would not block now. */
    bool readableNow(const Desc &d) const;

    /** Re-derive a file's, listener's or stream's readiness after a
     *  state change and update the ready counts of its sets. */
    void updateReady(Desc &d);

    /** Add @p fd to / remove it from set @p epfd, keeping the set's
     *  counts and the member's back-pointers; a no-op when it already
     *  is / is not a member. leaveSet() @return whether it was one. */
    void joinSet(int epfd, int fd);
    bool leaveSet(int epfd, int fd);

    /** True when @p fd is a member of @p set or of a set nested in it. */
    bool contains(const Desc &set, int fd) const;

    /** Queue @p count bytes for reading on stream @p d. */
    void appendStream(Desc &d, const std::uint8_t *src,
                      std::uint64_t count);

    /** Stream receive/send bodies shared by read/recv, write/send. */
    std::int64_t streamRecv(Desc &d, std::uint8_t *buf,
                            std::uint64_t count);
    std::int64_t streamSend(Desc &d, const std::uint8_t *buf,
                            std::uint64_t count);

    /** Earliest future time a queued packet becomes deliverable. */
    Cycles earliestAvailability(const Desc &d) const;

    /** Wake epoll waiters and blocked readers of @p fd. */
    void notifyReadable(int fd);

    mem::Machine &machine_;
    OsCostParams params_;
    /** Descriptor table indexed by fd; a closed fd's slot is empty. */
    std::vector<std::unique_ptr<Desc>> fds_;
    std::unordered_map<std::string, std::vector<std::uint8_t>> files_;
    std::unordered_map<int, int> tcpListeners_; //!< port -> fd
    std::unordered_map<int, int> udpPorts_[2];  //!< side -> port -> fd
    /** Link serialization state: time the link becomes free. */
    Cycles linkFree_[2] = {0, 0};
    /** Global readiness parking lot (broadcast + re-check). */
    sim::WaitQueue readinessQueue_;
};

} // namespace hc::os

#endif // HC_OS_KERNEL_HH
