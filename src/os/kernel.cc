/**
 * @file
 * Kernel implementation.
 */

#include "os/kernel.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>

#include "support/logging.hh"

namespace hc::os {

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

} // anonymous namespace

/** One file descriptor's state. */
struct Kernel::Desc {
    enum class Type {
        File,
        TcpListen,
        TcpStream,
        Udp,
        TunEnd,
        Epoll,
    };

    Type type = Type::File;

    // File.
    std::string path;
    std::uint64_t offset = 0;

    // TCP stream: the bytes readable on this end are
    // streamBytes[streamHead, size()); peer link.
    std::vector<std::uint8_t> streamBytes;
    std::size_t streamHead = 0;
    int peerFd = -1;
    bool peerClosed = false;

    // TCP listener.
    std::deque<int> acceptQueue;
    int port = 0;

    // UDP / TUN packet queue (bytes bounded).
    std::deque<Packet> packets;
    std::uint64_t queuedBytes = 0;
    int side = 0;

    // Epoll set. Members whose readiness depends on the clock (UDP,
    // TUN, nested sets) are counted apart: the others' readiness only
    // changes when a call changes their state.
    std::vector<int> members;
    std::size_t scanStart = 0; //!< rotating start for fairness
    std::size_t readyMembers = 0; //!< state-ready members
    std::size_t clockMembers = 0; //!< clock-dependent members

    // Readiness of a file, listener or stream (kept current by every
    // state change), and the sets this descriptor is a member of.
    bool ready = false;
    std::vector<int> sets;

    // Shared.
    bool nonblockFlag = false;

    std::uint64_t streamQueued() const
    {
        return streamBytes.size() - streamHead;
    }

    bool clockDependent() const
    {
        return type == Type::Udp || type == Type::TunEnd ||
               type == Type::Epoll;
    }

    /** Readiness from state alone (files, listeners, streams). */
    bool stateReady() const
    {
        switch (type) {
          case Type::File:
            return true;
          case Type::TcpListen:
            return !acceptQueue.empty();
          case Type::TcpStream:
            return streamQueued() > 0 || peerClosed;
          default:
            return false;
        }
    }
};

Kernel::Kernel(mem::Machine &machine, OsCostParams params)
    : machine_(machine), params_(params), fds_(3) // 0-2: stdio
{
}

Kernel::~Kernel() = default;

void
Kernel::charge(Cycles c)
{
    if (machine_.engine().currentThread())
        machine_.engine().advance(c);
}

void
Kernel::chargeCopy(std::uint64_t bytes)
{
    charge(static_cast<Cycles>(static_cast<double>(bytes) *
                               params_.copyPerByte));
}

Kernel::Desc *
Kernel::desc(int fd)
{
    return const_cast<Desc *>(std::as_const(*this).desc(fd));
}

const Kernel::Desc *
Kernel::desc(int fd) const
{
    return fd >= 0 && static_cast<std::size_t>(fd) < fds_.size()
               ? fds_[static_cast<std::size_t>(fd)].get()
               : nullptr;
}

int
Kernel::allocFd(std::unique_ptr<Desc> d)
{
    // Fds are never reused: closed slots stay empty.
    d->ready = d->stateReady();
    fds_.push_back(std::move(d));
    return static_cast<int>(fds_.size() - 1);
}

void
Kernel::updateReady(Desc &d)
{
    const bool ready = d.stateReady();
    if (ready == d.ready)
        return;
    d.ready = ready;
    for (const int s : d.sets) {
        Desc &set = *desc(s);
        if (ready)
            ++set.readyMembers;
        else
            --set.readyMembers;
    }
}

void
Kernel::joinSet(int epfd, int fd)
{
    Desc &set = *desc(epfd);
    Desc &m = *desc(fd);
    if (std::find(m.sets.begin(), m.sets.end(), epfd) != m.sets.end())
        return; // already a member
    set.members.push_back(fd);
    m.sets.push_back(epfd);
    if (m.clockDependent())
        ++set.clockMembers;
    else if (m.ready)
        ++set.readyMembers;
}

bool
Kernel::leaveSet(int epfd, int fd)
{
    Desc *m = desc(fd);
    if (!m)
        return false;
    const auto in = std::find(m->sets.begin(), m->sets.end(), epfd);
    if (in == m->sets.end())
        return false; // not a member
    m->sets.erase(in);
    Desc &set = *desc(epfd);
    const auto at = std::find(set.members.begin(), set.members.end(), fd);
    hc_assert(at != set.members.end());
    set.members.erase(at);
    if (m->clockDependent())
        --set.clockMembers;
    else if (m->ready)
        --set.readyMembers;
    return true;
}

// ----------------------------------------------------------------------
// VFS.
// ----------------------------------------------------------------------

void
Kernel::addFile(const std::string &path,
                std::vector<std::uint8_t> contents)
{
    files_[path] = std::move(contents);
}

int
Kernel::open(const std::string &path)
{
    charge(params_.syscall + params_.openCost);
    if (files_.find(path) == files_.end())
        return kEnoent;
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::File;
    d->path = path;
    return allocFd(std::move(d));
}

int
Kernel::fstat(int fd, std::uint64_t *size_out)
{
    charge(params_.syscall + 120);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::File)
        return kEbadf;
    *size_out = files_[d->path].size();
    return 0;
}

// ----------------------------------------------------------------------
// Generic fd ops.
// ----------------------------------------------------------------------

std::int64_t
Kernel::read(int fd, std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;

    switch (d->type) {
      case Desc::Type::File: {
        const auto &contents = files_[d->path];
        if (d->offset >= contents.size())
            return 0;
        const std::uint64_t take =
            std::min<std::uint64_t>(count, contents.size() - d->offset);
        if (buf)
            std::memcpy(buf, contents.data() + d->offset, take);
        d->offset += take;
        chargeCopy(take);
        return static_cast<std::int64_t>(take);
      }
      case Desc::Type::TcpStream:
        return streamRecv(*d, buf, count);
      case Desc::Type::TunEnd: {
        if (d->packets.empty() ||
            d->packets.front().availableAt > machine_.now())
            return d->peerClosed ? 0 : kEagain;
        Packet pkt = std::move(d->packets.front());
        d->packets.pop_front();
        d->queuedBytes -= pkt.data.size();
        const std::uint64_t take =
            std::min<std::uint64_t>(count, pkt.data.size());
        if (buf)
            std::memcpy(buf, pkt.data.data(), take);
        chargeCopy(take);
        return static_cast<std::int64_t>(take);
      }
      default:
        return kEbadf;
    }
}

std::int64_t
Kernel::write(int fd, const std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;

    switch (d->type) {
      case Desc::Type::File: {
        auto &contents = files_[d->path];
        if (d->offset + count > contents.size())
            contents.resize(d->offset + count);
        if (buf)
            std::memcpy(contents.data() + d->offset, buf, count);
        d->offset += count;
        chargeCopy(count);
        return static_cast<std::int64_t>(count);
      }
      case Desc::Type::TcpStream:
        return streamSend(*d, buf, count);
      case Desc::Type::TunEnd: {
        Desc *peer = desc(d->peerFd);
        if (!peer)
            return kEbadf;
        if (peer->queuedBytes + count > params_.socketBuf)
            return kEagain; // device queue full
        Packet pkt;
        pkt.data.assign(buf, buf + count);
        pkt.availableAt = machine_.now();
        peer->queuedBytes += count;
        peer->packets.push_back(std::move(pkt));
        chargeCopy(count);
        notifyReadable(d->peerFd);
        return static_cast<std::int64_t>(count);
      }
      default:
        return kEbadf;
    }
}

int
Kernel::close(int fd)
{
    charge(params_.syscall + params_.closeCost);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;
    if (d->type == Desc::Type::TcpStream) {
        if (Desc *peer = desc(d->peerFd)) {
            peer->peerClosed = true;
            updateReady(*peer);
            notifyReadable(d->peerFd);
        }
    }
    if (d->type == Desc::Type::TcpListen)
        tcpListeners_.erase(d->port);
    if (d->type == Desc::Type::Udp)
        udpPorts_[d->side].erase(d->port);
    // Leave the sets this fd is in, and empty it if it is a set.
    while (!d->sets.empty())
        leaveSet(d->sets.back(), fd);
    for (const int m : d->members) {
        auto &sets = desc(m)->sets;
        sets.erase(std::find(sets.begin(), sets.end(), fd));
    }
    fds_[static_cast<std::size_t>(fd)].reset();
    return 0;
}

int
Kernel::fcntl(int fd, int)
{
    charge(params_.syscall + 60);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;
    d->nonblockFlag = true;
    return 0;
}

int
Kernel::ioctl(int fd, int)
{
    charge(params_.syscall + 90);
    return desc(fd) ? 0 : kEbadf;
}

// ----------------------------------------------------------------------
// TCP over loopback.
// ----------------------------------------------------------------------

int
Kernel::listenTcp(int port)
{
    charge(params_.syscall + 500);
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::TcpListen;
    d->port = port;
    const int fd = allocFd(std::move(d));
    tcpListeners_[port] = fd;
    return fd;
}

int
Kernel::connectTcp(int port)
{
    charge(params_.syscall + params_.connectCost);
    auto lit = tcpListeners_.find(port);
    if (lit == tcpListeners_.end())
        return kEconnRefused;

    auto client = std::make_unique<Desc>();
    client->type = Desc::Type::TcpStream;
    auto server = std::make_unique<Desc>();
    server->type = Desc::Type::TcpStream;
    const int client_fd = allocFd(std::move(client));
    const int server_fd = allocFd(std::move(server));
    desc(client_fd)->peerFd = server_fd;
    desc(server_fd)->peerFd = client_fd;

    Desc &listener = *desc(lit->second);
    listener.acceptQueue.push_back(server_fd);
    updateReady(listener);
    notifyReadable(lit->second);
    return client_fd;
}

int
Kernel::accept(int listen_fd)
{
    charge(params_.syscall + params_.acceptCost);
    Desc *d = desc(listen_fd);
    if (!d || d->type != Desc::Type::TcpListen)
        return kEbadf;
    if (d->acceptQueue.empty())
        return kEagain;
    const int fd = d->acceptQueue.front();
    d->acceptQueue.pop_front();
    updateReady(*d);
    return fd;
}

std::int64_t
Kernel::streamSend(Desc &d, const std::uint8_t *buf,
                   std::uint64_t count)
{
    Desc *peer = desc(d.peerFd);
    if (!peer)
        return 0; // connection reset
    const std::uint64_t queued = peer->streamQueued();
    const std::uint64_t room =
        params_.socketBuf > queued ? params_.socketBuf - queued : 0;
    const std::uint64_t take = std::min(count, room);
    if (take == 0)
        return kEagain;
    appendStream(*peer, buf, take);
    chargeCopy(take);
    notifyReadable(d.peerFd);
    return static_cast<std::int64_t>(take);
}

void
Kernel::appendStream(Desc &d, const std::uint8_t *src,
                     std::uint64_t count)
{
    d.streamBytes.insert(d.streamBytes.end(), src, src + count);
    updateReady(d);
}

std::int64_t
Kernel::streamRecv(Desc &d, std::uint8_t *buf, std::uint64_t count)
{
    const std::uint64_t queued = d.streamQueued();
    if (queued == 0)
        return d.peerClosed ? 0 : kEagain;
    const std::uint64_t take = std::min(count, queued);
    if (buf)
        std::memcpy(buf, d.streamBytes.data() + d.streamHead, take);
    d.streamHead += take;
    if (d.streamHead == d.streamBytes.size()) {
        d.streamBytes.clear();
        d.streamHead = 0;
    } else if (d.streamHead > d.streamBytes.size() / 2) {
        // Compact: what is left is under half the queue.
        d.streamBytes.erase(d.streamBytes.begin(),
                            d.streamBytes.begin() +
                                static_cast<std::ptrdiff_t>(d.streamHead));
        d.streamHead = 0;
    }
    updateReady(d);
    chargeCopy(take);
    return static_cast<std::int64_t>(take);
}

std::int64_t
Kernel::send(int fd, const std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::TcpStream)
        return kEbadf;
    return streamSend(*d, buf, count);
}

std::int64_t
Kernel::recv(int fd, std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::TcpStream)
        return kEbadf;
    return streamRecv(*d, buf, count);
}

std::int64_t
Kernel::writev(int fd, const std::uint8_t *buf, std::uint64_t count)
{
    charge(80); // iovec gather on top of send()
    return send(fd, buf, count);
}

std::int64_t
Kernel::sendfile(int out_fd, int in_fd, std::uint64_t offset,
                 std::uint64_t count)
{
    charge(params_.syscall + params_.sendfileBase);
    Desc *in = desc(in_fd);
    Desc *out = desc(out_fd);
    if (!in || in->type != Desc::Type::File || !out ||
        out->type != Desc::Type::TcpStream) {
        return kEbadf;
    }
    const auto &contents = files_[in->path];
    if (offset >= contents.size())
        return 0;
    const std::uint64_t take =
        std::min<std::uint64_t>(count, contents.size() - offset);
    Desc *peer = desc(out->peerFd);
    if (!peer)
        return 0;
    appendStream(*peer, contents.data() + offset, take);
    // In-kernel copy: roughly half the user-copy cost.
    charge(static_cast<Cycles>(static_cast<double>(take) *
                               params_.copyPerByte * 0.5));
    notifyReadable(out->peerFd);
    return static_cast<std::int64_t>(take);
}

int
Kernel::setsockopt(int fd, int)
{
    charge(params_.syscall + 70);
    return desc(fd) ? 0 : kEbadf;
}

int
Kernel::shutdown(int fd)
{
    charge(params_.syscall + 130);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::TcpStream)
        return kEbadf;
    if (Desc *peer = desc(d->peerFd)) {
        peer->peerClosed = true;
        updateReady(*peer);
        notifyReadable(d->peerFd);
    }
    return 0;
}

// ----------------------------------------------------------------------
// UDP over the point-to-point link.
// ----------------------------------------------------------------------

int
Kernel::udpSocket(int side, int port)
{
    charge(params_.syscall + 400);
    hc_assert(side == 0 || side == 1);
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::Udp;
    d->side = side;
    d->port = port;
    const int fd = allocFd(std::move(d));
    udpPorts_[side][port] = fd;
    return fd;
}

std::int64_t
Kernel::sendto(int fd, const std::uint8_t *buf, std::uint64_t count,
               int dst_port)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::Udp)
        return kEbadf;
    chargeCopy(count);

    const int dst_side = 1 - d->side;
    auto it = udpPorts_[dst_side].find(dst_port);
    if (it == udpPorts_[dst_side].end())
        return static_cast<std::int64_t>(count); // silently dropped

    Desc *dst = desc(it->second);
    if (dst->queuedBytes + count > params_.socketBuf)
        return static_cast<std::int64_t>(count); // rx queue overflow

    // Serialize onto the link: the NIC starts when the wire is free.
    const Cycles now = machine_.now();
    const Cycles start = std::max(now, linkFree_[d->side]);
    const Cycles done =
        start + static_cast<Cycles>(static_cast<double>(count) *
                                    params_.linkCyclesPerByte);
    linkFree_[d->side] = done;

    Packet pkt;
    pkt.data.assign(buf, buf + count);
    pkt.availableAt = done + params_.linkPropagation;
    pkt.srcPort = d->port;
    dst->queuedBytes += count;
    dst->packets.push_back(std::move(pkt));
    notifyReadable(it->second);
    return static_cast<std::int64_t>(count);
}

std::int64_t
Kernel::recvfrom(int fd, std::uint8_t *buf, std::uint64_t count,
                 int *src_port)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::Udp)
        return kEbadf;
    if (d->packets.empty() ||
        d->packets.front().availableAt > machine_.now())
        return kEagain;
    Packet pkt = std::move(d->packets.front());
    d->packets.pop_front();
    d->queuedBytes -= pkt.data.size();
    const std::uint64_t take =
        std::min<std::uint64_t>(count, pkt.data.size());
    if (buf)
        std::memcpy(buf, pkt.data.data(), take);
    if (src_port)
        *src_port = pkt.srcPort;
    chargeCopy(take);
    return static_cast<std::int64_t>(take);
}

// ----------------------------------------------------------------------
// TUN.
// ----------------------------------------------------------------------

std::pair<int, int>
Kernel::tunCreate()
{
    charge(params_.syscall + 500);
    auto a = std::make_unique<Desc>();
    a->type = Desc::Type::TunEnd;
    auto b = std::make_unique<Desc>();
    b->type = Desc::Type::TunEnd;
    const int fa = allocFd(std::move(a));
    const int fb = allocFd(std::move(b));
    desc(fa)->peerFd = fb;
    desc(fb)->peerFd = fa;
    return {fa, fb};
}

// ----------------------------------------------------------------------
// Readiness.
// ----------------------------------------------------------------------

bool
Kernel::readableNow(const Desc &d) const
{
    switch (d.type) {
      case Desc::Type::Udp:
      case Desc::Type::TunEnd:
        return !d.packets.empty() &&
               d.packets.front().availableAt <= machine_.now();
      case Desc::Type::Epoll:
        if (d.clockMembers == 0)
            return d.readyMembers > 0;
        for (int fd : d.members) {
            if (readableNow(*desc(fd)))
                return true;
        }
        return false;
      default:
        return d.ready;
    }
}

Cycles
Kernel::earliestAvailability(const Desc &d) const
{
    switch (d.type) {
      case Desc::Type::Udp:
      case Desc::Type::TunEnd:
        return d.packets.empty() ? kNever
                                 : d.packets.front().availableAt;
      case Desc::Type::Epoll: {
        Cycles best = kNever;
        if (d.clockMembers == 0)
            return best;
        for (int fd : d.members)
            best = std::min(best, earliestAvailability(*desc(fd)));
        return best;
      }
      default:
        return kNever;
    }
}

bool
Kernel::contains(const Desc &set, int fd) const
{
    for (int m : set.members) {
        const Desc &d = *desc(m);
        if (m == fd || (d.type == Desc::Type::Epoll && contains(d, fd)))
            return true;
    }
    return false;
}

void
Kernel::notifyReadable(int)
{
    machine_.engine().notifyAll(readinessQueue_);
}

int
Kernel::epollCreate()
{
    charge(params_.syscall + 300);
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::Epoll;
    return allocFd(std::move(d));
}

int
Kernel::epollCtlAdd(int epfd, int fd)
{
    charge(params_.syscall + params_.epollCtl);
    Desc *e = desc(epfd);
    Desc *m = desc(fd);
    if (!e || e->type != Desc::Type::Epoll || !m)
        return kEbadf;
    // A set may not watch itself, directly or through nested sets.
    if (fd == epfd)
        return kEinval;
    if (m->type == Desc::Type::Epoll && contains(*m, epfd))
        return kEloop;
    joinSet(epfd, fd);
    return 0;
}

int
Kernel::epollCtlDel(int epfd, int fd)
{
    charge(params_.syscall + params_.epollCtl);
    Desc *e = desc(epfd);
    if (!e || e->type != Desc::Type::Epoll || !desc(fd))
        return kEbadf;
    return leaveSet(epfd, fd) ? 0 : kEnoent;
}

int
Kernel::epollWait(int epfd, std::vector<int> &ready, int max_events,
                  Cycles timeout)
{
    charge(params_.syscall + params_.epollWaitBase);
    if (max_events <= 0)
        return kEinval; // no room for an event, checked first as Linux does
    Desc *e = desc(epfd);
    if (!e || e->type != Desc::Type::Epoll)
        return kEbadf;
    auto &engine = machine_.engine();
    const Cycles deadline =
        timeout == 0 ? 0 : machine_.now() + timeout;

    for (;;) {
        // Rotate the scan start so a ready set larger than
        // max_events round-robins instead of starving the tail
        // (real epoll's ready list is FIFO).
        ready.clear();
        const std::size_t count = e->members.size();
        if (count > 0) {
            e->scanStart = (e->scanStart + 1) % count;
            // Without clock-dependent members the ready count is
            // exact: walk only until every ready member is found.
            std::size_t limit = static_cast<std::size_t>(max_events);
            if (e->clockMembers == 0)
                limit = std::min(limit, e->readyMembers);
            std::size_t k = 0, clock_seen = 0, ready_seen = 0;
            for (std::size_t i = e->scanStart;
                 k < count && ready.size() < limit; ++k) {
                const int fd = e->members[i];
                const Desc &m = *desc(fd);
                if (m.clockDependent())
                    ++clock_seen;
                else if (m.ready)
                    ++ready_seen;
                if (readableNow(m))
                    ready.push_back(fd);
                if (++i == count)
                    i = 0;
            }
            // A walk that saw every member checks both counts; a
            // counted walk must find every member it was promised.
            hc_assert(k < count || (clock_seen == e->clockMembers &&
                                    ready_seen == e->readyMembers));
            hc_assert(e->clockMembers > 0 || ready.size() == limit);
        }
        if (!ready.empty() || timeout == 0)
            return static_cast<int>(ready.size());
        if (machine_.now() >= deadline)
            return 0;

        const Cycles future = earliestAvailability(*e);
        const Cycles wake = std::min(deadline, future);
        if (wake <= machine_.now())
            continue;
        engine.waitUntil(readinessQueue_, wake);
    }
}

int
Kernel::poll(const std::vector<int> &fds, std::vector<int> &ready,
             Cycles timeout)
{
    charge(params_.syscall + params_.pollBase +
           static_cast<Cycles>(fds.size()) * params_.pollPerFd);
    auto &engine = machine_.engine();
    const Cycles deadline =
        timeout == 0 ? 0 : machine_.now() + timeout;

    for (;;) {
        ready.clear();
        Cycles future = kNever;
        for (int fd : fds) {
            // An fd with no descriptor is reported at once, as Linux
            // reports it with POLLNVAL.
            const Desc *m = desc(fd);
            if (!m || readableNow(*m))
                ready.push_back(fd);
            else
                future = std::min(future, earliestAvailability(*m));
        }
        if (!ready.empty() || timeout == 0)
            return static_cast<int>(ready.size());
        if (machine_.now() >= deadline)
            return 0;
        const Cycles wake = std::min(deadline, future);
        if (wake <= machine_.now())
            continue;
        engine.waitUntil(readinessQueue_, wake);
    }
}

void
Kernel::waitReadable(int fd)
{
    auto &engine = machine_.engine();
    for (;;) {
        const Desc *d = desc(fd);
        if (!d)
            return;
        if (readableNow(*d))
            return;
        const Cycles future = earliestAvailability(*d);
        if (future == kNever)
            engine.wait(readinessQueue_);
        else if (future > machine_.now())
            engine.waitUntil(readinessQueue_, future);
    }
}

// ----------------------------------------------------------------------
// Clock and identity.
// ----------------------------------------------------------------------

std::uint64_t
Kernel::timeSeconds()
{
    charge(params_.syscall);
    return static_cast<std::uint64_t>(
        cyclesToSeconds(machine_.now()));
}

std::uint64_t
Kernel::timeMicros()
{
    charge(params_.syscall);
    return static_cast<std::uint64_t>(
        cyclesToMicros(machine_.now()));
}

int
Kernel::getpid()
{
    charge(params_.syscall);
    return 4242;
}

std::uint64_t
Kernel::inetNtop(std::uint32_t addr)
{
    // Pure libc string formatting: no kernel entry.
    charge(140);
    return static_cast<std::uint64_t>(addr) | 0x100000000ull;
}

std::uint32_t
Kernel::inetAddr(std::uint64_t packed)
{
    charge(120);
    return static_cast<std::uint32_t>(packed & 0xffffffffu);
}

std::uint64_t
Kernel::pendingBytes(int fd) const
{
    const Desc *d = desc(fd);
    if (!d)
        return 0;
    if (d->type == Desc::Type::TcpStream)
        return d->streamQueued();
    return d->queuedBytes;
}

} // namespace hc::os
