#include "serve/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace dronedse::serve {

namespace {

/** listen(2) backlog. */
constexpr int kListenBacklog = 64;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("serve::Server: fcntl(O_NONBLOCK) failed");
}

} // namespace

Server::Server(ServerOptions options)
    : options_(options), service_(options.service)
{
    if (options_.workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        options_.workers = hw == 0 ? 1 : static_cast<int>(hw);
    }
}

Server::~Server()
{
    stop();
}

double
Server::monotonicNow() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint16_t
Server::start()
{
    if (running_.load())
        return port_;

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("serve::Server: socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bindAddress.c_str(),
                    &addr.sin_addr) != 1)
        fatal("serve::Server: bad bind address '" +
              options_.bindAddress + "'");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0)
        fatal("serve::Server: bind() failed: " +
              std::string(std::strerror(errno)));
    if (::listen(listenFd_, kListenBacklog) < 0)
        fatal("serve::Server: listen() failed");
    setNonBlocking(listenFd_);

    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) < 0)
        fatal("serve::Server: getsockname() failed");
    port_ = ntohs(bound.sin_port);

    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0)
        fatal("serve::Server: pipe() failed");
    wakeReadFd_ = pipe_fds[0];
    wakeWriteFd_ = pipe_fds[1];
    setNonBlocking(wakeReadFd_);
    setNonBlocking(wakeWriteFd_);

    stopping_.store(false);
    running_.store(true);
    eventThread_ = std::thread([this] { eventLoop(); });
    workerThreads_.reserve(
        static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workerThreads_.emplace_back([this] { workerLoop(); });

    inform("dse_server listening on " + options_.bindAddress + ":" +
           std::to_string(port_));
    return port_;
}

void
Server::stop()
{
    if (!running_.load())
        return;
    stopping_.store(true);
    wakeEventLoop();
    workCv_.notifyAll();
    if (eventThread_.joinable())
        eventThread_.join();
    for (std::thread &worker : workerThreads_) {
        if (worker.joinable())
            worker.join();
    }
    workerThreads_.clear();

    for (auto &[id, conn] : connections_) {
        if (conn.fd >= 0)
            ::close(conn.fd);
    }
    connections_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeReadFd_ >= 0)
        ::close(wakeReadFd_);
    if (wakeWriteFd_ >= 0)
        ::close(wakeWriteFd_);
    listenFd_ = wakeReadFd_ = wakeWriteFd_ = -1;
    running_.store(false);
}

void
Server::wakeEventLoop()
{
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n =
        ::write(wakeWriteFd_, &byte, 1);
}

void
Server::workerLoop()
{
    while (!stopping_.load()) {
        const auto completed = service_.processOne(monotonicNow());
        if (completed) {
            {
                util::MutexLock lock(replyMutex_);
                replyQueue_.push_back(*completed);
            }
            wakeEventLoop();
            continue;
        }
        util::MutexLock lock(workMutex_);
        // The predicate touches no workMutex_-guarded state (see the
        // member comment), so it is safe inside the timed wait.
        workCv_.waitFor(workMutex_, std::chrono::milliseconds(50),
                        [this] {
                            return stopping_.load() ||
                                   service_.admission().depth() > 0;
                        });
    }
}

void
Server::queueReply(Connection &conn, const std::string &reply)
{
    conn.outbuf += reply;
    conn.outbuf += '\n';
}

void
Server::drainReplyQueue()
{
    std::deque<std::pair<std::uint64_t, std::string>> pending;
    {
        util::MutexLock lock(replyMutex_);
        pending.swap(replyQueue_);
    }
    for (auto &[conn_id, reply] : pending) {
        const auto it = connections_.find(conn_id);
        if (it == connections_.end())
            continue; // client went away before its reply
        queueReply(it->second, reply);
    }
}

void
Server::acceptClients()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            break; // EAGAIN or transient error: poll again
        setNonBlocking(fd);
        Connection conn;
        conn.fd = fd;
        connections_.emplace(nextConnId_++, std::move(conn));
        static obs::Counter &accepted =
            obs::metrics().counter("serve.connections");
        accepted.add(1);
    }
}

void
Server::readClient(std::uint64_t conn_id)
{
    Connection &conn = connections_.at(conn_id);
    char buf[65536];
    while (true) {
        const ssize_t n = ::read(conn.fd, buf, sizeof buf);
        if (n > 0) {
            conn.inbuf.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            closeClient(conn_id);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeClient(conn_id);
        return;
    }

    std::size_t start = 0;
    bool queued_any = false;
    while (true) {
        const std::size_t newline = conn.inbuf.find('\n', start);
        if (newline == std::string::npos)
            break;
        std::string frame =
            conn.inbuf.substr(start, newline - start);
        if (!frame.empty() && frame.back() == '\r')
            frame.pop_back();
        start = newline + 1;
        if (frame.empty())
            continue;
        const IngestOutcome outcome =
            service_.ingest(frame, conn_id, monotonicNow());
        if (outcome.queued)
            queued_any = true;
        else
            queueReply(conn, outcome.reply);
    }
    conn.inbuf.erase(0, start);

    // A frame longer than the cap can never complete: answer
    // too_large once and drop the connection after the flush (the
    // stream cannot be resynchronized).
    if (conn.inbuf.size() > kMaxFrameBytes) {
        queueReply(conn, serializeErrorReply(0, frameTooLarge()));
        conn.inbuf.clear();
        conn.closeAfterFlush = true;
    }
    if (queued_any)
        workCv_.notifyAll();
}

void
Server::writeClient(std::uint64_t conn_id)
{
    Connection &conn = connections_.at(conn_id);
    while (!conn.outbuf.empty()) {
        const ssize_t n =
            ::write(conn.fd, conn.outbuf.data(), conn.outbuf.size());
        if (n > 0) {
            conn.outbuf.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        closeClient(conn_id);
        return;
    }
    if (conn.closeAfterFlush)
        closeClient(conn_id);
}

void
Server::closeClient(std::uint64_t conn_id)
{
    const auto it = connections_.find(conn_id);
    if (it == connections_.end())
        return;
    if (it->second.fd >= 0)
        ::close(it->second.fd);
    connections_.erase(it);
}

void
Server::eventLoop()
{
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn_ids;
    while (!stopping_.load()) {
        fds.clear();
        fd_conn_ids.clear();
        fds.push_back(pollfd{listenFd_, POLLIN, 0});
        fds.push_back(pollfd{wakeReadFd_, POLLIN, 0});
        for (const auto &[id, conn] : connections_) {
            short events = POLLIN;
            if (!conn.outbuf.empty())
                events |= POLLOUT;
            fds.push_back(pollfd{conn.fd, events, 0});
            fd_conn_ids.push_back(id);
        }

        const int ready =
            ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
        if (stopping_.load())
            break;
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            fatal("serve::Server: poll() failed");
        }

        if (fds[1].revents & POLLIN) {
            char drain[256];
            while (::read(wakeReadFd_, drain, sizeof drain) > 0) {
            }
        }
        drainReplyQueue();

        if (fds[0].revents & POLLIN)
            acceptClients();

        for (std::size_t i = 2; i < fds.size(); ++i) {
            const std::uint64_t conn_id = fd_conn_ids[i - 2];
            if (connections_.find(conn_id) == connections_.end())
                continue;
            if (fds[i].revents & (POLLERR | POLLNVAL)) {
                closeClient(conn_id);
                continue;
            }
            if (fds[i].revents & POLLIN)
                readClient(conn_id);
            if (connections_.find(conn_id) == connections_.end())
                continue;
            if (fds[i].revents & (POLLOUT | POLLHUP)) {
                if (fds[i].revents & POLLOUT)
                    writeClient(conn_id);
                else if (connections_.at(conn_id).outbuf.empty())
                    closeClient(conn_id);
            }
        }

        // Replies may have landed for connections that were not
        // POLLOUT-armed this round; try an opportunistic flush so
        // a reply never waits for the next POLLIN.
        for (auto it = connections_.begin();
             it != connections_.end();) {
            const std::uint64_t conn_id = it->first;
            ++it; // writeClient may erase the current entry
            auto current = connections_.find(conn_id);
            if (current != connections_.end() &&
                !current->second.outbuf.empty())
                writeClient(conn_id);
        }
    }
}

} // namespace dronedse::serve
