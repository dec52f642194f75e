/**
 * @file
 * Poll(2)-based TCP front end of the DSE query service.
 *
 * Single event-loop thread plus a worker pool:
 *
 *   event loop — accepts connections, splits the byte stream into
 *     line frames, runs the cheap front half (`Service::ingest`:
 *     size check, parse, admission) inline, writes immediate
 *     rejections, and flushes worker replies; the only thread that
 *     touches connection state.
 *   workers — drain the admission queue via `Service::processOne`
 *     (the expensive solve/sweep half) and post (conn, reply)
 *     pairs back through a mutex-guarded reply queue, waking the
 *     event loop over a self-pipe.
 *
 * Replies are routed by connection id and carry the request id, so
 * pipelined requests on one connection may complete out of order —
 * clients correlate by id.
 * Everything is plain blocking-free POSIX: no external deps, and
 * the event loop survives slow readers by buffering per-connection
 * output and enabling POLLOUT only while a backlog exists.
 */

#ifndef DRONEDSE_SERVE_SERVER_HH
#define DRONEDSE_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hh"
#include "util/thread_annotations.hh"

namespace dronedse::serve {

/** Configuration of one server instance. */
struct ServerOptions
{
    ServiceOptions service;
    /** IPv4 address to bind. */
    std::string bindAddress = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see `port()`). */
    std::uint16_t port = 0;
    /** Worker threads; 0 = hardware concurrency. */
    int workers = 1;
};

class Server
{
  public:
    explicit Server(ServerOptions options = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the event loop and workers.  Returns
     * the bound port (the ephemeral choice when options.port == 0).
     * fatal() on socket errors.
     */
    std::uint16_t start();

    /** Stop and join every thread; idempotent. */
    void stop();

    bool running() const { return running_.load(); }
    std::uint16_t port() const { return port_; }

    Service &service() { return service_; }

  private:
    struct Connection
    {
        int fd = -1;
        std::string inbuf;
        std::string outbuf;
        /** Close once outbuf drains (protocol violation seen). */
        bool closeAfterFlush = false;
    };

    void eventLoop();
    void workerLoop() DDSE_EXCLUDES(workMutex_, replyMutex_);
    void wakeEventLoop();
    /** Seconds on the steady clock (admission's time base). */
    double monotonicNow() const;

    void acceptClients();
    void readClient(std::uint64_t conn_id);
    void writeClient(std::uint64_t conn_id);
    void closeClient(std::uint64_t conn_id);
    void queueReply(Connection &conn, const std::string &reply);
    void drainReplyQueue() DDSE_EXCLUDES(replyMutex_);

    ServerOptions options_;
    Service service_;

    int listenFd_ = -1;
    int wakeReadFd_ = -1;
    int wakeWriteFd_ = -1;
    std::uint16_t port_ = 0;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::thread eventThread_;
    std::vector<std::thread> workerThreads_;
    /** Pure sleep/wakeup rendezvous for idle workers: the condition
     *  reads only atomics and the self-locking admission queue, so
     *  no data lives under this mutex. */
    util::Mutex workMutex_;
    util::CondVar workCv_;

    util::Mutex replyMutex_;
    std::deque<std::pair<std::uint64_t, std::string>> replyQueue_
        DDSE_GUARDED_BY(replyMutex_);

    /** Event-loop-thread-only state: confined to `eventThread_`
     *  (plus start/stop when no event loop is running), never
     *  shared, so there is deliberately no mutex to annotate. */
    std::map<std::uint64_t, Connection> connections_;
    std::uint64_t nextConnId_ = 1;
};

} // namespace dronedse::serve

#endif // DRONEDSE_SERVE_SERVER_HH
