#include "serve/server.hh"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "serve/transport.hh"

#include "../engine/pareto_oracle.hh"

using namespace dronedse;
using namespace dronedse::serve;

namespace {

Request
designRequest(std::uint64_t id, double capacity = 3000.0)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Design;
    request.point.capacityMah = Quantity<MilliampHours>(capacity);
    return request;
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.boards = {ComputeBoardRecord{
        "Basic 3W chip", BoardClass::Basic, 20.0, 3.0}};
    spec.cells = {3, 4};
    spec.capacityLoMah = Quantity<MilliampHours>(2000.0);
    spec.capacityHiMah = Quantity<MilliampHours>(4000.0);
    spec.capacityStepMah = Quantity<MilliampHours>(500.0);
    return spec;
}

} // namespace

TEST(ServeTransport, DesignReplyMatchesSerialOracle)
{
    ServiceOptions options;
    options.engine.threads = 2;
    Service service{options};
    LocalTransport transport{service};

    const Request request = designRequest(5, 2200.0);
    const std::string reply =
        transport.roundTrip(serializeRequest(request));
    EXPECT_EQ(reply, serializeDesignReply(
                         request.id, solveDesign(request.point)));

    // A point 4e-7 mAh away is a different design: its reply must be
    // its own solve, never the previous point's numbers.
    const Request nearby = designRequest(6, 2200.0000004);
    ASSERT_NE(nearby.point.capacityMah, request.point.capacityMah);
    EXPECT_EQ(transport.roundTrip(serializeRequest(nearby)),
              serializeDesignReply(nearby.id,
                                   solveDesign(nearby.point)));
}

TEST(ServeTransport, SweepReplyMatchesRunSweepSerialOracle)
{
    ServiceOptions options;
    options.engine.threads = 2;
    Service service{options};
    LocalTransport transport{service};

    Request request;
    request.id = 17;
    request.kind = QueryKind::Sweep;
    request.spec = smallSpec();

    // Oracle: the plain serial sweep path, no engine.
    const std::vector<DesignResult> points =
        runSweepSerial(request.spec);
    std::size_t feasible = 0;
    for (const DesignResult &p : points)
        feasible += p.feasible ? 1 : 0;
    const std::string expected = serializeSweepReply(
        request.id, points, feasible,
        pareto_oracle::pairwiseFrontier(points));

    EXPECT_EQ(transport.roundTrip(serializeRequest(request)),
              expected);

    // Pareto over the same spec agrees with the same oracle.
    Request pareto = request;
    pareto.id = 18;
    pareto.kind = QueryKind::Pareto;
    EXPECT_EQ(transport.roundTrip(serializeRequest(pareto)),
              serializeParetoReply(
                  pareto.id, points,
                  pareto_oracle::pairwiseFrontier(points)));
}

TEST(ServeTransport, RejectionsCompleteImmediately)
{
    Service service{ServiceOptions{}};
    LocalTransport transport{service};
    transport.submit("{not json");
    ASSERT_EQ(transport.exchanges().size(), 1u);
    EXPECT_TRUE(transport.exchanges()[0].rejected);
    EXPECT_NE(transport.exchanges()[0].reply.find("\"parse_error\""),
              std::string::npos);
    EXPECT_EQ(service.admission().depth(), 0u);
}

TEST(ServeTransport, ConcurrentHandleFrameRepliesMatchTheirFrames)
{
    // Each handleFrame caller runs and answers the frame it parsed,
    // whatever the other callers do meanwhile.
    ServiceOptions options;
    options.engine.threads = 1;
    options.admission.interactive = TokenBucketConfig{1e9, 1e9};
    Service service{options};

    constexpr int kThreads = 8;
    constexpr int kFramesPerThread = 200;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kFramesPerThread; ++i) {
                const auto id = static_cast<std::uint64_t>(
                    1 + t * kFramesPerThread + i);
                const Request request = designRequest(
                    id, 2000.0 + static_cast<double>(id));
                const std::string reply = service.handleFrame(
                    serializeRequest(request), 0.0);
                // Every reply opens with its id and the ok flag.
                if (!reply.starts_with("{\"id\": " + std::to_string(id) +
                                       ", \"ok\": ") ||
                    reply != serializeDesignReply(
                                 id, solveDesign(request.point)))
                    ++mismatches[static_cast<std::size_t>(t)];
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
            << "thread " << t;
    EXPECT_EQ(service.planner().stats().executed,
              static_cast<std::uint64_t>(kThreads * kFramesPerThread));
    EXPECT_EQ(service.admission().depth(), 0u);
}

// The ISSUE 5 acceptance test: under 2x overload the admission
// controller must shed rather than let p99 latency grow without
// bound.  Fully deterministic: virtual clock, fixed service time.
TEST(ServeOverload, ShedsInsteadOfUnboundedLatency)
{
    constexpr double kServiceTime = 0.005; // 200 q/s capacity
    constexpr std::size_t kQueueCap = 64;

    ServiceOptions options;
    options.engine.threads = 1;
    options.admission.queueCapacity = kQueueCap;
    options.admission.interactive = {1e9, 1e9};
    options.admission.batch = {1e9, 1e9};
    Service service{options};
    LocalTransport transport{service, kServiceTime};

    // Closed service loop at 2x capacity: two arrivals (one
    // interactive, one batch) per completed query.
    std::map<std::uint64_t, double> submit_t;
    std::uint64_t next_id = 0;
    std::size_t max_depth = 0;
    for (int i = 0; i < 3000; ++i) {
        for (int k = 0; k < 2; ++k) {
            Request request = designRequest(next_id++);
            request.cls = k == 0 ? QueryClass::Interactive
                                 : QueryClass::Batch;
            submit_t[request.id] = transport.now();
            transport.submit(serializeRequest(request));
        }
        transport.drain(1);
        max_depth = std::max(max_depth, service.admission().depth());
    }
    transport.drain();

    // The bounded queue never grew past its capacity.
    EXPECT_LE(max_depth, kQueueCap);

    // The controller escalated, and sheds hit the batch class while
    // interactive queries kept flowing.
    const std::vector<ShedTransition> transitions =
        service.admission().transitions();
    ASSERT_FALSE(transitions.empty());
    EXPECT_EQ(transitions[0].from, ShedState::Nominal);
    EXPECT_EQ(transitions[0].to, ShedState::ShedLowPriority);
    const AdmissionStats stats = service.admission().stats();
    EXPECT_GT(stats.shedClass, 0u);
    EXPECT_GT(stats.admitted, 0u);
    EXPECT_GT(stats.rejected(), 0u);

    // Every completed (non-rejected) query's end-to-end latency is
    // bounded by the queue: at most kQueueCap queued ahead plus its
    // own service time.  This is the "p99 does not grow without
    // bound" assertion — with shedding disabled the closed loop
    // above would push waits toward 3000 * kServiceTime.
    const double bound =
        (static_cast<double>(kQueueCap) + 1.0) * kServiceTime + 1e-9;
    std::vector<double> latencies;
    for (const LocalExchange &exchange : transport.exchanges()) {
        if (exchange.rejected)
            continue;
        // Every reply opens with `{"id": N, `.
        ASSERT_TRUE(exchange.reply.starts_with("{\"id\": "))
            << exchange.reply;
        const std::uint64_t id = std::stoull(exchange.reply.substr(7));
        const double latency = exchange.t - submit_t.at(id);
        EXPECT_LE(latency, bound);
        latencies.push_back(latency);
    }
    ASSERT_GT(latencies.size(), 100u);
}

// --- TCP smoke test ------------------------------------------------

namespace {

class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd_,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    std::string roundTrip(const std::string &frame)
    {
        const std::string wire = frame + "\n";
        EXPECT_EQ(::write(fd_, wire.data(), wire.size()),
                  static_cast<ssize_t>(wire.size()));
        while (true) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                std::string reply = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return reply;
            }
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n <= 0)
                return buffer_;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace

TEST(ServeServer, TcpRoundTripMatchesOracle)
{
    ServerOptions options;
    options.service.engine.threads = 1;
    options.workers = 2;
    Server server{options};
    const std::uint16_t port = server.start();
    ASSERT_GT(port, 0);

    TestClient client{port};
    for (std::uint64_t id = 1; id <= 8; ++id) {
        const Request request =
            designRequest(id, 2000.0 + 250.0 * static_cast<double>(id));
        EXPECT_EQ(client.roundTrip(serializeRequest(request)),
                  serializeDesignReply(request.id,
                                       solveDesign(request.point)));
    }

    // Malformed frames get typed errors on the same connection.
    const std::string bad = client.roundTrip("{broken");
    EXPECT_NE(bad.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(bad.find("\"parse_error\""), std::string::npos);

    // And the connection still works afterwards.
    const Request again = designRequest(99);
    EXPECT_EQ(client.roundTrip(serializeRequest(again)),
              serializeDesignReply(again.id,
                                   solveDesign(again.point)));
    server.stop();
}

TEST(ServeServer, ConcurrentClientsGetConsistentReplies)
{
    // Closed-loop clients against a wide-open admission controller
    // (the default 2,000/s rate would shed this traffic): every
    // reply must equal its serial oracle byte for byte, and a shed
    // reply counts as a failure.
    ServerOptions options;
    options.service.engine.threads = 2;
    options.service.admission.interactive = {1e9, 1e9};
    options.service.admission.batch = {1e9, 1e9};
    options.service.admission.queueCapacity = 8192;
    options.workers = 4;
    Server server{options};
    const std::uint16_t port = server.start();

    // 240 distinct design points spanning the small/medium envelope,
    // each with its plain `solveDesign` reply.
    std::vector<std::string> frames;
    std::vector<std::string> expected;
    for (double wheelbase : {250.0, 330.0, 450.0, 600.0})
        for (int cells : {2, 3, 4, 5, 6})
            for (double capacity :
                 {1500.0, 2200.0, 3000.0, 4000.0, 5200.0, 6600.0})
                for (double twr : {2.0, 3.0}) {
                    Request request =
                        designRequest(frames.size(), capacity);
                    request.point.wheelbaseMm =
                        Quantity<Millimeters>(wheelbase);
                    request.point.cells = cells;
                    request.point.twr = twr;
                    frames.push_back(serializeRequest(request));
                    expected.push_back(serializeDesignReply(
                        request.id, solveDesign(request.point)));
                }

    // One sweep frame per client against the serial sweep and the
    // pairwise frontier.
    Request sweep;
    sweep.kind = QueryKind::Sweep;
    sweep.spec = smallSpec();
    sweep.spec.airframes = {
        SweepAirframe{Quantity<Millimeters>(250.0),
                      Quantity<Inches>(0.0)},
        SweepAirframe{Quantity<Millimeters>(450.0),
                      Quantity<Inches>(0.0)}};
    sweep.spec.capacityHiMah = Quantity<MilliampHours>(5000.0);
    const std::vector<DesignResult> points = runSweepSerial(sweep.spec);
    std::size_t feasible = 0;
    for (const DesignResult &p : points)
        feasible += p.feasible ? 1 : 0;
    const std::vector<std::size_t> frontier =
        pareto_oracle::pairwiseFrontier(points);

    constexpr int kClients = 8;
    constexpr std::size_t kDesignFrames = 2000;
    std::vector<std::thread> threads;
    std::vector<int> failures(kClients, 0);
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            const auto client_index = static_cast<std::size_t>(c);
            TestClient client{port};
            for (std::size_t i = client_index; i < kDesignFrames;
                 i += kClients) {
                const std::size_t slot = i % frames.size();
                if (client.roundTrip(frames[slot]) != expected[slot])
                    ++failures[client_index];
            }
            Request own = sweep;
            own.id = 100000 + client_index;
            if (client.roundTrip(serializeRequest(own)) !=
                serializeSweepReply(own.id, points, feasible,
                                    frontier))
                ++failures[client_index];
        });
    for (std::thread &t : threads)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
            << "client " << c;
    server.stop();
}
