/**
 * @file
 * serve_loadgen: closed-loop load generator for dse_server.
 *
 * Starts an in-process TCP server, precomputes the exact expected
 * reply bytes for every request through the *serial* model path
 * (`solveDesign` / `runSweepSerial` + the shared serializers), then
 * hammers the socket with 1/2/4/8 closed-loop client threads and
 * byte-compares every reply against the oracle.  Any divergence —
 * a torn frame, a stale or wrong point, a worker racing
 * the serializer — fails the run (nonzero exit).
 *
 * Emits `BENCH_serve.json`: per-client-count throughput, latency
 * percentiles, and shed rate, the serving-layer row of the bench
 * trajectory next to `BENCH_sweep.json`.
 *
 * Usage: serve_loadgen [--requests N] [--workers N] [--output PATH]
 *   --requests N  total requests per client-count run (default 20000)
 *   --workers N   server worker threads (default 4)
 *   --output PATH output JSON path (default BENCH_serve.json)
 */

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "engine/pareto.hh"
#include "serve/request.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace dronedse;

namespace {

struct Options
{
    int requests = 20000;
    int workers = 4;
    std::string outputPath = "BENCH_serve.json";
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            opts.requests = std::atoi(argv[++i]);
            if (opts.requests < 1)
                fatal("serve_loadgen: --requests expects a positive "
                      "integer");
        } else if (std::strcmp(argv[i], "--workers") == 0 &&
                   i + 1 < argc) {
            opts.workers = std::atoi(argv[++i]);
            if (opts.workers < 1)
                fatal("serve_loadgen: --workers expects a positive "
                      "integer");
        } else if (std::strcmp(argv[i], "--output") == 0 &&
                   i + 1 < argc) {
            opts.outputPath = argv[++i];
        } else {
            fatal(std::string("serve_loadgen: unknown argument '") +
                  argv[i] +
                  "' (usage: serve_loadgen [--requests N] "
                  "[--workers N] [--output PATH])");
        }
    }
    return opts;
}

/** The request mix: distinct design points cycled by every client. */
struct Workload
{
    std::vector<std::string> frames;
    std::vector<std::string> expected; // oracle reply per frame
};

Workload
buildWorkload()
{
    // 240 distinct points spanning the small/medium envelope; the
    // oracle solves each through the plain serial `solveDesign`
    // path (no engine) and serializes with the same
    // functions the server uses.
    Workload load;
    std::uint64_t id = 0;
    for (double wheelbase : {250.0, 330.0, 450.0, 600.0}) {
        for (int cells : {2, 3, 4, 5, 6}) {
            for (double capacity : {1500.0, 2200.0, 3000.0, 4000.0,
                                    5200.0, 6600.0}) {
                for (double twr : {2.0, 3.0}) {
                    serve::Request request;
                    request.id = id++;
                    request.kind = serve::QueryKind::Design;
                    request.cls = serve::QueryClass::Interactive;
                    request.point.wheelbaseMm =
                        Quantity<Millimeters>(wheelbase);
                    request.point.cells = cells;
                    request.point.capacityMah =
                        Quantity<MilliampHours>(capacity);
                    request.point.twr = twr;
                    load.frames.push_back(
                        serve::serializeRequest(request));
                    load.expected.push_back(
                        serve::serializeDesignReply(
                            request.id, solveDesign(request.point)));
                }
            }
        }
    }
    return load;
}

/** One blocking line-protocol TCP client. */
class Client
{
  public:
    explicit Client(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            fatal("serve_loadgen: socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0)
            fatal("serve_loadgen: connect() failed");
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** Send one frame and block for its reply line. */
    std::string roundTrip(const std::string &frame)
    {
        std::string wire = frame;
        wire += '\n';
        std::size_t sent = 0;
        while (sent < wire.size()) {
            const ssize_t n = ::write(fd_, wire.data() + sent,
                                      wire.size() - sent);
            if (n <= 0)
                fatal("serve_loadgen: write() failed");
            sent += static_cast<std::size_t>(n);
        }
        while (true) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                std::string reply = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return reply;
            }
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n <= 0)
                fatal("serve_loadgen: server closed the connection");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                         p * static_cast<double>(sorted.size())));
    return sorted[rank];
}

struct RunResult
{
    int clients = 0;
    int requests = 0;
    double seconds = 0.0;
    double qps = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double shedRate = 0.0;
    int mismatches = 0;
};

RunResult
runClosedLoop(std::uint16_t port, const Workload &load, int clients,
              int total_requests)
{
    std::atomic<int> next{0};
    std::atomic<int> mismatches{0};
    std::atomic<int> shed{0};
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));

    const auto worker = [&](int client_index) {
        Client client(port);
        auto &lat = latencies[static_cast<std::size_t>(client_index)];
        while (true) {
            const int index = next.fetch_add(1);
            if (index >= total_requests)
                break;
            const std::size_t slot =
                static_cast<std::size_t>(index) % load.frames.size();
            const auto start = std::chrono::steady_clock::now();
            const std::string reply =
                client.roundTrip(load.frames[slot]);
            lat.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
            if (reply == load.expected[slot])
                continue;
            if (reply.find("\"ok\": false") != std::string::npos)
                shed.fetch_add(1);
            else
                mismatches.fetch_add(1);
        }
    };

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int i = 0; i < clients; ++i)
        threads.emplace_back(worker, i);
    for (std::thread &t : threads)
        t.join();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    std::vector<double> all;
    for (const auto &lat : latencies)
        all.insert(all.end(), lat.begin(), lat.end());
    std::sort(all.begin(), all.end());

    RunResult result;
    result.clients = clients;
    result.requests = total_requests;
    result.seconds = seconds;
    result.qps = seconds > 0.0
                     ? static_cast<double>(total_requests) / seconds
                     : 0.0;
    result.p50Ms = percentile(all, 0.50) * 1e3;
    result.p95Ms = percentile(all, 0.95) * 1e3;
    result.p99Ms = percentile(all, 0.99) * 1e3;
    result.shedRate = static_cast<double>(shed.load()) /
                      static_cast<double>(total_requests);
    result.mismatches = mismatches.load();
    return result;
}

/** Sweep-query oracle: server reply vs runSweepSerial, byte for byte. */
bool
checkSweepOracle(std::uint16_t port)
{
    SweepSpec spec;
    spec.airframes = {SweepAirframe{Quantity<Millimeters>(250.0),
                                    Quantity<Inches>(0.0)},
                      SweepAirframe{Quantity<Millimeters>(450.0),
                                    Quantity<Inches>(0.0)}};
    spec.boards = {ComputeBoardRecord{"Basic 3W chip",
                                      BoardClass::Basic, 20.0, 3.0}};
    spec.cells = {3, 4};
    spec.capacityLoMah = Quantity<MilliampHours>(2000.0);
    spec.capacityHiMah = Quantity<MilliampHours>(5000.0);
    spec.capacityStepMah = Quantity<MilliampHours>(500.0);

    serve::Request request;
    request.id = 999983;
    request.kind = serve::QueryKind::Sweep;
    request.spec = spec;

    const std::vector<DesignResult> points = runSweepSerial(spec);
    std::size_t feasible = 0;
    for (const DesignResult &p : points)
        feasible += p.feasible ? 1 : 0;
    const std::string expected = serve::serializeSweepReply(
        request.id, points, feasible, engine::paretoFrontier(points));

    Client client(port);
    const std::string reply =
        client.roundTrip(serve::serializeRequest(request));
    if (reply == expected)
        return true;
    warn("serve_loadgen: sweep reply diverged from the serial "
         "oracle");
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    serve::ServerOptions server_options;
    // The bench measures engine-bound serving throughput: open the
    // rate limits wide so admission only acts if the queue backs up.
    server_options.service.admission.interactive = {1e9, 1e9};
    server_options.service.admission.batch = {1e9, 1e9};
    server_options.service.admission.queueCapacity = 8192;
    server_options.workers = opts.workers;
    serve::Server server{server_options};
    const std::uint16_t port = server.start();

    std::printf("=== serve_loadgen: closed-loop protocol bench ===\n");
    const Workload load = buildWorkload();
    std::printf("workload: %zu distinct design queries, %d requests "
                "per run, %d server worker(s)\n",
                load.frames.size(), opts.requests, opts.workers);

    // Warm pass: every distinct point once, so timed runs measure
    // the steady state.
    {
        Client warm(port);
        for (std::size_t i = 0; i < load.frames.size(); ++i) {
            if (warm.roundTrip(load.frames[i]) != load.expected[i])
                fatal("serve_loadgen: cold-path reply diverged from "
                      "the solveDesign oracle");
        }
    }

    const bool sweep_ok = checkSweepOracle(port);

    std::vector<RunResult> runs;
    int total_mismatches = 0;
    for (int clients : {1, 2, 4, 8}) {
        const RunResult result =
            runClosedLoop(port, load, clients, opts.requests);
        std::printf("clients=%d  %.0f q/s  p50=%.3fms p95=%.3fms "
                    "p99=%.3fms  shed=%.2f%%  mismatches=%d\n",
                    result.clients, result.qps, result.p50Ms,
                    result.p95Ms, result.p99Ms,
                    100.0 * result.shedRate, result.mismatches);
        total_mismatches += result.mismatches;
        runs.push_back(result);
    }
    server.stop();

    std::vector<JsonValue> run_values;
    for (const RunResult &r : runs) {
        run_values.push_back(JsonValue::object({
            {"clients", JsonValue::number(r.clients)},
            {"requests", JsonValue::number(r.requests)},
            {"seconds", JsonValue::number(r.seconds)},
            {"qps", JsonValue::number(r.qps)},
            {"latency_ms",
             JsonValue::object({
                 {"p50", JsonValue::number(r.p50Ms)},
                 {"p95", JsonValue::number(r.p95Ms)},
                 {"p99", JsonValue::number(r.p99Ms)},
             })},
            {"shed_rate", JsonValue::number(r.shedRate)},
            {"mismatches", JsonValue::number(r.mismatches)},
        }));
    }
    const JsonValue doc = JsonValue::object({
        {"bench", JsonValue::string("serve_loadgen")},
        {"distinct_queries",
         JsonValue::number(static_cast<double>(load.frames.size()))},
        {"server_workers", JsonValue::number(opts.workers)},
        {"sweep_oracle_ok", JsonValue::boolean(sweep_ok)},
        {"runs", JsonValue::array(std::move(run_values))},
    });
    std::FILE *f = std::fopen(opts.outputPath.c_str(), "w");
    if (!f)
        fatal("serve_loadgen: cannot open '" + opts.outputPath + "'");
    const std::string text = doc.dump(6) + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("Wrote %s\n", opts.outputPath.c_str());

    if (total_mismatches > 0 || !sweep_ok) {
        warn("serve_loadgen: FAILED oracle byte-comparison");
        return 1;
    }
    std::printf("All replies byte-identical to the serial oracle.\n");
    return 0;
}
