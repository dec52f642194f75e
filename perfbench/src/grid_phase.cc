/**
 * @file
 * Grid phase: closed-loop sweep and pareto queries from two client
 * threads, engine at two worker threads.
 *
 * A round is a ladder of six steps whose point counts are the
 * midpoints of equal log-width strata between the ladder's ends
 * (2k..48k points for the grid workload, 2k..12k elsewhere).  At
 * each step both clients send a query of that size, starting
 * together, so one of the two queues behind the other's run and the
 * pair's median is the same whichever wins.  With the clients
 * walking different sizes freely, a query's latency depended on
 * whether it queued behind the other client's largest one, and the
 * per-round medians swung by 2x.  Each kind gets three steps, so its
 * per-round median is the middle step's pair: with two steps a kind,
 * the median fell between the small step's queued query and the
 * large step's solo one, two different sizes, and moved with both.
 *
 * The ladder's shape (three airframes, two to four boards, both
 * activities and cells 1..6 per step) is the same for every seed;
 * the seed and the round jitter the capacity axis, so every spec is
 * distinct and the memo cache only inserts.  Even steps are sweeps
 * and odd steps pareto queries, walked in ascending size.
 *
 * Replies are kept for the round and compared, after the timed
 * window, with the serial oracle: `runSweepSerial` +
 * `engine::paretoFrontier`, serialized by the same functions.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <barrier>
#include <thread>

#include "bench.hh"
#include "components/compute_board.hh"
#include "dse/batch_solve.hh"
#include "dse/sweep.hh"
#include "engine/pareto.hh"
#include "obs/tracer.hh"
#include "serve/request.hh"
#include "util/rng.hh"

namespace perfbench {

namespace {

using namespace dronedse;

struct Query
{
    serve::Request request;
    std::string frame;
    std::size_t points = 0;
    int client = 0;
};

/** Structure of one ladder step (seed-independent). */
struct StepShape
{
    std::vector<SweepAirframe> airframes;
    std::vector<ComputeBoardRecord> boards;
    std::vector<FlightActivity> activities;
    std::vector<int> cells;
    std::size_t capacities = 2;
};

class GridPhase : public Phase
{
  public:
    explicit GridPhase(const PhaseConfig &config)
        : rng_(mixSeed(config.seed, "grid"))
    {
        corruptOracle = config.corruptOracle;
        const std::size_t steps = 6;
        const double lo = 2000.0;
        const double hi = config.main ? 48000.0 : 12000.0;
        // A fixed stream, so that every seed gets the same ladder.
        Rng shape_rng(0x6772696400000001ULL);
        const std::vector<ComputeBoardRecord> &table =
            computeBoardTable();
        for (std::size_t i = 0; i < steps; ++i) {
            StepShape shape;
            const double wheelbase =
                300.0 +
                50.0 * static_cast<double>(shape_rng.uniformInt(0, 2));
            for (int a = 0; a < 3; ++a)
                shape.airframes.push_back(SweepAirframe{
                    Quantity<Millimeters>(wheelbase + 100.0 * a), {}});
            std::vector<std::size_t> picks(table.size());
            for (std::size_t b = 0; b < picks.size(); ++b)
                picks[b] = b;
            const auto nboards = static_cast<std::size_t>(
                shape_rng.uniformInt(2, 4));
            for (std::size_t b = 0; b < nboards; ++b) {
                const auto j = static_cast<std::size_t>(
                    shape_rng.uniformInt(
                        static_cast<std::int64_t>(b),
                        static_cast<std::int64_t>(picks.size()) - 1));
                std::swap(picks[b], picks[j]);
                shape.boards.push_back(table[picks[b]]);
            }
            shape.activities = {FlightActivity::Hovering,
                                FlightActivity::Maneuvering};
            shape.cells = {1, 2, 3, 4, 5, 6};
            const double target =
                lo * std::pow(hi / lo, (static_cast<double>(i) + 0.5) /
                                           static_cast<double>(steps));
            const std::size_t per_capacity =
                shape.airframes.size() * shape.boards.size() *
                shape.activities.size() *
                shape.cells.size();
            shape.capacities = std::max<std::size_t>(
                2, static_cast<std::size_t>(std::lround(
                       target / static_cast<double>(per_capacity))));
            shapes_.push_back(std::move(shape));
        }
    }

    const char *name() const override { return "grid"; }

    double runBlock() override
    {
        std::vector<Query> round = makeRound();
        std::vector<double> latency(round.size());
        std::vector<std::string> replies(round.size());
        const double wall = runClients(round, latency, replies);
        verify(round, replies, "grid");

        std::vector<double> sweep_ms, pareto_ms;
        double points = 0.0;
        for (std::size_t i = 0; i < round.size(); ++i) {
            points += static_cast<double>(round[i].points);
            (round[i].request.kind == serve::QueryKind::Sweep
                 ? sweep_ms
                 : pareto_ms)
                .push_back(latency[i] * 1e3);
        }
        samples_["sweep_p50_ms"].push_back(median(sweep_ms));
        samples_["pareto_p50_ms"].push_back(median(pareto_ms));
        samples_["grid_points_per_s"].push_back(points / wall);
        return wall;
    }

    void runTracedBlock(SpanLog &log) override
    {
        std::vector<Query> round = makeRound();
        const std::vector<std::string> oracles = oracleReplies(round);

        // (a) untraced and (b) traced — the program's tracer on and
        // a benchmark span around the call — one client, each query
        // through its own fresh Service, back to back.
        double busy_s = 0.0;
        double traced_s = 0.0;
        {
            serve::Service untraced(serviceOptions());
            serve::Service traced(serviceOptions());
            for (std::size_t i = 0; i < round.size(); ++i) {
                const Query &q = round[i];
                Clock::time_point t0 = Clock::now();
                std::string reply =
                    untraced.handleFrame(q.frame, serviceTime());
                busy_s += secondsSince(t0);
                tally_.record(reply == oracles[i],
                              "grid reply differs from its oracle");
                obs::tracer().setEnabled(true);
                t0 = Clock::now();
                {
                    SpanLog::Scope span(log, q.request.id, "grid.handle");
                    reply = traced.handleFrame(q.frame, serviceTime());
                }
                traced_s += secondsSince(t0);
                obs::tracer().setEnabled(false);
                tally_.record(reply == oracles[i],
                              "traced grid reply differs");
            }
            obs::tracer().clear();
        }
        // The same round from both clients: Σ single-client busy
        // time over two-client wall time is the run overlap.
        {
            std::vector<double> latency(round.size());
            std::vector<std::string> replies(round.size());
            const double wall2 = runClients(round, latency, replies);
            for (std::size_t i = 0; i < round.size(); ++i)
                tally_.record(replies[i] == oracles[i],
                              "grid reply differs from its oracle");
            layers_["engine.run_overlap"].push_back(busy_s / wall2);
        }

        // (c) replay through the public entry points.
        serve::Service service(serviceOptions());
        double points = 0.0, sweep_points = 0.0, sweep_bytes = 0.0;
        double sweep_serialize_us = 0.0;
        const std::size_t from = log.size();
        for (const Query &q : round) {
            const std::uint64_t id = q.request.id;
            SpanLog::Scope root(log, id, "grid.request");
            serve::Request request;
            serve::ErrorReply err;
            bool valid = false;
            {
                SpanLog::Scope span(log, id, "serve.parse");
                valid = serve::parseRequest(q.frame, request, err);
            }
            {
                SpanLog::Scope span(log, id, "serve.validate");
                valid = valid &&
                        service.planner().validate(request, err);
            }
            std::vector<DesignInputs> inputs;
            {
                SpanLog::Scope span(log, id, "dse.expand");
                inputs = expandGrid(request.spec);
            }
            {
                SpanLog::Scope span(log, id, "dse.kernel");
                const std::vector<DesignResult> kernel =
                    solveDesignBatch(inputs);
            }
            engine::SweepResult result;
            {
                SpanLog::Scope span(log, id, "engine.run");
                result = service.engine().run(request.spec);
            }
            std::vector<std::size_t> frontier;
            {
                SpanLog::Scope span(log, id, "engine.frontier");
                frontier = engine::paretoFrontier(result.points);
            }
            std::string reply;
            const Clock::time_point s0 = Clock::now();
            {
                SpanLog::Scope span(log, id, "serve.serialize");
                reply = request.kind == serve::QueryKind::Sweep
                            ? serve::serializeSweepReply(
                                  id, result.points,
                                  result.feasible.size(), frontier)
                            : serve::serializeParetoReply(
                                  id, result.points, frontier);
            }
            const double serialize_us =
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          s0)
                    .count();
            const auto n = static_cast<double>(inputs.size());
            points += n;
            if (request.kind == serve::QueryKind::Sweep) {
                sweep_points += n;
                sweep_bytes += static_cast<double>(reply.size());
                sweep_serialize_us += serialize_us;
            }
            tally_.record(valid && reply == oracles[&q - round.data()],
                          "replayed grid reply differs");
        }
        std::map<std::string, double> self = log.selfTimeUs(from);
        const double per_point = 1e3 / points;
        const double expand = self["dse.expand"] * per_point;
        const double kernel = self["dse.kernel"] * per_point;
        const double run = self["engine.run"] * per_point;
        const double frontier = self["engine.frontier"] * per_point;
        layers_["dse.expand_ns_per_point"].push_back(expand);
        layers_["dse.kernel_ns_per_point"].push_back(kernel);
        layers_["engine.run_ns_per_point"].push_back(run);
        layers_["engine.frontier_ns_per_point"].push_back(frontier);
        layers_["engine.run_unexplained_ns_per_point"].push_back(
            run - (expand + kernel + frontier));
        layers_["serve.serialize_ns_per_point"].push_back(
            sweep_serialize_us * 1e3 / sweep_points);
        layers_["serve.reply_bytes_per_point"].push_back(sweep_bytes /
                                                         sweep_points);
        layers_["obs.trace_overhead_pct"].push_back(
            100.0 * (traced_s - busy_s) / busy_s);
    }

  private:
    Query makeQuery(const StepShape &shape, std::size_t step, int client)
    {
        Query q;
        q.request.id = ++nextId_;
        q.request.kind = step % 2 == 0 ? serve::QueryKind::Sweep
                                       : serve::QueryKind::Pareto;
        q.request.cls = serve::QueryClass::Batch;
        SweepSpec &spec = q.request.spec;
        spec.airframes = shape.airframes;
        spec.boards = shape.boards;
        spec.activities = shape.activities;
        spec.cells = shape.cells;
        // Capacities span ~1000..8000 mAh; the jitter keeps every
        // spec of every round distinct.
        const double capacity_step =
            7000.0 / static_cast<double>(shape.capacities - 1) *
            rng_.uniform(1.0, 1.02);
        spec.capacityLoMah =
            Quantity<MilliampHours>(rng_.uniform(1000.0, 1100.0));
        spec.capacityStepMah = Quantity<MilliampHours>(capacity_step);
        spec.capacityHiMah = Quantity<MilliampHours>(
            spec.capacityLoMah.value() +
            capacity_step * (static_cast<double>(shape.capacities) - 0.5));
        q.points = spec.pointCount();
        q.frame = serve::serializeRequest(q.request);
        q.client = client;
        return q;
    }

    /** One query per step per client, step by step. */
    std::vector<Query> makeRound()
    {
        std::vector<Query> round;
        for (std::size_t i = 0; i < shapes_.size(); ++i) {
            for (int c = 0; c < kClients; ++c) {
                round.push_back(makeQuery(shapes_[i], i, c));
            }
        }
        return round;
    }

    /** Both clients through one fresh Service; returns wall time. */
    double runClients(const std::vector<Query> &round,
                      std::vector<double> &latency,
                      std::vector<std::string> &replies)
    {
        serve::Service service(serviceOptions());
        ClientPool pool(service, kClients);
        Clock::time_point begin[kClients], end[kClients];
        // Both clients start each step together, so in every step one
        // query queues behind the other's run and the step's two
        // latencies are one solo run and one run plus a wait.
        std::barrier step(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                step.arrive_and_wait();
                begin[c] = Clock::now();
                for (std::size_t i = 0; i < round.size(); ++i) {
                    if (round[i].client != c)
                        continue;
                    if (i >= kClients)
                        step.arrive_and_wait();
                    const Clock::time_point t0 = Clock::now();
                    replies[i] = pool.roundTrip(c, round[i].frame);
                    latency[i] = secondsSince(t0);
                }
                end[c] = Clock::now();
            });
        }
        for (std::thread &t : clients)
            t.join();
        return secondsBetween(std::min(begin[0], begin[1]),
                              std::max(end[0], end[1]));
    }

    /** Serial oracle replies, computed on all hardware threads. */
    std::vector<std::string> oracleReplies(const std::vector<Query> &round)
    {
        std::vector<std::string> out(round.size());
        std::atomic<std::size_t> next{0};
        const unsigned workers =
            std::max(1U, std::thread::hardware_concurrency());
        std::vector<std::thread> pool;
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (std::size_t i = next++; i < round.size();
                     i = next++) {
                    const serve::Request &r = round[i].request;
                    const std::vector<DesignResult> serial =
                        runSweepSerial(r.spec);
                    const std::vector<std::size_t> frontier =
                        engine::paretoFrontier(serial);
                    std::size_t feasible = 0;
                    for (const DesignResult &p : serial)
                        feasible += p.feasible ? 1 : 0;
                    out[i] = r.kind == serve::QueryKind::Sweep
                                 ? serve::serializeSweepReply(
                                       r.id, serial, feasible, frontier)
                                 : serve::serializeParetoReply(
                                       r.id, serial, frontier);
                    if (corruptOracle)
                        corrupt(out[i]);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        return out;
    }

    void verify(const std::vector<Query> &round,
                const std::vector<std::string> &replies,
                const char *what)
    {
        const std::vector<std::string> oracles = oracleReplies(round);
        for (std::size_t i = 0; i < round.size(); ++i)
            tally_.record(replies[i] == oracles[i],
                          std::string(what) +
                              " reply differs from its oracle");
    }

    Rng rng_;
    std::vector<StepShape> shapes_;
    std::uint64_t nextId_ = 0;
};

} // namespace

std::unique_ptr<Phase>
makeGridPhase(const PhaseConfig &config)
{
    return std::make_unique<GridPhase>(config);
}

} // namespace perfbench
