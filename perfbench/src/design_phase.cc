/**
 * @file
 * Design phase: closed-loop design queries from two client threads
 * through `Service::handleFrame`.
 *
 * Sixteen block definitions are generated from the seed, each over
 * its own 1,280 distinct valid points (20,480 in all).  A block
 * sends every point once plus 1,280 repeats drawn Zipf(1) over the
 * block's points, shuffled and dealt to the two clients, so about
 * half the queries are memo-cache hits and half are fresh.  Each
 * block runs against a fresh Service, so the hit ratio is a
 * property of the block, not of how many blocks ran before it.
 */

#include <algorithm>
#include <latch>
#include <set>
#include <thread>
#include <tuple>

#include "bench.hh"
#include "components/compute_board.hh"
#include "dse/weight_closure.hh"
#include "obs/tracer.hh"
#include "serve/request.hh"
#include "util/rng.hh"

namespace perfbench {

namespace {

using namespace dronedse;

constexpr std::size_t kPointsPerBlock = 1280;
constexpr std::size_t kBlockDefs = 16;

struct BlockDef
{
    /** Indices into the phase's frames, one list per client. */
    std::vector<std::uint32_t> order[kClients];
};

DesignInputs
randomPoint(Rng &rng, const std::vector<ComputeBoardRecord> &boards)
{
    static const double kTwr[] = {1.5, 2.0, 2.5, 3.0};
    DesignInputs p;
    p.wheelbaseMm = Quantity<Millimeters>(
        200.0 + 50.0 * static_cast<double>(rng.uniformInt(0, 12)));
    p.cells = static_cast<int>(rng.uniformInt(2, 6));
    p.capacityMah = Quantity<MilliampHours>(
        1000.0 + 50.0 * static_cast<double>(rng.uniformInt(0, 140)));
    p.twr = kTwr[rng.uniformInt(0, 3)];
    p.compute = boards[static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(boards.size()) - 1))];
    p.activity = rng.bernoulli(0.5) ? FlightActivity::Hovering
                                    : FlightActivity::Maneuvering;
    p.payloadG = Quantity<Grams>(
        50.0 * static_cast<double>(rng.uniformInt(0, 6)));
    return p;
}

class DesignPhase : public Phase
{
  public:
    explicit DesignPhase(const PhaseConfig &config)
    {
        corruptOracle = config.corruptOracle;
        Rng rng(mixSeed(config.seed, "design"));
        const std::vector<ComputeBoardRecord> &boards =
            computeBoardTable();
        std::set<std::tuple<double, int, double, double, std::size_t,
                            int, double>>
            seen;
        // Zipf(1) CDF over block ranks.
        std::vector<double> cdf(kPointsPerBlock);
        double total = 0.0;
        for (std::size_t r = 0; r < kPointsPerBlock; ++r) {
            total += 1.0 / static_cast<double>(r + 1);
            cdf[r] = total;
        }
        for (std::size_t d = 0; d < kBlockDefs; ++d) {
            const auto first =
                static_cast<std::uint32_t>(frames_.size());
            while (frames_.size() < first + kPointsPerBlock) {
                const DesignInputs p = randomPoint(rng, boards);
                std::size_t board = 0;
                while (boards[board].name != p.compute.name)
                    ++board;
                if (!seen.emplace(p.wheelbaseMm.value(), p.cells,
                                  p.capacityMah.value(), p.twr, board,
                                  static_cast<int>(p.activity),
                                  p.payloadG.value())
                         .second)
                    continue;
                serve::Request request;
                request.id = frames_.size() + 1;
                request.kind = serve::QueryKind::Design;
                request.point = p;
                frames_.push_back(serve::serializeRequest(request));
                oracles_.push_back(serve::serializeDesignReply(
                    request.id, solveDesign(p)));
                if (corruptOracle)
                    corrupt(oracles_.back());
            }
            std::vector<std::uint32_t> ranks(kPointsPerBlock);
            for (std::uint32_t i = 0; i < kPointsPerBlock; ++i)
                ranks[i] = first + i;
            shuffle(ranks, rng);
            std::vector<std::uint32_t> sequence = ranks;
            for (std::size_t k = 0; k < kPointsPerBlock; ++k) {
                const double u = rng.uniform() * total;
                const auto r = static_cast<std::size_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                sequence.push_back(
                    ranks[std::min(r, kPointsPerBlock - 1)]);
            }
            shuffle(sequence, rng);
            BlockDef def;
            for (std::size_t i = 0; i < sequence.size(); ++i)
                def.order[i % kClients].push_back(sequence[i]);
            defs_.push_back(std::move(def));
        }
    }

    const char *name() const override { return "design"; }

    double runBlock() override
    {
        const BlockDef &def = defs_[next_++ % defs_.size()];
        serve::Service service(serviceOptions());
        ClientPool pool(service, kClients);
        std::vector<double> latency[kClients];
        std::size_t bad[kClients] = {};
        Clock::time_point begin[kClients], end[kClients];
        std::latch ready(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                const std::vector<std::uint32_t> &order = def.order[c];
                std::vector<double> &lat = latency[c];
                lat.reserve(order.size());
                ready.arrive_and_wait();
                begin[c] = Clock::now();
                for (std::uint32_t idx : order) {
                    const Clock::time_point t0 = Clock::now();
                    const std::string reply =
                        pool.roundTrip(c, frames_[idx]);
                    const Clock::time_point t1 = Clock::now();
                    lat.push_back(
                        std::chrono::duration<double, std::micro>(t1 -
                                                                  t0)
                            .count());
                    bad[c] += reply != oracles_[idx];
                }
                end[c] = Clock::now();
            });
        }
        for (std::thread &t : clients)
            t.join();

        std::vector<double> all;
        for (int c = 0; c < kClients; ++c) {
            all.insert(all.end(), latency[c].begin(), latency[c].end());
            tally_.attempted += latency[c].size();
            tally_.ok += latency[c].size() - bad[c];
            if (bad[c] > 0 && tally_.failures.size() < 16)
                tally_.failures.push_back(
                    "design reply differs from its oracle");
        }
        const double wall = secondsBetween(
            std::min(begin[0], begin[1]), std::max(end[0], end[1]));
        samples_["design_p50_us"].push_back(median(all));
        samples_["design_qps"].push_back(
            static_cast<double>(all.size()) / wall);
        return wall;
    }

    void runTracedBlock(SpanLog &log) override
    {
        const BlockDef &def = defs_[next_++ % defs_.size()];
        std::vector<std::uint32_t> sequence;
        for (std::size_t i = 0; i < def.order[0].size(); ++i) {
            for (int c = 0; c < kClients; ++c) {
                if (i < def.order[c].size())
                    sequence.push_back(def.order[c][i]);
            }
        }
        const double n = static_cast<double>(sequence.size());

        // (a) untraced and (b) traced — the program's tracer on and
        // a benchmark span around the call — each request through
        // its own fresh Service, back to back so drift hits both.
        double handle_us = 0.0;
        double traced_us = 0.0;
        {
            serve::Service untraced(serviceOptions());
            serve::Service traced(serviceOptions());
            for (std::uint32_t idx : sequence) {
                Clock::time_point t0 = Clock::now();
                std::string reply =
                    untraced.handleFrame(frames_[idx], serviceTime());
                handle_us += std::chrono::duration<double, std::micro>(
                                 Clock::now() - t0)
                                 .count();
                tally_.record(reply == oracles_[idx],
                              "design reply differs from its oracle");
                obs::tracer().setEnabled(true);
                t0 = Clock::now();
                {
                    SpanLog::Scope span(log, idx + 1, "design.handle");
                    reply = traced.handleFrame(frames_[idx], serviceTime());
                }
                traced_us += std::chrono::duration<double, std::micro>(
                                 Clock::now() - t0)
                                 .count();
                obs::tracer().setEnabled(false);
                tally_.record(reply == oracles_[idx],
                              "traced design reply differs");
            }
            obs::tracer().clear();
        }

        // (c) replay through the public entry points in pipeline
        // order.  One thread and a fresh cache, so a point's first
        // occurrence is exactly a miss and every later one a hit.
        serve::Service service(serviceOptions());
        const engine::CacheCounters before =
            service.engine().cacheCounters();
        const std::size_t from = log.size();
        std::vector<bool> solved(frames_.size(), false);
        double hits = 0.0;
        for (std::uint32_t idx : sequence) {
            const std::uint64_t id = idx + 1;
            SpanLog::Scope root(log, id, "design.request");
            serve::Request request;
            serve::ErrorReply err;
            bool valid = false;
            {
                SpanLog::Scope span(log, id, "serve.parse");
                valid = serve::parseRequest(frames_[idx], request, err);
            }
            {
                SpanLog::Scope span(log, id, "serve.validate");
                valid = valid &&
                        service.planner().validate(request, err);
            }
            DesignResult result;
            {
                const bool hit = solved[idx];
                SpanLog::Scope span(log, id,
                                    hit ? "engine.solve.hit"
                                        : "engine.solve.miss");
                result = service.engine().solve(request.point);
            }
            hits += solved[idx] ? 1.0 : 0.0;
            solved[idx] = true;
            std::string reply;
            {
                SpanLog::Scope span(log, id, "serve.serialize");
                reply = serve::serializeDesignReply(request.id, result);
            }
            tally_.record(valid && reply == oracles_[idx],
                          "replayed design reply differs");
        }
        const engine::CacheCounters after =
            service.engine().cacheCounters();
        std::map<std::string, double> self = log.selfTimeUs(from);
        const double parse = self["serve.parse"] / n;
        const double validate = self["serve.validate"] / n;
        const double serialize = self["serve.serialize"] / n;
        const double solve =
            (self["engine.solve.hit"] + self["engine.solve.miss"]) / n;
        layers_["serve.parse_us"].push_back(parse);
        layers_["serve.validate_us"].push_back(validate);
        layers_["serve.serialize_us"].push_back(serialize);
        layers_["engine.solve_us"].push_back(solve);
        layers_["engine.solve_hit_us"].push_back(
            self["engine.solve.hit"] / hits);
        layers_["engine.solve_miss_us"].push_back(
            self["engine.solve.miss"] / (n - hits));
        layers_["serve.unattributed_us"].push_back(
            handle_us / n - (parse + validate + solve + serialize));
        layers_["serve.handle_mean_us"].push_back(handle_us / n);
        const double lookups =
            static_cast<double>((after.hits - before.hits) +
                                (after.misses - before.misses));
        layers_["engine.cache_hit_ratio"].push_back(
            static_cast<double>(after.hits - before.hits) / lookups);
        layers_["obs.trace_overhead_pct"].push_back(
            100.0 * (traced_us - handle_us) / handle_us);
    }

  private:
    static void shuffle(std::vector<std::uint32_t> &v, Rng &rng)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    std::vector<std::string> frames_;
    std::vector<std::string> oracles_;
    std::vector<BlockDef> defs_;
    std::size_t next_ = 0;
};

} // namespace

std::unique_ptr<Phase>
makeDesignPhase(const PhaseConfig &config)
{
    return std::make_unique<DesignPhase>(config);
}

} // namespace perfbench
