/**
 * @file
 * Studies phase: one client sending the paper's study queries
 * through `Service::handleFrame`, plus a fleet battery through the
 * public fleet API.
 *
 * The queries: explore over the 450 mm reference space (34,080
 * points at 100 mAh) at its 10% budget, explore over the six-axis
 * wide space at 4,096 evaluations, 4 risk queries at 4,096 samples
 * on seeded points, and one codesign query per
 * `paperMissionCatalog()` mission.  A block is one step of a
 * six-step cycle, each through a fresh Service: the risk and codesign
 * queries interleaved (a "cheap pass"), the reference explore, a
 * cheap pass, `fleet::runFleet` over the composed catalog x 64
 * drones at 2 jobs, a cheap pass, the wide explore.  Short blocks let
 * the scheduler spread the cheap passes over the whole run: with the
 * cycle as one 1.2 s block, a run's risk latency came from 8 blocks,
 * and the share of them that fell in the host's slow mode moved it
 * by 9% from run to run.
 *
 * Oracles, computed before the timed window through the direct
 * APIs: explore, risk and codesign replies serialized from a fresh
 * engine's result (so every round's reply must be byte-equal to it
 * and to every other round's), every codesign recommendation must
 * be the FPGA, and the 2-job fleet ECDF CSV must equal the 1-job one.
 */

#include <set>
#include <tuple>

#include "bench.hh"
#include "codesign/codesign.hh"
#include "engine/pareto.hh"
#include "explore/driver.hh"
#include "explore/gate.hh"
#include "explore/sampler.hh"
#include "explore/space.hh"
#include "fleet/fleet.hh"
#include "obs/tracer.hh"
#include "serve/request.hh"
#include "util/rng.hh"

namespace perfbench {

namespace {

using namespace dronedse;

constexpr std::size_t kRiskQueries = 4;
constexpr std::size_t kRiskSamples = 4096;
/** Steps in the cycle of timed studies blocks. */
constexpr std::size_t kCycleSteps = 6;
/** Wire ids of the two explore queries. */
constexpr std::uint64_t kExploreIds[] = {100, 101};

/** Canonical identity of one lattice design (bit-exact fields). */
using PointKey = std::tuple<double, int, double, double, std::string,
                            int, double>;

PointKey
keyOf(const DesignResult &res)
{
    return {res.inputs.wheelbaseMm.value(), res.inputs.cells,
            res.inputs.capacityMah.value(), res.inputs.twr,
            res.inputs.compute.name,
            static_cast<int>(res.inputs.activity),
            res.inputs.payloadG.value()};
}

struct Query
{
    serve::Request request;
    std::string frame;
    std::string oracle;
};

class StudiesPhase : public Phase
{
  public:
    explicit StudiesPhase(const PhaseConfig &config)
    {
        corruptOracle = config.corruptOracle;
        // Wire seeds must be exact JSON integers.
        const std::uint64_t seed =
            mixSeed(config.seed, "studies") & 0xffffffffULL;
        Rng rng(seed);

        std::vector<Query> explores, risks, codesigns;
        const explore::ExploreSpace spaces[] = {
            explore::referenceSpace450(Quantity<MilliampHours>(100.0)),
            explore::wideSpace6()};
        const std::size_t budgets[] = {
            spaces[0].pointCount() / 10, 4096};
        for (int s = 0; s < 2; ++s) {
            Query q;
            q.request.id = kExploreIds[s];
            q.request.kind = serve::QueryKind::Explore;
            q.request.cls = serve::QueryClass::Batch;
            q.request.explore.space = spaces[s];
            q.request.explore.options.seed = seed;
            q.request.explore.options.maxEvaluations = budgets[s];
            engine::SweepEngine engine{oracleEngine()};
            explore::AdaptiveDriver driver(engine,
                                           q.request.explore.options);
            q.oracle = serve::serializeExploreReply(
                q.request.id, driver.run(q.request.explore.space));
            explores.push_back(std::move(q));
        }
        for (std::size_t r = 0; r < kRiskQueries; ++r) {
            Query q;
            q.request.id = 200 + r;
            q.request.kind = serve::QueryKind::Risk;
            q.request.cls = serve::QueryClass::Batch;
            explore::RiskQuery &risk = q.request.risk;
            risk.point.wheelbaseMm = Quantity<Millimeters>(
                400.0 + 50.0 * static_cast<double>(rng.uniformInt(0, 2)));
            risk.point.cells = static_cast<int>(rng.uniformInt(3, 4));
            risk.point.capacityMah = Quantity<MilliampHours>(
                2000.0 +
                100.0 * static_cast<double>(rng.uniformInt(0, 30)));
            risk.options.seed = rng.next() & 0xffffffffULL;
            risk.options.samples = kRiskSamples;
            explore::GateSpec gate;
            gate.threshold = 10.0;
            risk.gates = {gate};
            risk.quantiles = {0.05, 0.5, 0.95};
            q.oracle = serve::serializeRiskReply(
                q.request.id, explore::runRiskQuery(risk),
                risk.quantiles);
            risks.push_back(std::move(q));
        }
        const std::vector<codesign::MissionSpec> missions =
            codesign::paperMissionCatalog();
        for (std::size_t m = 0; m < missions.size(); ++m) {
            Query q;
            q.request.id = 300 + m;
            q.request.kind = serve::QueryKind::Codesign;
            q.request.cls = serve::QueryClass::Batch;
            q.request.mission = missions[m];
            engine::SweepEngine engine{oracleEngine()};
            const codesign::CodesignOutcome outcome =
                codesign::CodesignDriver(engine).run(missions[m]);
            if (outcome.recommended.config.platform !=
                PlatformKind::Fpga)
                fpgaFailures_.push_back(missions[m].name);
            q.oracle =
                serve::serializeCodesignReply(q.request.id, outcome);
            codesigns.push_back(std::move(q));
        }
        // Interleave the kinds: X R C X R C R C R C ...
        for (std::size_t i = 0;
             i < std::max(risks.size(), codesigns.size()); ++i) {
            if (i < explores.size())
                queries_.push_back(explores[i]);
            if (i < risks.size())
                queries_.push_back(risks[i]);
            if (i < codesigns.size())
                queries_.push_back(codesigns[i]);
        }
        for (Query &q : queries_) {
            q.frame = serve::serializeRequest(q.request);
            if (corruptOracle)
                corrupt(q.oracle);
        }

        fleet::ComposedCatalog catalog = fleet::composedCatalog();
        fleet_.mission = fleet::findMission("survey");
        fleet_.scenarios = std::move(catalog.scenarios);
        fleet_.dronesPerScenario = 64;
        fleet_.fleetSeed = seed;
        fleetMissions_ = static_cast<double>(fleet_.scenarios.size() *
                                             fleet_.dronesPerScenario);
        fleetOracle_ = fleet::fleetEcdfCsv(fleet::runFleet(fleet_, 1));
        if (corruptOracle)
            corrupt(fleetOracle_);
    }

    const char *name() const override { return "studies"; }

    double runBlock() override
    {
        // The FPGA check is a whole-run check, counted once.
        if (!fpgaChecked_) {
            fpgaChecked_ = true;
            tally_.record(fpgaFailures_.empty(),
                          "codesign did not recommend the FPGA");
        }
        const std::size_t step = step_++ % kCycleSteps;
        if (step == 3) {
            const Clock::time_point t0 = Clock::now();
            const fleet::FleetResult flown = fleet::runFleet(fleet_, 2);
            const double fleet_s = secondsSince(t0);
            tally_.record(fleet::fleetEcdfCsv(flown) == fleetOracle_,
                          "2-job fleet ECDF differs from the 1-job run");
            samples_["fleet_missions_per_s"].push_back(fleetMissions_ /
                                                       fleet_s);
            return fleet_s;
        }
        // Even steps are cheap passes; steps 1 and 5 the two explores.
        const bool cheap = step % 2 == 0;
        const std::uint64_t explore_id = kExploreIds[step == 1 ? 0 : 1];
        std::vector<double> risk_ms, codesign_ms;
        double timed = 0.0;
        serve::Service service(serviceOptions());
        for (const Query &q : queries_) {
            const bool is_explore =
                q.request.kind == serve::QueryKind::Explore;
            if (cheap ? is_explore : q.request.id != explore_id)
                continue;
            const Clock::time_point t0 = Clock::now();
            const std::string reply =
                service.handleFrame(q.frame, serviceTime());
            const double s = secondsSince(t0);
            timed += s;
            tally_.record(reply == q.oracle,
                          std::string(serve::queryKindName(
                              q.request.kind)) +
                              " reply differs from its oracle");
            if (q.request.kind == serve::QueryKind::Risk)
                risk_ms.push_back(s * 1e3);
            else if (q.request.kind == serve::QueryKind::Codesign)
                codesign_ms.push_back(s * 1e3);
        }
        if (cheap) {
            samples_["risk_p50_ms"].push_back(median(risk_ms));
            samples_["codesign_p50_ms"].push_back(median(codesign_ms));
        }
        return timed;
    }

    void runTracedBlock(SpanLog &log) override
    {
        // (a) untraced and (b) traced — the program's tracer on and
        // a benchmark span around the call — each query through its
        // own fresh Service, back to back.  The untraced Service's
        // cache counters give the hit ratio the studies traffic sees.
        double untraced_s = 0.0;
        double traced_s = 0.0;
        std::vector<double> explore_s;
        {
            serve::Service untraced(serviceOptions());
            serve::Service traced(serviceOptions());
            const engine::CacheCounters before =
                untraced.engine().cacheCounters();
            for (const Query &q : queries_) {
                Clock::time_point t0 = Clock::now();
                std::string reply =
                    untraced.handleFrame(q.frame, serviceTime());
                const double s = secondsSince(t0);
                untraced_s += s;
                if (q.request.kind == serve::QueryKind::Explore)
                    explore_s.push_back(s);
                tally_.record(reply == q.oracle,
                              "studies reply differs from its oracle");
                obs::tracer().setEnabled(true);
                t0 = Clock::now();
                {
                    SpanLog::Scope span(log, q.request.id,
                                        "studies.handle");
                    reply = traced.handleFrame(q.frame, serviceTime());
                }
                traced_s += secondsSince(t0);
                obs::tracer().setEnabled(false);
                tally_.record(reply == q.oracle,
                              "traced studies reply differs");
            }
            obs::tracer().clear();
            const engine::CacheCounters after =
                untraced.engine().cacheCounters();
            const double hits =
                static_cast<double>(after.hits - before.hits);
            layers_["engine.cache_hit_ratio"].push_back(
                hits /
                (hits + static_cast<double>(after.misses - before.misses)));
        }
        layers_["obs.trace_overhead_pct"].push_back(
            100.0 * (traced_s - untraced_s) / untraced_s);
        layers_["explore.query_s"].push_back(mean(explore_s));

        // (c) replay through the public entry points.
        const Query &reference = queries_.front();
        const explore::ExploreQuery &eq = reference.request.explore;
        const std::uint64_t xid = reference.request.id;
        explore::ExploreResult adaptive;
        {
            engine::SweepEngine engine{oracleEngine()};
            const Clock::time_point t0 = Clock::now();
            {
                SpanLog::Scope span(log, xid, "explore.driver");
                explore::AdaptiveDriver driver(engine, eq.options);
                adaptive = driver.run(eq.space);
            }
            layers_["explore.driver_s"].push_back(secondsSince(t0));
            layers_["explore.evaluations"].push_back(
                static_cast<double>(adaptive.evaluations()));
        }
        std::set<PointKey> exhaustive_frontier;
        {
            engine::SweepEngine engine{oracleEngine()};
            const Clock::time_point t0 = Clock::now();
            SpanLog::Scope root(log, xid, "explore.exhaustive");
            std::vector<DesignInputs> inputs;
            {
                SpanLog::Scope span(log, xid, "explore.enumerate");
                auto gen = explore::makeGenerator(
                    explore::SamplerKind::Grid, 0);
                for (const auto &idx :
                     gen->nextBatch(eq.space, eq.space.pointCount()))
                    inputs.push_back(eq.space.materialize(idx));
            }
            std::vector<DesignResult> points;
            {
                SpanLog::Scope span(log, xid, "engine.solve_points");
                points = engine.solvePoints(inputs);
            }
            std::vector<std::size_t> frontier;
            {
                SpanLog::Scope span(log, xid, "engine.frontier");
                frontier = engine::paretoFrontier(points);
            }
            layers_["explore.exhaustive_s"].push_back(secondsSince(t0));
            for (std::size_t i : frontier)
                exhaustive_frontier.insert(keyOf(points[i]));
        }
        std::size_t recovered = 0;
        for (std::size_t i : adaptive.frontier)
            recovered += exhaustive_frontier.count(
                keyOf(adaptive.points[i]));
        layers_["explore.frontier_recall"].push_back(
            static_cast<double>(recovered) /
            static_cast<double>(exhaustive_frontier.size()));

        std::vector<double> scatter_ms, risk_ms, search_ms;
        for (const Query &q : queries_) {
            const std::uint64_t id = q.request.id;
            if (q.request.kind == serve::QueryKind::Risk) {
                const explore::RiskQuery &risk = q.request.risk;
                Clock::time_point t0 = Clock::now();
                explore::FitScatter scatter;
                {
                    SpanLog::Scope span(log, id, "explore.scatter");
                    scatter = explore::FitScatter::fromCatalogs(
                        risk.options.seed, risk.options.scatterReplicates);
                }
                scatter_ms.push_back(secondsSince(t0) * 1e3);
                t0 = Clock::now();
                {
                    SpanLog::Scope span(log, id, "explore.risk");
                    explore::runRiskQuery(risk, scatter);
                }
                risk_ms.push_back(secondsSince(t0) * 1e3);
            } else if (q.request.kind == serve::QueryKind::Codesign) {
                engine::SweepEngine engine{oracleEngine()};
                const codesign::CodesignDriver driver(engine);
                const Clock::time_point t0 = Clock::now();
                {
                    SpanLog::Scope span(log, id, "codesign.search");
                    driver.run(q.request.mission);
                }
                search_ms.push_back(secondsSince(t0) * 1e3);
            }
        }
        layers_["explore.scatter_ms"].push_back(mean(scatter_ms));
        layers_["explore.risk_ms"].push_back(mean(risk_ms));
        layers_["codesign.search_ms"].push_back(mean(search_ms));

        for (int jobs : {1, 2}) {
            const Clock::time_point t0 = Clock::now();
            fleet::FleetResult flown;
            {
                SpanLog::Scope span(log, 0, jobs == 1 ? "fleet.run_1t"
                                                      : "fleet.run_2t");
                flown = fleet::runFleet(fleet_, jobs);
            }
            const double s = secondsSince(t0);
            tally_.record(fleet::fleetEcdfCsv(flown) == fleetOracle_,
                          "fleet ECDF differs from the 1-job run");
            layers_[jobs == 1 ? "fleet.missions_per_s_1t"
                              : "fleet.missions_per_s_2t"]
                .push_back(fleetMissions_ / s);
        }
    }

  private:
    static engine::EngineOptions oracleEngine()
    {
        engine::EngineOptions options;
        options.threads = kEngineThreads;
        return options;
    }

    std::vector<Query> queries_;
    std::vector<std::string> fpgaFailures_;
    bool fpgaChecked_ = false;
    /** Blocks run so far; a block runs step `step_ % kCycleSteps`. */
    std::size_t step_ = 0;
    fleet::FleetSpec fleet_;
    double fleetMissions_ = 0.0;
    std::string fleetOracle_;
};

} // namespace

std::unique_ptr<Phase>
makeStudiesPhase(const PhaseConfig &config)
{
    return std::make_unique<StudiesPhase>(config);
}

} // namespace perfbench
