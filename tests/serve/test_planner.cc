#include "serve/planner.hh"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hh"
#include "explore/driver.hh"
#include "explore/gate.hh"
#include "explore/space.hh"

using namespace dronedse;
using namespace dronedse::serve;

namespace {

Request
validSweep(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Sweep;
    request.spec.boards = {ComputeBoardRecord{
        "Basic 3W chip", BoardClass::Basic, 20.0, 3.0}};
    request.spec.cells = {3, 4};
    request.spec.capacityLoMah = Quantity<MilliampHours>(2000.0);
    request.spec.capacityHiMah = Quantity<MilliampHours>(4000.0);
    request.spec.capacityStepMah = Quantity<MilliampHours>(500.0);
    return request;
}

Request
validDesign(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Design;
    return request;
}

Request
validExplore(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Explore;
    request.explore.space.axes = {
        explore::capacityAxis(Quantity<MilliampHours>(1500.0),
                              Quantity<MilliampHours>(500.0), 6),
        explore::cellsAxis({3, 4}),
    };
    request.explore.options.sampler = explore::SamplerKind::Grid;
    request.explore.options.initialSamples = 4;
    request.explore.options.maxEvaluations = 12;
    return request;
}

Request
validRisk(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Risk;
    request.risk.point.capacityMah =
        Quantity<MilliampHours>(2200.0);
    request.risk.options.samples = 64;
    request.risk.gates = {explore::GateSpec{
        explore::GateMetric::FlightTimeMin, explore::GateOp::AtLeast,
        5.0, 0.5}};
    request.risk.quantiles = {0.5};
    return request;
}

} // namespace

TEST(ServePlanner, AcceptsValidQueries)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};
    ErrorReply err;
    EXPECT_TRUE(planner.validate(validDesign(1), err)) << err.message;
    EXPECT_TRUE(planner.validate(validSweep(2), err)) << err.message;
}

TEST(ServePlanner, RejectsSemanticViolations)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};

    const auto rejected = [&](const Request &request) {
        ErrorReply err;
        EXPECT_FALSE(planner.validate(request, err));
        EXPECT_EQ(err.code, ErrorCode::InvalidRequest);
        return err.message;
    };

    Request r = validDesign(1);
    r.point.cells = 9;
    rejected(r);

    r = validDesign(2);
    r.point.wheelbaseMm = Quantity<Millimeters>(-10.0);
    rejected(r);

    r = validDesign(3);
    r.point.twr = 50.0;
    rejected(r);

    r = validSweep(4);
    r.spec.boards.clear();
    rejected(r);

    r = validSweep(5);
    r.spec.capacityHiMah = Quantity<MilliampHours>(100.0);
    rejected(r); // hi < lo

    r = validSweep(6);
    r.spec.capacityStepMah = Quantity<MilliampHours>(0.1);
    rejected(r); // below minimum step

    // A hostile capacity axis must be rejected analytically, fast,
    // without walking the axis.
    r = validSweep(7);
    r.spec.capacityHiMah = Quantity<MilliampHours>(1e300);
    r.spec.capacityStepMah = Quantity<MilliampHours>(1.0);
    rejected(r);

    // Over the grid cap.
    r = validSweep(8);
    r.spec.capacityLoMah = Quantity<MilliampHours>(1.0);
    r.spec.capacityHiMah = Quantity<MilliampHours>(300001.0);
    r.spec.capacityStepMah = Quantity<MilliampHours>(1.0);
    rejected(r);

    EXPECT_EQ(planner.stats().executed, 0u);
}

TEST(ServePlanner, ExecuteMatchesEngineRun)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};
    const Request request = validSweep(21);

    const engine::SweepResult expected = engine.run(request.spec);
    const std::string reply = planner.execute(request);
    EXPECT_EQ(reply,
              serializeSweepReply(request.id, expected.points,
                                  expected.feasible.size(),
                                  expected.frontier));
}

TEST(ServePlanner, SweepAndParetoShareOneCoalescingKey)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};

    // Same spec, different kind: one coalescing key, so concurrent
    // callers share a batch.  Run serially, each query leads its own
    // batch and solves the grid once.
    Request sweep = validSweep(1);
    Request pareto = validSweep(2);
    pareto.kind = QueryKind::Pareto;

    planner.execute(sweep);
    planner.execute(pareto);
    const PlannerStats stats = planner.stats();
    EXPECT_EQ(stats.batchesLed, 2u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(engine.cacheCounters().misses,
              stats.batchesLed * sweep.spec.pointCount());
}

TEST(ServePlanner, ConcurrentIdenticalSweepsCoalesce)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    QueryPlanner planner{engine};
    const Request request = validSweep(33);
    constexpr int kCallers = 8;

    std::vector<std::string> replies(kCallers);
    std::vector<std::thread> threads;
    threads.reserve(kCallers);
    for (int i = 0; i < kCallers; ++i)
        threads.emplace_back([&, i] {
            replies[static_cast<std::size_t>(i)] =
                planner.execute(request);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kCallers; ++i)
        EXPECT_EQ(replies[static_cast<std::size_t>(i)], replies[0]);

    const PlannerStats stats = planner.stats();
    EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kCallers));
    EXPECT_GE(stats.batchesLed, 1u);
    EXPECT_EQ(stats.batchesLed + stats.coalesced,
              static_cast<std::uint64_t>(kCallers));
    // The race is real, so followers are not guaranteed, but each
    // led batch solved the grid exactly once and no follower solved.
    EXPECT_EQ(engine.cacheCounters().misses,
              stats.batchesLed * request.spec.pointCount());
}

TEST(ServePlanner, AcceptsValidExploreAndRiskQueries)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};
    ErrorReply err;
    EXPECT_TRUE(planner.validate(validExplore(1), err))
        << err.message;
    EXPECT_TRUE(planner.validate(validRisk(2), err)) << err.message;
}

TEST(ServePlanner, RejectsExploreAndRiskViolations)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};

    const auto rejected = [&](const Request &request,
                              const char *label) {
        ErrorReply err;
        EXPECT_FALSE(planner.validate(request, err)) << label;
        EXPECT_EQ(err.code, ErrorCode::InvalidRequest) << label;
    };

    // Everything the explore/risk layer would fatal() on must be
    // pre-rejected here: an admitted request can never crash the
    // worker.
    Request r = validExplore(1);
    r.explore.space.axes.clear();
    rejected(r, "empty space");

    r = validExplore(2);
    r.explore.space.axes.push_back(explore::cellsAxis({3}));
    rejected(r, "duplicate axis kind");

    r = validExplore(3);
    r.explore.options.maxEvaluations = 0;
    rejected(r, "zero evaluation budget");

    r = validExplore(4);
    r.explore.options.maxEvaluations = 1u << 30;
    rejected(r, "budget over the service cap");

    r = validExplore(5);
    r.explore.options.initialSamples = 0;
    rejected(r, "zero initial samples");

    r = validExplore(6);
    r.explore.options.roundEvaluations = 0;
    rejected(r, "zero round evaluations");

    r = validExplore(7);
    r.explore.space.axes[0] =
        explore::capacityAxis(Quantity<MilliampHours>(-100.0),
                              Quantity<MilliampHours>(50.0), 3);
    rejected(r, "negative capacity axis");

    r = validExplore(8);
    r.explore.space.base.twr = 50.0;
    rejected(r, "base twr out of range");

    r = validRisk(9);
    r.risk.options.samples = 0;
    rejected(r, "zero samples");

    r = validRisk(10);
    r.risk.options.samples = 1u << 30;
    rejected(r, "samples over the service cap");

    r = validRisk(11);
    r.risk.options.scatterReplicates = 1;
    rejected(r, "scatter replicates below 2");

    r = validRisk(12);
    r.risk.quantiles = {1.5};
    rejected(r, "quantile outside [0, 1]");

    r = validRisk(13);
    r.risk.gates[0].minProbability = -0.5;
    rejected(r, "gate probability outside [0, 1]");

    EXPECT_EQ(planner.stats().executed, 0u);
}

TEST(ServePlanner, ExploreExecuteMatchesDriverRun)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};
    const Request request = validExplore(41);

    // An identical driver run over an identical engine must produce
    // the byte-identical reply (exploration is deterministic; the
    // planner adds nothing but serialization).
    engine::SweepEngine oracle_engine{
        engine::EngineOptions{.threads = 1}};
    explore::AdaptiveDriver driver(oracle_engine,
                                   request.explore.options);
    const explore::ExploreResult expected =
        driver.run(request.explore.space);

    const std::string reply = planner.execute(request);
    EXPECT_EQ(reply, serializeExploreReply(request.id, expected));
    EXPECT_NE(reply.find("\"frontier\""), std::string::npos);
    EXPECT_NE(reply.find("\"converged\""), std::string::npos);
}

TEST(ServePlanner, RiskExecuteCarriesGatesAndQuantiles)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    QueryPlanner planner{engine};
    const Request request = validRisk(43);

    const explore::RiskOutcome expected =
        explore::runRiskQuery(request.risk);
    const std::string reply = planner.execute(request);
    EXPECT_EQ(reply, serializeRiskReply(request.id, expected,
                                        request.risk.quantiles));
    EXPECT_NE(reply.find("\"feasible_fraction\""),
              std::string::npos);
    EXPECT_NE(reply.find("\"flight_time_min\""), std::string::npos);
    EXPECT_NE(reply.find("\"all_pass\""), std::string::npos);
}

TEST(ServePlanner, ConcurrentIdenticalExploresCoalesce)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    QueryPlanner planner{engine};
    const Request request = validExplore(51);
    constexpr int kCallers = 6;

    std::vector<std::string> replies(kCallers);
    std::vector<std::thread> threads;
    threads.reserve(kCallers);
    for (int i = 0; i < kCallers; ++i)
        threads.emplace_back([&, i] {
            replies[static_cast<std::size_t>(i)] =
                planner.execute(request);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kCallers; ++i)
        EXPECT_EQ(replies[static_cast<std::size_t>(i)], replies[0]);

    const PlannerStats stats = planner.stats();
    EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kCallers));
    EXPECT_GE(stats.batchesLed, 1u);
    EXPECT_EQ(stats.batchesLed + stats.coalesced,
              static_cast<std::uint64_t>(kCallers));
    // Whatever the leader/follower split, each led batch ran the
    // deterministic exploration once and no follower solved: an
    // identical run on a fresh engine gives the per-batch count.
    engine::SweepEngine oracle_engine{
        engine::EngineOptions{.threads = 1}};
    explore::AdaptiveDriver(oracle_engine, request.explore.options)
        .run(request.explore.space);
    const std::uint64_t points = oracle_engine.cacheCounters().misses;
    EXPECT_GT(points, 0u);
    EXPECT_LE(points, request.explore.options.maxEvaluations);
    EXPECT_EQ(engine.cacheCounters().misses, stats.batchesLed * points);
}

TEST(ServePlanner, ConcurrentRunsAreSerializedByTheEngine)
{
    // Distinct specs from many threads: the engine's internal run
    // mutex must order them without torn results.
    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    QueryPlanner planner{engine};
    constexpr int kCallers = 6;

    std::vector<std::string> replies(kCallers);
    std::vector<std::string> expected(kCallers);
    std::vector<Request> requests;
    for (int i = 0; i < kCallers; ++i) {
        Request request = validSweep(static_cast<std::uint64_t>(i));
        request.spec.capacityLoMah =
            Quantity<MilliampHours>(1500.0 + 100.0 * i);
        requests.push_back(request);
    }
    std::vector<std::thread> threads;
    for (int i = 0; i < kCallers; ++i)
        threads.emplace_back([&, i] {
            replies[static_cast<std::size_t>(i)] = planner.execute(
                requests[static_cast<std::size_t>(i)]);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kCallers; ++i) {
        const Request &request =
            requests[static_cast<std::size_t>(i)];
        const engine::SweepResult oracle = engine.run(request.spec);
        EXPECT_EQ(replies[static_cast<std::size_t>(i)],
                  serializeSweepReply(request.id, oracle.points,
                                      oracle.feasible.size(),
                                      oracle.frontier))
            << "caller " << i;
    }
}
