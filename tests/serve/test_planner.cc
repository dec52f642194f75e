#include "serve/planner.hh"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hh"
#include "engine/pareto.hh"
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
validMission(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Codesign;
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

/** `request` executed by `callers` threads at once on `planner`. */
std::vector<std::string>
executeConcurrently(QueryPlanner &planner, const Request &request,
                    int callers)
{
    std::vector<std::string> replies(static_cast<std::size_t>(callers));
    std::vector<std::thread> threads;
    threads.reserve(replies.size());
    for (std::string &reply : replies)
        threads.emplace_back(
            [&] { reply = planner.execute(request); });
    for (std::thread &t : threads)
        t.join();
    return replies;
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

    // Each design-point field rule (validateDesignInputs).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    r = validDesign(9);
    r.point.capacityMah = Quantity<MilliampHours>(0.0);
    rejected(r);
    r = validDesign(10);
    r.point.propDiameterIn = Quantity<Inches>(-1.0);
    rejected(r);
    r = validDesign(11);
    r.point.compute.powerW = nan;
    rejected(r);
    r = validDesign(12);
    r.point.sensorWeightG = Quantity<Grams>(-1.0);
    rejected(r);
    r = validDesign(13);
    r.point.sensorPowerW = Quantity<Watts>(-1.0);
    rejected(r);
    r = validDesign(14);
    r.point.payloadG = Quantity<Grams>(-1.0);
    rejected(r);
    r = validDesign(15);
    r.point.wheelbaseMm = Quantity<Millimeters>(2500.0);
    rejected(r);

    // Each sweep axis and scalar (validateSweepSpec).
    r = validSweep(16);
    r.spec.airframes = {{Quantity<Millimeters>(0.0), {}}};
    rejected(r);
    r = validSweep(17);
    r.spec.airframes = {{Quantity<Millimeters>(450.0),
                         Quantity<Inches>(-1.0)}};
    rejected(r);
    r = validSweep(18);
    r.spec.boards[0].weightG = -1.0;
    rejected(r);
    r = validSweep(19);
    r.spec.activities.clear();
    rejected(r);
    r = validSweep(20);
    r.spec.cells = {3, 7};
    rejected(r);
    r = validSweep(21);
    r.spec.twr = 0.5;
    rejected(r);
    r = validSweep(22);
    r.spec.capacityLoMah = Quantity<MilliampHours>(0.0);
    rejected(r);
    r = validSweep(23);
    r.spec.capacityStepMah = Quantity<MilliampHours>(nan);
    rejected(r);
    r = validSweep(24);
    r.spec.sensorWeightG = Quantity<Grams>(-1.0);
    rejected(r);
    r = validSweep(25);
    r.spec.sensorPowerW = Quantity<Watts>(nan);
    rejected(r);
    r = validSweep(26);
    r.spec.payloadG = Quantity<Grams>(-1.0);
    rejected(r);
    r = validSweep(27);
    r.spec.cells.assign(257, 3);
    rejected(r); // over the axis-entry cap
    r = validSweep(40);
    r.spec.capacityLoMah = Quantity<MilliampHours>(1e300);
    r.spec.capacityHiMah = Quantity<MilliampHours>(1e300);
    r.spec.capacityStepMah = Quantity<MilliampHours>(1000.0);
    rejected(r); // a step the capacity loop cannot advance by

    // Each mission field (validateMission) and its service limits.
    ErrorReply ok;
    EXPECT_TRUE(planner.validate(validMission(28), ok)) << ok.message;
    r = validMission(29);
    r.mission.targetRateHz = 0.0;
    rejected(r);
    r = validMission(30);
    r.mission.perFrameOps[0] = nan;
    rejected(r);
    r = validMission(31);
    r.mission.wheelbasesMm.clear();
    rejected(r);
    r = validMission(32);
    r.mission.wheelbasesMm = {Quantity<Millimeters>(3000.0)};
    rejected(r);
    r = validMission(33);
    r.mission.cells = {0};
    rejected(r);
    r = validMission(34);
    r.mission.capacityLoMah = Quantity<MilliampHours>(-1.0);
    rejected(r);
    r = validMission(35);
    r.mission.capacityHiMah = Quantity<MilliampHours>(1000.0);
    rejected(r); // hi < lo
    r = validMission(36);
    r.mission.capacityStepMah = Quantity<MilliampHours>(0.5);
    rejected(r); // below minimum step
    r = validMission(37);
    r.mission.capacityHiMah = Quantity<MilliampHours>(1e300);
    rejected(r); // capacity axis over the grid cap
    r = validMission(38);
    r.mission.payloadG = Quantity<Grams>(-1.0);
    rejected(r);
    r = validMission(39);
    r.mission.cells.assign(257, 3);
    rejected(r); // over the axis-entry cap

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

TEST(ServePlanner, ConcurrentIdenticalSweepsRunIndependently)
{
    // Identical concurrent sweeps each run their own engine job: every
    // reply equals the single-caller oracle, and every caller solved
    // the whole grid.
    const Request request = validSweep(33);
    constexpr int kCallers = 8;
    engine::SweepEngine oracle_engine{
        engine::EngineOptions{.threads = 1}};
    const std::string oracle = QueryPlanner{oracle_engine}.execute(request);

    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    QueryPlanner planner{engine};
    const std::vector<std::string> replies =
        executeConcurrently(planner, request, kCallers);
    for (int i = 0; i < kCallers; ++i)
        EXPECT_EQ(replies[static_cast<std::size_t>(i)], oracle)
            << "caller " << i;

    EXPECT_EQ(planner.stats().executed,
              static_cast<std::uint64_t>(kCallers));
    EXPECT_EQ(engine.cacheCounters().misses,
              std::uint64_t{kCallers} * request.spec.pointCount());
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

    // Both endpoints of each lattice axis kind, every value of each
    // enumerated axis kind, and the base point's other fields.
    const auto with_axis = [](std::uint64_t id, explore::AxisSpec axis) {
        Request request = validExplore(id);
        request.explore.space.axes.push_back(std::move(axis));
        return request;
    };
    rejected(with_axis(14, explore::wheelbaseAxis(
                               Quantity<Millimeters>(-50.0),
                               Quantity<Millimeters>(100.0), 3)),
             "wheelbase axis low endpoint");
    rejected(with_axis(15, explore::wheelbaseAxis(
                               Quantity<Millimeters>(1900.0),
                               Quantity<Millimeters>(100.0), 3)),
             "wheelbase axis high endpoint");
    r = validExplore(16);
    r.explore.space.axes[0] =
        explore::capacityAxis(Quantity<MilliampHours>(1000.0),
                              Quantity<MilliampHours>(1e308), 3);
    rejected(r, "capacity axis high endpoint");
    rejected(with_axis(17, explore::twrAxis(0.5, 0.5, 3)),
             "twr axis low endpoint");
    rejected(with_axis(18, explore::twrAxis(9.5, 0.5, 3)),
             "twr axis high endpoint");
    rejected(with_axis(19, explore::payloadAxis(Quantity<Grams>(-1.0),
                                                Quantity<Grams>(1.0),
                                                3)),
             "payload axis low endpoint");
    rejected(with_axis(20, explore::payloadAxis(Quantity<Grams>(0.0),
                                                Quantity<Grams>(1e308),
                                                3)),
             "payload axis high endpoint");
    rejected(with_axis(21, explore::boardAxis({ComputeBoardRecord{
                               "bad", BoardClass::Basic, 20.0, -3.0}})),
             "board axis value");
    r = validExplore(22);
    r.explore.space.axes[1] = explore::cellsAxis({3, 9});
    rejected(r, "cells axis value");
    r = validExplore(23);
    r.explore.space.axes[0] =
        explore::capacityAxis(Quantity<MilliampHours>(1000.0),
                              Quantity<MilliampHours>(1.0), 257);
    rejected(r, "explore axis over the entry cap");
    r = validExplore(24);
    r.explore.space.base.payloadG = Quantity<Grams>(-1.0);
    rejected(r, "base payload negative");

    r = validRisk(25);
    r.risk.point.wheelbaseMm = Quantity<Millimeters>(0.0);
    rejected(r, "risk point wheelbase");
    r = validRisk(26);
    r.risk.gates[0].threshold =
        std::numeric_limits<double>::infinity();
    rejected(r, "gate threshold not finite");
    r = validRisk(27);
    r.risk.options.scatterReplicates = 1 << 20;
    rejected(r, "scatter replicates over the service cap");
    r = validRisk(28);
    r.risk.quantiles.assign(257, 0.5);
    rejected(r, "quantiles over the entry cap");

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

TEST(ServePlanner, ConcurrentIdenticalExploresRunIndependently)
{
    // Identical concurrent explorations each run their own driver:
    // every reply equals the single-caller oracle, and each caller
    // spent exactly the oracle's evaluations.
    const Request request = validExplore(51);
    constexpr int kCallers = 6;

    engine::SweepEngine oracle_engine{
        engine::EngineOptions{.threads = 1}};
    QueryPlanner oracle_planner{oracle_engine};
    const std::string oracle = oracle_planner.execute(request);
    const std::uint64_t points = oracle_engine.cacheCounters().misses;
    EXPECT_GT(points, 0u);
    EXPECT_LE(points, request.explore.options.maxEvaluations);

    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    QueryPlanner planner{engine};
    const std::vector<std::string> replies =
        executeConcurrently(planner, request, kCallers);
    for (int i = 0; i < kCallers; ++i)
        EXPECT_EQ(replies[static_cast<std::size_t>(i)], oracle)
            << "caller " << i;

    EXPECT_EQ(planner.stats().executed,
              static_cast<std::uint64_t>(kCallers));
    EXPECT_EQ(engine.cacheCounters().misses,
              std::uint64_t{kCallers} * points);
}

TEST(ServePlanner, ConcurrentDistinctSweepsKeepTheirOwnResults)
{
    // Distinct specs from many threads: the jobs share the engine's
    // pool, and each reply must be its own spec's, untorn.
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

namespace {

/** The sweep reply of `request` from the serial sweep. */
std::string
serialSweepReply(const Request &request)
{
    const std::vector<DesignResult> serial = runSweepSerial(request.spec);
    std::size_t feasible = 0;
    for (const DesignResult &point : serial)
        feasible += point.feasible ? 1 : 0;
    return serializeSweepReply(request.id, serial, feasible,
                               engine::paretoFrontier(serial));
}

/** One grid point: one chunk at any thread count. */
Request
oneChunkSweep(std::uint64_t id)
{
    Request request = validSweep(id);
    request.spec.cells = {4};
    request.spec.capacityHiMah = request.spec.capacityLoMah;
    return request;
}

/** 3 x 2 x 2 x 6 x 29 = 2,088 points: many chunks at 2 and 8. */
Request
manyChunkSweep(std::uint64_t id)
{
    Request request = validSweep(id);
    request.spec.airframes = {
        SweepAirframe{Quantity<Millimeters>(300.0), {}},
        SweepAirframe{Quantity<Millimeters>(450.0), {}},
        SweepAirframe{Quantity<Millimeters>(600.0), {}}};
    request.spec.boards.push_back(ComputeBoardRecord{
        "Improved 20W chip", BoardClass::Improved, 50.0, 20.0});
    request.spec.activities = {FlightActivity::Hovering,
                               FlightActivity::Maneuvering};
    request.spec.cells = {1, 2, 3, 4, 5, 6};
    request.spec.capacityLoMah = Quantity<MilliampHours>(1000.0);
    request.spec.capacityHiMah = Quantity<MilliampHours>(8000.0);
    request.spec.capacityStepMah = Quantity<MilliampHours>(250.0);
    return request;
}

/** A payload no airframe lifts: every row is an infeasible one. */
Request
allInfeasibleSweep(std::uint64_t id)
{
    Request request = manyChunkSweep(id);
    request.spec.payloadG = Quantity<Grams>(100000.0);
    return request;
}

} // namespace

TEST(ChunkedSweepReply, MatchesSerialOracleAtAnyThreadCount)
{
    // The planner writes a sweep's rows chunk by chunk on the pool
    // workers; the assembled reply must be the serial sweep's.
    const std::vector<Request> requests = {
        oneChunkSweep(1), manyChunkSweep(2), allInfeasibleSweep(3)};
    for (const int threads : {1, 2, 8}) {
        engine::SweepEngine engine{
            engine::EngineOptions{.threads = threads}};
        QueryPlanner planner{engine};
        for (const Request &request : requests) {
            SCOPED_TRACE("threads " + std::to_string(threads) +
                         ", request " + std::to_string(request.id));
            const std::string oracle = serialSweepReply(request);
            EXPECT_EQ(planner.execute(request), oracle);
        }
    }
    EXPECT_EQ(serialSweepReply(allInfeasibleSweep(3))
                  .find("\"feasible\": true"),
              std::string::npos);
}

TEST(ChunkedSweepReply, ConcurrentCallersMatchSerialOracle)
{
    // Two callers' chunks interleave on one pool; each reply must
    // hold its own rows, in grid order.
    engine::SweepEngine engine{engine::EngineOptions{.threads = 8}};
    QueryPlanner planner{engine};
    Request other = manyChunkSweep(5);
    other.spec.capacityLoMah = Quantity<MilliampHours>(1100.0);
    const std::vector<Request> requests = {manyChunkSweep(4), other};
    std::vector<std::string> replies(requests.size());
    for (int round = 0; round < 4; ++round) {
        std::vector<std::thread> callers;
        for (std::size_t i = 0; i < requests.size(); ++i)
            callers.emplace_back([&, i] {
                replies[i] = planner.execute(requests[i]);
            });
        for (std::thread &caller : callers)
            caller.join();
        for (std::size_t i = 0; i < requests.size(); ++i)
            EXPECT_EQ(replies[i], serialSweepReply(requests[i]))
                << "round " << round << ", caller " << i;
    }
}
