#include "serve/request.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/space.hh"
#include "serve/service.hh"
#include "util/rng.hh"

using namespace dronedse;
using namespace dronedse::serve;

namespace {

Request
designRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Design;
    request.point.wheelbaseMm = Quantity<Millimeters>(330.0);
    request.point.cells = 4;
    request.point.capacityMah = Quantity<MilliampHours>(2200.0);
    return request;
}

Request
sweepRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Sweep;
    request.cls = QueryClass::Batch;
    request.spec.boards = {ComputeBoardRecord{
        "Basic 3W chip", BoardClass::Basic, 20.0, 3.0}};
    request.spec.cells = {3, 4};
    request.spec.capacityLoMah = Quantity<MilliampHours>(2000.0);
    request.spec.capacityHiMah = Quantity<MilliampHours>(4000.0);
    request.spec.capacityStepMah = Quantity<MilliampHours>(500.0);
    return request;
}

Request
exploreRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Explore;
    request.explore.space.axes = {
        explore::capacityAxis(Quantity<MilliampHours>(1000.0),
                              Quantity<MilliampHours>(500.0), 5),
        explore::cellsAxis({3, 4}),
        explore::twrAxis(2.0, 0.5, 3),
    };
    request.explore.options.maxEvaluations = 20;
    request.explore.options.initialSamples = 8;
    return request;
}

Request
riskRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Risk;
    request.risk.point.capacityMah =
        Quantity<MilliampHours>(2200.0);
    request.risk.options.samples = 64;
    request.risk.gates = {explore::GateSpec{
        explore::GateMetric::FlightTimeMin, explore::GateOp::AtLeast,
        10.0, 0.9}};
    request.risk.quantiles = {0.1, 0.5, 0.9};
    return request;
}

} // namespace

TEST(ServeRequest, DesignRoundTripIsByteIdentical)
{
    const Request original = designRequest(7);
    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.id, 7u);
    EXPECT_EQ(parsed.kind, QueryKind::Design);
    EXPECT_EQ(parsed.cls, QueryClass::Interactive);
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, SweepRoundTripIsByteIdentical)
{
    const Request original = sweepRequest(11);
    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.kind, QueryKind::Sweep);
    EXPECT_EQ(parsed.cls, QueryClass::Batch);
    EXPECT_EQ(parsed.spec.cells, (std::vector<int>{3, 4}));
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, MissingFieldsKeepDefaults)
{
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(
        "{\"id\": 3, \"kind\": \"design\", \"point\": {}}", parsed,
        err))
        << err.message;
    const DesignInputs defaults;
    EXPECT_EQ(parsed.point.cells, defaults.cells);
    EXPECT_DOUBLE_EQ(parsed.point.wheelbaseMm.value(),
                     defaults.wheelbaseMm.value());
    EXPECT_EQ(parsed.cls, QueryClass::Interactive);
}

TEST(ServeRequest, ErrorsEchoTheReadableId)
{
    Request parsed;
    ErrorReply err;
    EXPECT_FALSE(parseRequest(
        "{\"id\": 42, \"kind\": \"design\"}", parsed, err));
    EXPECT_EQ(parsed.id, 42u);
    EXPECT_EQ(err.code, ErrorCode::InvalidRequest);
    const std::string reply = serializeErrorReply(parsed.id, err);
    EXPECT_NE(reply.find("\"id\": 42"), std::string::npos);
    EXPECT_NE(reply.find("\"invalid_request\""), std::string::npos);
}

TEST(ServeRequest, FuzzSerializeParseSerialize)
{
    Rng rng(1609);
    for (int trial = 0; trial < 300; ++trial) {
        Request request;
        request.id = static_cast<std::uint64_t>(
            rng.uniformInt(0, 1'000'000'000));
        request.cls = rng.uniform() < 0.5 ? QueryClass::Interactive
                                          : QueryClass::Batch;
        const int kind = static_cast<int>(rng.uniformInt(0, 2));
        if (kind == 0) {
            request.kind = QueryKind::Design;
            request.point.wheelbaseMm = Quantity<Millimeters>(
                rng.uniform(80.0, 900.0));
            request.point.cells =
                static_cast<int>(rng.uniformInt(1, 6));
            request.point.capacityMah = Quantity<MilliampHours>(
                rng.uniform(500.0, 9000.0));
            request.point.twr = rng.uniform(1.0, 6.0);
            request.point.payloadG =
                Quantity<Grams>(rng.uniform(0.0, 300.0));
            if (rng.uniform() < 0.5)
                request.point.activity =
                    FlightActivity::Maneuvering;
        } else {
            request.kind = kind == 1 ? QueryKind::Sweep
                                     : QueryKind::Pareto;
            const int n_frames =
                static_cast<int>(rng.uniformInt(1, 3));
            request.spec.airframes.clear();
            for (int i = 0; i < n_frames; ++i)
                request.spec.airframes.push_back(SweepAirframe{
                    Quantity<Millimeters>(rng.uniform(100.0, 700.0)),
                    Quantity<Inches>(0.0)});
            request.spec.boards = {ComputeBoardRecord{
                "b" + std::to_string(trial), BoardClass::Improved,
                rng.uniform(5.0, 200.0), rng.uniform(0.5, 30.0)}};
            request.spec.cells = {
                static_cast<int>(rng.uniformInt(1, 6))};
            request.spec.twr = rng.uniform(1.0, 6.0);
        }
        const std::string once = serializeRequest(request);
        Request parsed;
        ErrorReply err;
        ASSERT_TRUE(parseRequest(once, parsed, err))
            << "trial " << trial << ": " << err.message << "\n"
            << once;
        EXPECT_EQ(serializeRequest(parsed), once)
            << "trial " << trial;
    }
}

TEST(ServeRequest, ExploreRoundTripIsByteIdentical)
{
    Request original = exploreRequest(13);
    // Exercise every axis kind in one frame.
    original.explore.space.axes.push_back(
        explore::wheelbaseAxis(Quantity<Millimeters>(300.0),
                               Quantity<Millimeters>(50.0), 4));
    original.explore.space.axes.push_back(
        explore::boardAxis({ComputeBoardRecord{
            "Basic 3W chip", BoardClass::Basic, 20.0, 3.0}}));
    original.explore.space.axes.push_back(explore::activityAxis(
        {FlightActivity::Hovering, FlightActivity::Maneuvering}));
    original.explore.space.axes.push_back(explore::payloadAxis(
        Quantity<Grams>(0.0), Quantity<Grams>(100.0), 3));
    original.explore.options.sampler = explore::SamplerKind::Grid;
    original.explore.options.seed = 99;

    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.kind, QueryKind::Explore);
    EXPECT_EQ(parsed.explore.space.axes.size(), 7u);
    EXPECT_EQ(parsed.explore.options.sampler,
              explore::SamplerKind::Grid);
    EXPECT_EQ(parsed.explore.options.seed, 99u);
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, RiskRoundTripIsByteIdentical)
{
    const Request original = riskRequest(17);
    const std::string frame = serializeRequest(original);
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(frame, parsed, err)) << err.message;
    EXPECT_EQ(parsed.kind, QueryKind::Risk);
    ASSERT_EQ(parsed.risk.gates.size(), 1u);
    EXPECT_EQ(parsed.risk.gates[0].metric,
              explore::GateMetric::FlightTimeMin);
    EXPECT_EQ(parsed.risk.gates[0].op, explore::GateOp::AtLeast);
    EXPECT_EQ(parsed.risk.quantiles,
              (std::vector<double>{0.1, 0.5, 0.9}));
    EXPECT_EQ(serializeRequest(parsed), frame);
}

TEST(ServeRequest, ExploreOptionsDefaultsSurviveOmission)
{
    // An explore frame with only a space: every option keeps its
    // compiled-in default, and the canonical form round-trips.
    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(
        "{\"id\": 5, \"kind\": \"explore\", \"space\": {\"axes\": "
        "[{\"axis\": \"cells\", \"values\": [3, 4]}]}}",
        parsed, err))
        << err.message;
    const explore::ExploreOptions defaults;
    EXPECT_EQ(parsed.explore.options.sampler, defaults.sampler);
    EXPECT_EQ(parsed.explore.options.seed, defaults.seed);
    EXPECT_EQ(parsed.explore.options.initialSamples,
              defaults.initialSamples);
    EXPECT_EQ(parsed.explore.options.roundEvaluations,
              defaults.roundEvaluations);
    EXPECT_EQ(parsed.explore.options.maxEvaluations,
              defaults.maxEvaluations);
    const std::string canonical = serializeRequest(parsed);
    Request reparsed;
    ASSERT_TRUE(parseRequest(canonical, reparsed, err))
        << err.message;
    EXPECT_EQ(serializeRequest(reparsed), canonical);
}

TEST(ServeRequest, FuzzExploreAndRiskSerializeParseSerialize)
{
    Rng rng(4242);
    for (int trial = 0; trial < 200; ++trial) {
        Request request;
        request.id = static_cast<std::uint64_t>(
            rng.uniformInt(0, 1'000'000'000));
        if (rng.uniform() < 0.5) {
            request.kind = QueryKind::Explore;
            request.explore.space.axes.push_back(
                explore::capacityAxis(
                    Quantity<MilliampHours>(
                        rng.uniform(500.0, 3000.0)),
                    Quantity<MilliampHours>(
                        rng.uniform(50.0, 500.0)),
                    static_cast<std::size_t>(
                        rng.uniformInt(1, 12))));
            if (rng.uniform() < 0.5)
                request.explore.space.axes.push_back(
                    explore::cellsAxis(
                        {static_cast<int>(rng.uniformInt(1, 6))}));
            if (rng.uniform() < 0.5)
                request.explore.space.axes.push_back(
                    explore::twrAxis(rng.uniform(1.5, 3.0),
                                     rng.uniform(0.1, 1.0),
                                     static_cast<std::size_t>(
                                         rng.uniformInt(1, 5))));
            request.explore.options.seed = static_cast<std::uint64_t>(
                rng.uniformInt(0, 1 << 20));
            request.explore.options.maxEvaluations =
                static_cast<std::size_t>(rng.uniformInt(1, 5000));
        } else {
            request.kind = QueryKind::Risk;
            request.risk.point.capacityMah = Quantity<MilliampHours>(
                rng.uniform(500.0, 9000.0));
            request.risk.point.twr = rng.uniform(1.0, 6.0);
            request.risk.options.seed = static_cast<std::uint64_t>(
                rng.uniformInt(0, 1 << 20));
            request.risk.options.samples = static_cast<std::size_t>(
                rng.uniformInt(1, 2048));
            const int n_gates =
                static_cast<int>(rng.uniformInt(0, 3));
            for (int g = 0; g < n_gates; ++g)
                request.risk.gates.push_back(explore::GateSpec{
                    rng.uniform() < 0.5
                        ? explore::GateMetric::FlightTimeMin
                        : explore::GateMetric::TotalWeightG,
                    rng.uniform() < 0.5 ? explore::GateOp::AtLeast
                                        : explore::GateOp::AtMost,
                    rng.uniform(1.0, 1000.0),
                    rng.uniform(0.0, 1.0)});
            const int n_q = static_cast<int>(rng.uniformInt(0, 4));
            for (int q = 0; q < n_q; ++q)
                request.risk.quantiles.push_back(
                    rng.uniform(0.0, 1.0));
        }
        const std::string once = serializeRequest(request);
        Request parsed;
        ErrorReply err;
        ASSERT_TRUE(parseRequest(once, parsed, err))
            << "trial " << trial << ": " << err.message << "\n"
            << once;
        EXPECT_EQ(serializeRequest(parsed), once)
            << "trial " << trial;
    }
}

TEST(ServeRequest, MalformedExploreAndRiskFrames)
{
    const auto rejected = [](const std::string &frame,
                             const char *label) {
        Request parsed;
        ErrorReply err;
        EXPECT_FALSE(parseRequest(frame, parsed, err)) << label;
        EXPECT_EQ(err.code, ErrorCode::InvalidRequest) << label;
    };
    rejected("{\"id\": 1, \"kind\": \"explore\"}", "missing space");
    rejected("{\"id\": 1, \"kind\": \"explore\", \"space\": "
             "{\"axes\": \"all\"}}",
             "axes not an array");
    rejected("{\"id\": 1, \"kind\": \"explore\", \"space\": "
             "{\"axes\": [{\"axis\": \"warp\"}]}}",
             "unknown axis kind");
    rejected("{\"id\": 1, \"kind\": \"explore\", \"space\": "
             "{\"axes\": [{\"axis\": \"cells\", \"values\": [3]}]}, "
             "\"options\": {\"sampler\": \"psychic\"}}",
             "unknown sampler");
    rejected("{\"id\": 1, \"kind\": \"risk\"}", "missing point");
    rejected("{\"id\": 1, \"kind\": \"risk\", \"point\": {}, "
             "\"quantiles\": [\"median\"]}",
             "quantile not a number");
    rejected("{\"id\": 1, \"kind\": \"risk\", \"point\": {}, "
             "\"gates\": [{\"metric\": \"karma\"}]}",
             "unknown gate metric");
}

// --- malformed-frame battery (ISSUE 5 satellite) -------------------
//
// Every frame must map to a typed error reply, and none may change
// server-side state: no query executed, nothing admitted to the
// queue, no engine work.

TEST(ServeRequest, MalformedFrameBattery)
{
    struct Case
    {
        const char *label;
        std::string frame;
        const char *expect_code;
    };
    const std::string valid = serializeRequest(designRequest(1));
    std::vector<Case> cases = {
        {"empty frame", "", "parse_error"},
        {"truncated JSON", valid.substr(0, valid.size() / 2),
         "parse_error"},
        {"not an object", "[1, 2, 3]", "parse_error"},
        {"bare garbage", "hello there", "parse_error"},
        {"NaN field",
         "{\"id\": 1, \"kind\": \"design\", \"point\": "
         "{\"twr\": NaN}}",
         "parse_error"},
        {"Infinity field",
         "{\"id\": 1, \"kind\": \"design\", \"point\": "
         "{\"capacity_mah\": Infinity}}",
         "parse_error"},
        {"missing id", "{\"kind\": \"design\", \"point\": {}}",
         "invalid_request"},
        {"fractional id",
         "{\"id\": 1.5, \"kind\": \"design\", \"point\": {}}",
         "invalid_request"},
        {"negative id",
         "{\"id\": -4, \"kind\": \"design\", \"point\": {}}",
         "invalid_request"},
        {"unknown query kind",
         "{\"id\": 2, \"kind\": \"teleport\", \"point\": {}}",
         "invalid_request"},
        {"unknown class",
         "{\"id\": 2, \"kind\": \"design\", \"class\": \"vip\", "
         "\"point\": {}}",
         "invalid_request"},
        {"wrong type for point",
         "{\"id\": 2, \"kind\": \"design\", \"point\": 7}",
         "invalid_request"},
        {"wrong type for field",
         "{\"id\": 2, \"kind\": \"design\", \"point\": "
         "{\"cells\": \"four\"}}",
         "invalid_request"},
        {"unknown esc class",
         "{\"id\": 2, \"kind\": \"design\", \"point\": "
         "{\"esc_class\": \"warp\"}}",
         "invalid_request"},
        {"spec for design missing",
         "{\"id\": 2, \"kind\": \"sweep\"}", "invalid_request"},
        {"cells entry out of int range",
         "{\"id\": 2, \"kind\": \"sweep\", \"spec\": "
         "{\"cells\": [1e300]}}",
         "invalid_request"},
    };
    // Oversized line: rejected by the service's frame cap.
    Case oversized{"oversized line",
                   "{\"id\": 1, \"kind\": \"design\", \"pad\": \"" +
                       std::string(3000, 'x') + "\", \"point\": {}}",
                   "too_large"};

    ServiceOptions options;
    options.engine.threads = 1;
    options.maxFrameBytes = 2048;
    Service service{options};

    cases.push_back(oversized);
    double t = 0.0;
    for (const Case &c : cases) {
        const std::string reply = service.handleFrame(c.frame, t);
        t += 1e-3;
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos)
            << c.label << ": " << reply;
        EXPECT_NE(reply.find(std::string("\"") + c.expect_code +
                             "\""),
                  std::string::npos)
            << c.label << ": " << reply;
    }

    // No server-side state change: nothing executed, nothing
    // admitted, no engine work, no queue residue.
    EXPECT_EQ(service.planner().stats().executed, 0u);
    EXPECT_EQ(service.planner().stats().invalid, 0u);
    EXPECT_EQ(service.admission().stats().admitted, 0u);
    EXPECT_EQ(service.admission().depth(), 0u);
    const engine::CacheCounters cache =
        service.engine().cacheCounters();
    EXPECT_EQ(cache.hits + cache.misses, 0u);

    // And the service still answers a valid frame normally.
    const std::string ok_reply = service.handleFrame(valid, t);
    EXPECT_NE(ok_reply.find("\"ok\": true"), std::string::npos);
    EXPECT_EQ(service.planner().stats().executed, 1u);
}
