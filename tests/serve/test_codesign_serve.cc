#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "codesign/codesign.hh"
#include "engine/engine.hh"
#include "serve/planner.hh"
#include "serve/request.hh"
#include "serve/server.hh"
#include "serve/transport.hh"

using namespace dronedse;
using namespace dronedse::serve;

namespace {

/** A small mission so serve tests stay fast (27 grid points). */
codesign::MissionSpec
tinyMission()
{
    codesign::MissionSpec mission;
    mission.name = "tiny";
    mission.targetRateHz = 15.0;
    mission.wheelbasesMm = {Quantity<Millimeters>(450.0)};
    mission.cells = {3};
    mission.capacityLoMah = Quantity<MilliampHours>(2000.0);
    mission.capacityHiMah = Quantity<MilliampHours>(3000.0);
    mission.capacityStepMah = Quantity<MilliampHours>(500.0);
    return mission;
}

Request
codesignRequest(std::uint64_t id)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Codesign;
    request.mission = tinyMission();
    return request;
}

} // namespace

TEST(ServeCodesign, RequestSerializationIsAFixedPoint)
{
    const Request request = codesignRequest(7);
    const std::string canonical = serializeRequest(request);

    Request parsed;
    ErrorReply err;
    ASSERT_TRUE(parseRequest(canonical, parsed, err))
        << err.message;
    EXPECT_EQ(parsed.kind, QueryKind::Codesign);
    EXPECT_EQ(parsed.mission.name, "tiny");
    EXPECT_EQ(serializeRequest(parsed), canonical);
}

TEST(ServeCodesign, RoundTripMatchesDirectDriverOracle)
{
    // End-to-end through the wire protocol: the served reply must
    // be byte-identical to driving the search directly (which the
    // engine's determinism contract guarantees even though the
    // service runs its own engine at its own thread count).
    ServiceOptions options;
    options.engine.threads = 2;
    Service service{options};
    LocalTransport transport{service};

    const Request request = codesignRequest(11);
    const std::string reply =
        transport.roundTrip(serializeRequest(request));

    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    const codesign::CodesignDriver driver{engine};
    EXPECT_EQ(reply, serializeCodesignReply(
                         request.id, driver.run(request.mission)));
    EXPECT_NE(reply.find("\"kind\": \"codesign\""),
              std::string::npos);
    EXPECT_NE(reply.find("\"recommended\""), std::string::npos);
}

TEST(ServeCodesign, MalformedMissionsAreRejected)
{
    ServiceOptions options;
    options.engine.threads = 1;
    Service service{options};
    LocalTransport transport{service};

    const auto expect_invalid = [&](const std::string &frame) {
        const std::string reply = transport.roundTrip(frame);
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos)
            << frame;
        EXPECT_NE(reply.find("invalid_request"), std::string::npos)
            << frame;
    };

    // Missing mission object.
    expect_invalid(R"({"id": 1, "kind": "codesign"})");
    // Type violation caught by the parser.
    expect_invalid(
        R"({"id": 2, "kind": "codesign", "mission": )"
        R"({"target_rate_hz": "fast"}})");
    // Unknown activity spelling.
    expect_invalid(
        R"({"id": 3, "kind": "codesign", "mission": )"
        R"({"activity": "diving"}})");
    // Semantic violation caught by the planner.
    expect_invalid(
        R"({"id": 4, "kind": "codesign", "mission": )"
        R"({"target_rate_hz": -5}})");
    expect_invalid(
        R"({"id": 5, "kind": "codesign", "mission": )"
        R"({"wheelbases_mm": []}})");
    expect_invalid(
        R"({"id": 6, "kind": "codesign", "mission": )"
        R"({"capacity_lo_mah": 4000, "capacity_hi_mah": 2000}})");
}

TEST(ServeCodesign, IdenticalMissionsRunIndependently)
{
    // Identical concurrent missions each run their own search: every
    // reply equals the single-caller oracle, and each caller solved
    // exactly the oracle's points.
    const Request request = codesignRequest(21);
    constexpr int kCallers = 8;

    engine::SweepEngine oracle_engine{
        engine::EngineOptions{.threads = 1}};
    QueryPlanner oracle_planner{oracle_engine};
    const std::string oracle = oracle_planner.execute(request);
    const std::uint64_t points = oracle_engine.cacheCounters().misses;
    EXPECT_GT(points, 0u);

    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    QueryPlanner planner{engine};
    std::vector<std::string> replies(kCallers);
    std::vector<std::thread> threads;
    threads.reserve(kCallers);
    for (std::string &reply : replies)
        threads.emplace_back([&] { reply = planner.execute(request); });
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kCallers; ++i)
        EXPECT_EQ(replies[static_cast<std::size_t>(i)], oracle)
            << "caller " << i;
    EXPECT_EQ(planner.stats().executed,
              static_cast<std::uint64_t>(kCallers));
    EXPECT_EQ(engine.cacheCounters().misses,
              std::uint64_t{kCallers} * points);
}
