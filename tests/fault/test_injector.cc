/**
 * @file
 * Fault taxonomy, scenario parsing, and injector query tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "fault/fault.hh"
#include "fault/injector.hh"

using namespace dronedse::fault;

TEST(FaultTaxonomy, NamesRoundTripForEveryKind)
{
    for (int k = 0; k < static_cast<int>(FaultKind::NumKinds); ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const auto back = faultKindFromName(faultKindName(kind));
        ASSERT_TRUE(back.has_value()) << faultKindName(kind);
        EXPECT_EQ(*back, kind);
    }
}

TEST(FaultTaxonomy, UnknownNameIsRejected)
{
    EXPECT_FALSE(faultKindFromName("warp_core_breach").has_value());
    EXPECT_FALSE(faultKindFromName("").has_value());
}

TEST(FaultEventTest, ActiveWindowIsHalfOpen)
{
    const FaultEvent e{FaultKind::GpsDropout, 10.0, 5.0, 1.0, 0};
    EXPECT_FALSE(e.activeAt(9.999));
    EXPECT_TRUE(e.activeAt(10.0));
    EXPECT_TRUE(e.activeAt(14.999));
    EXPECT_FALSE(e.activeAt(15.0));
}

TEST(ScenarioParse, ParsesEventsCommentsAndBlanks)
{
    const FaultScenario sc = parseScenario("demo", R"(
# a comment
gps_dropout start=5 dur=10

motor_derate start=2 dur=30 mag=0.6 index=3
)");
    ASSERT_EQ(sc.events.size(), 2u);
    EXPECT_EQ(sc.events[0].kind, FaultKind::GpsDropout);
    EXPECT_DOUBLE_EQ(sc.events[0].startS, 5.0);
    EXPECT_DOUBLE_EQ(sc.events[0].durationS, 10.0);
    EXPECT_EQ(sc.events[1].kind, FaultKind::MotorDerate);
    EXPECT_DOUBLE_EQ(sc.events[1].magnitude, 0.6);
    EXPECT_EQ(sc.events[1].index, 3);
}

TEST(ScenarioParse, TextRoundTripsThroughSerializer)
{
    for (const auto &sc : scenarioCatalog()) {
        const FaultScenario back =
            parseScenario(sc.name, scenarioToText(sc));
        ASSERT_EQ(back.events.size(), sc.events.size()) << sc.name;
        for (std::size_t i = 0; i < sc.events.size(); ++i) {
            EXPECT_EQ(back.events[i].kind, sc.events[i].kind);
            EXPECT_DOUBLE_EQ(back.events[i].startS,
                             sc.events[i].startS);
            EXPECT_DOUBLE_EQ(back.events[i].durationS,
                             sc.events[i].durationS);
            EXPECT_DOUBLE_EQ(back.events[i].magnitude,
                             sc.events[i].magnitude);
            EXPECT_EQ(back.events[i].index, sc.events[i].index);
        }
    }
}

TEST(ScenarioParse, MalformedLinesAreFatal)
{
    EXPECT_EXIT(parseScenario("bad", "warp_core start=1 dur=2"),
                testing::ExitedWithCode(1), "unknown fault kind");
    EXPECT_EXIT(parseScenario("bad", "gps_dropout start=1"),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseScenario("bad", "gps_dropout bogus=1 dur=2"),
                testing::ExitedWithCode(1), "");
}

TEST(ScenarioCatalog, HasAtLeastEightUniquelyNamedScenarios)
{
    const auto &catalog = scenarioCatalog();
    EXPECT_GE(catalog.size(), 8u);
    std::set<std::string> names;
    for (const auto &sc : catalog) {
        EXPECT_FALSE(sc.name.empty());
        EXPECT_FALSE(sc.description.empty()) << sc.name;
        EXPECT_TRUE(names.insert(sc.name).second)
            << "duplicate scenario name " << sc.name;
    }
}

TEST(ScenarioCatalog, CoversEveryFaultKind)
{
    std::set<FaultKind> seen;
    for (const auto &sc : scenarioCatalog())
        for (const auto &e : sc.events)
            seen.insert(e.kind);
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(FaultKind::NumKinds));
}

TEST(ScenarioCatalog, FindByNameWorksAndUnknownIsFatal)
{
    EXPECT_EQ(findScenario("nominal").events.size(), 0u);
    EXPECT_EXIT(findScenario("definitely_not_a_scenario"),
                testing::ExitedWithCode(1), "");
}

TEST(RandomScenario, SameSeedSameScenario)
{
    const FaultScenario a = randomScenario(42, 60.0);
    const FaultScenario b = randomScenario(42, 60.0);
    EXPECT_EQ(scenarioToText(a), scenarioToText(b));
    // A different seed (nearly always) draws a different timeline.
    const FaultScenario c = randomScenario(43, 60.0);
    EXPECT_NE(scenarioToText(a), scenarioToText(c));
}

TEST(RandomScenario, MagnitudesAreWithinKindRanges)
{
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const FaultScenario sc = randomScenario(seed, 60.0);
        for (const auto &e : sc.events) {
            EXPECT_GE(e.startS, 0.0);
            EXPECT_LT(e.startS, 60.0);
            EXPECT_GT(e.durationS, 0.0);
            if (e.kind == FaultKind::MotorDerate) {
                EXPECT_GE(e.magnitude, 0.0);
                EXPECT_LE(e.magnitude, 1.0);
                EXPECT_GE(e.index, 0);
                EXPECT_LE(e.index, 3);
            }
        }
    }
}

TEST(InjectorTest, ActiveAndCountFollowTheTimeline)
{
    FaultScenario sc;
    sc.name = "t";
    sc.events.push_back({FaultKind::GpsDropout, 10.0, 5.0, 1.0, 0});
    sc.events.push_back({FaultKind::ComputeContention, 12.0, 2.0,
                         4.0, 0});
    const FaultInjector inj(sc);

    EXPECT_FALSE(inj.active(FaultKind::GpsDropout, 9.0));
    EXPECT_TRUE(inj.active(FaultKind::GpsDropout, 10.0));
    EXPECT_EQ(inj.activeCount(9.0), 0u);
    EXPECT_EQ(inj.activeCount(13.0), 2u);
    EXPECT_EQ(inj.activeCount(14.5), 1u);
    EXPECT_DOUBLE_EQ(inj.lastEventEnd(), 15.0);
}

TEST(InjectorTest, MagnitudeCombinesWorstCase)
{
    FaultScenario sc;
    sc.name = "t";
    // Two overlapping contention bursts: the worse (max) one rules.
    sc.events.push_back({FaultKind::ComputeContention, 0.0, 10.0,
                         3.0, 0});
    sc.events.push_back({FaultKind::ComputeContention, 2.0, 4.0,
                         8.0, 0});
    // Two deratings of the same motor: the worse (min) one rules.
    sc.events.push_back({FaultKind::MotorDerate, 0.0, 10.0, 0.8, 1});
    sc.events.push_back({FaultKind::MotorDerate, 2.0, 4.0, 0.3, 1});
    const FaultInjector inj(sc);

    EXPECT_DOUBLE_EQ(inj.magnitude(FaultKind::ComputeContention, 1.0,
                                   1.0),
                     3.0);
    EXPECT_DOUBLE_EQ(inj.magnitude(FaultKind::ComputeContention, 3.0,
                                   1.0),
                     8.0);
    EXPECT_DOUBLE_EQ(inj.magnitude(FaultKind::ComputeContention,
                                   20.0, 1.0),
                     1.0);
    EXPECT_DOUBLE_EQ(inj.motorEffectiveness(1, 1.0), 0.8);
    EXPECT_DOUBLE_EQ(inj.motorEffectiveness(1, 3.0), 0.3);
    EXPECT_DOUBLE_EQ(inj.motorEffectiveness(0, 3.0), 1.0);
    EXPECT_DOUBLE_EQ(inj.motorEffectiveness(1, 20.0), 1.0);
}

// ---- Compiled timeline: snapshot() against the per-kind oracle. ----

namespace {

/** The per-kind answers `snapshot()` must reproduce. */
FaultSnapshot
oracleSnapshot(const FaultInjector &inj, double t)
{
    FaultSnapshot s;
    s.gpsOut = inj.active(FaultKind::GpsDropout, t);
    s.cameraOut = inj.active(FaultKind::CameraFrameLoss, t);
    s.linkDown = inj.active(FaultKind::OffloadLinkDown, t);
    s.imuNoise = inj.magnitude(FaultKind::ImuNoiseSpike, t, 1.0);
    s.minMotorEff = inj.magnitude(FaultKind::MotorDerate, t, 1.0);
    s.latencyMs = inj.magnitude(FaultKind::OffloadLatencySpike, t, 0.0);
    s.costScale = inj.magnitude(FaultKind::ComputeContention, t, 1.0);
    return s;
}

bool
sameBits(const FaultSnapshot &a, const FaultSnapshot &b)
{
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    return a.gpsOut == b.gpsOut && a.cameraOut == b.cameraOut &&
           a.linkDown == b.linkDown &&
           bits(a.imuNoise) == bits(b.imuNoise) &&
           bits(a.minMotorEff) == bits(b.minMotorEff) &&
           bits(a.latencyMs) == bits(b.latencyMs) &&
           bits(a.costScale) == bits(b.costScale);
}

/**
 * Every 0.1 s tick of a 300 s mission (computed as the steppers do,
 * `k * 0.1`), then every event start and end with the doubles on
 * either side of it.  The boundaries come after the ticks, so a
 * single cursor walking this list also has to step back in time.
 */
std::vector<double>
probeTimes(const FaultScenario &sc)
{
    std::vector<double> times;
    for (int k = 0; k <= 3000; ++k)
        times.push_back(static_cast<double>(k) * 0.1);
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto &e : sc.events) {
        for (const double b : {e.startS, e.startS + e.durationS}) {
            times.push_back(std::nextafter(b, -inf));
            times.push_back(b);
            times.push_back(std::nextafter(b, inf));
        }
    }
    return times;
}

/**
 * Holds `snapshot()` to the oracle bit for bit at every probe time,
 * once with a cursor walking the times in sorted order (the
 * steppers' pattern) and once in probe order, which jumps back.
 */
void
expectTimelineMatchesOracle(const FaultScenario &sc)
{
    const FaultInjector inj(sc);
    std::vector<double> times = probeTimes(sc);
    for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1)
            std::sort(times.begin(), times.end());
        std::size_t cursor = 0;
        for (const double t : times) {
            if (!sameBits(inj.snapshot(t, cursor), oracleSnapshot(inj, t))) {
                ADD_FAILURE() << sc.name << ": snapshot differs from the "
                              << "per-kind oracle at t = " << t << " ("
                              << (pass == 0 ? "probe" : "sorted")
                              << " order)\n"
                              << scenarioToText(sc);
                return;
            }
        }
    }
}

} // namespace

TEST(FaultTimeline, CatalogSnapshotsMatchOracle)
{
    for (const auto &sc : scenarioCatalog())
        expectTimelineMatchesOracle(sc);
}

TEST(FaultTimeline, ComposedCatalogSnapshotsMatchOracle)
{
    // The ordered pairs the fleet's composed catalog flies.
    const auto &catalog = scenarioCatalog();
    std::size_t composed = 0;
    for (const auto &a : catalog) {
        for (const auto &b : catalog) {
            if (a.name == b.name)
                continue;
            const ComposeResult pair = composeScenarios(a, b);
            if (pair.ok()) {
                expectTimelineMatchesOracle(*pair.scenario);
                ++composed;
            }
        }
    }
    EXPECT_EQ(catalog.size() + composed, 101u);
}

TEST(FaultTimeline, RandomScenarioSnapshotsMatchOracle)
{
    // Random draws overlap same-kind events freely, so the min/max
    // rule decides many segments.
    for (std::uint64_t seed = 1; seed <= 500; ++seed)
        expectTimelineMatchesOracle(randomScenario(seed, 300.0, 8));
}

TEST(FaultTimeline, EdgeCaseSnapshotsMatchOracle)
{
    const auto scenario = [](std::vector<FaultEvent> events) {
        FaultScenario sc;
        sc.name = "edge";
        sc.events = std::move(events);
        return sc;
    };
    // Zero and negative durations: never in effect.
    expectTimelineMatchesOracle(scenario({
        {FaultKind::GpsDropout, 5.0, 0.0, 1.0, 0},
        {FaultKind::CameraFrameLoss, 7.0, -3.0, 1.0, 0},
        {FaultKind::ComputeContention, 6.0, 0.0, 9.0, 0},
    }));
    // Same-kind overlaps: max for most kinds, min for MotorDerate,
    // across different motors too.
    expectTimelineMatchesOracle(scenario({
        {FaultKind::ComputeContention, 10.0, 20.0, 3.0, 0},
        {FaultKind::ComputeContention, 15.0, 5.0, 8.0, 0},
        {FaultKind::ComputeContention, 18.0, 20.0, 2.0, 0},
        {FaultKind::MotorDerate, 10.0, 30.0, 0.8, 1},
        {FaultKind::MotorDerate, 20.0, 5.0, 0.3, 2},
        {FaultKind::MotorDerate, 22.0, 10.0, 0.5, 1},
        {FaultKind::ImuNoiseSpike, 1.0, 50.0, 4.0, 0},
        {FaultKind::ImuNoiseSpike, 2.0, 3.0, 12.0, 0},
        {FaultKind::OffloadLatencySpike, 40.0, 10.0, 80.0, 0},
        {FaultKind::OffloadLatencySpike, 45.0, 10.0, 200.0, 0},
    }));
    // An event at t = 0, and a permanent fault.
    expectTimelineMatchesOracle(scenario({
        {FaultKind::OffloadLinkDown, 0.0, 2.5, 1.0, 0},
        {FaultKind::MotorDerate, 50.0, 1e9, 0.6, 0},
    }));
    // Coincident boundaries: one event ends where another starts,
    // two start together, two end together, and a start that is not
    // a tick (0.3 is not 3 * 0.1).
    expectTimelineMatchesOracle(scenario({
        {FaultKind::GpsDropout, 6.0, 6.0, 1.0, 0},
        {FaultKind::ImuNoiseSpike, 12.0, 6.0, 5.0, 0},
        {FaultKind::CameraFrameLoss, 12.0, 4.0, 1.0, 0},
        {FaultKind::ComputeContention, 14.0, 4.0, 6.0, 0},
        {FaultKind::OffloadLinkDown, 0.3, 0.4, 1.0, 0},
        {FaultKind::OffloadLinkDown, 0.7, 0.4, 1.0, 0},
    }));
    // Non-finite times: a NaN start or end is never crossed, and an
    // infinite start plus an infinite duration ends at NaN.  The
    // finite events around them must still be found.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    expectTimelineMatchesOracle(scenario({
        {FaultKind::GpsDropout, 3.0, 4.0, 1.0, 0},
        {FaultKind::GpsDropout, nan, 5.0, 1.0, 0},
        {FaultKind::ImuNoiseSpike, 10.0, nan, 7.0, 0},
        {FaultKind::ComputeContention, 20.0, 30.0, 2.0, 0},
        {FaultKind::MotorDerate, -inf, inf, 0.4, 3},
        {FaultKind::OffloadLinkDown, 60.0, inf, 1.0, 0},
    }));
    // No events at all: the neutral snapshot everywhere.
    expectTimelineMatchesOracle(scenario({}));
}
