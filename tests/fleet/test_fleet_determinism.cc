/**
 * @file
 * Fleet determinism battery (DESIGN.md §16).
 *
 * The fleet engine's contract: per-drone results depend only on
 * (fleetSeed, logical drone index, scenario) — never on thread
 * count, lane-block partition, or processing order.  This battery
 * pins that contract three ways:
 *
 *  1. Golden outputs at seed 17 for four composed catalog scenarios
 *     (generated once from a jobs=1 run, byte-compared forever), and
 *     digests of the whole composed catalog at two operating points.
 *  2. Byte-identity of the full ECDF CSV across jobs 1/2/8 and
 *     across repeat runs.
 *  3. Order-invariance: `runFleetPermuted` processes a shuffled
 *     flattened index space — lane blocks then group *different*
 *     drones — and must still produce byte-identical output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "util/rng.hh"

namespace dronedse::fleet {
namespace {

/** FNV-1a, for pinning large CSV bodies without embedding them. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** The battery: four composed two-fault scenarios at seed 17. */
FleetSpec
batterySpec()
{
    const char *pairs[4][2] = {
        {"gps_outage_midway", "motor_derate_mild"},
        {"link_flap", "camera_blackout"},
        {"latency_spike", "motor_derate_deep"},
        {"contention_burst", "gps_outage_midway"},
    };
    FleetSpec spec;
    spec.mission = findMission("survey");
    for (const auto &p : pairs) {
        auto composed = fault::composeScenarios(
            fault::findScenario(p[0]), fault::findScenario(p[1]));
        EXPECT_TRUE(composed.ok());
        spec.scenarios.push_back({composed.scenario->name,
                                  *composed.scenario, EnvAxes{}});
    }
    spec.dronesPerScenario = 48;
    spec.fleetSeed = 17;
    return spec;
}

/**
 * Golden per-scenario summary at seed 17, generated from a jobs=1
 * run.  %.17g formatting makes equal doubles give equal text, so a
 * byte-level diff here is a bit-level diff of the results.
 */
const char *kGoldenSummary =
    "scenario,drones,survival_rate,crashed,landed_safe,"
    "survived_degraded,completed,q10_flight_s,q50_flight_s,"
    "q90_flight_s,p_flight_ge_60s,mean_energy_wh\n"
    "gps_outage_midway+motor_derate_mild,48,1,0,48,0,0,"
    "34.100000000000001,34.600000000000001,35.200000000000003,0,"
    "1.9182737028451176\n"
    "link_flap+camera_blackout,48,1,0,0,48,0,62.400000000000006,"
    "64.700000000000003,68.400000000000006,0.97916666666666663,"
    "3.6108533742087299\n"
    "latency_spike+motor_derate_deep,48,1,0,48,0,0,"
    "22.100000000000001,22.100000000000001,22.100000000000001,0,"
    "1.2078799201695081\n"
    "contention_burst+gps_outage_midway,48,1,0,48,0,0,"
    "34.100000000000001,34.600000000000001,35.200000000000003,0,"
    "1.9006890410669517\n";

/** FNV-1a of the full ECDF CSV (384 samples) of the same run. */
constexpr std::uint64_t kGoldenEcdfHash = 17354385297078338916ULL;

TEST(FleetDeterminism, GoldenBatteryPinnedAtSeed17)
{
    const FleetResult result = runFleet(batterySpec(), 1);
    EXPECT_EQ(fleetSummaryCsv(result), kGoldenSummary);
    EXPECT_EQ(fnv1a(fleetEcdfCsv(result)), kGoldenEcdfHash);
}

TEST(FleetDeterminism, ByteIdenticalAcrossJobs128)
{
    const FleetSpec spec = batterySpec();
    const std::string ecdf1 = fleetEcdfCsv(runFleet(spec, 1));
    const std::string ecdf2 = fleetEcdfCsv(runFleet(spec, 2));
    const std::string ecdf8 = fleetEcdfCsv(runFleet(spec, 8));
    EXPECT_EQ(ecdf1, ecdf2);
    EXPECT_EQ(ecdf1, ecdf8);
    EXPECT_EQ(fnv1a(ecdf1), kGoldenEcdfHash);
}

TEST(FleetDeterminism, RepeatRunsAreByteIdentical)
{
    const FleetSpec spec = batterySpec();
    const FleetResult a = runFleet(spec, 4);
    const FleetResult b = runFleet(spec, 4);
    EXPECT_EQ(fleetEcdfCsv(a), fleetEcdfCsv(b));
    EXPECT_EQ(fleetSummaryCsv(a), fleetSummaryCsv(b));
}

TEST(FleetDeterminism, DroneOrderPermutationIsInvariant)
{
    const FleetSpec spec = batterySpec();
    const std::string baseline = fleetEcdfCsv(runFleet(spec, 1));

    const std::size_t total =
        spec.scenarios.size() * spec.dronesPerScenario;
    std::vector<std::size_t> order(total);
    std::iota(order.begin(), order.end(), std::size_t{0});

    // Reversed order: every lane block groups a different drone
    // set than the identity order.
    std::reverse(order.begin(), order.end());
    EXPECT_EQ(fleetEcdfCsv(runFleetPermuted(spec, 3, order)),
              baseline);

    // Seeded Fisher-Yates shuffles, multi-threaded.
    Rng rng(123);
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = total - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i)));
            std::swap(order[i], order[j]);
        }
        EXPECT_EQ(fleetEcdfCsv(runFleetPermuted(spec, 4, order)),
                  baseline)
            << "shuffle round " << round;
    }
}

TEST(FleetDeterminism, OddPopulationsDoNotDependOnLanePadding)
{
    // 13 drones/scenario: not a multiple of the lane width, so the
    // final block of each chunk runs partially filled and chunk
    // boundaries fall mid-block at some thread counts.
    FleetSpec spec = batterySpec();
    spec.dronesPerScenario = 13;
    const std::string ecdf1 = fleetEcdfCsv(runFleet(spec, 1));
    const std::string ecdf5 = fleetEcdfCsv(runFleet(spec, 5));
    EXPECT_EQ(ecdf1, ecdf5);
}

TEST(FleetDeterminism, SeedActuallyFeedsTheModel)
{
    // Guards against the goldens silently pinning a constant model:
    // a different fleet seed must change the byte stream.
    FleetSpec spec = batterySpec();
    spec.fleetSeed = 18;
    EXPECT_NE(fnv1a(fleetEcdfCsv(runFleet(spec, 1))),
              kGoldenEcdfHash);
}

TEST(FleetDeterminism, EnvAxesFeedTheModel)
{
    // Wind, payload, and battery age must each perturb results.
    const FleetSpec base = batterySpec();
    const std::string baseline =
        fleetEcdfCsv(runFleet(base, 1));

    FleetSpec windy = base;
    windy.scenarios[0].env.windMps = 8.0;
    EXPECT_NE(fleetEcdfCsv(runFleet(windy, 1)), baseline);

    FleetSpec heavy = base;
    heavy.scenarios[0].env.payloadG = 400.0;
    EXPECT_NE(fleetEcdfCsv(runFleet(heavy, 1)), baseline);

    // The battery must age enough to bite before the scenario's
    // GPS-denial landing (~34 s, ~1.9 Wh drawn): at 5 % health the
    // SOC floor trips mid-flight.
    FleetSpec aged = base;
    aged.scenarios[0].env.batteryAge = 0.05;
    EXPECT_NE(fleetEcdfCsv(runFleet(aged, 1)), baseline);
}

/**
 * The whole composed catalog perfbench flies (101 scenarios), at the
 * nominal operating point and once more crossed with one off-nominal
 * point (windy, loaded, aged pack), 8 drones each at seed 17.  The
 * digests were generated from the stepper that queried the injector
 * per kind per tick, before the timeline was compiled into segments,
 * so they pin every scenario's bytes across that rewrite.
 */
constexpr std::uint64_t kCatalogSummaryHash = 3881877644781631939ULL;
constexpr std::uint64_t kCatalogEcdfHash = 13482125536613832608ULL;

TEST(FleetDeterminism, ComposedCatalogPinnedAtSeed17)
{
    FleetSpec spec;
    spec.mission = findMission("survey");
    spec.scenarios = composedCatalog().scenarios;
    ASSERT_EQ(spec.scenarios.size(), 101u);
    const std::vector<ComposedScenario> off_nominal =
        crossWithAxes(spec.scenarios, {6.0}, {250.0}, {0.8});
    spec.scenarios.insert(spec.scenarios.end(), off_nominal.begin(),
                          off_nominal.end());
    spec.dronesPerScenario = 8;
    spec.fleetSeed = 17;
    const FleetResult result = runFleet(spec, 2);
    EXPECT_EQ(fnv1a(fleetSummaryCsv(result)), kCatalogSummaryHash);
    EXPECT_EQ(fnv1a(fleetEcdfCsv(result)), kCatalogEcdfHash);
}

TEST(FleetDeterminism, InvalidSpecsAreFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    FleetSpec empty = batterySpec();
    empty.scenarios.clear();
    EXPECT_DEATH(runFleet(empty, 1), "no scenarios");

    FleetSpec aged = batterySpec();
    aged.scenarios[0].env.batteryAge = 0.0;
    EXPECT_DEATH(runFleet(aged, 1), "battery age");

    FleetSpec bad_order = batterySpec();
    EXPECT_DEATH(runFleetPermuted(bad_order, 1, {0, 1, 2}),
                 "permutation");
}

} // namespace
} // namespace dronedse::fleet
