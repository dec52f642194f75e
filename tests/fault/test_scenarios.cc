/**
 * @file
 * Golden scenario battery: every catalog scenario flown at a fixed
 * seed pins its outcome, and the battery is bit-identical across
 * repeat runs and thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "fault/fault.hh"
#include "fault/mission.hh"

using namespace dronedse::fault;

namespace {

ResilienceConfig
goldenConfig(bool policy_enabled = true)
{
    ResilienceConfig config;
    config.durationS = 60.0;
    config.seed = 17;
    config.policyEnabled = policy_enabled;
    return config;
}

/** What each catalog scenario must produce at seed 17, policy on. */
struct Golden
{
    OutcomeTier tier;
    bool crashed;
    std::size_t waypoints;
    FlightMode worstMode;
};

const std::map<std::string, Golden> &
goldenTable()
{
    static const std::map<std::string, Golden> table = {
        {"nominal",
         {OutcomeTier::Completed, false, 5, FlightMode::Nominal}},
        {"gps_outage_midway",
         {OutcomeTier::SurvivedDegraded, false, 5,
          FlightMode::LandSafe}},
        {"gps_outage_imu_noise",
         {OutcomeTier::LandedSafe, false, 4, FlightMode::LandSafe}},
        {"link_flap",
         {OutcomeTier::SurvivedDegraded, false, 5,
          FlightMode::RateShed}},
        {"link_loss_permanent",
         {OutcomeTier::SurvivedDegraded, false, 5,
          FlightMode::RateShed}},
        {"latency_spike",
         {OutcomeTier::SurvivedDegraded, false, 5,
          FlightMode::RateShed}},
        {"motor_derate_mild",
         {OutcomeTier::Completed, false, 5, FlightMode::Nominal}},
        {"motor_derate_deep",
         {OutcomeTier::LandedSafe, false, 4, FlightMode::LandSafe}},
        {"contention_burst",
         {OutcomeTier::SurvivedDegraded, false, 5,
          FlightMode::RateShed}},
        {"camera_blackout",
         {OutcomeTier::Completed, false, 5, FlightMode::Nominal}},
        {"kitchen_sink",
         {OutcomeTier::SurvivedDegraded, false, 5,
          FlightMode::LandSafe}},
    };
    return table;
}

} // namespace

TEST(ScenarioBattery, GoldenOutcomesAtFixedSeed)
{
    const auto reports =
        runScenarioBattery(scenarioCatalog(), goldenConfig(), 1);
    ASSERT_EQ(reports.size(), goldenTable().size());
    for (const auto &r : reports) {
        const auto it = goldenTable().find(r.scenario);
        ASSERT_NE(it, goldenTable().end()) << r.scenario;
        const Golden &want = it->second;
        EXPECT_EQ(r.tier, want.tier) << r.scenario;
        EXPECT_EQ(r.crashed, want.crashed) << r.scenario;
        EXPECT_EQ(r.waypointsReached, want.waypoints) << r.scenario;
        EXPECT_EQ(r.worstMode, want.worstMode) << r.scenario;
    }
}

TEST(ScenarioBattery, BitIdenticalAcrossRepeatRuns)
{
    const auto a =
        runScenarioBattery(scenarioCatalog(), goldenConfig(), 1);
    const auto b =
        runScenarioBattery(scenarioCatalog(), goldenConfig(), 1);
    EXPECT_EQ(batteryToCsv(a), batteryToCsv(b));
}

TEST(ScenarioBattery, BitIdenticalAcrossThreadCounts)
{
    // The --jobs 1/2/8 invariance the engine's indexed-slot
    // parallelFor guarantees: the CSV must match byte for byte.
    const auto jobs1 =
        runScenarioBattery(scenarioCatalog(), goldenConfig(), 1);
    const auto jobs2 =
        runScenarioBattery(scenarioCatalog(), goldenConfig(), 2);
    const auto jobs8 =
        runScenarioBattery(scenarioCatalog(), goldenConfig(), 8);
    EXPECT_EQ(batteryToCsv(jobs1), batteryToCsv(jobs2));
    EXPECT_EQ(batteryToCsv(jobs1), batteryToCsv(jobs8));
}

TEST(ScenarioBattery, PolicyFlipsCrashesIntoSurvival)
{
    // The headline resilience claim: scenarios that crash the drone
    // with the policy disabled end in a controlled outcome with it
    // enabled.
    const std::vector<std::string> flipped = {
        "gps_outage_midway",
        "gps_outage_imu_noise",
        "motor_derate_deep",
        "kitchen_sink",
    };
    for (const auto &name : flipped) {
        const auto without = runResilienceMission(
            findScenario(name), goldenConfig(false));
        const auto with =
            runResilienceMission(findScenario(name), goldenConfig());
        EXPECT_TRUE(without.crashed) << name;
        EXPECT_FALSE(with.crashed) << name;
        EXPECT_GT(static_cast<int>(with.tier),
                  static_cast<int>(without.tier))
            << name;
    }
}

TEST(ScenarioBattery, NominalScenarioIsCleanEitherWay)
{
    const auto with = runResilienceMission(findScenario("nominal"),
                                           goldenConfig());
    const auto without = runResilienceMission(
        findScenario("nominal"), goldenConfig(false));
    EXPECT_EQ(with.tier, OutcomeTier::Completed);
    EXPECT_EQ(without.tier, OutcomeTier::Completed);
    EXPECT_TRUE(with.transitions.empty());
    EXPECT_EQ(with.deadlineMisses, 0);
}

TEST(ScenarioBattery, ReportsAreInternallyConsistent)
{
    const auto reports =
        runScenarioBattery(scenarioCatalog(), goldenConfig(), 2);
    for (const auto &r : reports) {
        EXPECT_GT(r.flightTimeS, 0.0) << r.scenario;
        EXPECT_LE(r.flightTimeS, 60.0 + 1e-9) << r.scenario;
        EXPECT_GT(r.energyWh, 0.0) << r.scenario;
        EXPECT_LE(r.waypointsReached, 6u) << r.scenario;
        EXPECT_EQ(r.transitions.empty(),
                  r.worstMode == FlightMode::Nominal)
            << r.scenario;
        if (r.crashed) {
            EXPECT_EQ(r.tier, OutcomeTier::Crashed) << r.scenario;
        }
    }
}

TEST(ScenarioBattery, CsvRowsMatchHeaderArity)
{
    const auto reports = runScenarioBattery(
        {findScenario("nominal"), findScenario("link_flap")},
        goldenConfig(), 1);
    const std::string header = reportCsvHeader();
    const auto count_commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    for (const auto &r : reports)
        EXPECT_EQ(count_commas(reportCsvRow(r)),
                  count_commas(header));

    const std::string csv = batteryToCsv(reports);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_EQ(csv.rfind(header, 0), 0u);
}

TEST(ScenarioBattery, SeedChangesNumbersButDeterminismHolds)
{
    ResilienceConfig other = goldenConfig();
    other.seed = 99;
    const auto a = runScenarioBattery(scenarioCatalog(), other, 2);
    const auto b = runScenarioBattery(scenarioCatalog(), other, 4);
    EXPECT_EQ(batteryToCsv(a), batteryToCsv(b));
}
