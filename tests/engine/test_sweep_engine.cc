#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/export.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "engine/engine.hh"

#include "../dse/batch_test_util.hh"

namespace dronedse {
namespace {

using namespace unit_literals;
using engine::EngineOptions;
using engine::SweepEngine;
using engine::SweepResult;
using batch_test::expectByteIdentical;

/** The Figure 10 footprint grid of the medium class. */
SweepSpec
fig10MediumGrid()
{
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {1, 2, 3, 4, 5, 6}, 250.0_mah,
                                    basicChip3W());
    spec.boards = {advancedChip20W(), basicChip3W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    return spec;
}

class SweepEngineThreads : public testing::TestWithParam<int>
{
};

TEST_P(SweepEngineThreads, ElementwiseIdenticalToSerial)
{
    const SweepSpec spec = fig10MediumGrid();
    const std::vector<DesignResult> serial = runSweepSerial(spec);
    SweepEngine eng{EngineOptions{.threads = GetParam()}};
    // The second pass on the same engine is a fresh solve too.
    for (int pass = 0; pass < 2; ++pass) {
        const SweepResult swept = eng.run(spec);
        ASSERT_EQ(swept.points.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("index " + std::to_string(i));
            expectByteIdentical(serial[i], swept.points[i]);
        }
    }
}

TEST_P(SweepEngineThreads, CsvExportByteIdenticalToSerial)
{
    const auto &spec = classSpec(SizeClass::Medium);
    std::string serial_csv;
    for (int cells : {1, 3, 6}) {
        serial_csv += sweepToCsv(sweepCapacity(spec, cells, 100.0_mah,
                                               basicChip3W()))
                          .str();
    }

    SweepEngine eng{EngineOptions{.threads = GetParam()}};
    std::string engine_csv;
    for (int cells : {1, 3, 6}) {
        const SweepResult swept = eng.run(classSweepSpec(
            spec, {cells}, 100.0_mah, basicChip3W()));
        engine_csv += sweepToCsv(swept.feasibleSeries()).str();
    }
    EXPECT_EQ(engine_csv, serial_csv);
}

INSTANTIATE_TEST_SUITE_P(Threads, SweepEngineThreads,
                         testing::Values(1, 2, 8));

TEST(SweepEngine, BestConfigurationMatchesSerial)
{
    for (SizeClass cls :
         {SizeClass::Small, SizeClass::Medium, SizeClass::Large}) {
        const auto &spec = classSpec(cls);
        const DesignResult serial =
            bestConfiguration(spec, basicChip3W());
        SweepEngine eng{EngineOptions{.threads = 4}};
        const DesignResult parallel =
            eng.bestConfiguration(spec, basicChip3W());
        expectByteIdentical(serial, parallel);
    }
}

TEST(SweepEngine, FeasibleEnvelopeMatchesPointFlags)
{
    SweepEngine eng{EngineOptions{.threads = 2}};
    const SweepResult swept = eng.run(fig10MediumGrid());
    std::size_t feasible_count = 0;
    for (std::size_t i = 0; i < swept.points.size(); ++i) {
        if (swept.points[i].feasible)
            ++feasible_count;
    }
    EXPECT_EQ(swept.feasible.size(), feasible_count);
    for (std::size_t idx : swept.feasible)
        EXPECT_TRUE(swept.points[idx].feasible);
    for (std::size_t idx : swept.frontier)
        EXPECT_TRUE(swept.points[idx].feasible);
}

TEST(SweepEngine, StatsAccountForEveryPoint)
{
    const SweepSpec spec = fig10MediumGrid();
    SweepEngine eng{EngineOptions{.threads = 2}};

    const SweepResult swept = eng.run(spec);
    EXPECT_EQ(swept.stats.gridPoints, spec.pointCount());
    EXPECT_EQ(swept.stats.threads, 2);
    EXPECT_GT(swept.stats.pointsPerSecond, 0.0);
    std::uint64_t items = 0;
    for (const auto &worker : swept.stats.perThread)
        items += worker.itemsProcessed;
    EXPECT_EQ(items, spec.pointCount());

    const std::string json = swept.stats.toJson();
    EXPECT_NE(json.find("\"grid_points\": " +
                        std::to_string(spec.pointCount())),
              std::string::npos);
    EXPECT_NE(json.find("\"points_per_second\""), std::string::npos);
    EXPECT_NE(json.find("\"per_thread\""), std::string::npos);
}

TEST(SweepEngine, SolveMatchesSolveDesign)
{
    DesignInputs in;
    in.wheelbaseMm = 450.0_mm;
    in.cells = 3;
    in.capacityMah = 3000.0_mah;
    DesignInputs nearby = in;
    nearby.capacityMah = 3000.0000004_mah;

    SweepEngine eng{EngineOptions{.threads = 1}};
    expectByteIdentical(solveDesign(in), eng.solve(in));
    expectByteIdentical(solveDesign(nearby), eng.solve(nearby));

    // The cache-shaped counters count solves and never report a hit.
    const engine::CacheCounters counters = eng.cacheCounters();
    EXPECT_EQ(counters.hits, 0u);
    EXPECT_EQ(counters.misses, 2u);
    EXPECT_EQ(counters.evictions, 0u);
}

} // namespace
} // namespace dronedse
