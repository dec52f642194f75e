#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "engine/engine.hh"

#include "../dse/batch_test_util.hh"

namespace dronedse {
namespace {

using namespace unit_literals;
using engine::EngineOptions;
using engine::SweepEngine;
using engine::bestFeasibleIndex;
using batch_test::expectByteIdentical;

std::vector<DesignInputs>
mixedPoints()
{
    // A hand-assembled (non-grid) point list spanning feasible,
    // infeasible, and validation-rejected designs.
    std::vector<DesignInputs> points;
    for (int cells : {1, 3, 6}) {
        for (double cap : {800.0, 3000.0, 6500.0}) {
            DesignInputs in;
            in.cells = cells;
            in.capacityMah = Quantity<MilliampHours>(cap);
            in.compute = cells == 3 ? advancedChip20W()
                                    : basicChip3W();
            points.push_back(in);
        }
    }
    DesignInputs bad;
    bad.cells = 9; // validation-rejected
    points.push_back(bad);
    return points;
}

TEST(SolvePoints, ElementwiseIdenticalToScalarSolves)
{
    const std::vector<DesignInputs> points = mixedPoints();
    for (int threads : {1, 2, 8}) {
        SweepEngine eng{EngineOptions{.threads = threads}};
        const std::vector<DesignResult> batch =
            eng.solvePoints(points);
        ASSERT_EQ(batch.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const DesignResult ref = solveDesign(points[i]);
            EXPECT_EQ(batch[i].feasible, ref.feasible);
            EXPECT_EQ(batch[i].infeasibleReason, ref.infeasibleReason);
            EXPECT_EQ(batch[i].totalWeightG, ref.totalWeightG);
            EXPECT_EQ(batch[i].flightTimeMin, ref.flightTimeMin);
            EXPECT_EQ(batch[i].avgPowerW, ref.avgPowerW);
        }
    }
}

TEST(SolvePoints, ScalarPathMatchesBatchPath)
{
    // Reference: a serial `solveDesign` loop over the same list.
    const std::vector<DesignInputs> points = mixedPoints();
    SweepEngine eng{EngineOptions{.threads = 2}};
    const auto batch = eng.solvePoints(points);
    ASSERT_EQ(batch.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(solveDesign(points[i]), batch[i]);
    }
}

TEST(BestFeasibleIndex, ScansInInputOrderWithStrictDisplacement)
{
    SweepEngine eng{EngineOptions{.threads = 1}};
    const std::vector<DesignResult> solved =
        eng.solvePoints(mixedPoints());

    const std::size_t best = bestFeasibleIndex(solved);
    ASSERT_LT(best, solved.size());
    EXPECT_TRUE(solved[best].feasible);
    for (const DesignResult &res : solved) {
        if (res.feasible)
            EXPECT_GE(solved[best].flightTimeMin.value(),
                      res.flightTimeMin.value());
    }

    // Duplicates tie: only strictly greater flight time displaces,
    // so the first of an equal pair wins.
    std::vector<DesignResult> dup = {solved[best], solved[best]};
    EXPECT_EQ(bestFeasibleIndex(dup), 0u);

    // Nothing feasible: the sentinel.
    std::vector<DesignResult> none(3);
    EXPECT_EQ(bestFeasibleIndex(none), 3u);

    // The practical filter drops designs outside the class limits.
    const SizeClassSpec &medium = classSpec(SizeClass::Medium);
    const std::size_t practical = bestFeasibleIndex(solved, &medium);
    if (practical < solved.size())
        EXPECT_TRUE(withinPracticalLimits(solved[practical], medium));
}

TEST(BestConfiguration, EngineScanStillMatchesSerialSearch)
{
    // The rewrite through solvePoints + bestFeasibleIndex must keep
    // the exact result of the serial dse search.
    const SizeClassSpec &medium = classSpec(SizeClass::Medium);
    SweepEngine eng{EngineOptions{.threads = 4}};
    const DesignResult engine_best =
        eng.bestConfiguration(medium, basicChip3W(), 250.0_mah);
    const DesignResult serial_best =
        bestConfiguration(medium, basicChip3W(), 250.0_mah);
    EXPECT_EQ(engine_best.inputs.cells, serial_best.inputs.cells);
    EXPECT_EQ(engine_best.inputs.capacityMah,
              serial_best.inputs.capacityMah);
    EXPECT_EQ(engine_best.flightTimeMin, serial_best.flightTimeMin);
    EXPECT_EQ(engine_best.totalWeightG, serial_best.totalWeightG);
}

} // namespace
} // namespace dronedse
