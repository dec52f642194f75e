/**
 * @file
 * `SweepEngine` hands every pool chunk to `solveDesignBatch`; these
 * tests hold that batch path byte-identical to a scalar `solveDesign`
 * loop over the same grid, and to itself across thread counts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/weight_closure.hh"
#include "engine/engine.hh"
#include "engine/pareto.hh"

#include "../dse/batch_test_util.hh"

using namespace dronedse;
using namespace dronedse::engine;
using namespace dronedse::unit_literals;
using batch_test::expectByteIdentical;

TEST(BatchEngine, BatchAndScalarEnginesAreByteIdentical)
{
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {1, 2, 3, 4, 5, 6}, 250.0_mah,
                                    basicChip3W());
    // The scalar reference: one solveDesign call per grid point.
    std::vector<DesignResult> scalar;
    for (const DesignInputs &in : expandGrid(spec))
        scalar.push_back(solveDesign(in));
    std::vector<std::size_t> scalar_feasible;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        if (scalar[i].feasible)
            scalar_feasible.push_back(i);
    }

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SweepEngine batch_engine{EngineOptions{.threads = threads}};
        const SweepResult with_batch = batch_engine.run(spec);

        ASSERT_EQ(with_batch.points.size(), scalar.size());
        for (std::size_t i = 0; i < scalar.size(); ++i) {
            SCOPED_TRACE("index " + std::to_string(i));
            expectByteIdentical(scalar[i], with_batch.points[i]);
        }
        EXPECT_EQ(with_batch.feasible, scalar_feasible);
        EXPECT_EQ(with_batch.frontier, paretoFrontier(scalar));

        // The engine accounts for every grid point it solved.
        EXPECT_EQ(with_batch.stats.gridPoints, scalar.size());
        EXPECT_EQ(batch_engine.cacheCounters().misses,
                  with_batch.stats.gridPoints);
    }
}

TEST(BatchEngine, ThreadCountsAgreeBitwiseOnTheBatchPath)
{
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Small),
                                    {1, 2, 3, 4}, 200.0_mah,
                                    advancedChip20W());
    SweepEngine reference{EngineOptions{.threads = 1}};
    const SweepResult base = reference.run(spec);
    for (int threads : {2, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SweepEngine engine{EngineOptions{.threads = threads}};
        const SweepResult run = engine.run(spec);
        ASSERT_EQ(run.points.size(), base.points.size());
        for (std::size_t i = 0; i < run.points.size(); ++i) {
            SCOPED_TRACE("index " + std::to_string(i));
            expectByteIdentical(base.points[i], run.points[i]);
        }
    }
}
