#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "engine/engine.hh"
#include "engine/pareto.hh"
#include "explore/driver.hh"
#include "explore/sampler.hh"
#include "explore/space.hh"

namespace dronedse::explore {
namespace {

using namespace unit_literals;
using engine::EngineOptions;
using engine::SweepEngine;

/**
 * A canonical identity for one lattice design: the frontier-set
 * comparisons below are exact set equality over these, which is
 * sound because adaptive and exhaustive materialize bit-identical
 * inputs for the same lattice index.
 */
using PointKey = std::tuple<double, int, double, double, std::string,
                            int, double>;

PointKey
keyOf(const DesignResult &res)
{
    return {res.inputs.wheelbaseMm.value(), res.inputs.cells,
            res.inputs.capacityMah.value(), res.inputs.twr,
            res.inputs.compute.name,
            static_cast<int>(res.inputs.activity),
            res.inputs.payloadG.value()};
}

/** Exhaustively solve a space through the grid sampler. */
std::vector<DesignResult>
solveWholeSpace(SweepEngine &eng, const ExploreSpace &space)
{
    auto gen = makeGenerator(SamplerKind::Grid, 0);
    const auto all = gen->nextBatch(space, space.pointCount());
    std::vector<DesignInputs> inputs;
    inputs.reserve(all.size());
    for (const auto &idx : all)
        inputs.push_back(space.materialize(idx));
    return eng.solvePoints(inputs);
}

std::set<PointKey>
frontierKeys(const std::vector<DesignResult> &points,
             const std::vector<std::size_t> &frontier)
{
    std::set<PointKey> keys;
    for (std::size_t i : frontier)
        keys.insert(keyOf(points[i]));
    return keys;
}

/** The 450 mm reference space at a coarser (test-sized) step. */
ExploreSpace
testSpace450()
{
    return referenceSpace450(100.0_mah);
}

TEST(AdaptiveDriver, FrontierIsParetoConsistentAtAnyBudget)
{
    // A budgeted run may keep points whose dominators it has not
    // evaluated yet — that is the nature of partial information.
    // What must hold at *any* budget: the kept frontier is exactly
    // the Pareto set of the evaluated points (no evaluated point
    // dominates a kept one), and every evaluated point that belongs
    // to the exhaustive frontier is kept (a globally non-dominated
    // point is non-dominated in every subset containing it).
    const ExploreSpace space = testSpace450();
    SweepEngine eng{EngineOptions{.threads = 4}};
    const std::vector<DesignResult> oracle =
        solveWholeSpace(eng, space);
    const std::set<PointKey> oracle_frontier =
        frontierKeys(oracle, engine::paretoFrontier(oracle));

    for (std::size_t budget : {600u, 1500u}) {
        ExploreOptions options;
        options.maxEvaluations = budget;
        options.initialSamples = 256;
        AdaptiveDriver driver(eng, options);
        const ExploreResult result = driver.run(space);
        EXPECT_LE(result.evaluations(), budget);

        const std::set<std::size_t> kept(result.frontier.begin(),
                                         result.frontier.end());
        for (std::size_t i : result.frontier) {
            for (std::size_t j = 0; j < result.points.size(); ++j) {
                EXPECT_FALSE(engine::dominates(result.points[j],
                                               result.points[i]))
                    << "budget " << budget;
            }
        }
        for (std::size_t j = 0; j < result.points.size(); ++j) {
            if (oracle_frontier.contains(keyOf(result.points[j])))
                EXPECT_TRUE(kept.contains(j)) << "budget " << budget;
        }
    }
}

TEST(AdaptiveDriver, RecoversExactFrontierWithTenthOfGridSolves)
{
    // The acceptance gate: on the 450 mm reference space the
    // adaptive run must recover the exhaustive Pareto frontier
    // *exactly* while spending at most 10% of the grid's solves.
    const ExploreSpace space = testSpace450();
    SweepEngine eng{EngineOptions{.threads = 4}};
    const std::vector<DesignResult> oracle =
        solveWholeSpace(eng, space);
    const std::set<PointKey> oracle_frontier =
        frontierKeys(oracle, engine::paretoFrontier(oracle));

    ExploreOptions options;
    options.maxEvaluations = space.pointCount() / 10;
    AdaptiveDriver driver(eng, options);
    const ExploreResult result = driver.run(space);

    EXPECT_LE(result.evaluations(), space.pointCount() / 10);
    const std::set<PointKey> adaptive =
        frontierKeys(result.points, result.frontier);
    EXPECT_EQ(adaptive, oracle_frontier);
    EXPECT_GT(result.rounds.size(), 1u);
}

TEST(AdaptiveDriver, ByteIdenticalAcrossThreadCountsAndReruns)
{
    const ExploreSpace space = testSpace450();
    ExploreOptions options;
    options.maxEvaluations = 1200;
    options.initialSamples = 256;

    std::string frontier_ref, rounds_ref;
    for (int threads : {1, 2, 8}) {
        SweepEngine eng{EngineOptions{.threads = threads}};
        AdaptiveDriver driver(eng, options);
        const ExploreResult first = driver.run(space);
        // Rerun on the same engine: the answer must not change.
        const ExploreResult second = driver.run(space);
        EXPECT_EQ(frontierCsv(first), frontierCsv(second));
        EXPECT_EQ(roundsCsv(first), roundsCsv(second));
        if (frontier_ref.empty()) {
            frontier_ref = frontierCsv(first);
            rounds_ref = roundsCsv(first);
        } else {
            EXPECT_EQ(frontierCsv(first), frontier_ref)
                << "threads " << threads;
            EXPECT_EQ(roundsCsv(first), rounds_ref)
                << "threads " << threads;
        }
    }
    EXPECT_FALSE(frontier_ref.empty());
}

TEST(AdaptiveDriver, SamplerChoiceChangesTheSearchNotTheContract)
{
    const ExploreSpace space = testSpace450();
    SweepEngine eng{EngineOptions{.threads = 4}};
    for (SamplerKind kind :
         {SamplerKind::UniformRandom, SamplerKind::LatinHypercube,
          SamplerKind::Sobol}) {
        ExploreOptions options;
        options.sampler = kind;
        options.maxEvaluations = 800;
        AdaptiveDriver driver(eng, options);
        const ExploreResult result = driver.run(space);
        EXPECT_LE(result.evaluations(), 800u) << samplerKindName(kind);
        EXPECT_FALSE(result.frontier.empty()) << samplerKindName(kind);
        // The incumbent routes through the shared scan helper.
        ASSERT_LT(result.incumbent, result.points.size());
        const double best =
            result.points[result.incumbent].flightTimeMin.value();
        for (const DesignResult &res : result.points) {
            if (res.feasible)
                EXPECT_GE(best, res.flightTimeMin.value());
        }
    }
}

TEST(AdaptiveDriver, CompletesSixAxisSpace)
{
    // wideSpace6 is past what the exhaustive benches walk; the
    // driver must still finish within budget and produce a frontier
    // covering several payload values.
    const ExploreSpace space = wideSpace6(200.0_mah);
    ASSERT_EQ(space.axisCount(), 6u);
    SweepEngine eng{EngineOptions{.threads = 4}};
    ExploreOptions options;
    options.maxEvaluations = 2500;
    AdaptiveDriver driver(eng, options);
    const ExploreResult result = driver.run(space);
    EXPECT_LE(result.evaluations(), 2500u);
    EXPECT_FALSE(result.frontier.empty());
    ASSERT_LT(result.incumbent, result.points.size());
    EXPECT_TRUE(result.points[result.incumbent].feasible);
}

TEST(AdaptiveDriver, GridSamplerConvergesOnTinySpace)
{
    // A space smaller than the budget: the grid sampler enumerates
    // everything, refinement finds nothing new, and the run reports
    // convergence with the frontier equal to the exhaustive one.
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {3, 4}, 500.0_mah, basicChip3W());
    spec.boards = {basicChip3W(), advancedChip20W()};
    const ExploreSpace space = spaceFromSweepSpec(spec);

    SweepEngine eng{EngineOptions{.threads = 2}};
    const std::vector<DesignResult> oracle =
        solveWholeSpace(eng, space);

    ExploreOptions options;
    options.sampler = SamplerKind::Grid;
    options.maxEvaluations = space.pointCount() * 2;
    AdaptiveDriver driver(eng, options);
    const ExploreResult result = driver.run(space);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.evaluations(), space.pointCount());
    EXPECT_EQ(frontierKeys(result.points, result.frontier),
              frontierKeys(oracle, engine::paretoFrontier(oracle)));
}

TEST(AdaptiveDriver, RejectsInvalidSpaceAndOptions)
{
    SweepEngine eng{EngineOptions{.threads = 1}};
    EXPECT_DEATH(
        {
            ExploreOptions options;
            options.maxEvaluations = 0;
            AdaptiveDriver driver(eng, options);
        },
        "maxEvaluations");
    ExploreOptions options;
    AdaptiveDriver driver(eng, options);
    ExploreSpace empty;
    EXPECT_DEATH((void)driver.run(empty), "at least one axis");
}


TEST(ValidateExploreOptions, DefaultIsValidAndEachRuleRejects)
{
    EXPECT_EQ(validateExploreOptions(ExploreOptions{}), "");
    ExploreOptions options;
    options.maxEvaluations = 0;
    EXPECT_EQ(validateExploreOptions(options),
              "maxEvaluations must be positive");
    options = ExploreOptions{};
    options.initialSamples = 0;
    EXPECT_EQ(validateExploreOptions(options),
              "initialSamples must be positive");
    options = ExploreOptions{};
    options.roundEvaluations = 0;
    EXPECT_EQ(validateExploreOptions(options),
              "roundEvaluations must be positive");
}

TEST(ValidateExploreOptions, DriverGuardReportsTheValidatorMessage)
{
    SweepEngine eng{EngineOptions{.threads = 1}};
    ExploreOptions options;
    options.maxEvaluations = 0;
    const std::string message = validateExploreOptions(options);
    ASSERT_FALSE(message.empty());
    EXPECT_EXIT(AdaptiveDriver(eng, options),
                testing::ExitedWithCode(1),
                "fatal: AdaptiveDriver: " + message);
}

TEST(ValidateSpace, BaseAndEveryAxisValueMustBePhysical)
{
    EXPECT_EQ(validateSpace(testSpace450()), "");
    EXPECT_EQ(validateSpace(wideSpace7()), "");

    ExploreSpace valid;
    valid.axes = {capacityAxis(1000.0_mah, 500.0_mah, 4)};
    EXPECT_EQ(validateSpace(valid), "");

    const auto rejects = [&](const char *field, auto mutate) {
        ExploreSpace space = valid;
        mutate(space);
        const std::string err = validateSpace(space);
        EXPECT_NE(err.find(field), std::string::npos)
            << field << " -> '" << err << "'";
    };
    // Structure.
    rejects("at least one axis",
            [](ExploreSpace &s) { s.axes.clear(); });
    rejects("duplicate", [](ExploreSpace &s) {
        s.axes.push_back(capacityAxis(1000.0_mah, 500.0_mah, 2));
    });
    rejects("empty", [](ExploreSpace &s) {
        s.axes.push_back(cellsAxis({}));
    });
    rejects("non-finite", [](ExploreSpace &s) {
        s.axes.push_back(twrAxis(
            std::numeric_limits<double>::infinity(), 0.5, 2));
    });
    rejects("positive step", [](ExploreSpace &s) {
        s.axes.push_back(twrAxis(2.0, 0.0, 2));
    });
    // The base point goes through validateDesignInputs.
    rejects("base: twr", [](ExploreSpace &s) { s.base.twr = 50.0; });
    // So does every enumerated value and both lattice endpoints.
    rejects("cells", [](ExploreSpace &s) {
        s.axes.push_back(cellsAxis({3, 7}));
    });
    rejects("compute", [](ExploreSpace &s) {
        s.axes.push_back(boardAxis(
            {basicChip3W(),
             ComputeBoardRecord{"bad", BoardClass::Basic, -1.0, 3.0}}));
    });
    rejects("capacityMah", [](ExploreSpace &s) {
        s.axes[0] = capacityAxis(-100.0_mah, 500.0_mah, 4);
    });
    rejects("wheelbaseMm", [](ExploreSpace &s) {
        s.axes.push_back(wheelbaseAxis(0.0_mm, 100.0_mm, 3));
    });
    rejects("wheelbaseMm", [](ExploreSpace &s) {
        s.axes.push_back(wheelbaseAxis(1900.0_mm, 100.0_mm, 3));
    });
    rejects("twr", [](ExploreSpace &s) {
        s.axes.push_back(twrAxis(0.5, 0.5, 3));
    });
    rejects("twr", [](ExploreSpace &s) {
        s.axes.push_back(twrAxis(9.5, 0.5, 3));
    });
    rejects("payloadG", [](ExploreSpace &s) {
        s.axes.push_back(payloadAxis(-10.0_g, 10.0_g, 2));
    });
}

} // namespace
} // namespace dronedse::explore
