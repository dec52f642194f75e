/**
 * @file
 * Differential battery holding `solveDesignBatch` to the scalar
 * `solveDesign` oracle, byte for byte (DESIGN.md §15):
 *
 *   (a) the full 450 mm reference grid (and the other two Figure 10
 *       size classes, both boards, both activities, cells 1-6);
 *   (b) seeded random design clouds spanning the input space,
 *       including infeasible and non-converging corners;
 *   (c) feasibility-boundary points located by bisection, where a
 *       masked lane sits one ULP-scale step from flipping verdicts
 *       and any drift in the iteration would surface first;
 *   (d) one point under a different perturbed `SurveyModel` per lane,
 *       the Monte-Carlo overload `propagateUncertainty` runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/batch_solve.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "batch_test_util.hh"
#include "util/rng.hh"

using namespace dronedse;
using namespace dronedse::unit_literals;
using batch_test::expectByteIdentical;

namespace {

/** Batch-solve the whole set and compare every element bitwise. */
void
expectBatchMatchesScalar(const std::vector<DesignInputs> &inputs)
{
    const std::vector<DesignResult> batch =
        solveDesignBatch(std::span<const DesignInputs>(inputs));
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(solveDesign(inputs[i]), batch[i]);
    }
}

SweepSpec
fullClassSpec(SizeClass cls)
{
    SweepSpec spec = classSweepSpec(classSpec(cls), {1, 2, 3, 4, 5, 6},
                                    100.0_mah, basicChip3W());
    spec.boards = {advancedChip20W(), basicChip3W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    return spec;
}

} // namespace

TEST(BatchDifferential, Full450mmReferenceGrid)
{
    const std::vector<DesignInputs> grid =
        expandGrid(fullClassSpec(SizeClass::Medium));
    ASSERT_GT(grid.size(), 1000u);
    expectBatchMatchesScalar(grid);
}

TEST(BatchDifferential, SmallAndLargeClassGrids)
{
    for (SizeClass cls : {SizeClass::Small, SizeClass::Large}) {
        SCOPED_TRACE(static_cast<int>(cls));
        expectBatchMatchesScalar(expandGrid(fullClassSpec(cls)));
    }
}

TEST(BatchDifferential, SeededRandomDesignClouds)
{
    // Wide clouds: wheelbases off the class anchors, fractional
    // capacities, hostile TWRs, explicit prop overrides, sensors and
    // payloads — plus corners the validation rejects, so refused
    // lanes sit next to converging ones inside single blocks.
    for (std::uint64_t seed : {11ull, 29ull, 4242ull}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::vector<DesignInputs> cloud;
        for (int i = 0; i < 300; ++i) {
            DesignInputs in;
            in.wheelbaseMm =
                Quantity<Millimeters>(rng.uniform(40.0, 1100.0));
            in.cells = static_cast<int>(rng.uniformInt(0, 8));
            in.capacityMah =
                Quantity<MilliampHours>(rng.uniform(-200.0, 12000.0));
            in.twr = rng.uniform(0.5, 6.0);
            if (rng.uniform() < 0.3)
                in.propDiameterIn =
                    Quantity<Inches>(rng.uniform(1.0, 22.0));
            in.escClass = rng.uniform() < 0.5 ? EscClass::LongFlight
                                              : EscClass::ShortFlight;
            in.compute = rng.uniform() < 0.5 ? basicChip3W()
                                             : advancedChip20W();
            in.sensorWeightG = Quantity<Grams>(rng.uniform(0.0, 150.0));
            in.sensorPowerW = Quantity<Watts>(rng.uniform(0.0, 10.0));
            in.payloadG = Quantity<Grams>(rng.uniform(0.0, 500.0));
            in.activity = rng.uniform() < 0.5
                              ? FlightActivity::Hovering
                              : FlightActivity::Maneuvering;
            cloud.push_back(in);
        }
        expectBatchMatchesScalar(cloud);
    }
}

TEST(BatchDifferential, BisectedFeasibilityBoundaryPoints)
{
    // Bisect the battery C-rating feasibility boundary in capacity
    // for each battery family, then solve a tight bracket around
    // every boundary.  These are the inputs where bit drift would
    // first flip a verdict: the scalar and batch paths must agree on
    // *which side* each bracket point lands on, with identical bytes
    // throughout.
    std::vector<DesignInputs> bracket;
    for (int cells = 1; cells <= 6; ++cells) {
        DesignInputs probe;
        probe.cells = cells;
        double lo = 1.0, hi = 3000.0;
        // The boundary may sit outside [lo, hi] for some families;
        // only bisect brackets that actually straddle it.
        probe.capacityMah = Quantity<MilliampHours>(lo);
        const bool lo_feasible = solveDesign(probe).feasible;
        probe.capacityMah = Quantity<MilliampHours>(hi);
        const bool hi_feasible = solveDesign(probe).feasible;
        if (lo_feasible == hi_feasible)
            continue;
        while (hi - lo > 0.001) {
            const double mid = 0.5 * (lo + hi);
            probe.capacityMah = Quantity<MilliampHours>(mid);
            if (solveDesign(probe).feasible == hi_feasible)
                hi = mid;
            else
                lo = mid;
        }
        for (double cap : {lo, hi, lo - 0.0005, hi + 0.0005,
                           0.5 * (lo + hi)}) {
            DesignInputs in = probe;
            in.capacityMah = Quantity<MilliampHours>(cap);
            bracket.push_back(in);
        }
    }
    ASSERT_FALSE(bracket.empty());
    expectBatchMatchesScalar(bracket);
}

TEST(BatchDifferential, SpanAndVectorOverloadsAgree)
{
    const std::vector<DesignInputs> grid =
        expandGrid(fullClassSpec(SizeClass::Medium));
    const std::vector<DesignInputs> subset(grid.begin(),
                                           grid.begin() + 37);
    const std::vector<DesignResult> from_vector =
        solveDesignBatch(std::span<const DesignInputs>(subset));
    std::vector<DesignResult> from_span(subset.size());
    solveDesignBatch(std::span<const DesignInputs>(subset),
                     std::span<DesignResult>(from_span));
    for (std::size_t i = 0; i < subset.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(from_vector[i], from_span[i]);
    }
}

namespace {

/**
 * A list of `count` survey-fit sets around the paper's, from `seed`:
 * most coefficients scattered by 10%, and some models pushed into
 * the closure's failure modes — a battery intercept that leaves no
 * positive fixed weight, or an ESC slope steep enough that the
 * weight loop runs away.
 */
std::vector<SurveyModel>
perturbedModels(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<SurveyModel> models;
    for (std::size_t i = 0; i < count; ++i) {
        SurveyModel m = SurveyModel::paper();
        for (LinearFit &fit : m.batteryFits) {
            fit.slope *= rng.gaussian(1.0, 0.1);
            fit.intercept *= rng.gaussian(1.0, 0.1);
        }
        for (LinearFit &fit : m.escFits) {
            fit.slope *= rng.gaussian(1.0, 0.1);
            fit.intercept *= rng.gaussian(1.0, 0.1);
        }
        m.frameFit.slope *= rng.gaussian(1.0, 0.1);
        m.frameFit.intercept *= rng.gaussian(1.0, 0.1);
        const double mode = rng.uniform();
        if (mode < 0.15) {
            for (LinearFit &fit : m.batteryFits)
                fit.intercept = -1.0e5;
        } else if (mode < 0.3) {
            for (LinearFit &fit : m.escFits)
                fit.slope *= 200.0;
        }
        models.push_back(m);
    }
    return models;
}

/** Batch-solve one point under `models`, split at `cuts`. */
std::vector<DesignResult>
solveSplit(const DesignInputs &point, std::span<const SurveyModel> models,
           const std::vector<std::size_t> &cuts)
{
    std::vector<DesignResult> results(models.size());
    std::size_t begin = 0;
    for (std::size_t end : cuts) {
        solveDesignBatch(point, models.subspan(begin, end - begin),
                         std::span<DesignResult>(results).subspan(
                             begin, end - begin));
        begin = end;
    }
    return results;
}

} // namespace

TEST(BatchDifferential, PerLaneSurveyModelsMatchScalar)
{
    DesignInputs reference;
    reference.wheelbaseMm = 450.0_mm;
    reference.cells = 3;
    reference.capacityMah = 5000.0_mah;
    DesignInputs four_cell = reference;
    four_cell.cells = 4;
    four_cell.capacityMah = 2000.0_mah;
    four_cell.compute = advancedChip20W();
    // C-rating infeasible at the paper fits.
    DesignInputs tiny_pack = reference;
    tiny_pack.wheelbaseMm = 200.0_mm;
    tiny_pack.cells = 4;
    tiny_pack.capacityMah = 100.0_mah;
    DesignInputs big_prop = reference;
    big_prop.wheelbaseMm = 800.0_mm;
    big_prop.cells = 6;
    big_prop.capacityMah = 8000.0_mah;
    big_prop.propDiameterIn = Quantity<Inches>(15.0);
    big_prop.payloadG = 300.0_g;

    std::map<InfeasibleReason, std::size_t> reasons;
    for (std::uint64_t seed : {3ull, 17ull, 9001ull}) {
        const std::vector<SurveyModel> models = perturbedModels(seed, 65);
        const std::span<const SurveyModel> all(models);
        for (const DesignInputs &point :
             {reference, four_cell, tiny_pack, big_prop}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(point.wheelbaseMm.value()) +
                         " mm " + std::to_string(point.cells) + "S");
            std::vector<DesignResult> scalar;
            for (const SurveyModel &m : models)
                scalar.push_back(solveDesign(point, m));
            for (const DesignResult &r : scalar)
                ++reasons[r.infeasibleReason];

            // Sample counts on and off the lane width.
            for (std::size_t n : {1u, 7u, 9u, 65u}) {
                SCOPED_TRACE(std::to_string(n) + " samples");
                std::vector<DesignResult> batch(n);
                solveDesignBatch(point, all.first(n),
                                 std::span<DesignResult>(batch));
                for (std::size_t i = 0; i < n; ++i) {
                    SCOPED_TRACE("lane " + std::to_string(i));
                    expectByteIdentical(scalar[i], batch[i]);
                }
            }

            // Any split of the model list gives the same bytes.
            for (const std::vector<std::size_t> &cuts :
                 std::vector<std::vector<std::size_t>>{
                     {65}, {1, 8, 17, 65}, {7, 16, 64, 65}, {33, 65}}) {
                const std::vector<DesignResult> split =
                    solveSplit(point, all, cuts);
                for (std::size_t i = 0; i < models.size(); ++i) {
                    SCOPED_TRACE("split lane " + std::to_string(i));
                    expectByteIdentical(scalar[i], split[i]);
                }
            }
        }
    }
    // Lanes finish feasible, in the prologue, in the loop and in the
    // epilogue.
    for (InfeasibleReason reason :
         {InfeasibleReason::None, InfeasibleReason::NonPositiveFixedWeight,
          InfeasibleReason::Diverged, InfeasibleReason::CRating})
        EXPECT_GT(reasons[reason], 0u) << enumName(reason);
}
