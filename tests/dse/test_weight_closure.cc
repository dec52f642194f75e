#include <gtest/gtest.h>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "batch_test_util.hh"
#include "util/units.hh"

namespace dronedse {
namespace {

using namespace unit_literals;

DesignInputs
medium450()
{
    DesignInputs in;
    in.wheelbaseMm = 450.0_mm;
    in.cells = 3;
    in.capacityMah = 5000.0_mah;
    return in;
}

TEST(WeightClosure, ConvergesAndAccounts)
{
    const DesignResult res = solveDesign(medium450());
    ASSERT_TRUE(res.feasible) << enumName(res.infeasibleReason);

    // The component breakdown must sum to the total.
    const Quantity<Grams> sum =
        res.frameWeightG + res.batteryWeightG + res.motorSetWeightG +
        res.escSetWeightG + res.propSetWeightG + res.wiringWeightG +
        Quantity<Grams>(res.inputs.compute.weightG) +
        res.inputs.sensorWeightG + res.inputs.payloadG;
    EXPECT_NEAR(sum.value(), res.totalWeightG.value(), 0.1);

    // Basic weight excludes battery, ESCs, and motors (Figure 9).
    EXPECT_NEAR(res.basicWeightG.value(),
                (res.totalWeightG - res.batteryWeightG -
                 res.motorSetWeightG - res.escSetWeightG)
                    .value(),
                1e-6);
}

TEST(WeightClosure, FixedPointSelfConsistent)
{
    // At the solution, the matched motor must carry exactly
    // TWR * total / 4 grams.
    const DesignResult res = solveDesign(medium450());
    ASSERT_TRUE(res.feasible);
    EXPECT_NEAR(res.motor.maxThrustG,
                res.inputs.twr * res.totalWeightG.value() / 4.0, 0.5);
}

TEST(WeightClosure, A450ClassLandsNearOurDrone)
{
    // A 450 mm / 3S design should close near the paper's 1061 g
    // open-source drone (Figure 14) for a comparable battery.
    DesignInputs in = medium450();
    in.capacityMah = 3000.0_mah;
    in.compute.weightG = 73.0; // RPi + Navio2
    in.compute.powerW = 5.75;
    const DesignResult res = solveDesign(in);
    ASSERT_TRUE(res.feasible);
    EXPECT_NEAR(res.totalWeightG.value(), 1061.0, 300.0);
}

TEST(WeightClosure, PowerEquationStructure)
{
    const DesignResult res = solveDesign(medium450());
    ASSERT_TRUE(res.feasible);
    const Quantity<Volts> volts = lipoPackVoltage(res.inputs.cells);
    EXPECT_NEAR(res.maxPowerW.value(),
                4.0 * (res.motorMaxCurrentA * volts).value(), 1e-9);
    EXPECT_NEAR(res.avgPowerW.value(),
                (res.propulsionPowerW + res.computePowerW +
                 res.sensorPowerW)
                    .value(),
                1e-9);
    EXPECT_NEAR(res.computePowerFraction,
                res.computePowerW / res.avgPowerW, 1e-12);
}

TEST(WeightClosure, ManeuveringDrawsMore)
{
    DesignInputs hover = medium450();
    DesignInputs maneuver = medium450();
    maneuver.activity = FlightActivity::Maneuvering;
    const DesignResult h = solveDesign(hover);
    const DesignResult m = solveDesign(maneuver);
    ASSERT_TRUE(h.feasible);
    ASSERT_TRUE(m.feasible);
    EXPECT_GT(m.avgPowerW, 1.8 * h.avgPowerW);
    EXPECT_LT(m.flightTimeMin, h.flightTimeMin);
    // Weight closure is activity-independent.
    EXPECT_NEAR(m.totalWeightG.value(), h.totalWeightG.value(), 1e-9);
}

TEST(WeightClosure, HigherTwrCostsFlightTime)
{
    DesignInputs low = medium450();
    DesignInputs high = medium450();
    high.twr = 4.0;
    const DesignResult l = solveDesign(low);
    const DesignResult h = solveDesign(high);
    ASSERT_TRUE(l.feasible);
    ASSERT_TRUE(h.feasible);
    EXPECT_GT(h.totalWeightG, l.totalWeightG);
    EXPECT_GT(h.avgPowerW, l.avgPowerW);
    EXPECT_LT(h.flightTimeMin, l.flightTimeMin);
    EXPECT_LT(h.computePowerFraction, l.computePowerFraction);
}

TEST(WeightClosure, PayloadShrinksFlightTime)
{
    DesignInputs bare = medium450();
    DesignInputs loaded = medium450();
    loaded.payloadG = 200.0_g;
    const DesignResult b = solveDesign(bare);
    const DesignResult l = solveDesign(loaded);
    ASSERT_TRUE(b.feasible);
    ASSERT_TRUE(l.feasible);
    EXPECT_GT(l.totalWeightG, b.totalWeightG + 200.0_g);
    EXPECT_LT(l.flightTimeMin, b.flightTimeMin);
}

TEST(WeightClosure, ExtremeKvFlaggedForTinyProps)
{
    DesignInputs in;
    in.wheelbaseMm = 100.0_mm; // strict 2" prop
    in.cells = 1;
    in.capacityMah = 1500.0_mah;
    const DesignResult res = solveDesign(in);
    if (res.feasible) {
        EXPECT_TRUE(res.extremeKv);
    }
}

TEST(WeightClosure, InvalidInputsAreInfeasible)
{
    DesignInputs in = medium450();
    in.cells = 9;
    EXPECT_FALSE(solveDesign(in).feasible);

    in = medium450();
    in.capacityMah = -10.0_mah;
    EXPECT_FALSE(solveDesign(in).feasible);

    in = medium450();
    in.twr = 0.5;
    EXPECT_FALSE(solveDesign(in).feasible);
}

TEST(SurveyModel, PaperModelMatchesSolveDesignBitForBit)
{
    // At the published coefficients, the model-parameterized solve
    // is the solve.  Sweep a grid that crosses feasible, infeasible,
    // and validation-rejected regions.
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {1, 2, 3, 4, 5, 6}, 500.0_mah,
                                    basicChip3W());
    spec.boards = {basicChip3W(), advancedChip20W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    const SurveyModel paper = SurveyModel::paper();
    for (const DesignInputs &in : expandGrid(spec))
        batch_test::expectByteIdentical(solveDesign(in, paper),
                                        solveDesign(in));

    // Edge inputs the grid never hits.
    DesignInputs bad = medium450();
    bad.cells = 9;
    batch_test::expectByteIdentical(solveDesign(bad, paper),
                                    solveDesign(bad));
    bad = medium450();
    bad.twr = 0.5;
    batch_test::expectByteIdentical(solveDesign(bad, paper),
                                    solveDesign(bad));
    bad = medium450();
    bad.wheelbaseMm = 120.0_mm; // below the frame-fit boundary
    batch_test::expectByteIdentical(solveDesign(bad, paper),
                                    solveDesign(bad));
}

TEST(SurveyModel, NonPositiveFixedWeightIsInfeasibleNotFatal)
{
    // A perturbed frame fit can price the airframe below zero grams.
    // Both the scalar solve and the setup step the batch kernel
    // calls must answer with a verdict instead of aborting in
    // matchMotor.
    SurveyModel model = SurveyModel::paper();
    model.frameFit.intercept = -5000.0;
    const DesignInputs in = medium450();

    const DesignResult solved = solveDesign(in, model);
    EXPECT_FALSE(solved.feasible);
    EXPECT_EQ(solved.infeasibleReason,
              InfeasibleReason::NonPositiveFixedWeight);
    EXPECT_LT(solved.frameWeightG, 0.0_g);

    DesignResult set_up;
    ClosureSetup setup;
    EXPECT_FALSE(setupClosure(in, model, set_up, setup));
    EXPECT_LE(setup.fixedWeight, 0.0_g);
    batch_test::expectByteIdentical(solved, set_up);
}

/** Property sweep over cells: flight time positive, weights close. */
class ClosurePerCells : public testing::TestWithParam<int>
{
};

TEST_P(ClosurePerCells, SolvesAcrossCellCounts)
{
    DesignInputs in = medium450();
    in.cells = GetParam();
    const DesignResult res = solveDesign(in);
    ASSERT_TRUE(res.feasible) << enumName(res.infeasibleReason);
    EXPECT_GT(res.flightTimeMin.value(), 0.0);
    EXPECT_GT(res.totalWeightG, 500.0_g);
    EXPECT_LT(res.totalWeightG, 5000.0_g);
}

INSTANTIATE_TEST_SUITE_P(Cells, ClosurePerCells, testing::Range(2, 7));

} // namespace
} // namespace dronedse
