#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "components/battery.hh"
#include "components/compute_board.hh"
#include "components/frame.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "explore/gate.hh"
#include "explore/uncertainty.hh"

namespace dronedse::explore {
namespace {

using namespace unit_literals;

/** The paper's 450 mm reference point (Section 5 best design). */
DesignInputs
referencePoint()
{
    DesignInputs in;
    in.wheelbaseMm = 450.0_mm;
    in.cells = 3;
    in.capacityMah = 5000.0_mah;
    in.twr = 2.0;
    in.compute = basicChip3W();
    return in;
}

void
expectBitIdentical(const DesignResult &a, const DesignResult &b)
{
    ASSERT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.infeasibleReason, b.infeasibleReason);
    EXPECT_EQ(a.totalWeightG, b.totalWeightG);
    EXPECT_EQ(a.basicWeightG, b.basicWeightG);
    EXPECT_EQ(a.frameWeightG, b.frameWeightG);
    EXPECT_EQ(a.batteryWeightG, b.batteryWeightG);
    EXPECT_EQ(a.motorSetWeightG, b.motorSetWeightG);
    EXPECT_EQ(a.escSetWeightG, b.escSetWeightG);
    EXPECT_EQ(a.propSetWeightG, b.propSetWeightG);
    EXPECT_EQ(a.wiringWeightG, b.wiringWeightG);
    EXPECT_EQ(a.motor.kv, b.motor.kv);
    EXPECT_EQ(a.motorMaxCurrentA, b.motorMaxCurrentA);
    EXPECT_EQ(a.extremeKv, b.extremeKv);
    EXPECT_EQ(a.maxPowerW, b.maxPowerW);
    EXPECT_EQ(a.propulsionPowerW, b.propulsionPowerW);
    EXPECT_EQ(a.computePowerW, b.computePowerW);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    EXPECT_EQ(a.usableEnergyWh, b.usableEnergyWh);
    EXPECT_EQ(a.flightTimeMin, b.flightTimeMin);
    EXPECT_EQ(a.computePowerFraction, b.computePowerFraction);
}

TEST(SurveyModel, PaperModelMatchesSolveDesignBitForBit)
{
    // The differential that anchors the whole uncertainty path: at
    // the published coefficients, the model-parameterized solver is
    // the solver.  Sweep a grid that crosses feasible, infeasible,
    // and validation-rejected regions.
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {1, 2, 3, 4, 5, 6}, 500.0_mah,
                                    basicChip3W());
    spec.boards = {basicChip3W(), advancedChip20W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    const SurveyModel paper = SurveyModel::paper();
    for (const DesignInputs &in : expandGrid(spec))
        expectBitIdentical(solveDesignModel(in, paper),
                           solveDesign(in));

    // Edge inputs the grid never hits.
    DesignInputs bad = referencePoint();
    bad.cells = 9;
    expectBitIdentical(solveDesignModel(bad, paper), solveDesign(bad));
    bad = referencePoint();
    bad.twr = 0.5;
    expectBitIdentical(solveDesignModel(bad, paper), solveDesign(bad));
    bad = referencePoint();
    bad.wheelbaseMm = 120.0_mm; // below the frame-fit boundary
    expectBitIdentical(solveDesignModel(bad, paper), solveDesign(bad));
}

TEST(FitScatter, DerivedScatterIsPositiveAndReproducible)
{
    const FitScatter a = FitScatter::fromCatalogs(17, 16);
    const FitScatter b = FitScatter::fromCatalogs(17, 16);
    for (int i = 0; i < 6; ++i) {
        EXPECT_GT(a.batterySlopeSd[i], 0.0);
        EXPECT_GT(a.batteryInterceptSd[i], 0.0);
        EXPECT_EQ(a.batterySlopeSd[i], b.batterySlopeSd[i]);
        EXPECT_EQ(a.batteryInterceptSd[i], b.batteryInterceptSd[i]);
    }
    for (int i = 0; i < 2; ++i) {
        EXPECT_GT(a.escSlopeSd[i], 0.0);
        EXPECT_GT(a.escInterceptSd[i], 0.0);
    }
    EXPECT_GT(a.frameSlopeSd, 0.0);
    EXPECT_GT(a.frameInterceptSd, 0.0);
    EXPECT_EQ(a.frameSlopeSd, b.frameSlopeSd);

    // The scatter is small relative to the coefficients themselves
    // (the survey pipeline recovers the published fits well).
    EXPECT_LT(a.batterySlopeSd[2], 0.1 * paperBatteryFit(3).slope);
    EXPECT_LT(a.frameSlopeSd, 0.1 * paperFrameFit().slope);
}

TEST(Uncertainty, PropagationIsDeterministicPerSeed)
{
    const DesignInputs point = referencePoint();
    UncertaintyOptions options;
    options.samples = 64;
    options.scatterReplicates = 8;
    const UncertaintyResult a = propagateUncertainty(point, options);
    const UncertaintyResult b = propagateUncertainty(point, options);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.feasibleSamples, b.feasibleSamples);
    ASSERT_FALSE(a.flightTimeMin.empty());
    EXPECT_EQ(a.flightTimeMin.samples(), b.flightTimeMin.samples());
    EXPECT_EQ(a.totalWeightG.samples(), b.totalWeightG.samples());

    options.seed = 18;
    const UncertaintyResult c = propagateUncertainty(point, options);
    ASSERT_FALSE(c.flightTimeMin.empty());
    EXPECT_NE(a.flightTimeMin.samples(), c.flightTimeMin.samples());
}

TEST(Uncertainty, DistributionBracketsTheNominalSolve)
{
    const DesignInputs point = referencePoint();
    UncertaintyOptions options;
    options.samples = 128;
    options.scatterReplicates = 16;
    const UncertaintyResult res = propagateUncertainty(point, options);
    ASSERT_TRUE(res.nominal.feasible);
    EXPECT_EQ(res.samples, 128u);
    EXPECT_GT(res.feasibleFraction(), 0.9);
    ASSERT_FALSE(res.flightTimeMin.empty());
    // Symmetric coefficient perturbations land the nominal solve
    // strictly inside the sampled range.
    EXPECT_LT(res.flightTimeMin.min(),
              res.nominal.flightTimeMin.value());
    EXPECT_GT(res.flightTimeMin.max(),
              res.nominal.flightTimeMin.value());
    EXPECT_LT(res.totalWeightG.min(), res.nominal.totalWeightG.value());
    EXPECT_GT(res.totalWeightG.max(), res.nominal.totalWeightG.value());
}

TEST(Gates, NameRoundTrips)
{
    for (GateMetric m :
         {GateMetric::FlightTimeMin, GateMetric::TotalWeightG}) {
        GateMetric parsed;
        ASSERT_TRUE(parseGateMetric(gateMetricName(m), parsed));
        EXPECT_EQ(parsed, m);
    }
    for (GateOp op : {GateOp::AtLeast, GateOp::AtMost}) {
        GateOp parsed;
        ASSERT_TRUE(parseGateOp(gateOpName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    GateMetric metric;
    EXPECT_FALSE(parseGateMetric("thrust", metric));
    GateOp op;
    EXPECT_FALSE(parseGateOp("exactly", op));
}

TEST(Gates, ProbabilitiesCountInfeasibleSamplesAsMisses)
{
    UncertaintyResult res;
    res.samples = 10;
    res.feasibleSamples = 8;
    res.flightTimeMin =
        Ecdf({10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0});
    res.totalWeightG = Ecdf({900, 910, 920, 930, 940, 950, 960, 970});

    GateSpec floor;
    floor.metric = GateMetric::FlightTimeMin;
    floor.op = GateOp::AtLeast;
    floor.threshold = 12.0; // 6 of 8 feasible meet it, of 10 total
    floor.minProbability = 0.6;
    GateSpec ceiling;
    ceiling.metric = GateMetric::TotalWeightG;
    ceiling.op = GateOp::AtMost;
    ceiling.threshold = 935.0; // 4 of 10
    ceiling.minProbability = 0.5;

    const GateReport report = evaluateGates(res, {floor, ceiling});
    ASSERT_EQ(report.gates.size(), 2u);
    EXPECT_DOUBLE_EQ(report.gates[0].probability, 0.6);
    EXPECT_TRUE(report.gates[0].pass);
    EXPECT_DOUBLE_EQ(report.gates[1].probability, 0.4);
    EXPECT_FALSE(report.gates[1].pass);
    EXPECT_FALSE(report.allPass);
    EXPECT_DOUBLE_EQ(report.feasibleFraction, 0.8);

    // No gates: vacuous pass.
    EXPECT_TRUE(evaluateGates(res, {}).allPass);

    // Renders mention the verdict and stay byte-stable.
    const std::string text = gateReportText(report);
    EXPECT_NE(text.find("FAIL"), std::string::npos);
    EXPECT_EQ(gateReportCsv(report), gateReportCsv(report));
}

TEST(Gates, RiskQueryGatesTheReferenceDesign)
{
    RiskQuery query;
    query.point = referencePoint();
    query.options.samples = 64;
    query.options.scatterReplicates = 8;

    GateSpec feasible_floor;
    feasible_floor.metric = GateMetric::FlightTimeMin;
    feasible_floor.op = GateOp::AtLeast;
    feasible_floor.threshold = 1.0; // trivially met when feasible
    feasible_floor.minProbability = 0.9;
    GateSpec impossible;
    impossible.metric = GateMetric::FlightTimeMin;
    impossible.op = GateOp::AtLeast;
    impossible.threshold = 1.0e6;
    impossible.minProbability = 0.5;
    query.gates = {feasible_floor, impossible};
    query.quantiles = {0.1, 0.5, 0.9};

    const RiskOutcome outcome = runRiskQuery(query);
    ASSERT_EQ(outcome.report.gates.size(), 2u);
    EXPECT_TRUE(outcome.report.gates[0].pass);
    EXPECT_DOUBLE_EQ(outcome.report.gates[1].probability, 0.0);
    EXPECT_FALSE(outcome.report.gates[1].pass);
    EXPECT_FALSE(outcome.report.allPass);

    query.quantiles = {1.5};
    EXPECT_DEATH((void)runRiskQuery(query), "quantile");
}


TEST(ValidateUncertaintyOptions, DefaultIsValidAndEachRuleRejects)
{
    EXPECT_EQ(validateUncertaintyOptions(UncertaintyOptions{}), "");
    UncertaintyOptions options;
    options.samples = 0;
    EXPECT_NE(validateUncertaintyOptions(options).find("samples"),
              std::string::npos);
    options = UncertaintyOptions{};
    options.scatterReplicates = 1;
    EXPECT_NE(
        validateUncertaintyOptions(options).find("scatterReplicates"),
        std::string::npos);
    EXPECT_EXIT((void)FitScatter::fromCatalogs(17, 1),
                testing::ExitedWithCode(1), "scatterReplicates");
}

TEST(ValidateRiskQuery, DefaultIsValidAndEachRuleRejects)
{
    RiskQuery valid;
    valid.point = referencePoint();
    valid.gates = {GateSpec{}};
    valid.quantiles = {0.0, 0.5, 1.0};
    EXPECT_EQ(validateRiskQuery(RiskQuery{}), "");
    EXPECT_EQ(validateRiskQuery(valid), "");

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto rejects = [&](const char *field, auto mutate) {
        RiskQuery query = valid;
        mutate(query);
        const std::string err = validateRiskQuery(query);
        EXPECT_NE(err.find(field), std::string::npos)
            << field << " -> '" << err << "'";
    };
    rejects("cells", [](RiskQuery &q) { q.point.cells = 9; });
    rejects("samples", [](RiskQuery &q) { q.options.samples = 0; });
    rejects("scatterReplicates",
            [](RiskQuery &q) { q.options.scatterReplicates = 1; });
    rejects("threshold",
            [&](RiskQuery &q) { q.gates[0].threshold = nan; });
    rejects("minProbability",
            [](RiskQuery &q) { q.gates[0].minProbability = 1.5; });
    rejects("quantiles", [](RiskQuery &q) { q.quantiles = {-0.1}; });
    rejects("quantiles", [&](RiskQuery &q) { q.quantiles = {nan}; });
}

} // namespace
} // namespace dronedse::explore
