#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "components/battery.hh"
#include "components/compute_board.hh"
#include "components/frame.hh"
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

/** Raw bits of a double, so a pin fails on any changed ulp. */
std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/**
 * Every standard deviation of a scatter, in `perturbSurveyModel`'s
 * draw order: battery 1S..6S, ESC short/long, frame; slope before
 * intercept.
 */
std::array<std::uint64_t, 20>
scatterBits(const FitScatter &s)
{
    std::array<std::uint64_t, 20> bits{};
    std::size_t k = 0;
    for (int i = 0; i < 6; ++i) {
        bits[k++] = bitsOf(s.batterySlopeSd[i]);
        bits[k++] = bitsOf(s.batteryInterceptSd[i]);
    }
    for (int i = 0; i < 2; ++i) {
        bits[k++] = bitsOf(s.escSlopeSd[i]);
        bits[k++] = bitsOf(s.escInterceptSd[i]);
    }
    bits[k++] = bitsOf(s.frameSlopeSd);
    bits[k++] = bitsOf(s.frameInterceptSd);
    return bits;
}

TEST(FitScatter, CoefficientsArePinnedBitForBit)
{
    // The scatter refits synthetic catalogs drawn from one `Rng` per
    // replicate, so these bits move if any catalog generator adds,
    // drops or reorders a draw.  The literals predate the removal of
    // the battery and ESC record names.
    const std::array<std::uint64_t, 20> seed17_rep64 = {
        0x3f2ffa11999adc7cULL, 0x3fd6c058e728561eULL, // 1S
        0x3f4269c47eeb8fb0ULL, 0x3feb7ff4d9d215a9ULL, // 2S
        0x3f4f13b11f0cd1d4ULL, 0x400d01a8419663ebULL, // 3S
        0x3f5250bb96846d1fULL, 0x401283522a5354dcULL, // 4S
        0x3f56cf37332b0bf5ULL, 0x40177bf65015e321ULL, // 5S
        0x3f5f423a1dd5792eULL, 0x4021f69a15753486ULL, // 6S
        0x3fa5579b7da45c1fULL, 0x3ffa7d1ddbfc2142ULL, // ESC short
        0x3fc3362888135fe2ULL, 0x4017cd90483320f5ULL, // ESC long
        0x3fa7a920cad83d7cULL, 0x40384dbb2d3bb7b9ULL, // frame
    };
    const std::array<std::uint64_t, 20> seed9001_rep2 = {
        0x3f03ec01e98a9e49ULL, 0x3fab3b724d5dd6c4ULL, // 1S
        0x3f46b33aad4da88dULL, 0x3ff60b4e6f6459e2ULL, // 2S
        0x3f3220681b5bd667ULL, 0x4004e0026646c1afULL, // 3S
        0x3f50a7f3a8f9d3ebULL, 0x40035def02a504a9ULL, // 4S
        0x3f588a606d01e95fULL, 0x4023926d7738f446ULL, // 5S
        0x3f526f8aa292e141ULL, 0x401c62b81516044cULL, // 6S
        0x3f9f75a5595fe021ULL, 0x3fdb5b435764f2dbULL, // ESC short
        0x3fc293c311b4707bULL, 0x401316bf75ca7e45ULL, // ESC long
        0x3fb39d0ffd8e60e6ULL, 0x403e10238fb026b4ULL, // frame
    };
    EXPECT_EQ(scatterBits(FitScatter::fromCatalogs(17, 64)), seed17_rep64);
    EXPECT_EQ(scatterBits(FitScatter::fromCatalogs(9001, 2)),
              seed9001_rep2);
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

/** The 0.05/0.5/0.95 quantiles of one ECDF, as bit patterns. */
using QuantileBits = std::array<std::uint64_t, 3>;

QuantileBits
quantileBits(const Ecdf &ecdf)
{
    return {bitsOf(ecdf.quantile(0.05)), bitsOf(ecdf.quantile(0.5)),
            bitsOf(ecdf.quantile(0.95))};
}

TEST(Uncertainty, PerturbedSolvesArePinnedBitForBit)
{
    // Pins the values of the perturbed-model path itself: seed 17,
    // 256 samples, the default 64 scatter replicates.  The literals
    // are the solver's output before the perturbed closure and the
    // nominal one were merged into one function, so any reordered
    // operation in the closure shows up here.
    struct Pin
    {
        const char *name;
        DesignInputs point;
        bool nominalFeasible;
        std::size_t feasibleSamples;
        QuantileBits flight;
        QuantileBits weight;
    };
    DesignInputs four_cell = referencePoint();
    four_cell.cells = 4;
    four_cell.capacityMah = 2000.0_mah;
    // C-rating infeasible at the paper fits; the perturbed fits
    // rescue a minority of the samples.
    DesignInputs tiny_pack = referencePoint();
    tiny_pack.wheelbaseMm = 200.0_mm;
    tiny_pack.cells = 4;
    tiny_pack.capacityMah = 100.0_mah;
    const Pin pins[] = {
        {"450mm reference", referencePoint(), true, 256,
         {0x40316cbe2561bf1cULL, 0x40332cdd70878045ULL,
          0x403550e784653a57ULL},
         {0x40906891c6dfb49dULL, 0x4091a276e360dd00ULL,
          0x4092d2eb4ed8752eULL}},
        {"4S 2000 mAh", four_cell, true, 256,
         {0x4028241c048ebfc6ULL, 0x402b437e8e3a1f83ULL,
          0x402e9e51cab4f1afULL},
         {0x408ac268e004c85eULL, 0x408cfaeebeb10b08ULL,
          0x408f800d6ccf81e8ULL}},
        {"nominally infeasible", tiny_pack, false, 105,
         {0x3ffe029616815a21ULL, 0x40004c56e79724d3ULL,
          0x4004758e0cc87d03ULL},
         {0x406c97d0b347aa86ULL, 0x4070e7dc37d596c3ULL,
          0x4071f3950fe6d33fULL}},
    };

    UncertaintyOptions options;
    options.seed = 17;
    options.samples = 256;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        const UncertaintyResult res =
            propagateUncertainty(pin.point, options);
        EXPECT_EQ(res.nominal.feasible, pin.nominalFeasible);
        EXPECT_EQ(res.feasibleSamples, pin.feasibleSamples);
        ASSERT_FALSE(res.flightTimeMin.empty());
        EXPECT_EQ(quantileBits(res.flightTimeMin), pin.flight);
        EXPECT_EQ(quantileBits(res.totalWeightG), pin.weight);
    }
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
