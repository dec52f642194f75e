#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "components/compute_board.hh"
#include "dse/sweep.hh"

namespace dronedse {
namespace {

using namespace unit_literals;

TEST(Sweep, CapacitySweepProducesSeries)
{
    const auto &spec = classSpec(SizeClass::Medium);
    const auto series =
        sweepCapacity(spec, 3, 500.0_mah, basicChip3W());
    EXPECT_GT(series.size(), 10u);
    // Weight grows monotonically with capacity.
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GT(series[i].totalWeightG, series[i - 1].totalWeightG);
}

TEST(Sweep, PowerGrowsWithWeight)
{
    // The Figure 10a-c trend: heavier designs draw more power.
    const auto &spec = classSpec(SizeClass::Large);
    const auto series =
        sweepCapacity(spec, 6, 500.0_mah, basicChip3W());
    ASSERT_GT(series.size(), 5u);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GT(series[i].avgPowerW, series[i - 1].avgPowerW);
}

TEST(Sweep, FlightTimeHasInteriorOptimum)
{
    // Bigger batteries add energy but also weight; over a wide
    // enough capacity range the best flight time sits strictly
    // inside the sweep (physically, the optimum battery mass is a
    // bounded multiple of the rest of the airframe).
    SizeClassSpec spec = classSpec(SizeClass::Medium);
    spec.capacityLoMah = 1000.0_mah;
    spec.capacityHiMah = 40000.0_mah;
    const auto series =
        sweepCapacity(spec, 3, 1000.0_mah, basicChip3W());
    ASSERT_GT(series.size(), 8u);
    std::size_t best = 0;
    for (std::size_t i = 0; i < series.size(); ++i)
        if (series[i].flightTimeMin > series[best].flightTimeMin)
            best = i;
    EXPECT_GT(best, 0u);
    EXPECT_LT(best, series.size() - 1);
}

TEST(Sweep, BestConfigurationBeatsSeriesMembers)
{
    const auto &spec = classSpec(SizeClass::Medium);
    const DesignResult best = bestConfiguration(spec, basicChip3W());
    ASSERT_TRUE(best.feasible);
    for (int cells : {1, 3, 6}) {
        const auto series = sweepCapacity(spec, cells, 500.0_mah,
                                          basicChip3W());
        for (const auto &res : series) {
            if (withinPracticalLimits(res, spec)) {
                EXPECT_LE(res.flightTimeMin,
                          best.flightTimeMin +
                              Quantity<Minutes>(1e-9));
            }
        }
    }
}

TEST(Sweep, MotorCurrentCurveShape)
{
    // Figure 9: current grows with basic weight; higher voltage
    // needs less current at the same weight.
    const auto c3s = motorCurrentCurve(10.0_in, 3, 200.0_g, 1800.0_g,
                                       100.0_g);
    const auto c6s = motorCurrentCurve(10.0_in, 6, 200.0_g, 1800.0_g,
                                       100.0_g);
    ASSERT_EQ(c3s.size(), c6s.size());
    ASSERT_GT(c3s.size(), 5u);
    for (std::size_t i = 0; i < c3s.size(); ++i) {
        EXPECT_GT(c3s[i].motorCurrentA, c6s[i].motorCurrentA);
        if (i > 0) {
            EXPECT_GT(c3s[i].motorCurrentA, c3s[i - 1].motorCurrentA);
        }
    }
}

TEST(Sweep, SmallPropsNeedExtremeKv)
{
    // Figure 9a: 1"-2" props on 1S packs hit five-digit Kv ratings.
    const auto tiny =
        motorCurrentCurve(2.0_in, 1, 100.0_g, 600.0_g, 100.0_g);
    ASSERT_FALSE(tiny.empty());
    EXPECT_GT(tiny.back().kv, 25000.0);

    // Figure 9d: 20" props on 6S have low Kv ratings.
    const auto big = motorCurrentCurve(20.0_in, 6, 1000.0_g, 2700.0_g,
                                       200.0_g);
    ASSERT_FALSE(big.empty());
    EXPECT_LT(big.front().kv, 1500.0);
}

TEST(Sweep, ClassSpecsMatchPaperPanels)
{
    EXPECT_EQ(classSpec(SizeClass::Small).paperBestFlightTimeMin,
              23.0_min);
    EXPECT_EQ(classSpec(SizeClass::Medium).paperBestFlightTimeMin,
              19.0_min);
    EXPECT_EQ(classSpec(SizeClass::Large).paperBestFlightTimeMin,
              22.0_min);
    EXPECT_EQ(classSpec(SizeClass::Medium).wheelbaseMm, 450.0_mm);
    EXPECT_EQ(classSpec(SizeClass::Large).propDiameterIn, 20.0_in);
}

/** Parameterized sweep: every class yields a feasible best config. */
class BestPerClass : public testing::TestWithParam<SizeClass>
{
};

TEST_P(BestPerClass, FeasibleWithinWeightEnvelope)
{
    const auto &spec = classSpec(GetParam());
    const DesignResult best = bestConfiguration(spec, basicChip3W());
    ASSERT_TRUE(best.feasible);
    EXPECT_LE(best.totalWeightG, spec.weightAxisHiG);
    EXPECT_GT(best.flightTimeMin, 5.0_min);
}

INSTANTIATE_TEST_SUITE_P(Classes, BestPerClass,
                         testing::Values(SizeClass::Small,
                                         SizeClass::Medium,
                                         SizeClass::Large));


// --- domain validators --------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Apply `mutate` to a copy of `valid`, run `validate`, and expect a
 * rejection whose message names `field`.
 */
template <typename T, typename Validate, typename Mutate>
void
expectRejects(const T &valid, Validate validate, const char *field,
              Mutate mutate)
{
    T value = valid;
    mutate(value);
    const std::string err = validate(value);
    EXPECT_NE(err.find(field), std::string::npos)
        << field << " -> '" << err << "'";
}

TEST(ValidateDesignInputs, DefaultIsValidAndEachRuleRejects)
{
    const DesignInputs valid;
    EXPECT_EQ(validateDesignInputs(valid), "");

    // The envelope edges themselves are inside.
    DesignInputs edge;
    edge.wheelbaseMm = kMaxWheelbase;
    edge.twr = kMinTwr;
    edge.cells = kMinCells;
    EXPECT_EQ(validateDesignInputs(edge), "");
    edge.twr = kMaxTwr;
    edge.cells = kMaxCells;
    EXPECT_EQ(validateDesignInputs(edge), "");

    using In = DesignInputs;
    const auto rejects = [&](const char *field, auto mutate) {
        expectRejects(valid, validateDesignInputs, field, mutate);
    };
    rejects("wheelbaseMm", [](In &in) { in.wheelbaseMm = 0.0_mm; });
    rejects("wheelbaseMm",
            [](In &in) { in.wheelbaseMm = kMaxWheelbase + 1.0_mm; });
    rejects("wheelbaseMm", [](In &in) {
        in.wheelbaseMm = Quantity<Millimeters>(kNaN);
    });
    rejects("cells", [](In &in) { in.cells = kMinCells - 1; });
    rejects("cells", [](In &in) { in.cells = kMaxCells + 1; });
    rejects("twr", [](In &in) { in.twr = 0.99; });
    rejects("twr", [](In &in) { in.twr = 10.01; });
    rejects("twr", [](In &in) { in.twr = kNaN; });
    rejects("capacityMah", [](In &in) { in.capacityMah = 0.0_mah; });
    rejects("capacityMah", [](In &in) {
        in.capacityMah = Quantity<MilliampHours>(kInf);
    });
    rejects("propDiameterIn",
            [](In &in) { in.propDiameterIn = -1.0_in; });
    rejects("compute", [](In &in) { in.compute.weightG = -1.0; });
    rejects("compute", [](In &in) { in.compute.powerW = kNaN; });
    rejects("sensorWeightG", [](In &in) { in.sensorWeightG = -1.0_g; });
    rejects("sensorPowerW", [](In &in) {
        in.sensorPowerW = Quantity<Watts>(kInf);
    });
    rejects("payloadG", [](In &in) { in.payloadG = -1.0_g; });
}

TEST(ValidateSweepSpec, DefaultIsValidAndEachRuleRejects)
{
    SweepSpec valid;
    valid.boards = {basicChip3W()};
    valid.cells = {3, 4};
    EXPECT_EQ(validateSweepSpec(valid), "");
    EXPECT_EQ(validateSweepSpec(classSweepSpec(
                  classSpec(SizeClass::Small), {1, 6}, 250.0_mah,
                  basicChip3W())),
              "");

    const auto rejects = [&](const char *field, auto mutate) {
        expectRejects(valid, validateSweepSpec, field, mutate);
    };
    rejects("airframes", [](SweepSpec &s) { s.airframes.clear(); });
    rejects("boards", [](SweepSpec &s) { s.boards.clear(); });
    rejects("activities", [](SweepSpec &s) { s.activities.clear(); });
    rejects("cells", [](SweepSpec &s) { s.cells.clear(); });
    rejects("capacityStepMah",
            [](SweepSpec &s) { s.capacityStepMah = 0.0_mah; });
    rejects("capacityStepMah", [](SweepSpec &s) {
        s.capacityStepMah = Quantity<MilliampHours>(kNaN);
    });
    rejects("capacityHiMah",
            [](SweepSpec &s) { s.capacityHiMah = 500.0_mah; });
    // At 1e300 mAh a 1000 mAh step is absorbed: the axis loop would
    // never advance.
    rejects("too small to advance", [](SweepSpec &s) {
        s.capacityLoMah = s.capacityHiMah = 1e300_mah;
        s.capacityStepMah = 1000.0_mah;
    });
    // Every axis value goes through validateDesignInputs.
    rejects("wheelbaseMm", [](SweepSpec &s) {
        s.airframes.push_back({3000.0_mm, 0.0_in});
    });
    rejects("propDiameterIn", [](SweepSpec &s) {
        s.airframes.push_back({450.0_mm, -5.0_in});
    });
    rejects("compute", [](SweepSpec &s) {
        s.boards.push_back(
            ComputeBoardRecord{"bad", BoardClass::Basic, kNaN, 3.0});
    });
    rejects("cells", [](SweepSpec &s) { s.cells.push_back(7); });
    rejects("capacityMah",
            [](SweepSpec &s) { s.capacityLoMah = 0.0_mah; });
    rejects("twr", [](SweepSpec &s) { s.twr = 11.0; });
    rejects("sensorWeightG",
            [](SweepSpec &s) { s.sensorWeightG = -1.0_g; });
    rejects("sensorPowerW",
            [](SweepSpec &s) { s.sensorPowerW = -1.0_w; });
    rejects("payloadG", [](SweepSpec &s) { s.payloadG = -1.0_g; });
}

TEST(ValidateSweepSpec, ExpandGridGuardReportsTheValidatorMessage)
{
    SweepSpec spec;
    spec.boards = {basicChip3W()};
    spec.twr = 11.0;
    EXPECT_EXIT((void)expandGrid(spec), testing::ExitedWithCode(1),
                "expandGrid: twr must be in \\[1, 10\\]");
}

} // namespace
} // namespace dronedse
