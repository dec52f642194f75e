#include <gtest/gtest.h>

#include "core/presets.hh"
#include "dse/weight_closure.hh"

namespace dronedse {
namespace {

using namespace unit_literals;

TEST(Presets, Figure14BreakdownSumsTo1071)
{
    // The thirteen Figure 14 components sum to 1071 g.
    EXPECT_NEAR(ourDroneTotalWeightG().value(), 1071.0, 1e-9);
    const auto slices = ourDroneWeightBreakdown();
    EXPECT_EQ(slices.size(), 13u);
    double frac = 0.0;
    for (const auto &s : slices)
        frac += s.fraction;
    EXPECT_NEAR(frac, 1.0, 1e-9);
}

TEST(Presets, Figure14TopComponents)
{
    const auto slices = ourDroneWeightBreakdown();
    // Paper: frame 25 %, battery 23 %, motors 21 %, ESC 10 %.
    EXPECT_EQ(slices[0].component, "Frame");
    EXPECT_NEAR(slices[0].fraction, 0.25, 0.02);
    EXPECT_EQ(slices[1].component, "Battery");
    EXPECT_NEAR(slices[1].fraction, 0.23, 0.02);
    EXPECT_EQ(slices[2].component, "Motors");
    EXPECT_NEAR(slices[2].fraction, 0.21, 0.02);
    EXPECT_EQ(slices[3].component, "ESC");
    EXPECT_NEAR(slices[3].fraction, 0.10, 0.02);
}

TEST(Presets, OurDroneDesignCloses)
{
    const DesignResult res = solveDesign(ourDroneInputs());
    ASSERT_TRUE(res.feasible) << enumName(res.infeasibleReason);
    // Model total should land near the real 1071 g build.
    EXPECT_NEAR(res.totalWeightG.value(), 1071.0, 330.0);
    // Flight time in the paper's ~15 min ballpark.
    EXPECT_GT(res.flightTimeMin, 8.0_min);
    EXPECT_LT(res.flightTimeMin, 22.0_min);
}

TEST(Presets, RacerIsShortFlight)
{
    const DesignInputs in = racer220Inputs();
    EXPECT_EQ(in.escClass, EscClass::ShortFlight);
    EXPECT_EQ(in.twr, 4.0);
    const DesignResult res = solveDesign(in);
    ASSERT_TRUE(res.feasible);
    // Racing configs trade flight time for thrust headroom.
    EXPECT_LT(res.flightTimeMin, solveDesign(ourDroneInputs()).flightTimeMin);
}

TEST(Presets, MapperCarriesLidar)
{
    const DesignInputs in = mapper800Inputs();
    EXPECT_GT(in.sensorWeightG, 900.0_g);
    // Ultra Puck is self-powered: no draw from the main pack.
    EXPECT_EQ(in.sensorPowerW, 0.0_w);
    const DesignResult res = solveDesign(in);
    ASSERT_TRUE(res.feasible);
    EXPECT_GT(res.totalWeightG, 2500.0_g);
}

} // namespace
} // namespace dronedse
