#include "codesign/codesign.hh"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>

#include "engine/engine.hh"
#include "serve/request.hh"

using namespace dronedse;
using namespace dronedse::codesign;

namespace {

constexpr std::size_t kNumPlatforms =
    static_cast<std::size_t>(PlatformKind::NumPlatforms);

const CodesignChoice &
platformChoice(const CodesignOutcome &outcome, PlatformKind kind)
{
    return outcome.perPlatform[static_cast<std::size_t>(kind)];
}

const CodesignChoice &
splitChoice(const CodesignOutcome &outcome, OffloadSplit split)
{
    return outcome.perSplit[static_cast<std::size_t>(split)];
}

} // namespace

TEST(Codesign, PaperCatalogDerivesTable5)
{
    // The acceptance bar of the subsystem: for every mission in the
    // paper catalog the search must *derive* the board the paper
    // assigns — the FPGA — rather than having it configured in.
    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    const CodesignDriver driver{engine};

    for (const MissionSpec &mission : paperMissionCatalog()) {
        const CodesignOutcome outcome = driver.run(mission);
        ASSERT_TRUE(outcome.recommended.feasible) << mission.name;
        EXPECT_EQ(outcome.recommended.config.platform,
                  PlatformKind::Fpga)
            << mission.name;

        // The paper's supporting columns: the RPi and TX2 cannot
        // sustain any admissible rate, so they never make the
        // frontier; their best sustained fps explains why.
        EXPECT_FALSE(
            platformChoice(outcome, PlatformKind::RPi).feasible);
        EXPECT_FALSE(
            platformChoice(outcome, PlatformKind::TX2).feasible);
        EXPECT_LT(outcome.bestSustainedFps[static_cast<std::size_t>(
                      PlatformKind::RPi)],
                  mission.targetRateHz);
        EXPECT_LT(outcome.bestSustainedFps[static_cast<std::size_t>(
                      PlatformKind::TX2)],
                  mission.targetRateHz);

        // The ASIC flies at least as long (it is lighter), but its
        // edge stays inside the tie margin, so fabrication cost
        // decides — exactly the paper's FPGA-over-ASIC argument.
        const CodesignChoice &fpga =
            platformChoice(outcome, PlatformKind::Fpga);
        const CodesignChoice &asic =
            platformChoice(outcome, PlatformKind::Asic);
        ASSERT_TRUE(fpga.feasible);
        ASSERT_TRUE(asic.feasible);
        const double delta = asic.design.flightTimeMin.value() -
                             fpga.design.flightTimeMin.value();
        EXPECT_GE(delta, 0.0) << mission.name;
        EXPECT_LE(delta, kTieMarginMin) << mission.name;
    }
}

TEST(Codesign, NanoMissionOptimalBoardDiffersBySplit)
{
    // The per-split frontier must diverge: under accel_ba the light
    // BA-only FPGA part wins, under accel_all the ASIC's 55 g
    // weight advantage makes it the optimum.
    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    const CodesignDriver driver{engine};
    const CodesignOutcome outcome =
        driver.run(paperMissionCatalog().back());
    ASSERT_EQ(outcome.mission.name, "nano_scout_250");

    const CodesignChoice &ba =
        splitChoice(outcome, OffloadSplit::AccelBa);
    const CodesignChoice &all =
        splitChoice(outcome, OffloadSplit::AccelAll);
    ASSERT_TRUE(ba.feasible);
    ASSERT_TRUE(all.feasible);
    EXPECT_EQ(ba.config.platform, PlatformKind::Fpga);
    EXPECT_EQ(all.config.platform, PlatformKind::Asic);
    EXPECT_NE(ba.config.platform, all.config.platform);
}

TEST(Codesign, HighRateMissionForcesFullOffload)
{
    // At 30 Hz the host front end alone takes ~66 ms per frame, so
    // the BA-only split cannot reach the target rate and the whole
    // pipeline must move onto the accelerator.
    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    const CodesignDriver driver{engine};
    const CodesignOutcome outcome =
        driver.run(paperMissionCatalog()[2]);
    ASSERT_EQ(outcome.mission.name, "agile_inspect_450");

    EXPECT_FALSE(
        splitChoice(outcome, OffloadSplit::HostOnly).feasible);
    EXPECT_FALSE(
        splitChoice(outcome, OffloadSplit::AccelBa).feasible);
    ASSERT_TRUE(outcome.recommended.feasible);
    EXPECT_EQ(outcome.recommended.config.split,
              OffloadSplit::AccelAll);
}

TEST(Codesign, RecommendationWeaklyDominatesFixedBoards)
{
    // Property over 20 seeded missions: whatever board you fix, the
    // co-design recommendation flies at least as long up to the tie
    // margin (within which it may deliberately trade flight time
    // for a cheaper platform).
    engine::SweepEngine engine{engine::EngineOptions{.threads = 2}};
    const CodesignDriver driver{engine};

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const MissionSpec mission = seededMission(seed);
        const CodesignOutcome outcome = driver.run(mission);
        for (std::size_t p = 0; p < kNumPlatforms; ++p) {
            const auto kind = static_cast<PlatformKind>(p);
            const CodesignChoice fixed =
                driver.runFixedPlatform(mission, kind);
            if (!fixed.feasible)
                continue;
            ASSERT_TRUE(outcome.recommended.feasible)
                << mission.name;
            EXPECT_GE(
                outcome.recommended.design.flightTimeMin.value(),
                fixed.design.flightTimeMin.value() - kTieMarginMin)
                << mission.name << " vs fixed "
                << platformSpec(kind).name;
        }
    }
}

TEST(Codesign, RecommendationBitIdenticalAcrossThreadCounts)
{
    // The serialized outcome — not just the chosen board — must be
    // byte-identical at any engine thread count.
    const MissionSpec mission = paperMissionCatalog().front();
    std::string baseline;
    for (const unsigned threads : {1u, 2u, 8u}) {
        engine::SweepEngine engine{
            engine::EngineOptions{.threads = threads}};
        const CodesignDriver driver{engine};
        const std::string reply = serve::serializeCodesignReply(
            1, driver.run(mission));
        if (baseline.empty())
            baseline = reply;
        else
            EXPECT_EQ(reply, baseline)
                << "threads=" << threads;
    }
}

TEST(Codesign, EnumerationIsDeterministicAndOrdered)
{
    engine::SweepEngine engine{engine::EngineOptions{.threads = 1}};
    const CodesignDriver driver{engine};
    const MissionSpec mission = paperMissionCatalog().front();

    const auto a = driver.enumerateConfigs(mission);
    const auto b = driver.enumerateConfigs(mission);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].boardName, b[i].boardName);
        // Table 5 platform order, splits within a platform, rates
        // within a split.
        if (i > 0) {
            EXPECT_GE(static_cast<int>(a[i].platform),
                      static_cast<int>(a[i - 1].platform));
        }
        // Every admitted config meets the mission rate with its
        // roofline-sustained rate.
        EXPECT_GE(a[i].rateHz, mission.targetRateHz);
        EXPECT_GE(a[i].sustainedFps, a[i].rateHz);
    }
}

TEST(Codesign, SplitNamesRoundTrip)
{
    for (const auto split :
         {OffloadSplit::HostOnly, OffloadSplit::AccelBa,
          OffloadSplit::AccelAll}) {
        OffloadSplit parsed = OffloadSplit::HostOnly;
        ASSERT_TRUE(
            parseOffloadSplit(offloadSplitName(split), parsed));
        EXPECT_EQ(parsed, split);
    }
    OffloadSplit parsed = OffloadSplit::HostOnly;
    EXPECT_FALSE(parseOffloadSplit("gpu_only", parsed));
}

TEST(ValidateMission, DefaultIsValidAndEachRuleRejects)
{
    const MissionSpec valid;
    EXPECT_EQ(validateMission(valid), "");
    for (const MissionSpec &mission : paperMissionCatalog())
        EXPECT_EQ(validateMission(mission), "") << mission.name;

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto rejects = [&](const char *field, auto mutate) {
        MissionSpec mission = valid;
        mutate(mission);
        const std::string err = validateMission(mission);
        EXPECT_NE(err.find(field), std::string::npos)
            << field << " -> '" << err << "'";
    };
    rejects("targetRateHz", [](MissionSpec &m) { m.targetRateHz = 0.0; });
    rejects("targetRateHz",
            [&](MissionSpec &m) { m.targetRateHz = nan; });
    rejects("perFrameOps",
            [](MissionSpec &m) { m.perFrameOps[0] = -1.0; });
    // The grid rules are validateSweepSpec's, and through it
    // validateDesignInputs'.
    rejects("airframes", [](MissionSpec &m) { m.wheelbasesMm.clear(); });
    rejects("cells", [](MissionSpec &m) { m.cells.clear(); });
    rejects("wheelbaseMm", [](MissionSpec &m) {
        m.wheelbasesMm.push_back(Quantity<Millimeters>(-450.0));
    });
    rejects("cells", [](MissionSpec &m) { m.cells.push_back(0); });
    rejects("capacityMah", [](MissionSpec &m) {
        m.capacityLoMah = Quantity<MilliampHours>(0.0);
    });
    rejects("capacityHiMah", [](MissionSpec &m) {
        m.capacityHiMah = Quantity<MilliampHours>(1000.0);
    });
    rejects("capacityStepMah", [](MissionSpec &m) {
        m.capacityStepMah = Quantity<MilliampHours>(0.0);
    });
    rejects("capacityStepMah", [](MissionSpec &m) {
        m.capacityLoMah = Quantity<MilliampHours>(1e300);
        m.capacityHiMah = Quantity<MilliampHours>(1e300);
    });
    rejects("payloadG",
            [](MissionSpec &m) { m.payloadG = Quantity<Grams>(-1.0); });
}
