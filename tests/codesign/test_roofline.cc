#include "codesign/roofline.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "slam/pipeline.hh"

using namespace dronedse;
using namespace dronedse::codesign;

namespace {

constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(SlamPhase::NumPhases);
constexpr std::size_t kNumPlatforms =
    static_cast<std::size_t>(PlatformKind::NumPlatforms);

/** A double as a C hex-float literal (`%a`). */
std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

// Building the served model is a constant expression: if the default
// path ever runs the simulator again, this stops compiling.
constexpr RooflineModel kPinned{};
static_assert(kPinned.attainable(PlatformKind::RPi,
                                 SlamPhase::Tracking) ==
              kCanonicalHostFit.host.peakOpsPerSec);

} // namespace

TEST(Roofline, CanonicalCalibrationIsPinned)
{
    // The served fit is the calibration's result, bit for bit.  On a
    // deliberate change to the uarch model or a kernel profile, paste
    // the printed initializer over kCanonicalHostFit.
    const HostFit got = calibrateHost().fit;
    const HostFit &pinned = kCanonicalHostFit;
    const auto check = [](const char *name, double a, double b) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(b))
            << name << ": calibrated " << hexFloat(a) << ", pinned "
            << hexFloat(b);
    };
    check("peak", got.host.peakOpsPerSec, pinned.host.peakOpsPerSec);
    check("bandwidth", got.host.bandwidthBytesPerSec,
          pinned.host.bandwidthBytesPerSec);
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        check(slamPhaseName(static_cast<SlamPhase>(i)),
              got.intensityOpsPerByte[i],
              pinned.intensityOpsPerByte[i]);
    }
    if (HasFailure()) {
        std::string literal =
            "inline constexpr HostFit kCanonicalHostFit = {\n"
            "    {PlatformKind::RPi, " +
            hexFloat(got.host.peakOpsPerSec) + ", " +
            hexFloat(got.host.bandwidthBytesPerSec) + "},\n    {{";
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            literal += (i ? ",\n      " : "") +
                       hexFloat(got.intensityOpsPerByte[i]);
        }
        literal += "}},\n};";
        ADD_FAILURE() << "re-pin src/codesign/roofline.hh with:\n"
                      << literal;
    }
}

TEST(Roofline, HostFitGoldenValues)
{
    // Golden pins of the canonical fit (seed 17, 1e6 events).  The
    // trace generator and core model are deterministic, so drift
    // here means the microarchitecture model itself changed.
    const RooflineModel &model = RooflineModel::shared();
    const RooflineSpec &host = model.roofline(PlatformKind::RPi);
    EXPECT_NEAR(host.peakOpsPerSec, 1.164e9, 0.01e9);
    EXPECT_NEAR(host.bandwidthBytesPerSec, 7.414e8, 0.01e8);
    EXPECT_NEAR(host.ridgeOpsPerByte(), 1.57, 0.02);
}

TEST(Roofline, PhaseIntensityGoldenValues)
{
    const RooflineModel &model = RooflineModel::shared();
    EXPECT_NEAR(model.intensity(SlamPhase::FeatureExtraction),
                0.312, 0.01);
    EXPECT_NEAR(model.intensity(SlamPhase::Matching), 1.907, 0.02);
    EXPECT_NEAR(model.intensity(SlamPhase::Tracking), 20.35, 0.2);
    EXPECT_NEAR(model.intensity(SlamPhase::LocalBa), 0.203, 0.01);
    EXPECT_NEAR(model.intensity(SlamPhase::GlobalBa), 0.078, 0.005);
}

TEST(Roofline, IntensityOrderingMatchesLocality)
{
    // Streaming image phases and gather-heavy BA phases must sit
    // below the cache-resident tracking kernel.
    const RooflineModel &model = RooflineModel::shared();
    const double feature =
        model.intensity(SlamPhase::FeatureExtraction);
    const double matching = model.intensity(SlamPhase::Matching);
    const double tracking = model.intensity(SlamPhase::Tracking);
    const double local_ba = model.intensity(SlamPhase::LocalBa);
    const double global_ba = model.intensity(SlamPhase::GlobalBa);
    EXPECT_LT(global_ba, local_ba);
    EXPECT_LT(local_ba, feature);
    EXPECT_LT(feature, matching);
    EXPECT_LT(matching, tracking);
}

TEST(Roofline, BoundClassificationGoldenMatrix)
{
    // Golden classification of every (phase, platform) pair.  The
    // streaming and BA phases are memory-bound everywhere; the
    // cache-resident tracking kernel is compute-bound everywhere;
    // descriptor matching straddles the ridge: compute-bound except
    // on the TX2, whose bandwidth factor is the richest relative to
    // its peak (wide GPU lanes on a shared LPDDR4 bus).
    const RooflineModel &model = RooflineModel::shared();
    struct Row
    {
        SlamPhase phase;
        // RPi, TX2, FPGA, ASIC.
        bool memoryBound[4];
    };
    const Row expected[] = {
        {SlamPhase::FeatureExtraction, {true, true, true, true}},
        {SlamPhase::Matching, {false, true, false, false}},
        {SlamPhase::Tracking, {false, false, false, false}},
        {SlamPhase::LocalBa, {true, true, true, true}},
        {SlamPhase::GlobalBa, {true, true, true, true}},
    };
    for (const Row &row : expected) {
        for (std::size_t p = 0; p < kNumPlatforms; ++p) {
            const auto kind = static_cast<PlatformKind>(p);
            EXPECT_EQ(model.memoryBound(kind, row.phase),
                      row.memoryBound[p])
                << slamPhaseName(row.phase) << " on "
                << platformSpec(kind).name;
        }
    }
}

TEST(Roofline, RoofsDominateMeasuredThroughput)
{
    // A roofline is an upper bound: every platform's attainable
    // throughput must sit at or above its Table 4 calibrated
    // throughput (gap >= 1), so the effective throughput the
    // co-design driver plans with is the measured number.
    const RooflineModel &model = RooflineModel::shared();
    for (std::size_t p = 0; p < kNumPlatforms; ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        for (const PhaseRooflineReport &row : model.report(kind)) {
            EXPECT_GE(row.gap, 1.0)
                << slamPhaseName(row.phase) << " on "
                << platformSpec(kind).name;
            EXPECT_GE(row.attainableOpsPerSec,
                      row.measuredOpsPerSec);
            EXPECT_EQ(model.effectiveThroughput(kind, row.phase),
                      row.measuredOpsPerSec);
        }
    }
}

TEST(Roofline, AttainableIsMinOfTheTwoRoofs)
{
    const RooflineModel &model = RooflineModel::shared();
    for (std::size_t p = 0; p < kNumPlatforms; ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        const RooflineSpec &roof = model.roofline(kind);
        EXPECT_GT(roof.peakOpsPerSec, 0.0);
        EXPECT_GT(roof.bandwidthBytesPerSec, 0.0);
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            const auto phase = static_cast<SlamPhase>(i);
            const double attainable =
                model.attainable(kind, phase);
            EXPECT_LE(attainable, roof.peakOpsPerSec);
            EXPECT_LE(attainable, roof.bandwidthBytesPerSec *
                                      model.intensity(phase));
            const double expected = std::min(
                roof.peakOpsPerSec, roof.bandwidthBytesPerSec *
                                        model.intensity(phase));
            EXPECT_DOUBLE_EQ(attainable, expected);
        }
    }
}
