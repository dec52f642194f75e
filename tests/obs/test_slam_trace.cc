/**
 * @file
 * The Figure 17 phase breakdown, reproduced from the exported trace
 * alone: run a SLAM sequence with tracing on, then reconstruct each
 * phase's wall time purely by summing that phase's spans from the
 * tracer snapshot.  The sums must match the pipeline's own
 * PhaseWork.seconds accounting within 1% — the acceptance criterion
 * that makes the trace a trustworthy substitute for bespoke timers.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/tracer.hh"
#include "slam/pipeline.hh"
#include "slam/world.hh"

namespace dronedse {
namespace {

/** Span-name convention of the pipeline's phase instruments. */
const char *
spanNameFor(SlamPhase phase)
{
    switch (phase) {
    case SlamPhase::FeatureExtraction:
        return "slam.feature-extraction";
    case SlamPhase::Matching:
        return "slam.matching";
    case SlamPhase::Tracking:
        return "slam.tracking";
    case SlamPhase::LocalBa:
        return "slam.local-ba";
    case SlamPhase::GlobalBa:
        return "slam.global-ba";
    default:
        return "?";
    }
}

TEST(SlamTrace, PhaseBreakdownFromTheTraceMatchesWorkAccounting)
{
    obs::tracer().clear();
    obs::tracer().setEnabled(true);
    SequenceSpec spec = findSequence("V101");
    spec.frames = 150; // enough frames to hit every phase
    const SequenceStats stats = SlamPipeline::runSequence(spec);
    obs::tracer().setEnabled(false);

    // Rebuild the phase breakdown from the trace alone.
    std::map<std::string, double> traced_seconds;
    for (const obs::SpanRecord &span : obs::tracer().snapshot()) {
        if (span.category == "slam")
            traced_seconds[span.name] += span.durUs * 1e-6;
    }
    obs::tracer().clear();

    for (std::size_t p = 0;
         p < static_cast<std::size_t>(SlamPhase::NumPhases); ++p) {
        const auto phase = static_cast<SlamPhase>(p);
        const double accounted = stats.work[p].seconds;
        const double traced = traced_seconds[spanNameFor(phase)];
        ASSERT_GT(accounted, 0.0) << slamPhaseName(phase);
        // Both views derive from the same clock readings, so the
        // only slack is double rounding across thousands of spans —
        // far inside the 1% acceptance budget.
        EXPECT_NEAR(traced, accounted, 0.01 * accounted)
            << slamPhaseName(phase);
    }
}

TEST(SlamTrace, TraceCarriesOnlyWallTrackSlamSpans)
{
    obs::tracer().clear();
    obs::tracer().setEnabled(true);
    SequenceSpec spec = findSequence("MH01");
    spec.frames = 40;
    SlamPipeline::runSequence(spec);
    obs::tracer().setEnabled(false);

    const auto spans = obs::tracer().snapshot();
    obs::tracer().clear();
    ASSERT_FALSE(spans.empty());
    for (const auto &span : spans) {
        if (span.category != "slam")
            continue;
        EXPECT_EQ(span.track, obs::kWallTrack);
        EXPECT_EQ(span.phase, 'X');
        EXPECT_GE(span.durUs, 0.0);
    }
}

} // namespace
} // namespace dronedse
