/**
 * @file
 * The ORB-style SLAM pipeline: feature extraction -> matching ->
 * PnP tracking -> keyframing/triangulation -> local BA -> global BA,
 * with per-phase work accounting consumed by the platform execution
 * models (Figure 17, Table 5).
 *
 * Bootstrap note: a monocular system needs an external scale/pose
 * seed; the real system gets it from the drone's state estimation.
 * Here the first two frames' ground-truth poses seed the map, and
 * everything afterwards runs on estimated state only.
 */

#ifndef DRONEDSE_SLAM_PIPELINE_HH
#define DRONEDSE_SLAM_PIPELINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "slam/ba.hh"
#include "slam/matcher.hh"
#include "slam/pnp.hh"
#include "slam/world.hh"

namespace dronedse {

/** Pipeline phases (Figure 17 categories plus tracking). */
enum class SlamPhase
{
    FeatureExtraction = 0,
    Matching,
    Tracking,
    LocalBa,
    GlobalBa,
    NumPhases,
};

/** Phase name for reports. */
const char *slamPhaseName(SlamPhase phase);

/** Accumulated work of one phase. */
struct PhaseWork
{
    /** Wall time on the host (s). */
    double seconds = 0.0;
    /** Abstract operation count (platform-model input). */
    std::uint64_t ops = 0;
};

/** Pipeline configuration. */
struct SlamConfig
{
    FastConfig fast{};
    MatcherConfig matcher{};
    PnpConfig pnp{};
    BaConfig localBa{};
    BaConfig globalBa{};
    /** Keyframes in the local-BA window. */
    int localWindow = 5;
    /** Force a keyframe at least every this many frames. */
    int keyframeMaxGap = 8;
    /** New keyframe when tracked inliers drop below this. */
    int keyframeMinInliers = 60;
    /** Run global BA once at the end of the sequence. */
    bool globalBaAtEnd = true;
    /**
     * Also run global BA every this many keyframes (0 = never).
     * Off by default: without loop-closure constraints the extra
     * gauge freedom lets LM wander at whole-map scale.
     */
    int globalBaEveryKeyframes = 0;
    /** Attempt full-map relocalization after losing tracking. */
    bool relocalize = true;
    /** Reject triangulations beyond this camera distance (m). */
    double maxPointDepthM = 50.0;
};

/** Result for one processed frame. */
struct FrameResult
{
    int index = 0;
    bool tracked = false;
    Se3 estimatedPose;
    int featureCount = 0;
    int matchCount = 0;
    int inlierCount = 0;
    bool newKeyframe = false;
};

/** Whole-sequence statistics. */
struct SequenceStats
{
    std::string sequence;
    int frames = 0;
    int trackedFrames = 0;
    int keyframes = 0;
    int mapPoints = 0;
    /** RMS absolute trajectory error (m). */
    double ateRmseM = 0.0;
    /** Per-phase work totals. */
    std::array<PhaseWork,
               static_cast<std::size_t>(SlamPhase::NumPhases)>
        work{};
};

/** The pipeline. */
class SlamPipeline
{
  public:
    SlamPipeline(PinholeCamera camera, SlamConfig config = {});

    /**
     * Seed the map from the first two frames (ground-truth poses,
     * see the bootstrap note above).
     */
    void bootstrap(const SyntheticFrame &f0, const SyntheticFrame &f1);

    /** Track one frame (after bootstrap). */
    FrameResult processFrame(const SyntheticFrame &frame);

    /** Finish the sequence (global BA if configured). */
    void finish();

    const SlamMap &map() const { return map_; }
    SlamMap &map() { return map_; }

    /** Current pipeline configuration. */
    const SlamConfig &config() const { return config_; }

    /** Per-phase accumulated work. */
    const std::array<PhaseWork,
                     static_cast<std::size_t>(SlamPhase::NumPhases)> &
    work() const
    {
        return work_;
    }

    /** Estimated world-to-camera pose per processed frame. */
    const std::vector<Se3> &trajectory() const { return trajectory_; }

    /** RMS camera-centre error against ground-truth poses. */
    double ateRmseM(const std::vector<Se3> &truth) const;

    /**
     * Convenience: run a full synthetic sequence through a fresh
     * pipeline and gather statistics.
     */
    static SequenceStats runSequence(const SequenceSpec &spec,
                                     const SlamConfig &config = {});

    /**
     * Render a trajectory in TUM format ("t x y z qx qy qz qw" per
     * line, camera-to-world), the interchange format EuRoC tooling
     * evaluates against.
     */
    static std::string trajectoryToTum(const std::vector<Se3> &poses,
                                       double fps = 20.0);

  private:
    std::vector<Feature> extractFeatures(const Image &image);
    void maybeCreateKeyframe(const SyntheticFrame &frame,
                             const std::vector<Feature> &features,
                             const std::vector<Match> &matches,
                             const std::vector<int> &matched_points,
                             const PnpResult &pnp, FrameResult &out);

    PinholeCamera camera_;
    SlamConfig config_;
    BriefExtractor brief_;
    SlamMap map_;

    Se3 lastPose_;
    Se3 velocity_; // frame-to-frame delta for the motion model
    int framesSinceKeyframe_ = 0;
    int lastKeyframeId_ = -1;
    /** Unmatched features of the last keyframe (for triangulation). */
    std::vector<Feature> lastKeyframeLoose_;
    Se3 lastKeyframePose_;

    std::vector<Se3> trajectory_;
    std::array<PhaseWork,
               static_cast<std::size_t>(SlamPhase::NumPhases)>
        work_{};
    bool bootstrapped_ = false;

    PhaseWork &phase(SlamPhase p)
    { return work_[static_cast<std::size_t>(p)]; }
};

} // namespace dronedse

#endif // DRONEDSE_SLAM_PIPELINE_HH
