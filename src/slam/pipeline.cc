#include "slam/pipeline.hh"

#include <chrono>
#include <cmath>
#include <unordered_set>

#include "obs/tracer.hh"
#include "slam/triangulation.hh"
#include "util/logging.hh"

namespace dronedse {

namespace {

/** Trace-span name of each phase (string literals: spans keep the
 *  pointer until capture). */
const char *
slamPhaseSpanName(SlamPhase phase)
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
      case SlamPhase::NumPhases:
        break;
    }
    panic("slamPhaseSpanName: invalid phase");
}

/**
 * Scoped wall-clock accumulator.  The same two clock readings feed
 * the bespoke per-phase totals and the obs span, so a trace's
 * per-phase span sums reproduce the Figure 17 work accounting
 * exactly (asserted in tests/obs/test_slam_trace.cc).
 */
class PhaseTimer
{
  public:
    PhaseTimer(PhaseWork &work, SlamPhase phase)
        : work_(work), phase_(phase),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~PhaseTimer()
    {
        const auto end = std::chrono::steady_clock::now();
        work_.seconds +=
            std::chrono::duration<double>(end - start_).count();
        obs::tracer().recordSpan(slamPhaseSpanName(phase_), "slam",
                                 start_, end);
    }

  private:
    PhaseWork &work_;
    SlamPhase phase_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace

const char *
slamPhaseName(SlamPhase phase)
{
    switch (phase) {
      case SlamPhase::FeatureExtraction:
        return "feature-extraction";
      case SlamPhase::Matching:
        return "matching";
      case SlamPhase::Tracking:
        return "tracking";
      case SlamPhase::LocalBa:
        return "local-ba";
      case SlamPhase::GlobalBa:
        return "global-ba";
      case SlamPhase::NumPhases:
        break;
    }
    panic("slamPhaseName: invalid phase");
}

SlamPipeline::SlamPipeline(PinholeCamera camera, SlamConfig config)
    : camera_(camera), config_(config)
{
}

std::vector<Feature>
SlamPipeline::extractFeatures(const Image &image)
{
    PhaseTimer timer(phase(SlamPhase::FeatureExtraction), SlamPhase::FeatureExtraction);
    FastWork fast_work;
    const auto corners = detectFast(image, config_.fast, &fast_work);
    const auto features = brief_.describeAll(image, corners);
    // Ops: segment tests plus 256 smoothed sample pairs (3x3 box
    // means) per descriptor.
    phase(SlamPhase::FeatureExtraction).ops +=
        fast_work.pixelsTested + 4608 * features.size();
    return features;
}

void
SlamPipeline::bootstrap(const SyntheticFrame &f0,
                        const SyntheticFrame &f1)
{
    if (bootstrapped_)
        fatal("SlamPipeline::bootstrap: already bootstrapped");

    const auto feat0 = extractFeatures(f0.image);
    const auto feat1 = extractFeatures(f1.image);

    std::vector<Match> matches;
    {
        PhaseTimer timer(phase(SlamPhase::Matching), SlamPhase::Matching);
        MatchWork mw;
        matches = matchFeatures(feat0, feat1, config_.matcher, &mw);
        phase(SlamPhase::Matching).ops += mw.comparisons;
    }

    Keyframe kf0, kf1;
    kf0.frameIndex = f0.index;
    kf0.pose = f0.truePose;
    kf1.frameIndex = f1.index;
    kf1.pose = f1.truePose;

    std::unordered_set<int> used1;
    for (const Match &m : matches) {
        const Feature &a =
            feat0[static_cast<std::size_t>(m.queryIndex)];
        const Feature &b =
            feat1[static_cast<std::size_t>(m.trainIndex)];
        const Pixel pa{static_cast<double>(a.corner.x),
                       static_cast<double>(a.corner.y)};
        const Pixel pb{static_cast<double>(b.corner.x),
                       static_cast<double>(b.corner.y)};
        const auto world =
            triangulate(camera_, f0.truePose, pa, f1.truePose, pb);
        if (!world)
            continue;
        const int id = map_.addPoint(*world, a.descriptor);
        kf0.observations.push_back({id, pa});
        kf1.observations.push_back({id, pb});
        used1.insert(m.trainIndex);
    }

    lastKeyframeLoose_.clear();
    for (std::size_t i = 0; i < feat1.size(); ++i) {
        if (!used1.count(static_cast<int>(i)))
            lastKeyframeLoose_.push_back(feat1[i]);
    }

    map_.addKeyframe(std::move(kf0));
    lastKeyframeId_ = map_.addKeyframe(std::move(kf1));
    lastKeyframePose_ = f1.truePose;
    lastPose_ = f1.truePose;
    velocity_ = f0.truePose.inverse().compose(f1.truePose);
    trajectory_.push_back(f0.truePose);
    trajectory_.push_back(f1.truePose);
    bootstrapped_ = true;
}

FrameResult
SlamPipeline::processFrame(const SyntheticFrame &frame)
{
    if (!bootstrapped_)
        fatal("SlamPipeline::processFrame: bootstrap first");

    FrameResult out;
    out.index = frame.index;

    const auto features = extractFeatures(frame.image);
    out.featureCount = static_cast<int>(features.size());

    // Local map: points observed by the recent keyframes.
    std::vector<int> local_point_ids;
    std::vector<Descriptor> local_descriptors;
    {
        std::unordered_set<int> seen;
        const int kf_count = static_cast<int>(map_.keyframeCount());
        const int from =
            std::max(0, kf_count - config_.localWindow);
        for (int kf = from; kf < kf_count; ++kf) {
            for (const auto &obs : map_.keyframe(kf).observations) {
                if (obs.mapPointId >= 0 &&
                    seen.insert(obs.mapPointId).second) {
                    local_point_ids.push_back(obs.mapPointId);
                    local_descriptors.push_back(
                        map_.point(obs.mapPointId).descriptor);
                }
            }
        }
    }

    std::vector<Match> matches;
    {
        PhaseTimer timer(phase(SlamPhase::Matching), SlamPhase::Matching);
        MatchWork mw;
        matches = matchDescriptors(features, local_descriptors,
                                   config_.matcher, &mw);
        phase(SlamPhase::Matching).ops += mw.comparisons;
    }
    out.matchCount = static_cast<int>(matches.size());

    // PnP against the matched map points, seeded by the constant-
    // velocity motion model.
    std::vector<PnpPoint> pnp_points;
    std::vector<int> matched_point_ids;
    pnp_points.reserve(matches.size());
    for (const Match &m : matches) {
        const Feature &f =
            features[static_cast<std::size_t>(m.queryIndex)];
        PnpPoint p;
        p.world = map_
                      .point(local_point_ids[static_cast<std::size_t>(
                          m.trainIndex)])
                      .position;
        p.pixel = {static_cast<double>(f.corner.x),
                   static_cast<double>(f.corner.y)};
        pnp_points.push_back(p);
        matched_point_ids.push_back(
            local_point_ids[static_cast<std::size_t>(m.trainIndex)]);
    }

    PnpResult pnp;
    {
        PhaseTimer timer(phase(SlamPhase::Tracking), SlamPhase::Tracking);
        const Se3 predicted = lastPose_.compose(velocity_);
        pnp = solvePnp(camera_, pnp_points, predicted, config_.pnp);
        phase(SlamPhase::Tracking).ops +=
            pnp.jacobianEvals * 60; // ~flops per Jacobian row pair
    }

    if (pnp.converged && pnp.inliers >= 8) {
        out.tracked = true;
        velocity_ = lastPose_.inverse().compose(pnp.pose);
        lastPose_ = pnp.pose;
        out.estimatedPose = pnp.pose;
        out.inlierCount = pnp.inliers;
    } else if (config_.relocalize) {
        // Relocalization: match against the whole map and retry
        // with a wider solver budget.
        std::vector<Match> reloc_matches;
        {
            PhaseTimer timer(phase(SlamPhase::Matching), SlamPhase::Matching);
            MatchWork mw;
            std::vector<Descriptor> all;
            all.reserve(map_.pointCount());
            for (const auto &pt : map_.points())
                all.push_back(pt.descriptor);
            reloc_matches = matchDescriptors(features, all,
                                             config_.matcher, &mw);
            phase(SlamPhase::Matching).ops += mw.comparisons;
        }
        std::vector<PnpPoint> reloc_points;
        std::vector<int> reloc_ids;
        for (const Match &m : reloc_matches) {
            const Feature &f =
                features[static_cast<std::size_t>(m.queryIndex)];
            reloc_points.push_back(
                {map_.points()[static_cast<std::size_t>(m.trainIndex)]
                     .position,
                 {static_cast<double>(f.corner.x),
                  static_cast<double>(f.corner.y)}});
            reloc_ids.push_back(
                map_.points()[static_cast<std::size_t>(m.trainIndex)]
                    .id);
        }
        PnpConfig wide = config_.pnp;
        wide.maxIterations = 25;
        PnpResult reloc;
        {
            PhaseTimer timer(phase(SlamPhase::Tracking), SlamPhase::Tracking);
            reloc = solvePnp(camera_, reloc_points, lastPose_, wide);
            phase(SlamPhase::Tracking).ops +=
                reloc.jacobianEvals * 60;
        }
        if (reloc.converged && reloc.inliers >= 12) {
            out.tracked = true;
            out.inlierCount = reloc.inliers;
            lastPose_ = reloc.pose;
            out.estimatedPose = reloc.pose;
            velocity_ = Se3{}; // restart the motion model
            pnp = reloc;
            matches = std::move(reloc_matches);
            matched_point_ids = std::move(reloc_ids);
        } else {
            // Still lost: hold the last pose (no runaway coasting).
            out.estimatedPose = lastPose_;
            velocity_ = Se3{};
        }
    } else {
        out.estimatedPose = lastPose_;
        velocity_ = Se3{};
    }
    trajectory_.push_back(out.estimatedPose);

    ++framesSinceKeyframe_;
    maybeCreateKeyframe(frame, features, matches, matched_point_ids,
                        pnp, out);
    return out;
}

void
SlamPipeline::maybeCreateKeyframe(const SyntheticFrame &frame,
                                  const std::vector<Feature> &features,
                                  const std::vector<Match> &matches,
                                  const std::vector<int> &matched_points,
                                  const PnpResult &pnp, FrameResult &out)
{
    const bool starving =
        out.tracked && pnp.inliers < config_.keyframeMinInliers;
    const bool stale = framesSinceKeyframe_ >= config_.keyframeMaxGap;
    if (!out.tracked || (!starving && !stale))
        return;
    // Quality gate: a sloppy pose would triangulate garbage and
    // poison the map.
    if (pnp.rmsReprojPx > 2.5 || pnp.inliers < 25)
        return;

    Keyframe kf;
    kf.frameIndex = frame.index;
    kf.pose = out.estimatedPose;

    // Keep only matches consistent with the refined pose: feeding
    // PnP outliers into bundle adjustment corrupts the map.
    std::unordered_set<int> used;
    for (std::size_t i = 0; i < matches.size(); ++i) {
        const Feature &f = features[static_cast<std::size_t>(
            matches[i].queryIndex)];
        const Pixel px{static_cast<double>(f.corner.x),
                       static_cast<double>(f.corner.y)};
        const Vec3 p = kf.pose.apply(
            map_.point(matched_points[i]).position);
        used.insert(matches[i].queryIndex);
        if (p.z <= 0.05)
            continue;
        const double du =
            camera_.fx * p.x / p.z + camera_.cx - px.u;
        const double dv =
            camera_.fy * p.y / p.z + camera_.cy - px.v;
        if (du * du + dv * dv >
            config_.pnp.outlierPx * config_.pnp.outlierPx) {
            continue;
        }
        kf.observations.push_back({matched_points[i], px});
    }

    // Triangulate fresh landmarks from this keyframe's unmatched
    // features against the previous keyframe's loose features.
    std::vector<Feature> loose;
    for (std::size_t i = 0; i < features.size(); ++i) {
        if (!used.count(static_cast<int>(i)))
            loose.push_back(features[i]);
    }
    {
        PhaseTimer timer(phase(SlamPhase::Matching), SlamPhase::Matching);
        MatchWork mw;
        const auto new_matches = matchFeatures(
            loose, lastKeyframeLoose_, config_.matcher, &mw);
        phase(SlamPhase::Matching).ops += mw.comparisons;

        for (const Match &m : new_matches) {
            const Feature &a =
                loose[static_cast<std::size_t>(m.queryIndex)];
            const Feature &b = lastKeyframeLoose_[
                static_cast<std::size_t>(m.trainIndex)];
            const Pixel pa{static_cast<double>(a.corner.x),
                           static_cast<double>(a.corner.y)};
            const Pixel pb{static_cast<double>(b.corner.x),
                           static_cast<double>(b.corner.y)};
            const auto world = triangulate(camera_, kf.pose, pa,
                                           lastKeyframePose_, pb);
            if (!world)
                continue;
            // Depth gate: wild triangulations poison the map.
            if (kf.pose.apply(*world).z > config_.maxPointDepthM)
                continue;
            // Verify the point reprojects tightly in both views.
            const auto ra = camera_.projectWorld(kf.pose, *world);
            const auto rb =
                camera_.projectWorld(lastKeyframePose_, *world);
            if (!ra || !rb)
                continue;
            const double ea = std::hypot(ra->u - pa.u, ra->v - pa.v);
            const double eb = std::hypot(rb->u - pb.u, rb->v - pb.v);
            if (ea > 2.0 || eb > 2.0)
                continue;
            const int id = map_.addPoint(*world, a.descriptor);
            kf.observations.push_back({id, pa});
        }
    }

    lastKeyframeLoose_ = std::move(loose);
    lastKeyframePose_ = kf.pose;
    lastKeyframeId_ = map_.addKeyframe(std::move(kf));
    framesSinceKeyframe_ = 0;
    out.newKeyframe = true;

    // Drop stale single-observation points (failed triangulations).
    map_.cullPoints(2, std::max(0, lastKeyframeId_ -
                                       config_.localWindow));

    // Local bundle adjustment over the recent window.
    {
        PhaseTimer timer(phase(SlamPhase::LocalBa), SlamPhase::LocalBa);
        const int kf_count = static_cast<int>(map_.keyframeCount());
        const int from = std::max(0, kf_count - config_.localWindow);
        std::vector<Se3> before;
        for (int k = from; k < kf_count; ++k)
            before.push_back(map_.keyframe(k).pose);
        const BaResult ba = bundleAdjust(camera_, map_, from, kf_count,
                                         config_.localBa);
        // Ops: Jacobians dominate; each is ~200 flops, plus 3x3
        // block solves.
        phase(SlamPhase::LocalBa).ops +=
            ba.jacobianEvals * 200 + ba.pointBlockSolves * 50;
        // Divergence guard: reject steps that teleport a keyframe —
        // flat gauge directions can move the window without raising
        // the robust cost.
        for (int k = from; k < kf_count; ++k) {
            const double moved =
                (map_.keyframe(k).pose.center() -
                 before[static_cast<std::size_t>(k - from)].center())
                    .norm();
            if (moved > 1.0) {
                for (int r = from; r < kf_count; ++r)
                    map_.keyframe(r).pose = before[
                        static_cast<std::size_t>(r - from)];
                break;
            }
        }
    }

    // Periodic global refinement (the drift-arresting role loop
    // closure plays in the full system).
    if (config_.globalBaEveryKeyframes > 0 &&
        lastKeyframeId_ > 0 &&
        lastKeyframeId_ % config_.globalBaEveryKeyframes == 0) {
        PhaseTimer timer(phase(SlamPhase::GlobalBa), SlamPhase::GlobalBa);
        const BaResult ba = globalBundleAdjust(camera_, map_,
                                               config_.globalBa);
        phase(SlamPhase::GlobalBa).ops +=
            ba.jacobianEvals * 200 + ba.pointBlockSolves * 50 +
            static_cast<std::uint64_t>(ba.schurDimension) *
                ba.schurDimension * ba.schurDimension / 3;
    }

    // Track the refined keyframe pose.
    lastPose_ = map_.keyframe(lastKeyframeId_).pose;
    lastKeyframePose_ = lastPose_;
    if (!trajectory_.empty())
        trajectory_.back() = lastPose_;
}

void
SlamPipeline::finish()
{
    if (!config_.globalBaAtEnd || map_.keyframeCount() < 3)
        return;
    PhaseTimer timer(phase(SlamPhase::GlobalBa), SlamPhase::GlobalBa);
    const BaResult ba = globalBundleAdjust(camera_, map_,
                                           config_.globalBa);
    phase(SlamPhase::GlobalBa).ops +=
        ba.jacobianEvals * 200 + ba.pointBlockSolves * 50 +
        static_cast<std::uint64_t>(ba.schurDimension) *
            ba.schurDimension * ba.schurDimension / 3;
}

double
SlamPipeline::ateRmseM(const std::vector<Se3> &truth) const
{
    if (truth.size() != trajectory_.size())
        fatal("ateRmseM: trajectory length mismatch");
    if (trajectory_.empty())
        return 0.0;
    double ss = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const Vec3 d =
            trajectory_[i].center() - truth[i].center();
        ss += d.squaredNorm();
    }
    return std::sqrt(ss / static_cast<double>(truth.size()));
}

std::string
SlamPipeline::trajectoryToTum(const std::vector<Se3> &poses,
                              double fps)
{
    if (fps <= 0.0)
        fatal("trajectoryToTum: fps must be positive");
    std::string out;
    char line[192];
    for (std::size_t i = 0; i < poses.size(); ++i) {
        // TUM stores camera-to-world: centre + inverse rotation.
        const Se3 inv = poses[i].inverse();
        const Vec3 c = inv.translation;
        const Quaternion &q = inv.rotation;
        std::snprintf(line, sizeof(line),
                      "%.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f\n",
                      static_cast<double>(i) / fps, c.x, c.y, c.z,
                      q.x, q.y, q.z, q.w);
        out += line;
    }
    return out;
}

SequenceStats
SlamPipeline::runSequence(const SequenceSpec &spec,
                          const SlamConfig &config)
{
    SyntheticWorld world(spec);
    SlamPipeline pipeline(world.camera(), config);

    std::vector<Se3> truth;
    truth.reserve(static_cast<std::size_t>(spec.frames));

    // Bootstrap across a gap wide enough for ~0.7 m of baseline so
    // the seed triangulations have usable parallax.
    const double frame_baseline = spec.speedMps / 20.0;
    const int gap = std::max(
        2, std::min(20, static_cast<int>(
                            std::lround(0.7 / frame_baseline))));

    SyntheticFrame f0 = world.renderFrame(0);
    SyntheticFrame f1 = world.renderFrame(gap);
    truth.push_back(f0.truePose);
    truth.push_back(f1.truePose);
    pipeline.bootstrap(f0, f1);

    SequenceStats stats;
    stats.sequence = spec.name;
    stats.frames = spec.frames;
    stats.trackedFrames = 2;

    for (int i = gap + 1; i < spec.frames; ++i) {
        const SyntheticFrame frame = world.renderFrame(i);
        truth.push_back(frame.truePose);
        const FrameResult res = pipeline.processFrame(frame);
        if (res.tracked)
            ++stats.trackedFrames;
    }
    pipeline.finish();

    stats.keyframes = static_cast<int>(pipeline.map().keyframeCount());
    stats.mapPoints = static_cast<int>(pipeline.map().pointCount());
    stats.ateRmseM = pipeline.ateRmseM(truth);
    stats.work = pipeline.work();
    return stats;
}

} // namespace dronedse
