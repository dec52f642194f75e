/**
 * @file
 * google-benchmark timings of the library's hot kernels: the DSE
 * weight-closure solve, the scalar-vs-batch solver ratio, FAST
 * detection, BRIEF description, Hamming
 * matching, PnP, bundle adjustment, EKF update, the quadrotor
 * physics step, and the cache-simulator step.
 */

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "control/ekf.hh"
#include "dse/batch_solve.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "slam/ba.hh"
#include "slam/pipeline.hh"
#include "sim/quadrotor.hh"
#include "uarch/core.hh"

namespace dronedse {
namespace {

using namespace unit_literals;

void
BM_DesignClosure(benchmark::State &state)
{
    DesignInputs in;
    in.wheelbaseMm = 450.0_mm;
    in.cells = 3;
    in.capacityMah = 5000.0_mah;
    for (auto _ : state) {
        benchmark::DoNotOptimize(solveDesign(in));
    }
}
BENCHMARK(BM_DesignClosure);

void
BM_ClassSweep(benchmark::State &state)
{
    const auto &spec = classSpec(SizeClass::Medium);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sweepCapacity(spec, 3, 500.0_mah, basicChip3W()));
    }
}
BENCHMARK(BM_ClassSweep);

/**
 * The flat Fig 10 grid (all three size classes, both chips, both
 * activities, cells 1-6) solved single-threaded by a `solveDesign`
 * loop (Arg 0) and by `solveDesignBatch` (Arg 1): the ratio is the
 * SoA kernel's compute win with no engine around it (DESIGN.md §15).
 */
void
BM_Fig10GridSolve(benchmark::State &state)
{
    std::vector<DesignInputs> grid;
    for (SizeClass cls :
         {SizeClass::Small, SizeClass::Medium, SizeClass::Large}) {
        SweepSpec spec = classSweepSpec(classSpec(cls),
                                        {1, 2, 3, 4, 5, 6}, 100.0_mah,
                                        basicChip3W());
        spec.boards = {advancedChip20W(), basicChip3W()};
        spec.activities = {FlightActivity::Hovering,
                           FlightActivity::Maneuvering};
        const std::vector<DesignInputs> points = expandGrid(spec);
        grid.insert(grid.end(), points.begin(), points.end());
    }
    std::vector<DesignResult> out(grid.size());
    const bool batch = state.range(0) != 0;
    for (auto _ : state) {
        if (batch) {
            solveDesignBatch(std::span<const DesignInputs>(grid),
                             std::span<DesignResult>(out));
        } else {
            for (std::size_t i = 0; i < grid.size(); ++i)
                out[i] = solveDesign(grid[i]);
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_Fig10GridSolve)->Arg(0)->Arg(1);

void
BM_FastDetect(benchmark::State &state)
{
    SyntheticWorld world(findSequence("MH01"));
    const SyntheticFrame frame = world.renderFrame(10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(detectFast(frame.image));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastDetect);

void
BM_BriefDescribe(benchmark::State &state)
{
    SyntheticWorld world(findSequence("MH01"));
    const SyntheticFrame frame = world.renderFrame(10);
    const auto corners = detectFast(frame.image);
    BriefExtractor brief;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            brief.describeAll(frame.image, corners));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(corners.size()));
}
BENCHMARK(BM_BriefDescribe);

void
BM_HammingMatch(benchmark::State &state)
{
    SyntheticWorld world(findSequence("MH01"));
    const SyntheticFrame f0 = world.renderFrame(0);
    const SyntheticFrame f1 = world.renderFrame(2);
    BriefExtractor brief;
    const auto a = brief.describeAll(f0.image, detectFast(f0.image));
    const auto b = brief.describeAll(f1.image, detectFast(f1.image));
    for (auto _ : state) {
        benchmark::DoNotOptimize(matchFeatures(a, b));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(a.size() * b.size()));
}
BENCHMARK(BM_HammingMatch);

void
BM_QuadrotorStep(benchmark::State &state)
{
    Quadrotor quad;
    for (auto _ : state) {
        quad.step(0.001);
        benchmark::DoNotOptimize(quad.state());
    }
}
BENCHMARK(BM_QuadrotorStep);

void
BM_EkfPredictUpdate(benchmark::State &state)
{
    PositionEkf ekf;
    GpsSample gps;
    gps.position = {1, 2, 3};
    for (auto _ : state) {
        ekf.predict({0.1, 0.0, -0.05}, 0.005);
        ekf.updateGps(gps, 0.8, 0.15);
        benchmark::DoNotOptimize(ekf.position());
    }
}
BENCHMARK(BM_EkfPredictUpdate);

void
BM_CacheSimStep(benchmark::State &state)
{
    CorePlatform platform;
    TraceGenerator gen(slamProfile(), 7);
    PerfCounters counters;
    for (auto _ : state) {
        executeEvent(gen.next(), platform, counters);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimStep);

void
BM_LocalBundleAdjust(benchmark::State &state)
{
    // Build a small solved map once, then re-optimize perturbed
    // copies (what the pipeline does per keyframe).
    SequenceSpec spec = findSequence("V101");
    spec.frames = 60;
    SyntheticWorld world(spec);
    SlamPipeline pipeline(world.camera());
    pipeline.bootstrap(world.renderFrame(0), world.renderFrame(18));
    for (int i = 19; i < spec.frames; ++i)
        pipeline.processFrame(world.renderFrame(i));

    const SlamMap &frozen = pipeline.map();
    const int kf = static_cast<int>(frozen.keyframeCount());
    for (auto _ : state) {
        state.PauseTiming();
        SlamMap copy = frozen;
        state.ResumeTiming();
        benchmark::DoNotOptimize(bundleAdjust(
            world.camera(), copy, std::max(0, kf - 5), kf));
    }
}
BENCHMARK(BM_LocalBundleAdjust);

} // namespace
} // namespace dronedse

BENCHMARK_MAIN();
