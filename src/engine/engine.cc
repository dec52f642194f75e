#include "engine/engine.hh"

#include <chrono>
#include <span>

#include "components/battery.hh"
#include "dse/batch_solve.hh"
#include "dse/weight_closure.hh"
#include "engine/pareto.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"

namespace dronedse::engine {

std::vector<DesignResult>
SweepResult::feasibleSeries() const
{
    std::vector<DesignResult> out;
    out.reserve(feasible.size());
    for (std::size_t i : feasible)
        out.push_back(points[i]);
    return out;
}

SweepEngine::SweepEngine(EngineOptions options)
    : options_(options), pool_(options.threads)
{
}

void
SweepEngine::solveAll(std::span<const DesignInputs> inputs,
                      std::span<DesignResult> results)
{
    // Each worker writes only the slots of the range it was handed,
    // so the reduction is order-independent by construction.  Chunk
    // boundaries move with the thread count, but the kernel is
    // partition-invariant (solve(N) == any split of it, per the batch
    // property tests), so the determinism contract holds at any
    // thread count.
    pool_.parallelForChunks(
        inputs.size(), options_.chunkSize,
        [&](std::size_t begin, std::size_t end, int) {
            solveDesignBatch(inputs.subspan(begin, end - begin),
                             results.subspan(begin, end - begin));
        });
    solved_.fetch_add(inputs.size(), std::memory_order_relaxed);
}

SweepResult
SweepEngine::run(const SweepSpec &spec)
{
    // Serve workers call run() from many threads; the pool runs one
    // job at a time, so batches execute one at a time.
    // bestConfiguration() calls run() from outside the lock, so the
    // guard lives here and only here.
    util::MutexLock run_lock(runMutex_);
    obs::ScopedSpan sweep_span("engine.sweep", "engine");
    const auto start = std::chrono::steady_clock::now();

    const std::vector<DesignInputs> grid = expandGrid(spec);

    SweepResult result;
    result.points.resize(grid.size());
    solveAll(grid, result.points);

    for (std::size_t i = 0; i < result.points.size(); ++i) {
        if (result.points[i].feasible)
            result.feasible.push_back(i);
    }
    result.frontier = paretoFrontier(result.points);

    SweepStats &stats = result.stats;
    stats.gridPoints = grid.size();
    stats.feasiblePoints = result.feasible.size();
    stats.frontierPoints = result.frontier.size();
    stats.wallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    stats.pointsPerSecond =
        stats.wallSeconds > 0.0
            ? static_cast<double>(grid.size()) / stats.wallSeconds
            : 0.0;
    stats.threads = pool_.threadCount();
    stats.perThread = pool_.lastRunStats();
    lastStats_ = stats;

    // The per-sweep counters are rebased onto the obs registry: the
    // bespoke SweepStats struct stays as the per-run view (its JSON
    // shape is pinned by DESIGN.md §9), while the registry is the
    // process-wide aggregation every sweep accumulates into.
    obs::MetricsRegistry &registry = obs::metrics();
    registry.counter("engine.sweeps").add(1);
    registry.counter("engine.grid_points").add(stats.gridPoints);
    registry.counter("engine.feasible_points")
        .add(stats.feasiblePoints);
    registry.counter("engine.frontier_points")
        .add(stats.frontierPoints);
    registry.gauge("engine.sweep.points_per_second")
        .set(stats.pointsPerSecond);
    registry
        .histogram("engine.sweep.wall_seconds",
                   {0.001, 0.01, 0.1, 1.0, 10.0, 100.0})
        .record(stats.wallSeconds);
    return result;
}

DesignResult
SweepEngine::solve(const DesignInputs &inputs)
{
    solved_.fetch_add(1, std::memory_order_relaxed);
    return solveDesign(inputs);
}

std::vector<DesignResult>
SweepEngine::solvePoints(std::span<const DesignInputs> points)
{
    // Same batching discipline as run(): one point list at a time
    // per engine, so the output is element-wise identical to a serial
    // solve loop at any thread count.
    util::MutexLock run_lock(runMutex_);
    obs::ScopedSpan span("engine.solve_points", "engine");
    std::vector<DesignResult> results(points.size());
    solveAll(points, results);
    obs::metrics().counter("engine.point_batches").add(1);
    obs::metrics().counter("engine.grid_points").add(points.size());
    return results;
}

std::size_t
bestFeasibleIndex(std::span<const DesignResult> points,
                  const SizeClassSpec *practical)
{
    std::size_t best = points.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DesignResult &res = points[i];
        if (!res.feasible)
            continue;
        if (practical && !withinPracticalLimits(res, *practical))
            continue;
        if (best == points.size() ||
            res.flightTimeMin > points[best].flightTimeMin)
            best = i;
    }
    return best;
}

DesignResult
SweepEngine::bestConfiguration(const SizeClassSpec &spec,
                               const ComputeBoardRecord &compute,
                               Quantity<MilliampHours> step, double twr)
{
    std::vector<int> cells;
    for (int c = kMinCells; c <= kMaxCells; ++c)
        cells.push_back(c);
    // The batched scan: expand the class grid once, solve it as one
    // point batch (no feasible/frontier bookkeeping — the Pareto
    // pass run() would do is O(n^2) pure overhead here), and take
    // the max-flight-time index.  Cells ascending with capacity
    // innermost is exactly the serial search's order, so "strictly
    // greater flight time wins" breaks ties identically.
    const std::vector<DesignInputs> grid = expandGrid(classSweepSpec(
        spec, std::move(cells), step, compute,
        FlightActivity::Hovering, twr));
    const std::vector<DesignResult> points = solvePoints(grid);
    const std::size_t best = bestFeasibleIndex(points, &spec);
    if (best == points.size())
        fatal("SweepEngine::bestConfiguration: no feasible design in "
              "class sweep");
    return points[best];
}

} // namespace dronedse::engine
