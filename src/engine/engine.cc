#include "engine/engine.hh"

#include <chrono>
#include <span>

#include "components/battery.hh"
#include "dse/batch_solve.hh"
#include "dse/weight_closure.hh"
#include "engine/pareto.hh"
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
    : pool_(options.threads),
      sweeps_(obs::metrics().counter("engine.sweeps")),
      gridPoints_(obs::metrics().counter("engine.grid_points")),
      feasiblePoints_(obs::metrics().counter("engine.feasible_points")),
      frontierPoints_(obs::metrics().counter("engine.frontier_points")),
      pointBatches_(obs::metrics().counter("engine.point_batches")),
      pointsPerSecond_(
          obs::metrics().gauge("engine.sweep.points_per_second")),
      sweepWallSeconds_(obs::metrics().histogram(
          "engine.sweep.wall_seconds",
          {0.001, 0.01, 0.1, 1.0, 10.0, 100.0}))
{
}

std::vector<WorkerStats>
SweepEngine::solveAll(std::span<const DesignInputs> inputs,
                      std::span<DesignResult> results,
                      const ChunkSink &sink)
{
    // Each worker writes only the slots of the range it was handed,
    // so the reduction is order-independent by construction.  Chunk
    // boundaries move with the thread count, but the kernel is
    // partition-invariant (solve(N) == any split of it, per the batch
    // property tests), so the determinism contract holds at any
    // thread count.
    std::vector<WorkerStats> per_worker = pool_.parallelForChunks(
        inputs.size(), 0,
        [&](std::size_t begin, std::size_t end, int) {
            const std::span<DesignResult> chunk =
                results.subspan(begin, end - begin);
            solveDesignBatch(inputs.subspan(begin, end - begin), chunk);
            if (sink)
                sink(begin, chunk);
        });
    solved_.fetch_add(inputs.size(), std::memory_order_relaxed);
    return per_worker;
}

SweepResult
SweepEngine::run(const SweepSpec &spec, const ChunkSink &sink)
{
    // Serve workers call run() from many threads; each call's solve
    // is its own pool job, and nothing else here touches shared state.
    obs::ScopedSpan sweep_span("engine.sweep", "engine");
    const auto start = std::chrono::steady_clock::now();

    const std::vector<DesignInputs> grid = expandGrid(spec);

    SweepResult result;
    result.points.resize(grid.size());
    SweepStats &stats = result.stats;
    stats.perThread = solveAll(grid, result.points, sink);

    for (std::size_t i = 0; i < result.points.size(); ++i) {
        if (result.points[i].feasible)
            result.feasible.push_back(i);
    }
    result.frontier = paretoFrontier(result.points);

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

    // The per-sweep counters are rebased onto the obs registry: the
    // bespoke SweepStats struct stays as the per-run view (its JSON
    // shape is pinned by DESIGN.md §9), while the registry is the
    // process-wide aggregation every sweep accumulates into.
    sweeps_.add(1);
    gridPoints_.add(stats.gridPoints);
    feasiblePoints_.add(stats.feasiblePoints);
    frontierPoints_.add(stats.frontierPoints);
    pointsPerSecond_.set(stats.pointsPerSecond);
    sweepWallSeconds_.record(stats.wallSeconds);
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
    // Same slot discipline as run(): the output is element-wise
    // identical to a serial solve loop at any thread count.
    obs::ScopedSpan span("engine.solve_points", "engine");
    std::vector<DesignResult> results(points.size());
    solveAll(points, results, {});
    pointBatches_.add(1);
    gridPoints_.add(points.size());
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
    // point batch (no feasible/frontier bookkeeping — only the best
    // point is wanted, so run()'s Pareto pass would be wasted), and
    // take the max-flight-time index.  Cells ascending with capacity
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
