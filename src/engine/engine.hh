/**
 * @file
 * SweepEngine: the batch query API over the DSE model.
 *
 * Submit a `SweepSpec` (axis ranges, see dse/sweep.hh), get back a
 * `SweepResult`: every grid point solved, the feasible envelope, and
 * the exact Pareto frontier of flight time vs compute capability vs
 * all-up weight, plus a `SweepStats` instrumentation record.
 *
 * Determinism contract: `run(spec).points` is element-wise identical
 * to `runSweepSerial(spec)` at any thread count.  This holds because
 * (1) both paths expand the identical `expandGrid` point sequence,
 * (2) each worker writes its result into the slots of the range it
 * was handed, and (3) `solveDesign` is pure, and the kernel is
 * partition-invariant: `solveDesignBatch` over any split of a point
 * list is byte-identical to `solveDesign` on each point.
 */

#ifndef DRONEDSE_ENGINE_ENGINE_HH
#define DRONEDSE_ENGINE_ENGINE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dse/sweep.hh"
#include "engine/stats.hh"
#include "engine/thread_pool.hh"
#include "obs/metrics.hh"

namespace dronedse::engine {

/** Tuning knobs of one engine instance. */
struct EngineOptions
{
    /** Worker count, caller included; 0 = hardware concurrency. */
    int threads = 0;
};

/**
 * Solve counters in the shape of a cache's hit/miss counters.  The
 * engine has no cache; these stay only because the repository
 * benchmark (`perfbench/`) reads them to compute a hit ratio.
 * `hits` and `evictions` are always 0 and `misses` is the number of
 * points this engine has solved, so that ratio is a true, finite 0.
 */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/** Everything `run` produces for one spec. */
struct SweepResult
{
    /** One solved result per grid point, in `expandGrid` order. */
    std::vector<DesignResult> points;
    /** Indices into `points` of the feasible envelope, ascending. */
    std::vector<std::size_t> feasible;
    /** Indices into `points` of the Pareto frontier, ascending. */
    std::vector<std::size_t> frontier;
    /** Throughput / utilization record of this run. */
    SweepStats stats;

    /** The feasible results only, in grid order (the serial
     *  `sweepCapacity` contract). */
    std::vector<DesignResult> feasibleSeries() const;
};

/**
 * The engine: a thread pool that hands each chunk of a point list to
 * the SoA batch kernel (`solveDesignBatch`), reusable across many
 * sweeps.
 *
 * Thread-safe for concurrent `solve`, `run` and `solvePoints` calls,
 * so server workers each run their own request from many threads.
 * Each call is its own pool job, so concurrent callers' solves
 * overlap and share the pool's workers; the engine holds no lock.
 */
class SweepEngine
{
  public:
    /**
     * Called once per solved chunk with the grid index of its first
     * point and its results, on the pool worker that solved it, right
     * after the solve.  Chunks arrive in no particular order and
     * concurrently; together they cover the grid exactly once.
     */
    using ChunkSink = std::function<void(
        std::size_t first, std::span<const DesignResult> results)>;

    explicit SweepEngine(EngineOptions options = {});

    /**
     * Solve a whole spec; see the determinism contract above.  A
     * non-empty `sink` sees every chunk's results while the pool is
     * still solving the rest, so per-point work that needs only its
     * own result (a reply's row bytes) runs in parallel with the
     * solve.
     */
    SweepResult run(const SweepSpec &spec, const ChunkSink &sink = {});

    /** Single-point solve: exactly `solveDesign(inputs)`. */
    DesignResult solve(const DesignInputs &inputs);

    /**
     * Batched solve of an explicit point list (no grid expansion,
     * no frontier pass): `out[i] == solve(points[i])` element-wise,
     * at any thread count.  This is the adaptive explorer's inner
     * loop — each refinement round hands the engine whatever point
     * set it decided to evaluate.
     */
    std::vector<DesignResult>
    solvePoints(std::span<const DesignInputs> points);

    /**
     * Engine-backed best configuration of a size class: max flight
     * time over cells {1..6} x capacity within the practical
     * envelope.  Identical scan order (and therefore identical
     * tie-breaking) to the serial `bestConfiguration`.
     */
    DesignResult bestConfiguration(
        const SizeClassSpec &spec, const ComputeBoardRecord &compute,
        Quantity<MilliampHours> step = Quantity<MilliampHours>(250.0),
        double twr = 2.0);

    int threadCount() const { return pool_.threadCount(); }

    /** Lifetime solve count; see `CacheCounters`. */
    CacheCounters cacheCounters() const
    {
        return CacheCounters{
            .misses = solved_.load(std::memory_order_relaxed)};
    }

  private:
    /** Solve `inputs` into `results` chunk-wise on the pool, hand
     *  each chunk to `sink` when set, and return the job's
     *  per-worker stats. */
    std::vector<WorkerStats>
    solveAll(std::span<const DesignInputs> inputs,
             std::span<DesignResult> results, const ChunkSink &sink);

    ThreadPool pool_;
    /** Points solved by this engine, across all entry points. */
    std::atomic<std::uint64_t> solved_{0};

    // Registry instruments, resolved once at construction.
    obs::Counter &sweeps_;
    obs::Counter &gridPoints_;
    obs::Counter &feasiblePoints_;
    obs::Counter &frontierPoints_;
    obs::Counter &pointBatches_;
    obs::Gauge &pointsPerSecond_;
    obs::Histogram &sweepWallSeconds_;
};

/**
 * The best-configuration scan as a free function over an already
 * solved point list: index of the feasible result with the maximum
 * flight time, optionally restricted to a size class's practical
 * envelope.  Scan order is input order and only a *strictly*
 * greater flight time displaces the incumbent, so running it over
 * an `expandGrid` sequence reproduces the serial search's
 * tie-breaking exactly.  Returns `points.size()` when nothing
 * qualifies.
 */
std::size_t
bestFeasibleIndex(std::span<const DesignResult> points,
                  const SizeClassSpec *practical = nullptr);

} // namespace dronedse::engine

#endif // DRONEDSE_ENGINE_ENGINE_HH
