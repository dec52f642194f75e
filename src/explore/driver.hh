/**
 * @file
 * AdaptiveDriver: budgeted boundary-refinement design-space search.
 *
 * One run interleaves three candidate sources over an
 * `ExploreSpace` lattice, spending a fixed evaluation budget where
 * the answers live instead of everywhere:
 *
 *   seed      — a batch from the configured `CandidateGenerator`
 *               (Sobol' by default) to locate the feasible region
 *   crawl     — lattice neighbors (within `neighborRadius` steps per
 *               axis) of every current frontier point; a frontier
 *               run discovered anywhere gets walked end to end
 *   bisect    — along each ordered axis of each frontier point,
 *               binary probes into the unevaluated gap between the
 *               outermost known-feasible and the first known-
 *               infeasible lattice position (the feasibility
 *               boundary Figure 9's "infeasible beyond here" edge
 *               traces)
 *
 * Rounds repeat — dedup, solve through the engine's batch path,
 * fold the new points into the incremental Pareto frontier —
 * until refinement produces nothing new (converged), the budget is
 * spent, or `maxRounds` is hit.  When refinement dries up with
 * budget remaining, the driver tops back up from the generator, so
 * convergence means the generator ran dry too.
 *
 * Exactness: the driver only ever materializes lattice points of
 * the space, so `Pareto(evaluated)` equals the exhaustive-grid
 * frontier exactly when the evaluated set covers the true frontier
 * (dominance is transitive; no epsilon tolerance needed).  The
 * differential battery pins this on the 450 mm reference space.
 *
 * Determinism: candidates derive from (seed, frontier state) only;
 * the engine's batch solve is element-wise thread-count-invariant;
 * dedup bookkeeping uses unordered containers for membership tests
 * exclusively (never iteration).  Hence byte-identical results at
 * any `--jobs`, pinned by the explore CSV comparison tests.
 */

#ifndef DRONEDSE_EXPLORE_DRIVER_HH
#define DRONEDSE_EXPLORE_DRIVER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "explore/sampler.hh"
#include "explore/space.hh"

namespace dronedse::explore {

/** Budget and strategy knobs of one adaptive run. */
struct ExploreOptions
{
    /** Seed-batch strategy. */
    SamplerKind sampler = SamplerKind::Sobol;
    /** Stream seed for the stochastic samplers. */
    std::uint64_t seed = 17;
    /** Size of the round-0 (and top-up) generator batches. */
    std::size_t initialSamples = 512;
    /**
     * Per-round evaluation cap during refinement.  Smaller rounds
     * re-rank candidates against the updated frontier more often —
     * the bisection probes halve a boundary gap once per round, so
     * the cap bounds how far the boundaries converge within a
     * budget, at the cost of more (cheap) refolds.
     */
    std::size_t roundEvaluations = 128;
    /** Hard cap on solver evaluations across the whole run. */
    std::size_t maxEvaluations = 4096;
    /** Hard cap on refinement rounds. */
    std::size_t maxRounds = 64;
    /** Crawl distance (lattice steps per axis) around incumbents. */
    std::size_t neighborRadius = 1;
    /** Probe the feasibility boundary along ordered axes. */
    bool bisectBoundary = true;
};

/** Instrumentation record of one refinement round. */
struct RoundStats
{
    /** Candidates proposed before dedup and budget truncation. */
    std::size_t candidates = 0;
    /** Points actually solved this round. */
    std::size_t evaluated = 0;
    /** Total points solved after this round. */
    std::size_t cumulativeEvaluations = 0;
    /** Frontier size after folding this round in. */
    std::size_t frontierSize = 0;
    /** Cumulative feasible points after this round. */
    std::size_t feasiblePoints = 0;
};

/** Everything one adaptive run produces. */
struct ExploreResult
{
    /** Every solved point, in evaluation order. */
    std::vector<DesignResult> points;
    /** Lattice index vector of each point (parallel to `points`). */
    std::vector<std::vector<std::size_t>> indices;
    /** Indices into `points` of the Pareto frontier, ascending. */
    std::vector<std::size_t> frontier;
    /** One record per refinement round. */
    std::vector<RoundStats> rounds;
    /** Full lattice size of the explored space. */
    std::size_t spacePoints = 0;
    /**
     * Index into `points` of the feasible point with the maximum
     * flight time (`engine::bestFeasibleIndex` scan);
     * `points.size()` when nothing feasible was found.
     */
    std::size_t incumbent = 0;
    /** True when refinement and the generator both ran dry. */
    bool converged = false;

    std::size_t evaluations() const { return points.size(); }
};

/** A complete explore request (the serve layer's payload). */
struct ExploreQuery
{
    ExploreSpace space;
    ExploreOptions options;
};

/**
 * The driver itself: borrows an engine and owns the refinement
 * policy.
 */
class AdaptiveDriver
{
  public:
    AdaptiveDriver(engine::SweepEngine &eng, ExploreOptions options);

    /** One budgeted adaptive run (fatal on an invalid space). */
    ExploreResult run(const ExploreSpace &space);

    const ExploreOptions &options() const { return options_; }

  private:
    engine::SweepEngine &engine_;
    ExploreOptions options_;
};

/**
 * Frontier as CSV (header + one row per frontier point, ascending
 * by evaluation index, `%.17g` values): byte-equal across runs and
 * thread counts for the same (space, options).
 */
std::string frontierCsv(const ExploreResult &result);

/** Round instrumentation as CSV (same byte-equality contract). */
std::string roundsCsv(const ExploreResult &result);

} // namespace dronedse::explore

#endif // DRONEDSE_EXPLORE_DRIVER_HH
