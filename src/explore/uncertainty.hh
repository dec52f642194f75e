/**
 * @file
 * Uncertainty propagation through the component-survey fits.
 *
 * The solver's weight models are least-squares lines fitted to the
 * paper's component surveys (Figures 7-8).  Those coefficients are
 * estimates: refitting against a resampled catalog moves them, and
 * the movement propagates through the weight closure into flight
 * time.  This module makes that propagation explicit:
 *
 *   `SurveyModel`        — the full fit-coefficient set the solver
 *                          consumes (battery per cell count, ESC per
 *                          class, frame); `paper()` is the published
 *                          one
 *   `FitScatter`         — per-coefficient standard deviations,
 *                          derived by refitting `replicates`
 *                          independently seeded synthetic catalogs
 *                          and measuring the recovered spread
 *   `solveDesignModel`   — `solveDesign` with the fit coefficients
 *                          as an argument; with `SurveyModel::paper()`
 *                          it is bit-identical to `solveDesign`
 *                          (differential-tested)
 *   `propagateUncertainty` — Monte-Carlo over perturbed models: one
 *                          solve per sampled coefficient set, flight
 *                          time and all-up weight collected into
 *                          exact ECDFs (feasible samples only; the
 *                          feasible fraction is reported separately)
 *
 * Determinism: a fresh seeded `Rng` per call with a fixed draw
 * order, so results are byte-stable and — because every design sees
 * the same perturbation stream (common random numbers) — per-design
 * comparisons are paired, not confounded by sampling noise.
 */

#ifndef DRONEDSE_EXPLORE_UNCERTAINTY_HH
#define DRONEDSE_EXPLORE_UNCERTAINTY_HH

#include <array>
#include <cstdint>
#include <string>

#include "dse/design_point.hh"
#include "util/ecdf.hh"
#include "util/regression.hh"
#include "util/rng.hh"

namespace dronedse::explore {

/** Every survey-fit coefficient the design solver consumes. */
struct SurveyModel
{
    /** Capacity -> pack weight, indexed by cells - 1 (Figure 7). */
    std::array<LinearFit, 6> batteryFits;
    /** Current -> 4x-ESC weight, indexed by EscClass (Figure 8a). */
    std::array<LinearFit, 2> escFits;
    /** Wheelbase -> frame weight above 200 mm (Figure 8b). */
    LinearFit frameFit;

    /** The published coefficient set. */
    static SurveyModel paper();
};

/** Standard deviation of each fit coefficient under refitting. */
struct FitScatter
{
    std::array<double, 6> batterySlopeSd{};
    std::array<double, 6> batteryInterceptSd{};
    std::array<double, 2> escSlopeSd{};
    std::array<double, 2> escInterceptSd{};
    double frameSlopeSd = 0.0;
    double frameInterceptSd = 0.0;

    /**
     * Derive the scatter empirically: synthesize `replicates`
     * independently seeded component catalogs (the same generators
     * the survey pipeline tests use), refit every line, and take
     * the sample standard deviation of each recovered coefficient.
     */
    static FitScatter fromCatalogs(std::uint64_t seed,
                                   int replicates = 64);
};

/**
 * One Monte-Carlo draw: every coefficient perturbed independently by
 * a Gaussian of its scatter, in a fixed order (battery 1S..6S, ESC
 * short/long, frame; slope before intercept) so a shared `Rng`
 * yields a reproducible model stream.
 */
SurveyModel perturbSurveyModel(const SurveyModel &base,
                               const FitScatter &scatter, Rng &rng);

/**
 * `solveDesign` with the survey fits supplied by the caller instead
 * of baked in.  `solveDesignModel(x, SurveyModel::paper())` is
 * bit-identical to `solveDesign(x)` for every input (the
 * differential battery sweeps whole grids to pin this), so the
 * nominal path and the perturbed path cannot drift apart.
 */
DesignResult solveDesignModel(const DesignInputs &inputs,
                              const SurveyModel &model);

/** Monte-Carlo configuration of one propagation run. */
struct UncertaintyOptions
{
    /** Seed of both the scatter derivation and the MC draws. */
    std::uint64_t seed = 17;
    /** Number of perturbed-model solves. */
    std::size_t samples = 256;
    /** Catalog replicates behind `FitScatter::fromCatalogs`. */
    int scatterReplicates = 64;
};

/**
 * At least one sample and two scatter replicates (a standard
 * deviation needs two).  Returns "" when valid, else the violation.
 */
std::string
validateUncertaintyOptions(const UncertaintyOptions &options);

/** Distributional outputs of one design point. */
struct UncertaintyResult
{
    /** The unperturbed solve. */
    DesignResult nominal;
    /** Total Monte-Carlo samples drawn. */
    std::size_t samples = 0;
    /** Samples whose perturbed closure stayed feasible. */
    std::size_t feasibleSamples = 0;
    /** Flight-time ECDF over feasible samples (may be empty). */
    Ecdf flightTimeMin;
    /** All-up-weight ECDF over feasible samples (may be empty). */
    Ecdf totalWeightG;

    double feasibleFraction() const
    {
        return samples == 0 ? 0.0
                            : static_cast<double>(feasibleSamples) /
                                  static_cast<double>(samples);
    }
};

/**
 * Propagate survey-fit uncertainty through one design point.  The
 * two-argument form derives the scatter itself; the three-argument
 * form reuses a precomputed one (the risk query path derives it
 * once per batch).
 */
UncertaintyResult
propagateUncertainty(const DesignInputs &point,
                     const UncertaintyOptions &options);
UncertaintyResult
propagateUncertainty(const DesignInputs &point,
                     const UncertaintyOptions &options,
                     const FitScatter &scatter);

} // namespace dronedse::explore

#endif // DRONEDSE_EXPLORE_UNCERTAINTY_HH
