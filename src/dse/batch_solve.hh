/**
 * @file
 * Structure-of-arrays batch evaluation of the design-point solver.
 *
 * `solveDesign` resolves one design at a time: the Equations 1-2
 * weight closure iterates motor matching to a fixed point, and every
 * iteration of the scalar loop re-derives the matched motor record
 * through the typed propulsion model.  Sweeps solve thousands of
 * independent designs, so the batch kernel turns the loop inside
 * out: designs are laid out in structure-of-arrays form across a
 * lane-width block, the fixed-point iteration becomes the *outer*
 * loop, and the inner loop walks the lanes with plain double
 * arithmetic the compiler can auto-vectorize.  Converged, diverged,
 * and invalid lanes drop out of the iteration via a per-lane active
 * mask; the motor record is materialized once per design, after
 * convergence.  Setup and finish are the scalar path's own
 * `setupClosure` and `finishClosure` (weight_closure.hh).
 *
 * The survey fits are read per lane: the grid overload solves every
 * lane under `SurveyModel::paper()`, the Monte-Carlo overload solves
 * one point under a different perturbed model in every lane.  Both
 * run the same block loop.
 *
 * Bit-exactness contract: for every input, the batch result is
 * byte-identical to `solveDesign(x, model)` — same doubles, same
 * feasibility verdicts.  The lane loop replays the scalar loop's
 * exact IEEE operation sequence (same association, divisions kept
 * as divisions, conversion factors taken from the same `Quantity`
 * machinery), which is bit-preserving because the build never
 * enables -ffast-math or FMA contraction.  The scalar
 * `closeWeightLoop` is the oracle; `tests/dse/test_batch_differential.cc`
 * holds the two paths together over reference grids, random clouds,
 * and bisected feasibility boundaries (DESIGN.md §15).
 */

#ifndef DRONEDSE_DSE_BATCH_SOLVE_HH
#define DRONEDSE_DSE_BATCH_SOLVE_HH

#include <cstddef>
#include <span>
#include <vector>

#include "dse/design_point.hh"
#include "dse/weight_closure.hh"

namespace dronedse {

/**
 * Designs iterated together per block.  Eight doubles fill two AVX2
 * registers (or four SSE2 ones); the mask bookkeeping is amortized
 * across the block either way, and the value is deliberately *not*
 * part of the results contract — any blocking of the same inputs
 * produces identical bytes (asserted by the partitioning property
 * tests).
 */
inline constexpr std::size_t kBatchLaneWidth = 8;

/**
 * Solve `inputs.size()` independent design points into `results`
 * (spans must be equal length; `results[i]` corresponds to
 * `inputs[i]`).  Byte-identical to calling `solveDesign` on each
 * element; see the file comment for the contract.
 */
void solveDesignBatch(std::span<const DesignInputs> inputs,
                      std::span<DesignResult> results);

/**
 * Solve one design point under `models.size()` survey-fit sets, one
 * per lane, into `results` (spans must be equal length).
 * Byte-identical to `solveDesign(point, models[i])` for every `i`;
 * the Monte-Carlo samples of `propagateUncertainty` run here.
 */
void solveDesignBatch(const DesignInputs &point,
                      std::span<const SurveyModel> models,
                      std::span<DesignResult> results);

/** Convenience overload returning a freshly allocated vector. */
std::vector<DesignResult>
solveDesignBatch(std::span<const DesignInputs> inputs);

} // namespace dronedse

#endif // DRONEDSE_DSE_BATCH_SOLVE_HH
