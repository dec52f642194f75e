/**
 * @file
 * Exact Pareto-frontier extraction over solved design points.
 *
 * The engine's query surface is the paper's central tradeoff: flight
 * time vs onboard compute capability vs all-up weight (Sections 3-4).
 * A design dominates another when it is at least as good on all
 * three objectives — more flight time, more compute power, less
 * weight — and strictly better on at least one.  The frontier is the
 * set of non-dominated feasible points.
 *
 * `paretoFrontier` is an O(n log n) skyline (Kung, Luccio & Preparata
 * 1975): sort the feasible points by flight time down, compute power
 * down, weight up, then sweep them against a power -> minimum-weight
 * staircase.  Its output is exactly that of testing every pair with
 * `dominates`; the pairwise loop lives on only as the test oracle
 * (`tests/engine/pareto_oracle.hh`).
 */

#ifndef DRONEDSE_ENGINE_PARETO_HH
#define DRONEDSE_ENGINE_PARETO_HH

#include <cstddef>
#include <vector>

#include "dse/design_point.hh"

namespace dronedse::engine {

/**
 * True when `a` Pareto-dominates `b` on (flight time up, compute
 * power up, all-up weight down).  Equal points do not dominate each
 * other, so duplicates all stay on the frontier.
 */
bool dominates(const DesignResult &a, const DesignResult &b);

/**
 * Indices of the non-dominated feasible points, in input order.
 * Infeasible points are never on the frontier and never dominate.
 * A feasible point with a NaN objective compares false with
 * everything, so it is on the frontier and dominates nothing.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<DesignResult> &points);

} // namespace dronedse::engine

#endif // DRONEDSE_ENGINE_PARETO_HH
