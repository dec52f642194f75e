/**
 * @file
 * The pairwise Pareto oracle: point i is on the frontier iff it is
 * feasible and no other point `dominates` it.  O(n^2) on purpose —
 * it is the definition, kept only here so tests can hold the
 * skyline `engine::paretoFrontier` to it.  Also the point-cloud
 * helpers the frontier tests share.
 */

#ifndef DRONEDSE_TESTS_ENGINE_PARETO_ORACLE_HH
#define DRONEDSE_TESTS_ENGINE_PARETO_ORACLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/pareto.hh"
#include "util/rng.hh"

namespace dronedse::pareto_oracle {

inline std::vector<std::size_t>
pairwiseFrontier(const std::vector<DesignResult> &points)
{
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].feasible)
            continue;
        bool dominated = false;
        for (std::size_t j = 0; j < points.size() && !dominated; ++j)
            dominated = j != i && engine::dominates(points[j], points[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

/** A result carrying only the three objectives and the flag. */
inline DesignResult
point(double flight_min, double compute_w, double weight_g,
      bool feasible = true)
{
    DesignResult res;
    res.feasible = feasible;
    res.flightTimeMin = Quantity<Minutes>(flight_min);
    res.computePowerW = Quantity<Watts>(compute_w);
    res.totalWeightG = Quantity<Grams>(weight_g);
    return res;
}

/**
 * A random cloud exercising the frontier's edge cases: coarse grids
 * (many exact ties per axis), zeros of either sign, exact
 * duplicates, and a sprinkling of infeasible points that must never
 * appear or dominate.
 */
inline std::vector<DesignResult>
tieCloud(Rng &rng, std::size_t n)
{
    // Snap to a coarse grid so equal coordinates are common; a zero
    // comes out as -0.0 half the time.
    const auto coord = [&rng](std::int64_t hi, double scale) {
        const double v = scale * static_cast<double>(rng.uniformInt(0, hi));
        return v == 0.0 && rng.bernoulli(0.5) ? -0.0 : v;
    };
    std::vector<DesignResult> cloud;
    cloud.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!cloud.empty() && rng.bernoulli(0.1)) {
            cloud.push_back(cloud[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      cloud.size() - 1)))]);
            continue;
        }
        const double flight = coord(40, 1.0);
        const double power = coord(40, 0.5);
        const double weight = coord(40, 50.0);
        cloud.push_back(
            point(flight, power, weight, !rng.bernoulli(0.15)));
    }
    return cloud;
}

} // namespace dronedse::pareto_oracle

#endif // DRONEDSE_TESTS_ENGINE_PARETO_ORACLE_HH
