/**
 * @file
 * Instrumentation of one engine sweep: throughput and per-thread
 * utilization, with a JSON dump (`design_explorer` prints it for its
 * last sweep).
 *
 * Header-only on purpose: the fields are the raw counters the pool
 * already maintains; this file only names and serializes them.
 */

#ifndef DRONEDSE_ENGINE_STATS_HH
#define DRONEDSE_ENGINE_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "engine/thread_pool.hh"
#include "util/json.hh"

namespace dronedse::engine {

/** Everything measured about one `SweepEngine::run`. */
struct SweepStats
{
    /** Grid points in the spec (feasible or not). */
    std::size_t gridPoints = 0;
    /** Points that solved to a feasible design. */
    std::size_t feasiblePoints = 0;
    /** Points on the Pareto frontier. */
    std::size_t frontierPoints = 0;
    /** Wall-clock time of the sweep as its caller saw it, seconds. */
    double wallSeconds = 0.0;
    /** Grid points per wall-clock second. */
    double pointsPerSecond = 0.0;
    /** Worker count (caller included). */
    int threads = 1;
    /** Per-worker accounting of the sweep's own pool job. */
    std::vector<WorkerStats> perThread;

    /** Fraction of wall time worker `i` spent solving points. */
    double utilization(std::size_t i) const
    {
        if (i >= perThread.size() || wallSeconds <= 0.0)
            return 0.0;
        return perThread[i].busySeconds / wallSeconds;
    }

    /** One JSON object, schema documented in DESIGN.md §9. */
    std::string toJson() const
    {
        const auto num = [](double v) { return jsonNumber(v, 6); };
        std::string out = "{";
        out += "\"grid_points\": " + std::to_string(gridPoints);
        out += ", \"feasible_points\": " +
               std::to_string(feasiblePoints);
        out += ", \"frontier_points\": " +
               std::to_string(frontierPoints);
        out += ", \"wall_seconds\": " + num(wallSeconds);
        out += ", \"points_per_second\": " + num(pointsPerSecond);
        out += ", \"threads\": " + std::to_string(threads);
        out += ", \"per_thread\": [";
        for (std::size_t i = 0; i < perThread.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += "{\"items\": " +
                   std::to_string(perThread[i].itemsProcessed);
            out += ", \"busy_seconds\": " +
                   num(perThread[i].busySeconds);
            out += ", \"utilization\": " + num(utilization(i)) + "}";
        }
        out += "]}";
        return out;
    }
};

} // namespace dronedse::engine

#endif // DRONEDSE_ENGINE_STATS_HH
