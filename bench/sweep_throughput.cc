/**
 * @file
 * Sweep-engine throughput bench: serial reference vs `SweepEngine`
 * at 1/2/4/8 threads on the Figure 10 footprint grids (all three
 * size classes, both chips, both activities, cells 1-6), plus a raw
 * kernel series (SoA `solveDesignBatch` vs a per-point `solveDesign`
 * loop) that measures the kernel's compute win with no engine around
 * it.
 *
 * Emits machine-readable results — points/s, speedups, a
 * serial-vs-engine CSV identity check, and the span tracer's
 * overhead on the sweep (runtime-enabled vs disabled; budget <3%) —
 * as `BENCH_sweep.json`.  Every timed series is best of 3.
 *
 * Usage: sweep_throughput [out.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/batch_solve.hh"
#include "dse/export.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "engine/engine.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"

using namespace dronedse;
using namespace dronedse::unit_literals;

namespace {

std::vector<SweepSpec>
fig10Grids()
{
    std::vector<SweepSpec> specs;
    for (SizeClass cls :
         {SizeClass::Small, SizeClass::Medium, SizeClass::Large}) {
        SweepSpec spec = classSweepSpec(classSpec(cls),
                                        {1, 2, 3, 4, 5, 6}, 100.0_mah,
                                        basicChip3W());
        spec.boards = {advancedChip20W(), basicChip3W()};
        spec.activities = {FlightActivity::Hovering,
                           FlightActivity::Maneuvering};
        specs.push_back(std::move(spec));
    }
    return specs;
}

double
now_seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Feasible-only CSV of a full solved grid (the serial contract). */
std::string
feasibleCsv(const std::vector<DesignResult> &points)
{
    std::vector<DesignResult> feasible;
    for (const auto &res : points) {
        if (res.feasible)
            feasible.push_back(res);
    }
    return sweepToCsv(feasible).str();
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";
    constexpr int kReps = 3;
    const std::vector<SweepSpec> specs = fig10Grids();

    std::size_t grid_points = 0;
    for (const auto &spec : specs)
        grid_points += spec.pointCount();
    std::printf("=== Sweep engine throughput (Fig 10 grids, %zu "
                "points, best of %d) ===\n\n",
                grid_points, kReps);

    // Serial reference: plain solveDesign over the expanded grids.
    const auto serial_start = std::chrono::steady_clock::now();
    std::string serial_csv;
    for (const auto &spec : specs)
        serial_csv += feasibleCsv(runSweepSerial(spec));
    const double serial_seconds = now_seconds_since(serial_start);
    const double serial_pps =
        static_cast<double>(grid_points) / serial_seconds;
    std::printf("serial          %8.3f s   %9.0f points/s\n",
                serial_seconds, serial_pps);

    std::string json = "{\"bench\": \"sweep_throughput\"";
    json += ", \"grid_points\": " + std::to_string(grid_points);
    json += ", \"reps\": " + std::to_string(kReps);
    json += ", \"serial\": {\"wall_seconds\": " + num(serial_seconds);
    json += ", \"points_per_second\": " + num(serial_pps) + "}";
    json += ", \"engine\": [";

    bool first = true;
    for (int threads : {1, 2, 4, 8}) {
        engine::SweepEngine eng{
            engine::EngineOptions{.threads = threads}};

        // Time only the sweeps; CSV formatting would otherwise swamp
        // the solver.  Every rep is a real solve.
        double seconds = 1e300;
        std::string engine_csv;
        for (int rep = 0; rep < kReps; ++rep) {
            std::vector<engine::SweepResult> runs;
            const auto start = std::chrono::steady_clock::now();
            for (const auto &spec : specs)
                runs.push_back(eng.run(spec));
            seconds = std::min(seconds, now_seconds_since(start));
            engine_csv.clear();
            for (const auto &run : runs)
                engine_csv += feasibleCsv(run.points);
        }

        const bool identical = engine_csv == serial_csv;
        const double pps = static_cast<double>(grid_points) / seconds;
        std::printf("engine %2d thr   %8.3f s   %9.0f points/s   "
                    "csv %s\n",
                    threads, seconds, pps,
                    identical ? "identical" : "DIVERGED");

        if (!first)
            json += ", ";
        first = false;
        json += "{\"threads\": " + std::to_string(threads);
        json += ", \"wall_seconds\": " + num(seconds);
        json += ", \"points_per_second\": " + num(pps);
        json += ", \"speedup_vs_serial\": " +
                num(serial_seconds / seconds);
        json += ", \"csv_identical\": ";
        json += identical ? "true" : "false";
        json += "}";
    }
    json += "]";

    // Raw kernel series: a `solveDesign` loop vs `solveDesignBatch`
    // over the same flat point list, single-threaded, so the number
    // is the SoA kernel's compute win and nothing else.
    {
        std::vector<DesignInputs> flat_grid;
        for (const auto &spec : specs) {
            const std::vector<DesignInputs> grid = expandGrid(spec);
            flat_grid.insert(flat_grid.end(), grid.begin(),
                             grid.end());
        }
        std::vector<DesignResult> flat_out(flat_grid.size());
        double raw_scalar = 1e300, raw_batch = 1e300;
        for (int rep = 0; rep < kReps; ++rep) {
            auto start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < flat_grid.size(); ++i)
                flat_out[i] = solveDesign(flat_grid[i]);
            raw_scalar =
                std::min(raw_scalar, now_seconds_since(start));
            start = std::chrono::steady_clock::now();
            solveDesignBatch(
                std::span<const DesignInputs>(flat_grid),
                std::span<DesignResult>(flat_out));
            raw_batch = std::min(raw_batch, now_seconds_since(start));
        }
        const double raw_scalar_pps =
            static_cast<double>(flat_grid.size()) / raw_scalar;
        const double raw_batch_pps =
            static_cast<double>(flat_grid.size()) / raw_batch;
        std::printf("\nraw kernel      scalar %9.0f points/s   "
                    "batch %9.0f points/s   speedup %.2fx\n",
                    raw_scalar_pps, raw_batch_pps,
                    raw_scalar / raw_batch);
        json += ", \"raw_kernel\": {\"scalar_points_per_second\": " +
                num(raw_scalar_pps);
        json +=
            ", \"batch_points_per_second\": " + num(raw_batch_pps);
        json += ", \"batch_speedup\": " +
                num(raw_scalar / raw_batch) + "}";
    }

    // Tracer overhead on the Fig 10 sweep: passes on a fresh engine,
    // best-of-N to shave scheduler noise, tracer runtime-off vs
    // runtime-on.  The
    // compiled-out configuration (-DDRONEDSE_TRACING=OFF) is proven
    // by the CI `obs` job; a single binary can only compare runtime
    // states.
    constexpr int kOverheadReps = 5;
    constexpr int kOverheadThreads = 4;
    const auto sweep_seconds = [&specs] {
        engine::SweepEngine eng{
            engine::EngineOptions{.threads = kOverheadThreads}};
        const auto start = std::chrono::steady_clock::now();
        for (const auto &spec : specs)
            eng.run(spec);
        return now_seconds_since(start);
    };
    double off_seconds = 1e300, on_seconds = 1e300;
    std::size_t spans_recorded = 0;
    obs::tracer().setEnabled(false);
    for (int rep = 0; rep < kOverheadReps; ++rep)
        off_seconds = std::min(off_seconds, sweep_seconds());
    obs::tracer().setEnabled(true);
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        obs::tracer().clear();
        on_seconds = std::min(on_seconds, sweep_seconds());
        spans_recorded = obs::tracer().snapshot().size();
    }
    obs::tracer().setEnabled(false);
    obs::tracer().clear();
    const double overhead_pct =
        off_seconds > 0.0
            ? 100.0 * (on_seconds - off_seconds) / off_seconds
            : 0.0;
    const bool compiled_in = DRONEDSE_TRACING != 0;
    std::printf("\ntracer overhead (%d thr, best of %d): off %.3f s, "
                "on %.3f s -> %+.2f%% (%zu spans, budget <3%%)\n",
                kOverheadThreads, kOverheadReps, off_seconds,
                on_seconds, overhead_pct, spans_recorded);

    json += ", \"tracing\": {\"compiled_in\": ";
    json += compiled_in ? "true" : "false";
    json += ", \"threads\": " + std::to_string(kOverheadThreads);
    json += ", \"disabled_wall_seconds\": " + num(off_seconds);
    json += ", \"enabled_wall_seconds\": " + num(on_seconds);
    json += ", \"overhead_pct\": " + num(overhead_pct);
    json += ", \"spans_recorded\": " + std::to_string(spans_recorded);
    json += ", \"budget_pct\": 3}";
    json += "}\n";

    std::ofstream out(out_path);
    if (!out)
        fatal("sweep_throughput: cannot write " + out_path);
    out << json;
    out.close();
    std::printf("\nWrote %s\n", out_path.c_str());
    return 0;
}
