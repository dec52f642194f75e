/**
 * @file
 * Design explorer: sweep size class x battery x compute board
 * through the batch engine and print the Pareto frontier of flight
 * time vs compute capability vs all-up weight.
 *
 * Usage: design_explorer [--jobs N] [--csv PATH] [--trace PATH]
 *                        [--metrics PATH]
 *   --jobs N       worker threads for the sweep (default: hardware)
 *   --csv PATH     write every feasible design point as CSV
 *   --trace PATH   capture engine spans, write chrome://tracing JSON
 *   --metrics PATH write the obs metrics-registry snapshot as JSON
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/export.hh"
#include "dse/sweep.hh"
#include "engine/engine.hh"
#include "engine/pareto.hh"
#include "example_args.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace dronedse;
using namespace dronedse::unit_literals;

namespace {

struct Options
{
    int jobs = 0; // 0 = hardware concurrency
    std::string csvPath;
    std::string tracePath;
    std::string metricsPath;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    examples::ExampleArgs args(argc, argv, "design_explorer",
                               "[--jobs N] [--csv PATH] "
                               "[--trace PATH] [--metrics PATH]");
    while (args.next()) {
        if (args.intArg("--jobs", opts.jobs, 1))
            continue;
        if (args.stringArg("--csv", opts.csvPath))
            continue;
        if (args.stringArg("--trace", opts.tracePath))
            continue;
        if (args.stringArg("--metrics", opts.metricsPath))
            continue;
        args.unknown();
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    if (!opts.tracePath.empty())
        obs::tracer().setEnabled(true);

    std::printf("=== Design explorer: flight time vs compute ===\n\n");

    engine::SweepEngine eng{engine::EngineOptions{.threads = opts.jobs}};

    // One sweep per size class (their capacity axes differ), every
    // compute board and battery family in each.
    std::vector<DesignResult> points;
    double wall_seconds = 0.0;
    std::size_t solved = 0;
    engine::SweepStats last;
    for (SizeClass cls :
         {SizeClass::Small, SizeClass::Medium, SizeClass::Large}) {
        SweepSpec spec = classSweepSpec(classSpec(cls),
                                        {1, 2, 3, 4, 5, 6}, 500.0_mah,
                                        basicChip3W());
        spec.boards = computeBoardTable();
        const engine::SweepResult swept = eng.run(spec);
        wall_seconds += swept.stats.wallSeconds;
        solved += swept.stats.gridPoints;
        last = swept.stats;
        for (std::size_t i : swept.feasible) {
            if (withinPracticalLimits(swept.points[i], classSpec(cls)))
                points.push_back(swept.points[i]);
        }
    }

    const auto frontier = engine::paretoFrontier(points);

    Table t({"frontier design", "compute board", "compute (W)",
             "weight (g)", "flight time (min)"});
    for (std::size_t idx : frontier) {
        const DesignResult &p = points[idx];
        t.addRow({fmt(p.inputs.wheelbaseMm.value(), 0) + "mm " +
                      std::to_string(p.inputs.cells) + "S " +
                      fmt(p.inputs.capacityMah.value(), 0) + "mAh",
                  p.inputs.compute.name,
                  fmt(p.inputs.compute.powerW, 1),
                  fmt(p.totalWeightG.value(), 0),
                  fmt(p.flightTimeMin.value(), 1)});
    }
    t.print();

    std::printf("\n%zu practical designs, %zu on the frontier.\n"
                "Reading: each extra watt of onboard compute costs "
                "flight time;\nthe frontier shows the best achievable "
                "trade at every capability level.\n",
                points.size(), frontier.size());

    if (!opts.csvPath.empty()) {
        sweepToCsv(points).write(opts.csvPath);
        std::printf("\nWrote %zu design points to %s\n", points.size(),
                    opts.csvPath.c_str());
    }

    std::printf("\nEngine stats: %d thread(s), %.0f points/s\n",
                eng.threadCount(),
                wall_seconds > 0.0
                    ? static_cast<double>(solved) / wall_seconds
                    : 0.0);
    std::printf("Last sweep: %s\n", last.toJson().c_str());

    if (!opts.tracePath.empty()) {
        obs::tracer().writeChromeJson(opts.tracePath);
        std::printf("Wrote trace to %s (open in chrome://tracing)\n",
                    opts.tracePath.c_str());
    }
    if (!opts.metricsPath.empty()) {
        obs::metrics().writeJson(opts.metricsPath);
        std::printf("Wrote metrics snapshot to %s\n",
                    opts.metricsPath.c_str());
    }
    return 0;
}
