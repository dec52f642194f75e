/**
 * @file
 * Figure 10 reproduction, served by the batch sweep engine.
 *
 * Top row (a-c): total power consumption vs all-up weight for the
 * 100/450/800 mm classes with 1S/3S/6S battery families, the best
 * configuration's flight time, and the commercial validation points.
 *
 * Bottom row (d-f): computation power as % of total for 3 W and 20 W
 * chips, hovering and maneuvering.
 *
 * Each panel runs ONE engine sweep per class (the shared
 * `classSweepSpec` grid) and reads every weight bucket out of that
 * result; the old per-bucket re-sweeps become lookups into it.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "engine/engine.hh"
#include "util/table.hh"

using namespace dronedse;
using namespace dronedse::unit_literals;

namespace {

/** Feasible results of one (board, activity, cells) sub-series. */
std::vector<DesignResult>
subSeries(const engine::SweepResult &swept, const std::string &board,
          FlightActivity activity, int cells)
{
    std::vector<DesignResult> out;
    for (std::size_t i : swept.feasible) {
        const DesignResult &res = swept.points[i];
        if (res.inputs.compute.name == board &&
            res.inputs.activity == activity &&
            res.inputs.cells == cells) {
            out.push_back(res);
        }
    }
    return out;
}

void
printPowerPanel(engine::SweepEngine &eng, SizeClass cls)
{
    const auto &spec = classSpec(cls);
    std::printf("--- Figure 10 (%s): power vs weight ---\n", spec.label);

    const engine::SweepResult swept = eng.run(
        classSweepSpec(spec, {1, 3, 6}, 100.0_mah, basicChip3W()));

    Table t({"weight (g)", "1S power (W)", "3S power (W)",
             "6S power (W)"});
    // Bucket the per-cells series on the weight axis.
    const double axis_lo = spec.weightAxisLoG.value();
    const double axis_hi = spec.weightAxisHiG.value();
    const double bucket = (axis_hi - axis_lo) / 12.0;
    for (double w = axis_lo; w <= axis_hi + 1e-9; w += bucket) {
        std::vector<std::string> row{fmt(w, 0)};
        for (int cells : {1, 3, 6}) {
            const auto series =
                subSeries(swept, basicChip3W().name,
                          FlightActivity::Hovering, cells);
            std::string cell = "-";
            double best_delta = bucket / 2.0;
            for (const auto &res : series) {
                const double d =
                    std::abs(res.totalWeightG.value() - w);
                if (d < best_delta) {
                    best_delta = d;
                    cell = fmt(res.avgPowerW.value(), 0);
                }
            }
            row.push_back(cell);
        }
        t.addRow(row);
    }
    t.print();

    const DesignResult best = eng.bestConfiguration(spec, basicChip3W());
    std::printf("Best configuration: %.0f mAh %dS, %.0f g -> "
                "%.1f min flight time (paper: %.0f min)\n",
                best.inputs.capacityMah.value(), best.inputs.cells,
                best.totalWeightG.value(), best.flightTimeMin.value(),
                spec.paperBestFlightTimeMin.value());

    std::printf("Commercial validation points:\n");
    for (const auto &drone : commercialDronesInClass(cls)) {
        std::printf("  %-15s %6.0f g  implied hover %.0f W, "
                    "%.0f min\n",
                    drone.name.c_str(), drone.weightG,
                    drone.impliedHoverPowerW().value(),
                    drone.flightTimeMin);
    }
    std::printf("\n");
}

void
printFootprintPanel(engine::SweepEngine &eng, SizeClass cls)
{
    const auto &spec = classSpec(cls);
    std::printf("--- Figure 10 (%s): %% computation power ---\n",
                spec.label);

    // One grid: both chips, both activities, all battery families.
    SweepSpec grid = classSweepSpec(spec, {1, 2, 3, 4, 5, 6},
                                    100.0_mah, basicChip3W());
    grid.boards = {advancedChip20W(), basicChip3W()};
    grid.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    const engine::SweepResult swept = eng.run(grid);

    Table t({"weight (g)", "20W @hover", "20W @maneuver", "3W @hover",
             "3W @maneuver"});
    const double axis_lo = spec.weightAxisLoG.value();
    const double axis_hi = spec.weightAxisHiG.value();
    const double bucket = (axis_hi - axis_lo) / 10.0;
    for (double w = axis_lo; w <= axis_hi + 1e-9; w += bucket) {
        std::vector<std::string> row{fmt(w, 0)};
        for (const auto &board : {advancedChip20W(), basicChip3W()}) {
            for (FlightActivity act : {FlightActivity::Hovering,
                                       FlightActivity::Maneuvering}) {
                // Best (lowest-power) feasible design at this weight
                // across battery families, as in the paper's
                // procedure.
                double best_frac = -1.0, best_power = 1e18;
                for (int cells : {1, 2, 3, 4, 5, 6}) {
                    const auto series =
                        subSeries(swept, board.name, act, cells);
                    for (const auto &res : series) {
                        if (std::abs(res.totalWeightG.value() - w) <
                                bucket / 2.0 &&
                            res.avgPowerW.value() < best_power) {
                            best_power = res.avgPowerW.value();
                            best_frac = res.computePowerFraction;
                        }
                    }
                }
                row.push_back(best_frac < 0.0 ? "-"
                                              : fmtPercent(best_frac));
            }
        }
        t.addRow(row);
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("=== Figure 10: total power and computation "
                "footprint ===\n\n");
    engine::SweepEngine eng;
    for (SizeClass cls :
         {SizeClass::Small, SizeClass::Medium, SizeClass::Large})
        printPowerPanel(eng, cls);
    for (SizeClass cls :
         {SizeClass::Small, SizeClass::Medium, SizeClass::Large})
        printFootprintPanel(eng, cls);

    std::printf("Headline claims (Section 3.2):\n"
                "  - 3 W chips contribute < 5%% of total power\n"
                "  - 20 W systems drop to ~10%% when maneuvering\n"
                "  - medium/large drones: compute savings gain up to "
                "~+2 min\n");

    std::fprintf(stderr, "[engine] %d thread(s), last sweep %.0f points/s\n",
                 eng.threadCount(), eng.lastRunStats().pointsPerSecond);
    return 0;
}
