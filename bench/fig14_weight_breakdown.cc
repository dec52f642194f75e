/**
 * @file
 * Figure 14 reproduction: the open-source drone's weight breakdown,
 * plus the model's closure of the same design for comparison.
 */

#include <cstdio>

#include "core/presets.hh"
#include "dse/weight_closure.hh"
#include "util/table.hh"

using namespace dronedse;

int
main()
{
    std::printf("=== Figure 14: our drone weight breakdown ===\n\n");

    Table t({"component", "weight (g)", "share"});
    for (const auto &slice : ourDroneWeightBreakdown())
        t.addRow({slice.component, fmt(slice.weightG, 0),
                  fmtPercent(slice.fraction, 0)});
    t.addRow({"TOTAL", fmt(ourDroneTotalWeightG().value(), 0), "100%"});
    t.print();

    std::printf("\nModel closure of the same design "
                "(450 mm, 3S 3000 mAh, RPi + Navio2):\n\n");
    const DesignResult res = solveDesign(ourDroneInputs());
    if (!res.feasible) {
        std::printf("INFEASIBLE: %s\n", enumName(res.infeasibleReason));
        return 1;
    }
    Table m({"component", "model (g)", "build (g)"});
    m.addRow({"Frame", fmt(res.frameWeightG.value(), 0), "272"});
    m.addRow({"Battery", fmt(res.batteryWeightG.value(), 0), "248"});
    m.addRow({"Motors (4x)", fmt(res.motorSetWeightG.value(), 0),
              "220"});
    m.addRow({"ESC (4x)", fmt(res.escSetWeightG.value(), 0), "112"});
    m.addRow({"Props (4x)", fmt(res.propSetWeightG.value(), 0), "40"});
    m.addRow({"Compute", fmt(res.inputs.compute.weightG, 0), "73"});
    m.addRow(
        {"Support/wiring",
         fmt((res.wiringWeightG + res.inputs.sensorWeightG).value(), 0),
         "106"});
    m.addRow({"TOTAL", fmt(res.totalWeightG.value(), 0), "1071"});
    m.print();

    std::printf("\nModel flight time: %.1f min "
                "(paper baseline: ~15 min)\n",
                res.flightTimeMin.value());
    return 0;
}
