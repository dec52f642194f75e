/**
 * @file
 * Table 4 reproduction: flight controllers, compute boards, and
 * external sensors with their weight and power specifications.
 */

#include <cstdio>

#include "components/compute_board.hh"
#include "components/sensor.hh"
#include "util/table.hh"

using namespace dronedse;

int
main()
{
    std::printf("=== Table 4: flight controllers & computation ===\n\n");

    Table boards({"name", "class", "weight (g)", "power (W)"});
    for (const auto &rec : computeBoardTable()) {
        boards.addRow({rec.name, enumName(rec.boardClass),
                       fmt(rec.weightG, 1), fmt(rec.powerW, 2)});
    }
    boards.print();

    std::printf("\n=== Table 4: external sensors ===\n\n");
    Table sensors({"name", "kind", "weight (g)", "power (W)",
                   "self-powered"});
    for (const auto &rec : sensorTable()) {
        sensors.addRow({rec.name,
                        rec.kind == SensorKind::FpvCamera ? "FPV camera"
                                                          : "LiDAR",
                        fmt(rec.weightG, 1), fmt(rec.powerW, 2),
                        rec.selfPowered ? "yes" : "no"});
    }
    sensors.print();

    std::printf("\nPaper observations: all flight controllers embed an "
                "STM32F Cortex-M inner-loop MCU;\ncompute boards span "
                "0.5-20 W, abstracted as 3 W (basic) and 20 W "
                "(advanced) chips in Section 3.\n");
    return 0;
}
