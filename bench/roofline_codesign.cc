/**
 * @file
 * Roofline calibration and co-design search over the paper mission
 * catalog.  The model is built from a fresh `calibrateHost()` run
 * (~0.6 s of uarch simulation), not from the pinned canonical fit,
 * so the CSVs are derived from the simulator end to end; the two
 * agree bit for bit while `Roofline.CanonicalCalibrationIsPinned`
 * passes.  Prints each mission's recommended board and writes two
 * figure-family CSVs:
 *
 *   roofline_boards.csv  per-board roofline plot data (peak,
 *                        bandwidth, ridge, and the five phase
 *                        points with attainable/measured/gap)
 *   codesign_table5.csv  recommended-board-vs-mission table (the
 *                        derived Table 5)
 *
 * The served search's timing is perfbench's `codesign.search_ms`.
 *
 * Usage: roofline_codesign [--csv-dir DIR]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codesign/codesign.hh"
#include "engine/engine.hh"
#include "slam/pipeline.hh"
#include "util/csv.hh"
#include "util/logging.hh"

using namespace dronedse;
using namespace dronedse::codesign;

namespace {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
}

void
writeRooflineCsv(const RooflineModel &model, const std::string &path)
{
    CsvWriter csv({"platform", "peak_ops_per_sec",
                   "bandwidth_bytes_per_sec", "ridge_ops_per_byte",
                   "phase", "intensity_ops_per_byte",
                   "attainable_ops_per_sec", "measured_ops_per_sec",
                   "memory_bound", "gap"});
    for (std::size_t p = 0;
         p < static_cast<std::size_t>(PlatformKind::NumPlatforms);
         ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        const RooflineSpec &roof = model.roofline(kind);
        for (const PhaseRooflineReport &row : model.report(kind)) {
            csv.addRow({platformSpec(kind).name,
                        num(roof.peakOpsPerSec),
                        num(roof.bandwidthBytesPerSec),
                        num(roof.ridgeOpsPerByte()),
                        slamPhaseName(row.phase),
                        num(row.intensityOpsPerByte),
                        num(row.attainableOpsPerSec),
                        num(row.measuredOpsPerSec),
                        row.memoryBound ? "1" : "0",
                        num(row.gap)});
        }
    }
    csv.write(path);
}

void
writeTable5Csv(const std::vector<CodesignOutcome> &outcomes,
               const std::string &path)
{
    CsvWriter csv({"mission", "target_rate_hz", "recommended_board",
                   "platform", "split", "flight_time_min",
                   "total_weight_g", "avg_power_w", "wheelbase_mm",
                   "cells", "capacity_mah"});
    for (const CodesignOutcome &outcome : outcomes) {
        const CodesignChoice &rec = outcome.recommended;
        if (!rec.feasible) {
            csv.addRow({outcome.mission.name,
                        num(outcome.mission.targetRateHz),
                        "infeasible", "", "", "", "", "", "", "",
                        ""});
            continue;
        }
        csv.addRow(
            {outcome.mission.name,
             num(outcome.mission.targetRateHz),
             rec.config.boardName,
             platformSpec(rec.config.platform).name,
             offloadSplitName(rec.config.split),
             num(rec.design.flightTimeMin.value()),
             num(rec.design.totalWeightG.value()),
             num(rec.design.avgPowerW.value()),
             num(rec.design.inputs.wheelbaseMm.value()),
             std::to_string(rec.design.inputs.cells),
             num(rec.design.inputs.capacityMah.value())});
    }
    csv.write(path);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string csv_dir = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv-dir") == 0 && i + 1 < argc) {
            csv_dir = argv[++i];
        } else {
            fatal(std::string("roofline_codesign: unknown argument "
                              "'") +
                  argv[i] + "' (usage: roofline_codesign "
                            "[--csv-dir DIR])");
        }
    }

    std::printf("=== Roofline calibration + co-design search ===\n"
                "\n");

    const RooflineModel model{calibrateHost().fit};
    engine::SweepEngine engine;
    const CodesignDriver driver{engine, model};
    std::vector<CodesignOutcome> outcomes;
    for (const MissionSpec &mission : paperMissionCatalog())
        outcomes.push_back(driver.run(mission));

    writeRooflineCsv(model, csv_dir + "/roofline_boards.csv");
    writeTable5Csv(outcomes, csv_dir + "/codesign_table5.csv");

    std::printf("wrote %s/roofline_boards.csv, "
                "%s/codesign_table5.csv\n",
                csv_dir.c_str(), csv_dir.c_str());
    for (const CodesignOutcome &outcome : outcomes) {
        if (outcome.recommended.feasible) {
            std::printf("  %-18s -> %s\n",
                        outcome.mission.name.c_str(),
                        outcome.recommended.config.boardName
                            .c_str());
        }
    }
    return 0;
}
