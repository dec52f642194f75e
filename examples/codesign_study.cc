/**
 * @file
 * Automated co-design study: Table 5 as an output, not an input.
 *
 * The paper hand-assigns a compute platform per drone class and
 * then measures the flight-time consequence.  This study inverts
 * that: a mission profile goes in, the roofline-calibrated search
 * sweeps {platform x offload split x frame rate x airframe x
 * battery}, and the flight-time-optimal compute configuration comes
 * out — with the paper's board assignment (the FPGA) emerging as a
 * derived result, and the roofline gap report explaining why each
 * losing board loses.
 *
 * Usage: codesign_study [--mission NAME | --all] [--recommend]
 *                       [--jobs N] [--out FILE]
 *   --mission NAME  run one catalog mission (default: all)
 *   --all           run every catalog mission
 *   --recommend     print only the recommendation lines
 *   --jobs N        engine worker threads (result is bit-identical
 *                   at any N; that is the point)
 *   --out FILE      append each mission's canonical reply frame to
 *                   FILE, one per line, for byte-comparison runs
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codesign/codesign.hh"
#include "engine/engine.hh"
#include "example_args.hh"
#include "serve/request.hh"
#include "slam/pipeline.hh"
#include "util/logging.hh"

using namespace dronedse;
using namespace dronedse::codesign;

namespace {

void
printRoofline(const RooflineModel &model)
{
    const RooflineSpec &host = model.roofline(PlatformKind::RPi);
    std::printf("host fit: peak %.3e ops/s, bandwidth %.3e B/s, "
                "ridge %.2f ops/B\n\n",
                host.peakOpsPerSec, host.bandwidthBytesPerSec,
                host.ridgeOpsPerByte());
    for (std::size_t p = 0;
         p < static_cast<std::size_t>(PlatformKind::NumPlatforms);
         ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        const RooflineSpec &roof = model.roofline(kind);
        std::printf("%-5s peak %.2e ops/s  bw %.2e B/s  ridge "
                    "%.2f ops/B\n",
                    platformSpec(kind).name.c_str(),
                    roof.peakOpsPerSec, roof.bandwidthBytesPerSec,
                    roof.ridgeOpsPerByte());
        for (const PhaseRooflineReport &row : model.report(kind)) {
            std::printf("  %-18s I=%7.3f  attain=%.2e  "
                        "measured=%.2e  %s  gap=%.1fx\n",
                        slamPhaseName(row.phase),
                        row.intensityOpsPerByte,
                        row.attainableOpsPerSec,
                        row.measuredOpsPerSec,
                        row.memoryBound ? "MEM " : "COMP",
                        row.gap);
        }
    }
    std::printf("\n");
}

void
printChoice(const char *label, const CodesignChoice &choice)
{
    if (!choice.feasible) {
        std::printf("  %-12s (no feasible configuration)\n", label);
        return;
    }
    std::printf("  %-12s %-22s %6.2f min  %5.0f g  %6.2f W  "
                "wb=%.0fmm %dS %.0fmAh\n",
                label, choice.config.boardName.c_str(),
                choice.design.flightTimeMin.value(),
                choice.design.totalWeightG.value(),
                choice.design.avgPowerW.value(),
                choice.design.inputs.wheelbaseMm.value(),
                choice.design.inputs.cells,
                choice.design.inputs.capacityMah.value());
}

void
printOutcome(const CodesignOutcome &outcome, bool recommend_only)
{
    std::printf("== %s (target %.0f Hz, %zu configs, %zu grid "
                "points)\n",
                outcome.mission.name.c_str(),
                outcome.mission.targetRateHz, outcome.configCount,
                outcome.gridPoints);
    printChoice("RECOMMENDED", outcome.recommended);
    if (recommend_only) {
        std::printf("\n");
        return;
    }
    std::printf("  -- derived Table 5 (best per board):\n");
    for (std::size_t p = 0;
         p < static_cast<std::size_t>(PlatformKind::NumPlatforms);
         ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        const CodesignChoice &choice = outcome.perPlatform[p];
        if (choice.feasible) {
            printChoice(platformSpec(kind).name.c_str(), choice);
        } else {
            std::printf("  %-12s infeasible: sustains %.1f fps < "
                        "%.0f Hz target\n",
                        platformSpec(kind).name.c_str(),
                        outcome.bestSustainedFps[p],
                        outcome.mission.targetRateHz);
        }
    }
    std::printf("  -- best per offload split:\n");
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(OffloadSplit::NumSplits);
         ++s) {
        printChoice(
            offloadSplitName(static_cast<OffloadSplit>(s)),
            outcome.perSplit[s]);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mission_name;
    std::string out_path;
    bool recommend_only = false;
    int jobs = 2;
    examples::ExampleArgs args(argc, argv, "codesign_study",
                               "[--mission NAME | --all] "
                               "[--recommend] [--jobs N] "
                               "[--out FILE]");
    while (args.next()) {
        if (args.stringArg("--mission", mission_name))
            continue;
        if (args.flag("--all")) {
            mission_name.clear();
            continue;
        }
        if (args.flag("--recommend")) {
            recommend_only = true;
            continue;
        }
        if (args.intArg("--jobs", jobs, 1))
            continue;
        if (args.stringArg("--out", out_path))
            continue;
        args.unknown();
    }

    std::vector<MissionSpec> missions;
    for (const MissionSpec &mission : paperMissionCatalog()) {
        if (mission_name.empty() || mission.name == mission_name)
            missions.push_back(mission);
    }
    if (missions.empty()) {
        std::string known;
        for (const MissionSpec &mission : paperMissionCatalog())
            known += " " + mission.name;
        fatal("codesign_study: unknown mission '" + mission_name +
              "' (catalog:" + known + ")");
    }

    std::printf("=== Roofline + co-design study (jobs=%d) ===\n\n",
                jobs);

    engine::SweepEngine engine{
        engine::EngineOptions{.threads = jobs}};
    const CodesignDriver driver{engine};
    if (!recommend_only)
        printRoofline(driver.model());

    std::FILE *out = nullptr;
    if (!out_path.empty()) {
        out = std::fopen(out_path.c_str(), "w");
        if (!out)
            fatal("codesign_study: cannot open '" + out_path + "'");
    }

    for (std::size_t i = 0; i < missions.size(); ++i) {
        const CodesignOutcome outcome = driver.run(missions[i]);
        printOutcome(outcome, recommend_only);
        if (out) {
            const std::string frame =
                serve::serializeCodesignReply(i + 1, outcome);
            std::fprintf(out, "%s\n", frame.c_str());
        }
    }
    if (out)
        std::fclose(out);

    std::printf("the recommendation is a pure function of the "
                "mission: rerun with any --jobs count and compare "
                "--out files byte-for-byte.\n");
    return 0;
}
