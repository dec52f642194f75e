/**
 * @file
 * Autonomous mission: the full closed loop of the paper's
 * open-source drone — EKF state estimation, the Table 2 cascaded
 * inner loop, waypoint navigation in the outer loop, wind gusts, a
 * battery draining in real time, and a SLAM pipeline digesting the
 * camera stream on the companion computer.
 *
 * Usage: autonomous_mission [--trace PATH] [--metrics PATH]
 *   --trace PATH   per-tick and SLAM-phase spans as chrome://tracing
 *                  JSON
 *   --metrics PATH obs metrics-registry snapshot as JSON
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "control/autopilot.hh"
#include "core/presets.hh"
#include "dse/weight_closure.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "physics/lipo.hh"
#include "power/board_power.hh"
#include "slam/pipeline.hh"
#include "util/logging.hh"

using namespace dronedse;

int
main(int argc, char **argv)
{
    std::string trace_path, metrics_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 &&
                   i + 1 < argc) {
            metrics_path = argv[++i];
        } else {
            fatal(std::string("autonomous_mission: unknown argument "
                              "'") +
                  argv[i] + "' (usage: autonomous_mission "
                            "[--trace PATH] [--metrics PATH])");
        }
    }
    if (!trace_path.empty())
        obs::tracer().setEnabled(true);

    std::printf("=== Autonomous mission on the open-source drone "
                "===\n\n");

    // Size the airframe from the paper's 450 mm design.
    const DesignResult design = solveDesign(ourDroneInputs());
    if (!design.feasible) {
        std::printf("design infeasible: %s\n",
                    enumName(design.infeasibleReason));
        return 1;
    }
    const QuadrotorParams airframe = QuadrotorParams::fromDesign(design);
    std::printf("airframe: %.0f g, %.1f N max thrust/motor, "
                "flight-time budget %.1f min\n\n",
                design.totalWeightG.value(), airframe.maxThrustPerMotorN,
                design.flightTimeMin.value());

    // Survey mission: a 12 m square at 3 m altitude with a yaw turn
    // at each corner, under gusty wind.
    std::vector<Waypoint> mission = {
        {{0, 0, 3}, 0.0, 0.6, 2.0},   {{12, 0, 3}, 0.0, 0.8, 1.0},
        {{12, 12, 3}, 1.57, 0.8, 1.0}, {{0, 12, 3}, 3.14, 0.8, 1.0},
        {{0, 0, 3}, 0.0, 0.8, 1.0},   {{0, 0, 0.3}, 0.0, 0.3, 1e9},
    };
    AutopilotConfig config;
    config.wind.steady = {1.5, 0.5, 0.0};
    config.wind.gustIntensity = 1.0;
    Autopilot autopilot(airframe, std::move(mission), config);

    // SLAM runs on the companion computer while the drone flies.
    const SequenceSpec &seq = findSequence("MH01");
    SyntheticWorld world(seq);
    SlamPipeline slam(world.camera());
    slam.bootstrap(world.renderFrame(0), world.renderFrame(15));
    int slam_frame = 16;
    int slam_tracked = 0;

    LipoPack pack(3, Quantity<MilliampHours>(3000.0));
    const Quantity<Watts> compute_w =
        boardStateMeanW(BoardState::AutopilotSlamFlying) +
        Quantity<Watts>(2.25);

    std::printf("t(s)  waypoint  position              est.err  "
                "power(W)  SoC    SLAM\n");
    const double mission_s = 90.0;
    for (double t = 0.0; t < mission_s; t += 1.0) {
        obs::ScopedSpan tick_span("sim.tick", "sim");
        obs::metrics().counter("sim.mission.ticks").add(1);
        autopilot.run(1.0);
        const Quantity<Watts> power =
            Quantity<Watts>(autopilot.quad().electricalPowerW()) +
            compute_w;
        pack.discharge(power, Quantity<Seconds>(1.0));

        // SLAM consumes ~20 camera frames per second of flight; we
        // process a few per printed tick to keep the example quick.
        for (int k = 0; k < 2 && slam_frame < seq.frames;
             ++k, ++slam_frame) {
            if (slam.processFrame(world.renderFrame(slam_frame))
                    .tracked) {
                ++slam_tracked;
            }
        }

        if (static_cast<long>(t) % 10 == 0) {
            const auto &pos = autopilot.quad().state().position;
            std::printf("%4.0f  %zu/6       (%5.1f %5.1f %4.1f)   "
                        "%5.2f m  %7.1f  %4.0f%%  %d kf / %zu pts\n",
                        t, autopilot.navigator().currentIndex(), pos.x,
                        pos.y, pos.z, autopilot.estimationErrorM(),
                        power.value(), 100.0 * pack.stateOfCharge(),
                        static_cast<int>(slam.map().keyframeCount()),
                        slam.map().pointCount());
        }
        if (pack.depleted()) {
            std::printf("battery reached the 85%% drain limit — "
                        "landing now\n");
            break;
        }
    }

    std::printf("\nmission waypoints reached: %zu/6\n",
                autopilot.navigator().reachedCount());
    std::printf("SLAM frames tracked: %d (map: %zu keyframes, %zu "
                "points)\n",
                slam_tracked, slam.map().keyframeCount(),
                slam.map().pointCount());
    std::printf("energy drawn: %.1f Wh of %.1f Wh\n",
                pack.drawnEnergyWh().value(), pack.totalEnergyWh().value());
    std::printf("stable flight: %s\n",
                autopilot.quad().upsideDown() ? "NO" : "yes");

    if (!trace_path.empty()) {
        obs::tracer().writeChromeJson(trace_path);
        std::printf("wrote trace to %s (open in chrome://tracing)\n",
                    trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        obs::metrics().writeJson(metrics_path);
        std::printf("wrote metrics snapshot to %s\n",
                    metrics_path.c_str());
    }
    return 0;
}
