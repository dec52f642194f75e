#include "fault/mission.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "control/autopilot.hh"
#include "control/scheduler.hh"
#include "engine/thread_pool.hh"
#include "fault/injector.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "physics/lipo.hh"
#include "platform/offload.hh"
#include "power/board_power.hh"
#include "util/logging.hh"

namespace dronedse::fault {

namespace {

/**
 * Companion-computer outer-loop task model (simulated costs, s).
 * The SLAM costs jump when the link drops and the pipeline falls
 * back onboard — the paper's Table 5 offload benefit, inverted.
 */
constexpr double kNavRateHz = 10.0;
constexpr double kNavShedRateHz = 5.0;
constexpr double kNavCostS = 0.005;
constexpr double kFrontendRateHz = 10.0;
constexpr double kFrontendShedRateHz = 4.0;
constexpr double kFrontendOffloadedCostS = 0.012;
constexpr double kFrontendOnboardCostS = 0.045;
constexpr double kBackendRateHz = 1.0;
constexpr double kBackendOffloadedCostS = 0.020;
constexpr double kBackendOnboardCostS = 0.250;

/** Radio/compression overhead added to the board power (W). */
constexpr double kOffloadRadioW = 1.5;
constexpr double kOnboardExtraW = 2.25;

/** Outer-loop tick (s): injector/policy/scheduler cadence. */
constexpr double kTickS = 0.1;
/** Touchdown above this speed is a crash, not a landing (m/s). */
constexpr double kCrashImpactSpeedMps = 1.8;
static_assert(kTickS > 0.0);

/** Survey square: kWaypointGoal legs, then descend home and hold. */
std::vector<Waypoint>
surveyMission()
{
    return {
        {{0, 0, 3}, 0.0, 0.6, 1.0},  {{8, 0, 3}, 0.0, 0.8, 0.5},
        {{8, 8, 3}, 1.57, 0.8, 0.5}, {{0, 8, 3}, 3.14, 0.8, 0.5},
        {{0, 0, 3}, 0.0, 0.8, 0.5},  {{0, 0, 0.3}, 0.0, 0.3, 1e9},
    };
}

} // namespace

MissionReport
runResilienceMission(const FaultScenario &scenario,
                     const ResilienceConfig &config)
{
    if (config.durationS <= 0.0)
        fatal("runResilienceMission: duration must be > 0");

    obs::ScopedSpan mission_span("fault.mission", "fault");
    // Each handle is registered at its first bump, as the per-call
    // lookups did; later bumps skip the registry mutex.
    static obs::Counter &runs = obs::metrics().counter("fault.mission.runs");
    runs.add(1);

    MissionReport report;
    report.scenario = scenario.name;
    report.policyEnabled = config.policyEnabled;

    const FaultInjector injector(scenario);
    std::size_t fault_cursor = 0;
    DegradationPolicy policy;

    AutopilotConfig ap_config;
    ap_config.seed = config.seed;
    ap_config.wind.steady = {1.5, 0.5, 0.0};
    ap_config.wind.gustIntensity = 1.0;
    Autopilot autopilot(QuadrotorParams{}, surveyMission(), ap_config);

    // The companion computer's outer loop: navigation planning plus
    // the SLAM stages.  The fn bodies are empty — the scheduler is a
    // timing model here; the real work happens in the autopilot.
    RateScheduler sched;
    sched.addTask("outer.nav", kNavRateHz, kNavCostS, [](double) {});
    sched.addTask("outer.slam_frontend", kFrontendRateHz,
                  kFrontendOffloadedCostS, [](double) {});
    sched.addTask("outer.slam_backend", kBackendRateHz,
                  kBackendOffloadedCostS, [](double) {});

    OffloadLink link;
    // What the software believes about the link.  Losing the link
    // is noticed immediately (an offload RPC fails); regaining it is
    // only noticed by a retry probe, which the policy rate-limits
    // with exponential backoff.  Without the policy the stack just
    // re-probes every tick.
    bool link_observed_up = true;

    LipoPack pack(3, Quantity<MilliampHours>(3000.0));

    double track_err_sum = 0.0;
    long track_err_n = 0;
    const long ticks = std::lround(config.durationS / kTickS);
    double t = 0.0;

    for (long k = 0; k < ticks; ++k) {
        // --- Inject this tick's faults. ------------------------------
        const FaultSnapshot &faults = injector.snapshot(t, fault_cursor);
        autopilot.sensors().setGpsAvailable(!faults.gpsOut);
        autopilot.sensors().setNoiseScale(faults.imuNoise);
        for (int m = 0; m < 4; ++m)
            autopilot.quad().failMotor(m,
                                       injector.motorEffectiveness(m, t));
        link.setDown(faults.linkDown);
        link.setLatencySpikeMs(faults.latencyMs);
        sched.setCostScale(faults.costScale);

        // --- Notice link loss; maybe probe for recovery. -------------
        if (link_observed_up && !link.usable()) {
            link_observed_up = false;
            static obs::Counter &outages =
                obs::metrics().counter("fault.link.outages");
            outages.add(1);
        }
        if (!link_observed_up) {
            if (config.policyEnabled) {
                if (policy.offloadRetryDue(t)) {
                    const bool ok = link.attempt();
                    policy.onRetryResult(t, ok);
                    if (ok)
                        link_observed_up = true;
                }
            } else if (link.attempt()) {
                link_observed_up = true;
            }
        }

        // --- Let the policy read health and pick a mode. -------------
        FlightMode mode = FlightMode::Nominal;
        if (config.policyEnabled) {
            HealthSnapshot health;
            health.t = t;
            health.linkUp = link_observed_up;
            health.gpsAvailable = autopilot.sensors().gpsAvailable();
            health.deadlineMisses = sched.totalDeadlineMisses();
            health.estErrM = autopilot.estimationErrorM();
            health.stateOfCharge = pack.stateOfCharge();
            double min_eff = 1.0;
            for (int m = 0; m < 4; ++m)
                min_eff = std::min(min_eff,
                                   autopilot.quad().motorEffectiveness(m));
            health.minMotorEffectiveness = min_eff;
            mode = policy.update(health);
        }

        // --- Apply the mode to the stack. ----------------------------
        const bool onboard_slam = !link_observed_up;
        sched.setTaskCost("outer.slam_frontend",
                          onboard_slam ? kFrontendOnboardCostS
                                       : kFrontendOffloadedCostS);
        sched.setTaskCost("outer.slam_backend",
                          onboard_slam ? kBackendOnboardCostS
                                       : kBackendOffloadedCostS);
        const bool shed = mode == FlightMode::RateShed ||
                          mode == FlightMode::LandSafe;
        sched.setTaskRate("outer.nav",
                          shed ? kNavShedRateHz : kNavRateHz);
        sched.setTaskRate("outer.slam_frontend",
                          shed ? kFrontendShedRateHz : kFrontendRateHz);
        if (mode == FlightMode::LandSafe)
            autopilot.commandLandSafe();

        // --- Fly one tick. -------------------------------------------
        autopilot.run(kTickS);
        t = (k + 1) * kTickS;
        sched.advanceTo(t);

        // --- Drain the battery. --------------------------------------
        const Quantity<Watts> board_w =
            onboard_slam
                ? boardStateMeanW(BoardState::AutopilotSlamFlying) +
                      Quantity<Watts>(kOnboardExtraW)
                : boardStateMeanW(BoardState::Autopilot) +
                      Quantity<Watts>(kOffloadRadioW);
        pack.discharge(Quantity<Watts>(
                           autopilot.quad().electricalPowerW()) +
                           board_w,
                       Quantity<Seconds>(kTickS));

        // --- Bookkeeping. --------------------------------------------
        report.maxEstErrM =
            std::max(report.maxEstErrM, autopilot.estimationErrorM());
        if (!autopilot.log().empty()) {
            const FlightSample &s = autopilot.log().back();
            const Vec3 err = {s.position.x - s.target.x,
                              s.position.y - s.target.y,
                              s.position.z - s.target.z};
            const double track_err = std::sqrt(
                err.x * err.x + err.y * err.y + err.z * err.z);
            track_err_sum += track_err;
            ++track_err_n;
            report.maxTrackErrM = std::max(report.maxTrackErrM,
                                           track_err);
        }

        // --- Termination. --------------------------------------------
        // Flyaway only counts while the mission target is still
        // being tracked: a land-safe descent under GPS denial
        // legitimately drifts from the (stale) waypoint, and is
        // judged by its touchdown instead.
        const bool flyaway = !autopilot.landSafeActive() &&
                             report.maxTrackErrM > kFlyawayErrM;
        if (autopilot.quad().upsideDown() ||
            autopilot.quad().maxImpactSpeed() > kCrashImpactSpeedMps ||
            flyaway) {
            report.crashed = true;
            break;
        }
        const Vec3 vel = autopilot.quad().state().velocity;
        const double speed = std::sqrt(vel.x * vel.x + vel.y * vel.y +
                                       vel.z * vel.z);
        if (t > 1.0 && autopilot.quad().onGround() && speed < 0.3 &&
            autopilot.landSafeActive()) {
            report.landed = true;
            break;
        }
        if (pack.depleted())
            break;
    }

    report.waypointsReached = autopilot.navigator().reachedCount();
    report.missionComplete = report.waypointsReached >= kWaypointGoal;
    report.flightTimeS = t;
    report.meanTrackErrM =
        track_err_n > 0 ? track_err_sum / track_err_n : 0.0;
    report.energyWh = pack.drawnEnergyWh().value();
    report.deadlineMisses = sched.totalDeadlineMisses();
    report.linkRetries = link.attempts();
    report.worstMode = policy.worstMode();
    report.transitions = policy.transitions();
    report.tier = DegradationPolicy::outcomeFor(
        report.crashed, report.missionComplete, report.worstMode);

    if (report.crashed) {
        static obs::Counter &crashed =
            obs::metrics().counter("fault.mission.crashed");
        crashed.add(1);
    } else {
        static obs::Counter &survived =
            obs::metrics().counter("fault.mission.survived");
        survived.add(1);
    }
    return report;
}

std::vector<MissionReport>
runScenarioBattery(const std::vector<FaultScenario> &scenarios,
                   const ResilienceConfig &config, int jobs)
{
    std::vector<MissionReport> reports(scenarios.size());
    if (scenarios.empty())
        return reports;

    // Results land in pre-allocated per-scenario slots: the battery
    // is bit-identical at any `jobs` (the engine determinism
    // contract) because no result depends on completion order.
    engine::ThreadPool pool(jobs);
    pool.parallelFor(scenarios.size(), 1,
                     [&](std::size_t i, int) {
                         reports[i] =
                             runResilienceMission(scenarios[i], config);
                     });
    return reports;
}

std::string
reportCsvHeader()
{
    return "scenario,policy,tier,crashed,landed,mission_complete,"
           "waypoints_reached,flight_time_s,max_est_err_m,"
           "mean_track_err_m,max_track_err_m,energy_wh,"
           "deadline_misses,link_retries,worst_mode,transitions";
}

std::string
reportCsvRow(const MissionReport &report)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s,%d,%s,%d,%d,%d,%zu,%.6g,%.6g,%.6g,%.6g,%.6g,%ld,%ld,%s,"
        "%zu",
        report.scenario.c_str(), report.policyEnabled ? 1 : 0,
        outcomeTierName(report.tier), report.crashed ? 1 : 0,
        report.landed ? 1 : 0, report.missionComplete ? 1 : 0,
        report.waypointsReached, report.flightTimeS, report.maxEstErrM,
        report.meanTrackErrM, report.maxTrackErrM, report.energyWh,
        report.deadlineMisses, report.linkRetries,
        flightModeName(report.worstMode), report.transitions.size());
    return buf;
}

std::string
batteryToCsv(const std::vector<MissionReport> &reports)
{
    std::string csv = reportCsvHeader() + "\n";
    for (const auto &report : reports) {
        csv += reportCsvRow(report);
        csv += '\n';
    }
    return csv;
}

} // namespace dronedse::fault
