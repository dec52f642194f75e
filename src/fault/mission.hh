/**
 * @file
 * Mission-resilience harness: closed-loop flights under scripted
 * faults, with and without the degradation policy.
 *
 * One `runResilienceMission` flies the full stack — EKF estimation,
 * the Table 2 cascaded inner loop, waypoint navigation, a scheduled
 * companion-computer outer loop, the offload link, and a draining
 * battery — through one `FaultScenario`, applying the
 * `FaultInjector` every tick and (optionally) letting the
 * `DegradationPolicy` react.  The run is fully deterministic: one
 * seed fixes wind, sensor noise, and every fault, so a scenario's
 * outcome is a regression artifact, not a statistic.
 *
 * `runScenarioBattery` fans a scenario list across the engine's
 * thread pool; results are written to per-scenario slots, so
 * the battery is bit-identical at any thread count (the engine's
 * determinism contract, DESIGN.md section 9).
 */

#ifndef DRONEDSE_FAULT_MISSION_HH
#define DRONEDSE_FAULT_MISSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fault/policy.hh"

namespace dronedse::fault {

/** Harness configuration. */
struct ResilienceConfig
{
    /** Mission length (s). */
    double durationS = 60.0;
    /** Run the DegradationPolicy (false = injector only). */
    bool policyEnabled = true;
    /** Seed for wind and sensor noise. */
    std::uint64_t seed = 17;
};

/** Tracking error past this is departed flight (m). */
inline constexpr double kFlyawayErrM = 25.0;

/** What one scenario flight produced. */
struct MissionReport
{
    std::string scenario;
    bool policyEnabled = true;
    OutcomeTier tier = OutcomeTier::Completed;

    bool crashed = false;
    bool landed = false;
    bool missionComplete = false;
    /** Survey waypoints reached (of kWaypointGoal). */
    std::size_t waypointsReached = 0;

    /** Mission time when the run ended (s). */
    double flightTimeS = 0.0;
    /** Peak estimator-vs-truth position error (m). */
    double maxEstErrM = 0.0;
    /** Mean truth-vs-target tracking error over the flight (m). */
    double meanTrackErrM = 0.0;
    /** Peak truth-vs-target tracking error (m). */
    double maxTrackErrM = 0.0;
    /** Energy drawn from the pack (Wh). */
    double energyWh = 0.0;

    long deadlineMisses = 0;
    long linkRetries = 0;

    FlightMode worstMode = FlightMode::Nominal;
    std::vector<ModeTransition> transitions;
};

/** Survey waypoints that must be reached for mission completion. */
inline constexpr std::size_t kWaypointGoal = 5;

/** Fly one scenario. */
MissionReport runResilienceMission(const FaultScenario &scenario,
                                   const ResilienceConfig &config = {});

/**
 * Fly every scenario, `jobs` at a time (0 = hardware concurrency).
 * Output order matches input order regardless of `jobs`.
 */
std::vector<MissionReport>
runScenarioBattery(const std::vector<FaultScenario> &scenarios,
                   const ResilienceConfig &config = {}, int jobs = 1);

/** CSV header matching `reportCsvRow`. */
std::string reportCsvHeader();

/** One report as a CSV row (no trailing newline). */
std::string reportCsvRow(const MissionReport &report);

/** Whole battery as a CSV document. */
std::string batteryToCsv(const std::vector<MissionReport> &reports);

} // namespace dronedse::fault

#endif // DRONEDSE_FAULT_MISSION_HH
