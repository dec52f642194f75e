/**
 * @file
 * Multi-stage mission specifications for the fleet engine.
 *
 * MAVBench (PAPERS.md 1905.06388) shows that compute/energy
 * tradeoffs only surface on *multi-stage* missions — takeoff,
 * navigate to an area, search it, return home — because each stage
 * stresses a different mix of speed, perception load, and hover
 * time.  A `MissionSpec` is an ordered list of such stages; the
 * fleet stepper flies it by compiling the stages into a flat list of
 * legs (each a straight path segment with a commanded speed and an
 * altitude profile), so mission progress is one arc-length scalar
 * per drone — the SoA-friendly representation the lane-block
 * stepper needs.
 *
 * Stage semantics:
 *   Takeoff   climb from ground to `altitudeM` at `speedMps`
 *   Navigate  fly `distanceM` at cruise `speedMps` at altitude
 *   Search    `legs` lawnmower passes of `legLengthM` each at
 *             search `speedMps` (perception-heavy: onboard-SLAM
 *             fallback costs more here, see fleet.cc board power)
 *   Return    fly `distanceM` home at `speedMps`, then descend to
 *             ground at `descentMps` (the final leg; completing it
 *             is a landed, mission-complete outcome)
 *
 * Every compiled leg counts as one waypoint for the
 * `waypointsReached` report field.
 */

#ifndef DRONEDSE_FLEET_MISSION_SPEC_HH
#define DRONEDSE_FLEET_MISSION_SPEC_HH

#include <cstddef>
#include <string>
#include <vector>

namespace dronedse::fleet {

/** The four MAVBench-style mission stages. */
enum class StageKind
{
    Takeoff = 0,
    Navigate,
    Search,
    Return,
};

/** One stage of a mission. */
struct MissionStage
{
    StageKind kind = StageKind::Navigate;
    /** Takeoff: target altitude (m). */
    double altitudeM = 3.0;
    /** Navigate/Return: leg distance (m). */
    double distanceM = 20.0;
    /** Commanded ground speed for the stage (m/s). */
    double speedMps = 3.0;
    /** Search: number of lawnmower passes. */
    int legs = 4;
    /** Search: length of each pass (m). */
    double legLengthM = 12.0;
    /** Return: descent rate for the final landing leg (m/s). */
    double descentMps = 0.5;
};

/** An ordered multi-stage mission. */
struct MissionSpec
{
    std::string name;
    std::string description;
    std::vector<MissionStage> stages;
};

/** One compiled straight-line leg of a mission. */
struct CompiledLeg
{
    StageKind stage = StageKind::Navigate;
    /** Leg length along the path (m); always > 0. */
    double lengthM = 0.0;
    /** Commanded speed on this leg (m/s). */
    double speedMps = 0.0;
    /** Altitude change over the leg (m, signed; 0 = level). */
    double climbM = 0.0;
};

/** A mission flattened to legs; progress is one arc length. */
struct CompiledMission
{
    std::vector<CompiledLeg> legs;
    /** Sum of leg lengths (m). */
    double totalLengthM = 0.0;
    /** Cumulative length at the end of each leg (m). */
    std::vector<double> cumulativeM;
};

/**
 * Flatten a spec to legs.  fatal() on empty or malformed specs
 * (non-positive speeds/lengths, missions are configuration).
 */
CompiledMission compileMission(const MissionSpec &spec);

/**
 * The built-in mission catalog (MAVBench-style):
 *   survey           takeoff, short transit, 4-leg search, return
 *   delivery         takeoff, long fast transit, return
 *   search_rescue    takeoff, transit, 8-leg wide-area search,
 *                    return (the long perception-heavy workload)
 *   perimeter        takeoff, 4 navigate legs around a site, return
 */
const std::vector<MissionSpec> &missionCatalog();

/** Look up a catalog mission by name; fatal() when absent. */
const MissionSpec &findMission(const std::string &name);

} // namespace dronedse::fleet

#endif // DRONEDSE_FLEET_MISSION_SPEC_HH
