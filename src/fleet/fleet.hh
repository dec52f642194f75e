/**
 * @file
 * Fleet-scale mission engine: N independent missions flown
 * concurrently, with per-scenario survival and flight-time ECDFs as
 * the output (DESIGN.md §16).
 *
 * Two fidelity tiers share one harness:
 *
 *  - `Batched` (default): a reduced-order closed-loop mission model
 *    stepped in SoA lane blocks of `kFleetLaneWidth` drones (the
 *    PR-8 batch-solver idiom), thousands of missions per second.
 *    Per drone, the model tracks path progress along the compiled
 *    `MissionSpec`, a scalar tracking-error process driven by wind
 *    gusts / motor derating / estimation error, an EKF-coast
 *    estimation-error process, the deadline-miss accumulator, the
 *    Nominal→DegradedSlam→RateShed→LandSafe policy ladder (the fault
 *    layer's policy constants), offload-link backoff,
 *    and a draining battery scaled by the scenario's payload and
 *    battery-age axes.
 *
 *  - `FullStack`: every drone flies the complete
 *    `fault::runResilienceMission` stack (EKF, cascaded inner loop,
 *    scheduler, offload link) at the harness's default
 *    configuration, with only the seed and the policy switch
 *    taken from the spec.  ~1000x slower; it exists so the
 *    harness — seed derivation, scenario plumbing, report
 *    aggregation — is provable against the single-mission path
 *    (tests/fleet/test_fleet_differential.cc).
 *
 * Determinism contract: drone `i` of a run draws every random
 * number from a stream seeded by `deriveDroneSeed(fleetSeed, i)`
 * and shares no mutable state with any other drone, so results are
 * byte-identical at any thread count, any lane-block partition, and
 * any drone processing order (tests/fleet/test_fleet_determinism.cc
 * pins this across --jobs 1/2/8 and seeded order permutations).
 */

#ifndef DRONEDSE_FLEET_FLEET_HH
#define DRONEDSE_FLEET_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/mission.hh"
#include "fault/policy.hh"
#include "fleet/mission_spec.hh"
#include "fleet/scenario.hh"
#include "util/ecdf.hh"

namespace dronedse::fleet {

/** Drones per SoA lane block in the batched stepper. */
inline constexpr std::size_t kFleetLaneWidth = 8;

/** Which mission model the fleet flies. */
enum class FleetFidelity
{
    /** Reduced-order SoA lane-block stepper (the fast path). */
    Batched = 0,
    /** Full `runResilienceMission` stack per drone (the oracle). */
    FullStack,
};

/** One fleet run: a mission, a scenario set, a drone population. */
struct FleetSpec
{
    /** Flown by every drone (Batched fidelity only; FullStack flies
     *  the resilience harness's built-in survey mission). */
    MissionSpec mission;
    /** One drone population is flown per scenario. */
    std::vector<ComposedScenario> scenarios;
    /** Drones (= missions) per scenario. */
    std::size_t dronesPerScenario = 256;
    /** Root seed; per-drone streams derive from (this, index). */
    std::uint64_t fleetSeed = 17;
    /** Run the degradation policy ladder. */
    bool policyEnabled = true;
    /** Stepper tick (s). */
    double tickS = 0.1;
    /** Hard mission cutoff (s). */
    double maxDurationS = 300.0;
    FleetFidelity fidelity = FleetFidelity::Batched;
};

/** Compact per-mission outcome (both fidelities produce this). */
struct DroneOutcome
{
    fault::OutcomeTier tier = fault::OutcomeTier::Completed;
    bool crashed = false;
    bool landed = false;
    bool missionComplete = false;
    std::uint32_t waypointsReached = 0;
    double flightTimeS = 0.0;
    double energyWh = 0.0;
    double maxTrackErrM = 0.0;
    double maxEstErrM = 0.0;
    fault::FlightMode worstMode = fault::FlightMode::Nominal;
};

/** One scenario's population results. */
struct ScenarioResult
{
    std::string name;
    /** Indexed by drone (logical order, independent of schedule). */
    std::vector<DroneOutcome> outcomes;
    /** FullStack fidelity only: the complete per-drone reports. */
    std::vector<fault::MissionReport> fullReports;

    /** Fraction of drones whose tier is not Crashed. */
    double survivalRate() const;
    /** Flight-time distribution over the population (s). */
    Ecdf flightTimeEcdf() const;
    /** Energy distribution over the population (Wh). */
    Ecdf energyEcdf() const;
    /** Count of drones at exactly `tier`. */
    std::size_t tierCount(fault::OutcomeTier tier) const;
};

/** A whole fleet run. */
struct FleetResult
{
    /** One entry per spec scenario, in spec order. */
    std::vector<ScenarioResult> scenarios;
    /** Total missions flown. */
    std::uint64_t missionsFlown = 0;
};

/**
 * Per-drone seed stream: SplitMix64 finalization over
 * (fleetSeed, droneIndex).  Public because the differential test
 * reproduces single missions from it.
 */
std::uint64_t deriveDroneSeed(std::uint64_t fleet_seed,
                              std::uint64_t drone_index);

/**
 * Fly the fleet, `jobs` workers at a time (0 = hardware
 * concurrency).  Results land in per-drone slots, so output is
 * byte-identical at any `jobs`.
 */
FleetResult runFleet(const FleetSpec &spec, int jobs = 1);

/**
 * Determinism-test entry point: fly the same fleet but process the
 * flattened (scenario, drone) index space in `order` (a permutation
 * of [0, scenarios*dronesPerScenario)).  The lane blocks then group
 * *different* drones than the identity order — any cross-lane
 * state leak changes the output.  Results are still written to
 * logical slots; a correct stepper is order-invariant.
 */
FleetResult runFleetPermuted(const FleetSpec &spec, int jobs,
                             const std::vector<std::size_t> &order);

/**
 * Per-scenario summary CSV: survival rate, tier counts, flight-time
 * quantiles, and P[flight time ≥ 60 s] per scenario, `%.17g`
 * formatted so equal results give byte-equal text.
 */
std::string fleetSummaryCsv(const FleetResult &result);

/**
 * Full ECDF CSV: one row per (scenario, metric, sample) with the
 * cumulative probability, metrics `flight_time_s` and `energy_wh`.
 */
std::string fleetEcdfCsv(const FleetResult &result);

} // namespace dronedse::fleet

#endif // DRONEDSE_FLEET_FLEET_HH
