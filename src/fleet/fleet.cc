#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "engine/thread_pool.hh"
#include "fault/injector.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace dronedse::fleet {

namespace {

// ---- Reduced-order mission model constants. ---------------------
//
// Calibrated against the 450 mm reference design the full-stack
// harness flies: a ~1071 g airframe on a 3S 3000 mAh pack hovering
// near 180 W at ~45 % throttle.  The policy thresholds and the
// flyaway limit are *not* redeclared here — they are the fault
// layer's constants, so the two fidelity tiers degrade by the same
// rules.

/** 3S 3000 mAh pack at 11.1 V nominal (Wh). */
constexpr double kBasePackWh = 33.3;
/** Reference all-up weight (g); payload adds to this. */
constexpr double kBaseMassG = 1071.0;
/** Hover power of the reference airframe (W). */
constexpr double kHoverBaseW = 180.0;
/** Hover throttle fraction of the reference airframe. */
constexpr double kHoverThrottleBase = 0.45;
/** Board+radio power, SLAM offloaded (W). */
constexpr double kBoardOffloadW = 7.5;
/** Board power with SLAM fallen back onboard (W). */
constexpr double kBoardOnboardW = 12.0;

/** Estimation-error floor at unit sensor noise (m). */
constexpr double kEstFloorM = 0.25;
/** GPS-aided convergence time constant (s). */
constexpr double kEstTauS = 1.5;
/** Dead-reckoning drift rate at unit IMU noise (m/s). */
constexpr double kEstDriftMps = 0.35;
/** Random-walk scale of the estimate (m/sqrt(s)). */
constexpr double kEstWalk = 0.15;
/** Camera loss degrades visual aiding: floor multiplier. */
constexpr double kCameraLossFloorScale = 1.5;

/** Tracking-error damping (1/s): the closed loop pulls back. */
constexpr double kErrDampPerS = 0.8;
/** Wind-to-error forcing gain (m/s error growth per m/s wind). */
constexpr double kErrWindGain = 0.08;
/** Lost-actuation forcing gain (m/s per unit lost effectiveness). */
constexpr double kErrDerateGain = 3.0;
/** Estimation-error coupling gain (flying a wrong state). */
constexpr double kErrEstGain = 0.2;
/** Gust gustiness: std of the per-tick wind multiplier. */
constexpr double kGustStd = 0.5;

/** Outer-loop load multiplier when SLAM runs onboard. */
constexpr double kLoadOnboard = 2.5;
/** Load multiplier under RateShed (work shed). */
constexpr double kLoadShedFactor = 0.55;
/** Latency that doubles the effective offloaded load (ms). */
constexpr double kLoadLatencyMs = 200.0;
/** Load the scheduler absorbs without missing deadlines. */
constexpr double kLoadThreshold = 1.2;
/** Deadline misses accumulated per second per unit overload. */
constexpr double kMissGainPerS = 12.0;

/** Commanded-speed factor under RateShed. */
constexpr double kShedSpeedFactor = 0.7;
/** LandSafe descent rate (m/s), matching the autopilot hook. */
constexpr double kLandDescentMps = 0.5;
/** Sustained hover-thrust deficit that ends in a crash (s). */
constexpr double kThrustDeficitCrashS = 2.0;
/** Ground-speed loss per m/s of mean wind (m/s). */
constexpr double kSpeedWindPenalty = 0.15;
/** Thrust margin above which full commanded speed is available. */
constexpr double kFullSpeedMargin = 0.5;
/** Fraction of commanded speed always available while flyable. */
constexpr double kMinSpeedFraction = 0.2;
/** Translational drag power gain at 4 m/s reference speed. */
constexpr double kDragPowerGain = 0.08;
/** Extra hover power per m/s of wind (fraction). */
constexpr double kWindPowerGain = 0.03;
/** Per-drone manufacturing spread of hover power (fraction). */
constexpr double kPowerTrimStd = 0.05;
/** Per-drone spread of achievable speed (fraction). */
constexpr double kSpeedTrimStd = 0.03;

/** Immutable per-scenario context shared by its whole population. */
struct ScenarioCtx
{
    const ComposedScenario *scenario = nullptr;
    fault::FaultInjector injector;
    /** Pack capacity after the battery-age axis (Wh). */
    double capacityWh = 0.0;
    /** Hover power at this payload (W). */
    double hoverW = 0.0;
    /** Hover throttle fraction at this payload. */
    double hoverThrottle = 0.0;

    explicit ScenarioCtx(const ComposedScenario &s)
        : scenario(&s), injector(s.faults)
    {
        const double mass_ratio =
            (kBaseMassG + s.env.payloadG) / kBaseMassG;
        const double lift_factor = std::pow(mass_ratio, 1.5);
        capacityWh = kBasePackWh * s.env.batteryAge;
        hoverW = kHoverBaseW * lift_factor;
        hoverThrottle = kHoverThrottleBase * lift_factor;
    }
};

/**
 * SoA lane-block state (PR-8 idiom): one fixed-width block of
 * drones stepped in lockstep, lanes-innermost phase loops, per-lane
 * active masks.  Every array is per-lane; no state is shared
 * between lanes, which is what makes the stepper partition- and
 * order-invariant.
 */
struct LaneBlock
{
    static constexpr std::size_t W = kFleetLaneWidth;

    const ScenarioCtx *ctx[W] = {};
    DroneOutcome *out[W] = {};
    Rng rng[W];
    /** Per-lane cursor into the scenario's compiled fault timeline. */
    std::size_t seg[W] = {};

    // Mission progress.
    std::size_t leg[W] = {};
    double legPosM[W] = {};
    double altM[W] = {};

    // Error processes.
    double errM[W] = {};
    double estErrM[W] = {};
    double maxErrM[W] = {};
    double maxEstErrM[W] = {};

    // Scheduler / link / policy.
    double missLevel[W] = {};
    double gpsDownSince[W] = {};
    bool linkUp[W] = {};
    double backoffS[W] = {};
    double nextRetryT[W] = {};
    std::uint8_t mode[W] = {};
    std::uint8_t worstMode[W] = {};
    double lastElevatedT[W] = {};

    // Energy and airworthiness.
    double energyWh[W] = {};
    double deficitS[W] = {};
    /** Per-drone trim factors (drawn once at init). */
    double powerTrim[W] = {};
    double speedTrim[W] = {};

    // Termination.
    bool active[W] = {};
    bool crashed[W] = {};
    bool landed[W] = {};
    bool complete[W] = {};
    double endT[W] = {};

    std::size_t lanes = 0;
};

using fault::FlightMode;

void
initLane(LaneBlock &block, std::size_t lane, const ScenarioCtx &ctx,
         DroneOutcome &out, std::uint64_t seed)
{
    block.ctx[lane] = &ctx;
    block.out[lane] = &out;
    block.rng[lane] = Rng(seed);
    block.seg[lane] = 0;
    block.leg[lane] = 0;
    block.legPosM[lane] = 0.0;
    block.altM[lane] = 0.0;
    block.errM[lane] = 0.0;
    block.estErrM[lane] = kEstFloorM;
    block.maxErrM[lane] = 0.0;
    block.maxEstErrM[lane] = kEstFloorM;
    block.missLevel[lane] = 0.0;
    block.gpsDownSince[lane] = -1.0;
    block.linkUp[lane] = true;
    block.backoffS[lane] = 0.0;
    block.nextRetryT[lane] = 0.0;
    block.mode[lane] = 0;
    block.worstMode[lane] = 0;
    block.lastElevatedT[lane] = 0.0;
    block.energyWh[lane] = 0.0;
    block.deficitS[lane] = 0.0;
    // Population spread: per-drone trim drawn from the lane stream
    // before any per-tick draws, so tick streams stay aligned.
    block.powerTrim[lane] =
        1.0 + kPowerTrimStd * block.rng[lane].gaussian();
    block.speedTrim[lane] =
        1.0 + kSpeedTrimStd * block.rng[lane].gaussian();
    block.active[lane] = true;
    block.crashed[lane] = false;
    block.landed[lane] = false;
    block.complete[lane] = false;
    block.endT[lane] = 0.0;
}

void
finishLane(LaneBlock &block, std::size_t lane, double end_t)
{
    block.active[lane] = false;
    block.endT[lane] = end_t;
}

/** Per-run constants of the tick arithmetic. */
struct TickConstants
{
    double sqrtDt = 0.0;
    /** Deadline-miss level decay over one tick. */
    double missDecay = 0.0;

    explicit TickConstants(const FleetSpec &spec)
        : sqrtDt(std::sqrt(spec.tickS)),
          missDecay(std::pow(0.5, spec.tickS / fault::kMissHalfLifeS))
    {
    }
};

/** Step every active lane of the block through one tick. */
void
stepBlockTick(LaneBlock &block, const CompiledMission &mission,
              const FleetSpec &spec, const TickConstants &tc, long k)
{
    const double dt = spec.tickS;
    const double t = static_cast<double>(k) * dt;
    const double t_next = static_cast<double>(k + 1) * dt;

    // --- Phase 1: this tick's faults, one snapshot per lane. -----
    const fault::FaultSnapshot *faults[LaneBlock::W] = {};
    for (std::size_t lane = 0; lane < block.lanes; ++lane) {
        if (block.active[lane])
            faults[lane] = &block.ctx[lane]->injector.snapshot(
                t, block.seg[lane]);
    }

    // --- Phase 2: link observation and backoff retries. ----------
    for (std::size_t lane = 0; lane < block.lanes; ++lane) {
        if (!block.active[lane])
            continue;
        const bool link_fault = faults[lane]->linkDown;
        if (block.linkUp[lane] && link_fault) {
            // Loss is noticed immediately (an RPC fails).
            block.linkUp[lane] = false;
            if (spec.policyEnabled) {
                block.backoffS[lane] = fault::kBackoffMinS;
                block.nextRetryT[lane] = t + fault::kBackoffMinS;
            }
        } else if (!block.linkUp[lane]) {
            if (!spec.policyEnabled) {
                // No policy: re-probe every tick.
                block.linkUp[lane] = !link_fault;
            } else if (t >= block.nextRetryT[lane]) {
                if (!link_fault) {
                    block.linkUp[lane] = true;
                    block.backoffS[lane] = 0.0;
                } else {
                    block.backoffS[lane] = std::min(
                        block.backoffS[lane] * fault::kBackoffFactor,
                        fault::kBackoffMaxS);
                    block.nextRetryT[lane] =
                        t + block.backoffS[lane];
                }
            }
        }
    }

    // --- Phase 3: estimation-error process. ----------------------
    for (std::size_t lane = 0; lane < block.lanes; ++lane) {
        if (!block.active[lane])
            continue;
        const double noise = faults[lane]->imuNoise;
        double est = block.estErrM[lane];
        double floor = kEstFloorM * noise;
        if (faults[lane]->cameraOut)
            floor *= kCameraLossFloorScale;
        const double walk_draw = block.rng[lane].gaussian();
        if (!faults[lane]->gpsOut) {
            block.gpsDownSince[lane] = -1.0;
            est += dt * (floor - est) / kEstTauS;
            est += std::fabs(walk_draw) * kEstWalk * tc.sqrtDt * 0.1;
        } else {
            if (block.gpsDownSince[lane] < 0.0)
                block.gpsDownSince[lane] = t;
            est += dt * kEstDriftMps * noise;
            est += std::fabs(walk_draw) * kEstWalk * tc.sqrtDt * noise;
        }
        est = std::max(0.0, est);
        block.estErrM[lane] = est;
        block.maxEstErrM[lane] =
            std::max(block.maxEstErrM[lane], est);
    }

    // --- Phase 4: outer-loop load and deadline misses. -----------
    for (std::size_t lane = 0; lane < block.lanes; ++lane) {
        if (!block.active[lane])
            continue;
        const bool onboard = !block.linkUp[lane];
        const bool shed =
            block.mode[lane] >=
            static_cast<std::uint8_t>(FlightMode::RateShed);
        double load = faults[lane]->costScale;
        if (onboard)
            load *= kLoadOnboard;
        else
            load *= 1.0 + faults[lane]->latencyMs / kLoadLatencyMs;
        if (shed)
            load *= kLoadShedFactor;
        block.missLevel[lane] =
            block.missLevel[lane] * tc.missDecay +
            std::max(0.0, load - kLoadThreshold) * kMissGainPerS *
                dt;
    }

    // --- Phase 5: policy ladder. ---------------------------------
    if (spec.policyEnabled) {
        for (std::size_t lane = 0; lane < block.lanes; ++lane) {
            if (!block.active[lane])
                continue;
            const ScenarioCtx &ctx = *block.ctx[lane];
            const double soc =
                1.0 - block.energyWh[lane] / ctx.capacityWh;
            const double gps_denial_s =
                block.gpsDownSince[lane] < 0.0
                    ? 0.0
                    : t - block.gpsDownSince[lane];

            auto demand = FlightMode::Nominal;
            if (!block.linkUp[lane] || faults[lane]->gpsOut)
                demand = FlightMode::DegradedSlam;
            if (block.missLevel[lane] > fault::kMissShedLevel ||
                block.estErrM[lane] > fault::kEstErrShedM)
                demand = FlightMode::RateShed;
            if (soc <= fault::kSocLandFraction ||
                faults[lane]->minMotorEff < fault::kMotorEffLandFraction ||
                gps_denial_s >= fault::kGpsDenialLandS ||
                block.estErrM[lane] > fault::kEstErrLandM)
                demand = FlightMode::LandSafe;

            const auto current =
                static_cast<FlightMode>(block.mode[lane]);
            if (demand >= current) {
                // Escalation is immediate; LandSafe is absorbing.
                block.mode[lane] =
                    static_cast<std::uint8_t>(demand);
                block.lastElevatedT[lane] = t;
            } else if (current != FlightMode::LandSafe &&
                       t - block.lastElevatedT[lane] >=
                           fault::kRecoveryHoldS) {
                // De-escalate only after a continuous clear hold.
                block.mode[lane] =
                    static_cast<std::uint8_t>(demand);
                block.lastElevatedT[lane] = t;
            }
            block.worstMode[lane] = std::max(block.worstMode[lane],
                                             block.mode[lane]);
        }
    }

    // --- Phase 6: motion, tracking error, termination. -----------
    for (std::size_t lane = 0; lane < block.lanes; ++lane) {
        if (!block.active[lane])
            continue;
        const ScenarioCtx &ctx = *block.ctx[lane];
        const double wind = ctx.scenario->env.windMps;
        const double min_eff = faults[lane]->minMotorEff;
        const bool land_safe =
            block.mode[lane] ==
            static_cast<std::uint8_t>(FlightMode::LandSafe);
        const bool shed =
            block.mode[lane] >=
            static_cast<std::uint8_t>(FlightMode::RateShed);

        double speed = 0.0;
        if (land_safe) {
            // Descend in place; touchdown ends the mission.  The
            // reduced thrust demand of a descent is why a deep
            // derate that cannot hover can still land.
            block.altM[lane] -= kLandDescentMps * dt;
            if (block.altM[lane] <= 0.0) {
                block.landed[lane] = true;
                finishLane(block, lane, t_next);
            }
        } else {
            // Hover-thrust margin: below the hover throttle the
            // drone sheds altitude; sustained deficit is a crash.
            if (min_eff < ctx.hoverThrottle) {
                block.deficitS[lane] += dt;
                if (block.deficitS[lane] > kThrustDeficitCrashS) {
                    block.crashed[lane] = true;
                    finishLane(block, lane, t_next);
                }
            } else {
                block.deficitS[lane] =
                    std::max(0.0, block.deficitS[lane] - dt);
            }
        }
        if (!block.active[lane])
            continue;

        // Per-tick gust: one draw per lane per tick, always taken
        // so the stream stays aligned across mode branches.
        const double gust_draw = block.rng[lane].gaussian();
        const double gust = wind * (1.0 + kGustStd * gust_draw);

        if (!land_safe) {
            const CompiledLeg &leg = mission.legs[block.leg[lane]];
            // Speed costs thrust headroom; a mild derate barely
            // slows the drone, a near-hover-limit one crawls.
            const double margin = std::clamp(
                (min_eff - ctx.hoverThrottle) /
                    (1.0 - kHoverThrottleBase),
                0.0, 1.0);
            const double speed_scale =
                std::min(1.0, margin / kFullSpeedMargin);
            double cmd = leg.speedMps * block.speedTrim[lane];
            if (shed)
                cmd *= kShedSpeedFactor;
            speed = cmd * speed_scale - kSpeedWindPenalty * gust;
            if (margin > 0.0)
                speed = std::max(speed, kMinSpeedFraction * cmd);
            speed = std::max(speed, 0.0);

            // Advance along the compiled path, possibly across leg
            // boundaries; finishing the last leg is touchdown.
            double ds = speed * dt;
            while (ds > 0.0 && block.active[lane]) {
                const CompiledLeg &cur =
                    mission.legs[block.leg[lane]];
                const double remaining =
                    cur.lengthM - block.legPosM[lane];
                const double step = std::min(ds, remaining);
                block.legPosM[lane] += step;
                block.altM[lane] +=
                    step * cur.climbM / cur.lengthM;
                ds -= step;
                if (block.legPosM[lane] >= cur.lengthM) {
                    block.legPosM[lane] = 0.0;
                    ++block.leg[lane];
                    if (block.leg[lane] >= mission.legs.size()) {
                        block.complete[lane] = true;
                        block.landed[lane] = true;
                        finishLane(block, lane, t_next);
                    }
                }
            }
        }

        // Tracking-error process (skipped as a crash criterion
        // during LandSafe, matching the harness's stale-waypoint
        // rule, but still integrated for the report fields).
        double err = block.errM[lane];
        const double est_excess =
            std::max(0.0, block.estErrM[lane] - 1.0);
        err += dt * (kErrWindGain * gust +
                     kErrDerateGain * (1.0 - min_eff) +
                     kErrEstGain * est_excess -
                     kErrDampPerS * err);
        err = std::max(0.0, err);
        block.errM[lane] = err;
        block.maxErrM[lane] = std::max(block.maxErrM[lane], err);
        if (block.active[lane] && !land_safe &&
            err > fault::kFlyawayErrM) {
            block.crashed[lane] = true;
            finishLane(block, lane, t_next);
        }

        // Battery drain; depletion ends the mission where it is.
        const double prop_w =
            ctx.hoverW * block.powerTrim[lane] *
            (1.0 + kDragPowerGain * (speed * speed) / 16.0 +
             kWindPowerGain * wind);
        const double board_w =
            block.linkUp[lane] ? kBoardOffloadW : kBoardOnboardW;
        block.energyWh[lane] +=
            (prop_w + board_w) * dt / 3600.0;
        if (block.active[lane] &&
            block.energyWh[lane] >= ctx.capacityWh)
            finishLane(block, lane, t_next);
    }
}

/** Fly one lane block to completion (all lanes terminated). */
void
runBlock(LaneBlock &block, const CompiledMission &mission,
         const FleetSpec &spec, const TickConstants &tc)
{
    const auto max_ticks = static_cast<long>(
        std::lround(spec.maxDurationS / spec.tickS));
    for (long k = 0; k < max_ticks; ++k) {
        bool any_active = false;
        for (std::size_t lane = 0; lane < block.lanes; ++lane)
            any_active = any_active || block.active[lane];
        if (!any_active)
            break;
        stepBlockTick(block, mission, spec, tc, k);
    }
    for (std::size_t lane = 0; lane < block.lanes; ++lane) {
        if (block.active[lane])
            finishLane(block, lane, spec.maxDurationS);
    }
    // Publish outcomes to the logical per-drone slots.
    for (std::size_t lane = 0; lane < block.lanes; ++lane) {
        DroneOutcome &out = *block.out[lane];
        out.crashed = block.crashed[lane];
        out.landed = block.landed[lane];
        out.missionComplete = block.complete[lane];
        out.waypointsReached =
            static_cast<std::uint32_t>(block.leg[lane]);
        out.flightTimeS = block.endT[lane];
        out.energyWh = block.energyWh[lane];
        out.maxTrackErrM = block.maxErrM[lane];
        out.maxEstErrM = block.maxEstErrM[lane];
        out.worstMode =
            static_cast<FlightMode>(block.worstMode[lane]);
        out.tier = fault::DegradationPolicy::outcomeFor(
            out.crashed, out.missionComplete, out.worstMode);
    }
}

void
validateSpec(const FleetSpec &spec)
{
    if (spec.scenarios.empty())
        fatal("runFleet: no scenarios");
    if (spec.dronesPerScenario == 0)
        fatal("runFleet: dronesPerScenario must be > 0");
    if (spec.tickS <= 0.0 || spec.maxDurationS <= spec.tickS)
        fatal("runFleet: tick and max duration must be positive "
              "with at least one tick");
    for (const auto &scenario : spec.scenarios) {
        if (!(scenario.env.batteryAge > 0.0 &&
              scenario.env.batteryAge <= 1.0))
            fatal("runFleet: scenario '" + scenario.name +
                  "' battery age must lie in (0, 1]");
        if (scenario.env.windMps < 0.0 ||
            scenario.env.payloadG < 0.0)
            fatal("runFleet: scenario '" + scenario.name +
                  "' wind and payload must be non-negative");
    }
}

FleetResult
runFleetImpl(const FleetSpec &spec, int jobs,
             const std::vector<std::size_t> *order)
{
    validateSpec(spec);
    obs::ScopedSpan fleet_span("fleet.run", "fleet");

    const std::size_t total =
        spec.scenarios.size() * spec.dronesPerScenario;
    if (order && order->size() != total)
        fatal("runFleet: order must be a permutation of the "
              "flattened (scenario, drone) index space");

    FleetResult result;
    result.scenarios.resize(spec.scenarios.size());
    std::vector<ScenarioCtx> contexts;
    contexts.reserve(spec.scenarios.size());
    for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
        result.scenarios[s].name = spec.scenarios[s].name;
        result.scenarios[s].outcomes.resize(spec.dronesPerScenario);
        contexts.emplace_back(spec.scenarios[s]);
    }
    result.missionsFlown = total;
    // Registered once per process; each run then adds without taking
    // the registry mutex.
    static obs::Counter &flown =
        obs::metrics().counter("fleet.missions.flown");
    static obs::Counter &crashed_count =
        obs::metrics().counter("fleet.missions.crashed");
    static obs::Counter &survived_count =
        obs::metrics().counter("fleet.missions.survived");
    flown.add(total);

    engine::ThreadPool pool(jobs);

    if (spec.fidelity == FleetFidelity::FullStack) {
        // Oracle tier: the complete single-mission stack per drone.
        // Environment axes are a reduced-model concept; the full
        // harness has its own fixed wind model, so only the nominal
        // operating point is meaningful here.
        for (const auto &scenario : spec.scenarios) {
            if (!(scenario.env == EnvAxes{}))
                fatal("runFleet: FullStack fidelity supports only "
                      "the nominal EnvAxes operating point "
                      "(scenario '" +
                      scenario.name + "')");
            result.scenarios[&scenario - spec.scenarios.data()]
                .fullReports.resize(spec.dronesPerScenario);
        }
        pool.parallelFor(
            total, 1, [&](std::size_t slot, int) {
                const std::size_t logical =
                    order ? (*order)[slot] : slot;
                const std::size_t s =
                    logical / spec.dronesPerScenario;
                const std::size_t d =
                    logical % spec.dronesPerScenario;
                fault::ResilienceConfig config;
                config.policyEnabled = spec.policyEnabled;
                config.seed =
                    deriveDroneSeed(spec.fleetSeed, logical);
                fault::MissionReport report =
                    fault::runResilienceMission(
                        spec.scenarios[s].faults, config);
                ScenarioResult &slot_result = result.scenarios[s];
                DroneOutcome &out = slot_result.outcomes[d];
                out.tier = report.tier;
                out.crashed = report.crashed;
                out.landed = report.landed;
                out.missionComplete = report.missionComplete;
                out.waypointsReached = static_cast<std::uint32_t>(
                    report.waypointsReached);
                out.flightTimeS = report.flightTimeS;
                out.energyWh = report.energyWh;
                out.maxTrackErrM = report.maxTrackErrM;
                out.maxEstErrM = report.maxEstErrM;
                out.worstMode = report.worstMode;
                slot_result.fullReports[d] = std::move(report);
            });
    } else {
        const CompiledMission mission =
            compileMission(spec.mission);
        const TickConstants tc(spec);
        // Lane-block chunks: the pool hands out [begin, end) ranges;
        // each chunk is stepped as blocks of kFleetLaneWidth.
        // Per-drone results depend only on (fleetSeed, logical
        // index, scenario), so any chunking or claim order is
        // byte-identical.
        pool.parallelForChunks(
            total, 0,
            [&](std::size_t begin, std::size_t end, int) {
                for (std::size_t b = begin; b < end;
                     b += kFleetLaneWidth) {
                    LaneBlock block;
                    block.lanes =
                        std::min(kFleetLaneWidth, end - b);
                    for (std::size_t lane = 0;
                         lane < block.lanes; ++lane) {
                        const std::size_t slot = b + lane;
                        const std::size_t logical =
                            order ? (*order)[slot] : slot;
                        const std::size_t s =
                            logical / spec.dronesPerScenario;
                        const std::size_t d =
                            logical % spec.dronesPerScenario;
                        initLane(block, lane, contexts[s],
                                 result.scenarios[s].outcomes[d],
                                 deriveDroneSeed(spec.fleetSeed,
                                                 logical));
                    }
                    runBlock(block, mission, spec, tc);
                }
            });
    }

    std::uint64_t crashed = 0;
    for (const auto &scenario : result.scenarios)
        crashed +=
            scenario.tierCount(fault::OutcomeTier::Crashed);
    crashed_count.add(crashed);
    survived_count.add(total - crashed);
    return result;
}

std::string
num17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::uint64_t
deriveDroneSeed(std::uint64_t fleet_seed, std::uint64_t drone_index)
{
    // SplitMix64 finalization over the (seed, index) pair: adjacent
    // indices land far apart in the xoshiro seeding space.
    std::uint64_t z =
        fleet_seed + 0x9e3779b97f4a7c15ULL * (drone_index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
ScenarioResult::survivalRate() const
{
    if (outcomes.empty())
        return 0.0;
    std::size_t survived = 0;
    for (const auto &outcome : outcomes)
        survived += outcome.tier != fault::OutcomeTier::Crashed;
    return static_cast<double>(survived) /
           static_cast<double>(outcomes.size());
}

Ecdf
ScenarioResult::flightTimeEcdf() const
{
    std::vector<double> samples;
    samples.reserve(outcomes.size());
    for (const auto &outcome : outcomes)
        samples.push_back(outcome.flightTimeS);
    return Ecdf(std::move(samples));
}

Ecdf
ScenarioResult::energyEcdf() const
{
    std::vector<double> samples;
    samples.reserve(outcomes.size());
    for (const auto &outcome : outcomes)
        samples.push_back(outcome.energyWh);
    return Ecdf(std::move(samples));
}

std::size_t
ScenarioResult::tierCount(fault::OutcomeTier tier) const
{
    std::size_t count = 0;
    for (const auto &outcome : outcomes)
        count += outcome.tier == tier;
    return count;
}

FleetResult
runFleet(const FleetSpec &spec, int jobs)
{
    return runFleetImpl(spec, jobs, nullptr);
}

FleetResult
runFleetPermuted(const FleetSpec &spec, int jobs,
                 const std::vector<std::size_t> &order)
{
    return runFleetImpl(spec, jobs, &order);
}

std::string
fleetSummaryCsv(const FleetResult &result)
{
    std::string csv =
        "scenario,drones,survival_rate,crashed,landed_safe,"
        "survived_degraded,completed,q10_flight_s,q50_flight_s,"
        "q90_flight_s,p_flight_ge_60s,mean_energy_wh\n";
    for (const auto &scenario : result.scenarios) {
        const Ecdf flight = scenario.flightTimeEcdf();
        const Ecdf energy = scenario.energyEcdf();
        csv += scenario.name;
        csv += ',';
        csv += std::to_string(scenario.outcomes.size());
        csv += ',';
        csv += num17(scenario.survivalRate());
        csv += ',';
        csv += std::to_string(
            scenario.tierCount(fault::OutcomeTier::Crashed));
        csv += ',';
        csv += std::to_string(
            scenario.tierCount(fault::OutcomeTier::LandedSafe));
        csv += ',';
        csv += std::to_string(scenario.tierCount(
            fault::OutcomeTier::SurvivedDegraded));
        csv += ',';
        csv += std::to_string(
            scenario.tierCount(fault::OutcomeTier::Completed));
        csv += ',';
        csv += num17(flight.quantile(0.10));
        csv += ',';
        csv += num17(flight.quantile(0.50));
        csv += ',';
        csv += num17(flight.quantile(0.90));
        csv += ',';
        csv += num17(flight.probAtLeast(60.0));
        csv += ',';
        csv += num17(energy.mean());
        csv += '\n';
    }
    return csv;
}

std::string
fleetEcdfCsv(const FleetResult &result)
{
    std::string csv = "scenario,metric,value,cum_prob\n";
    for (const auto &scenario : result.scenarios) {
        csv += scenario.flightTimeEcdf().toCsvRows(
            scenario.name + ",flight_time_s");
        csv += scenario.energyEcdf().toCsvRows(scenario.name +
                                               ",energy_wh");
    }
    return csv;
}

} // namespace dronedse::fleet
