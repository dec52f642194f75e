#include "codesign/codesign.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"
#include "util/rng.hh"

namespace dronedse::codesign {

namespace {

constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(SlamPhase::NumPhases);
constexpr std::size_t kNumPlatforms =
    static_cast<std::size_t>(PlatformKind::NumPlatforms);
constexpr std::size_t kNumSplits =
    static_cast<std::size_t>(OffloadSplit::NumSplits);

/** Integration + fabrication cost rank (Table 5). */
int
costScore(PlatformKind kind)
{
    const PlatformSpec &spec = platformSpec(kind);
    return static_cast<int>(spec.integrationCost) +
           static_cast<int>(spec.fabricationCost);
}

/** The splits a platform can actually be configured with. */
std::vector<OffloadSplit>
splitsFor(PlatformKind kind)
{
    switch (kind) {
      case PlatformKind::RPi:
        return {OffloadSplit::HostOnly};
      case PlatformKind::TX2:
      case PlatformKind::Fpga:
        return {OffloadSplit::AccelBa, OffloadSplit::AccelAll};
      case PlatformKind::Asic:
        // Navion-class: a fixed-function full-pipeline chip; it
        // cannot be deployed as a BA-only coprocessor.
        return {OffloadSplit::AccelAll};
      case PlatformKind::NumPlatforms:
        break;
    }
    panic("splitsFor: invalid platform");
}

/** True when `split` places `phase` on the accelerator. */
bool
phaseOnAccel(OffloadSplit split, SlamPhase phase)
{
    switch (split) {
      case OffloadSplit::HostOnly:
        return false;
      case OffloadSplit::AccelBa:
        return phase == SlamPhase::LocalBa ||
               phase == SlamPhase::GlobalBa;
      case OffloadSplit::AccelAll:
        return true;
      case OffloadSplit::NumSplits:
        break;
    }
    panic("phaseOnAccel: invalid split");
}

/**
 * Accelerator overhead for one (platform, split).  Table 5 values
 * for the full parts; the FPGA's BA-only datapath fits a smaller,
 * lighter part (fewer LUTs, no front-end pipeline).
 */
void
accelOverhead(PlatformKind kind, OffloadSplit split,
              Quantity<Watts> &power, Quantity<Grams> &weight)
{
    if (split == OffloadSplit::HostOnly) {
        power = Quantity<Watts>(0.0);
        weight = Quantity<Grams>(0.0);
        return;
    }
    if (kind == PlatformKind::Fpga &&
        split == OffloadSplit::AccelBa) {
        power = Quantity<Watts>(0.25);
        weight = Quantity<Grams>(40.0);
        return;
    }
    const PlatformSpec &spec = platformSpec(kind);
    power = spec.powerOverheadW;
    weight = spec.weightOverheadG;
}

/** Render the deterministic grid key for one config. */
std::string
configBoardName(PlatformKind kind, OffloadSplit split, double rate_hz)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s/%s/%ghz",
                  platformSpec(kind).name.c_str(),
                  offloadSplitName(split), rate_hz);
    return buf;
}

/**
 * Assemble one candidate config from the roofline-predicted phase
 * times.  Does not check rate feasibility; the enumerator does.
 */
ComputeConfig
makeConfig(const MissionSpec &mission, const RooflineModel &model,
           PlatformKind kind, OffloadSplit split, double rate_hz)
{
    ComputeConfig cfg;
    cfg.platform = kind;
    cfg.split = split;
    cfg.rateHz = rate_hz;

    double host_seconds = 0.0, accel_seconds = 0.0;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        const auto phase = static_cast<SlamPhase>(i);
        const bool on_accel = phaseOnAccel(split, phase);
        const PlatformKind unit =
            on_accel ? kind : PlatformKind::RPi;
        const double throughput =
            model.effectiveThroughput(unit, phase);
        const double seconds = mission.perFrameOps[i] / throughput;
        (on_accel ? accel_seconds : host_seconds) += seconds;
    }
    const double frame_seconds = host_seconds + accel_seconds;
    cfg.sustainedFps =
        frame_seconds > 0.0 ? 1.0 / frame_seconds : 0.0;
    cfg.hostDuty = std::min(1.0, rate_hz * host_seconds);
    cfg.accelDuty = std::min(1.0, rate_hz * accel_seconds);

    Quantity<Watts> accel_power;
    Quantity<Grams> accel_weight;
    accelOverhead(kind, split, accel_power, accel_weight);
    const PlatformSpec &host = platformSpec(PlatformKind::RPi);
    cfg.computePowerW =
        host.powerOverheadW +
        Quantity<Watts>(kHostActiveW * cfg.hostDuty) +
        Quantity<Watts>(accel_power.value() * cfg.accelDuty);
    cfg.computeWeightG = host.weightOverheadG + accel_weight;
    cfg.boardName = configBoardName(kind, split, rate_hz);
    return cfg;
}

/**
 * Practicality gate shared with `bestConfiguration`: a design whose
 * battery exceeds the commercial mass-fraction cap wins flight time
 * on paper only, so the co-design scan skips it the same way the
 * fixed-board search does.
 */
bool
practical(const DesignResult &design)
{
    return design.batteryWeightG <=
           kMaxBatteryMassFraction * design.totalWeightG;
}

/** Max-flight-time fold (first-wins ties): pure per-axis best. */
void
foldMax(CodesignChoice &slot, const CodesignChoice &candidate)
{
    if (!slot.feasible ||
        candidate.design.flightTimeMin.value() >
            slot.design.flightTimeMin.value()) {
        slot = candidate;
    }
}

/** The mission's airframe/battery grid over the given boards. */
SweepSpec
missionSweepSpec(const MissionSpec &mission,
                 std::vector<ComputeBoardRecord> boards)
{
    SweepSpec spec;
    spec.airframes.clear();
    for (const auto wheelbase : mission.wheelbasesMm)
        spec.airframes.push_back(SweepAirframe{wheelbase});
    spec.boards = std::move(boards);
    spec.activities = {mission.activity};
    spec.cells = mission.cells;
    spec.capacityLoMah = mission.capacityLoMah;
    spec.capacityHiMah = mission.capacityHiMah;
    spec.capacityStepMah = mission.capacityStepMah;
    spec.payloadG = mission.payloadG;
    return spec;
}

} // namespace

const char *
offloadSplitName(OffloadSplit split)
{
    return enumName(split);
}

bool
parseOffloadSplit(const std::string &name, OffloadSplit &out)
{
    return parseEnum(name, out);
}

std::array<double, kNumPhases>
defaultPerFrameOps()
{
    // Amortized EuRoC-like per-frame mix: feature extraction and
    // matching every frame, local BA per keyframe (~1 in 5), global
    // BA per loop closure (~1 in 40).
    return {5.0e6, 2.0e6, 0.3e6, 0.8e6, 0.05e6};
}

const std::vector<double> &
frameRateLadder()
{
    static const std::vector<double> ladder = {5.0,  10.0, 15.0,
                                               20.0, 30.0, 60.0};
    return ladder;
}

MissionSpec::MissionSpec()
    : perFrameOps(defaultPerFrameOps())
{
}

std::string
validateMission(const MissionSpec &mission)
{
    if (!(std::isfinite(mission.targetRateHz) &&
          mission.targetRateHz > 0.0))
        return "targetRateHz must be finite and > 0";
    for (double ops : mission.perFrameOps) {
        if (!(std::isfinite(ops) && ops > 0.0))
            return "perFrameOps must be finite and > 0";
    }
    // The search's own boards are finite by construction, so the
    // grid is checked over the default design point's board.
    return validateSweepSpec(
        missionSweepSpec(mission, {DesignInputs{}.compute}));
}

CodesignDriver::CodesignDriver(engine::SweepEngine &eng,
                               const RooflineModel &model)
    : engine_(eng), model_(model)
{
}

std::vector<ComputeConfig>
CodesignDriver::enumerateConfigs(const MissionSpec &mission) const
{
    std::vector<ComputeConfig> configs;
    for (std::size_t p = 0; p < kNumPlatforms; ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        for (OffloadSplit split : splitsFor(kind)) {
            for (double rate : frameRateLadder()) {
                if (rate < mission.targetRateHz)
                    continue;
                ComputeConfig cfg =
                    makeConfig(mission, model_, kind, split, rate);
                if (cfg.sustainedFps < rate)
                    continue;
                configs.push_back(std::move(cfg));
            }
        }
    }
    return configs;
}

namespace {

/**
 * Close a config list over the mission's airframe/battery grid and
 * fold out the per-axis optima.  Shared by the full search and the
 * fixed-platform baseline so both use the identical scan order.
 */
CodesignOutcome
searchConfigs(engine::SweepEngine &eng, const MissionSpec &mission,
              std::vector<ComputeConfig> configs)
{
    CodesignOutcome outcome;
    outcome.mission = mission;
    outcome.configCount = configs.size();
    if (configs.empty())
        return outcome;

    std::vector<ComputeBoardRecord> records;
    records.reserve(configs.size());
    for (const ComputeConfig &cfg : configs) {
        records.push_back(
            ComputeBoardRecord{cfg.boardName, BoardClass::Improved,
                               cfg.computeWeightG.value(),
                               cfg.computePowerW.value()});
    }
    const SweepSpec spec =
        missionSweepSpec(mission, std::move(records));

    const engine::SweepResult result = eng.run(spec);
    outcome.gridPoints = result.points.size();
    if (result.points.empty())
        return outcome;

    // Grid order: airframe, board, activity, cells, capacity
    // (capacity innermost) — recover each point's board index.
    const std::size_t boards = configs.size();
    const std::size_t per_airframe =
        result.points.size() / spec.airframes.size();
    const std::size_t per_board = per_airframe / boards;

    // Pass 1: per-platform / per-split maxima and the global max.
    double best_minutes = 0.0;
    bool any = false;
    for (std::size_t idx = 0; idx < result.points.size(); ++idx) {
        const DesignResult &design = result.points[idx];
        if (!design.feasible || !practical(design))
            continue;
        const std::size_t board = (idx / per_board) % boards;
        CodesignChoice choice;
        choice.feasible = true;
        choice.config = configs[board];
        choice.design = design;
        foldMax(outcome.perPlatform[static_cast<std::size_t>(
                    choice.config.platform)],
                choice);
        foldMax(outcome.perSplit[static_cast<std::size_t>(
                    choice.config.split)],
                choice);
        const double minutes = design.flightTimeMin.value();
        if (!any || minutes > best_minutes) {
            any = true;
            best_minutes = minutes;
        }
    }
    if (!any)
        return outcome;

    // Pass 2: among configurations within the tie margin of the
    // optimum, prefer the cheapest platform to integrate and
    // fabricate, then the longer flight, then scan order.  Bounding
    // the set first keeps the margin from compounding across a long
    // scan the way a pairwise fold would.
    for (std::size_t idx = 0; idx < result.points.size(); ++idx) {
        const DesignResult &design = result.points[idx];
        if (!design.feasible || !practical(design))
            continue;
        const double minutes = design.flightTimeMin.value();
        if (minutes < best_minutes - kTieMarginMin)
            continue;
        const std::size_t board = (idx / per_board) % boards;
        const ComputeConfig &cfg = configs[board];
        const int cost = costScore(cfg.platform);
        bool take = !outcome.recommended.feasible;
        if (!take) {
            const int incumbent =
                costScore(outcome.recommended.config.platform);
            take = cost < incumbent ||
                   (cost == incumbent &&
                    minutes > outcome.recommended.design
                                  .flightTimeMin.value());
        }
        if (take) {
            outcome.recommended.feasible = true;
            outcome.recommended.config = cfg;
            outcome.recommended.design = design;
        }
    }
    return outcome;
}

} // namespace

double
CodesignDriver::sustainedFps(const MissionSpec &mission,
                             PlatformKind kind,
                             OffloadSplit split) const
{
    return makeConfig(mission, model_, kind, split, 0.0)
        .sustainedFps;
}

CodesignOutcome
CodesignDriver::run(const MissionSpec &mission) const
{
    CodesignOutcome outcome = searchConfigs(
        engine_, mission, enumerateConfigs(mission));
    for (std::size_t p = 0; p < kNumPlatforms; ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        double best = 0.0;
        for (OffloadSplit split : splitsFor(kind))
            best = std::max(best,
                            sustainedFps(mission, kind, split));
        outcome.bestSustainedFps[p] = best;
    }
    return outcome;
}

CodesignChoice
CodesignDriver::runFixedPlatform(const MissionSpec &mission,
                                 PlatformKind kind) const
{
    std::vector<ComputeConfig> configs;
    for (ComputeConfig &cfg : enumerateConfigs(mission)) {
        if (cfg.platform == kind)
            configs.push_back(std::move(cfg));
    }
    const CodesignOutcome outcome =
        searchConfigs(engine_, mission, std::move(configs));
    return outcome.perPlatform[static_cast<std::size_t>(kind)];
}

std::vector<MissionSpec>
paperMissionCatalog()
{
    std::vector<MissionSpec> catalog;

    // The paper's small consumer drone hosting real-time SLAM: the
    // search must select the FPGA (Table 5's small-drone column).
    MissionSpec urban;
    urban.name = "urban_survey_450";
    urban.targetRateHz = 15.0;
    urban.wheelbasesMm = {Quantity<Millimeters>(450.0)};
    urban.cells = {3, 4};
    urban.capacityLoMah = Quantity<MilliampHours>(2000.0);
    urban.capacityHiMah = Quantity<MilliampHours>(6000.0);
    urban.capacityStepMah = Quantity<MilliampHours>(500.0);
    catalog.push_back(urban);

    // The paper's large drone (mapping payload): FPGA again
    // (Table 5's large-drone column).
    MissionSpec cargo;
    cargo.name = "cargo_mapper_800";
    cargo.targetRateHz = 15.0;
    cargo.wheelbasesMm = {Quantity<Millimeters>(800.0)};
    cargo.cells = {4, 6};
    cargo.capacityLoMah = Quantity<MilliampHours>(4000.0);
    cargo.capacityHiMah = Quantity<MilliampHours>(10000.0);
    cargo.capacityStepMah = Quantity<MilliampHours>(1000.0);
    cargo.payloadG = Quantity<Grams>(200.0);
    catalog.push_back(cargo);

    // High-rate inspection: the host front end is bandwidth-bound
    // below the target rate, so BA-only offload is infeasible and
    // the whole pipeline must move onto the accelerator.
    MissionSpec agile;
    agile.name = "agile_inspect_450";
    agile.targetRateHz = 30.0;
    agile.wheelbasesMm = {Quantity<Millimeters>(450.0)};
    agile.cells = {3, 4};
    agile.capacityLoMah = Quantity<MilliampHours>(2000.0);
    agile.capacityHiMah = Quantity<MilliampHours>(6000.0);
    agile.capacityStepMah = Quantity<MilliampHours>(500.0);
    agile.activity = FlightActivity::Maneuvering;
    catalog.push_back(agile);

    // Nano scout: the mission whose optimal board differs by
    // offload split — under accel_ba the light BA-only FPGA part
    // wins, under accel_all the ASIC's 55 g weight advantage makes
    // it the per-split optimum on a sub-300 g airframe.
    MissionSpec nano;
    nano.name = "nano_scout_250";
    nano.targetRateHz = 10.0;
    nano.wheelbasesMm = {Quantity<Millimeters>(250.0)};
    nano.cells = {2, 3};
    nano.capacityLoMah = Quantity<MilliampHours>(1200.0);
    nano.capacityHiMah = Quantity<MilliampHours>(3000.0);
    nano.capacityStepMah = Quantity<MilliampHours>(300.0);
    catalog.push_back(nano);

    return catalog;
}

MissionSpec
seededMission(std::uint64_t seed)
{
    static const std::array<double, 5> kWheelbases = {
        250.0, 330.0, 450.0, 650.0, 800.0};
    static const std::array<double, 4> kRates = {5.0, 10.0, 15.0,
                                                 20.0};
    Rng rng(seed);

    MissionSpec mission;
    char name[48];
    std::snprintf(name, sizeof name, "seeded_%llu",
                  static_cast<unsigned long long>(seed));
    mission.name = name;
    mission.targetRateHz =
        kRates[static_cast<std::size_t>(rng.uniformInt(0, 3))];

    const auto first =
        static_cast<std::size_t>(rng.uniformInt(0, 4));
    mission.wheelbasesMm = {Quantity<Millimeters>(
        kWheelbases[first])};
    if (rng.bernoulli(0.5)) {
        const auto second =
            static_cast<std::size_t>(rng.uniformInt(0, 4));
        if (second != first) {
            mission.wheelbasesMm.push_back(
                Quantity<Millimeters>(kWheelbases[second]));
        }
    }

    mission.cells = rng.bernoulli(0.5) ? std::vector<int>{3, 4}
                                       : std::vector<int>{3};
    const double lo = 1500.0 + 500.0 * rng.uniformInt(0, 3);
    mission.capacityLoMah = Quantity<MilliampHours>(lo);
    mission.capacityHiMah = Quantity<MilliampHours>(
        lo + 1500.0 + 500.0 * rng.uniformInt(0, 4));
    mission.capacityStepMah = Quantity<MilliampHours>(500.0);
    mission.activity = rng.bernoulli(0.3)
                           ? FlightActivity::Maneuvering
                           : FlightActivity::Hovering;
    mission.payloadG =
        Quantity<Grams>(50.0 * rng.uniformInt(0, 4));
    return mission;
}

} // namespace dronedse::codesign
