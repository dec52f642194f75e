/**
 * @file
 * Automated platform co-design: Table 5 as an optimization result.
 *
 * The paper fixes the compute platform as an input to the design
 * sweep; here a mission profile goes in and the flight-time-optimal
 * compute configuration comes out.  The search space is the cross
 * product {platform kind} x {offload split} x {SLAM frame rate} x
 * {wheelbase} x {battery grid}: the roofline model supplies each
 * configuration's sustainable frame rate and duty cycles, those
 * become a synthetic `ComputeBoardRecord` (weight + duty-cycled
 * power), and the existing `SweepEngine` closes weight/power/flight
 * time over the mission's airframe and battery axes.  Because the
 * engine's determinism contract makes `run(spec).points` identical
 * at any thread count and the selection scan is a fixed-order fold,
 * the recommendation is bit-identical at any `--jobs` count.
 */

#ifndef DRONEDSE_CODESIGN_CODESIGN_HH
#define DRONEDSE_CODESIGN_CODESIGN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "codesign/roofline.hh"
#include "dse/sweep.hh"
#include "engine/engine.hh"
#include "platform/platform.hh"
#include "util/enum_names.hh"

namespace dronedse::codesign {

/**
 * How the SLAM pipeline is split between the host flight computer
 * (an RPi-class companion board, always present) and the candidate
 * accelerator.
 */
enum class OffloadSplit
{
    /** Everything on the host; the only split the RPi row has. */
    HostOnly = 0,
    /**
     * Bundle adjustment on the accelerator, the front end (feature
     * extraction / matching / tracking) on the host.  The FPGA's
     * BA-only datapath fits a smaller, lighter part.
     */
    AccelBa,
    /** The whole pipeline on the accelerator. */
    AccelAll,
    NumSplits,
};

/** Wire/report spellings (util/enum_names.hh). */
constexpr std::array<EnumName<OffloadSplit>, 3>
wireNames(OffloadSplit)
{
    return {{{OffloadSplit::HostOnly, "host_only"},
             {OffloadSplit::AccelBa, "accel_ba"},
             {OffloadSplit::AccelAll, "accel_all"}}};
}

/** Wire/report name of a split. */
const char *offloadSplitName(OffloadSplit split);

/** Parse a split name; returns false on unknown names. */
bool parseOffloadSplit(const std::string &name, OffloadSplit &out);

/** A mission the server can be asked to recommend a board for. */
struct MissionSpec
{
    std::string name = "mission";
    /** Required SLAM camera rate (Hz). */
    double targetRateHz = 15.0;
    /**
     * Abstract pipeline ops per frame, amortized (local BA runs per
     * keyframe, global BA per loop closure).  Defaults are the
     * canonical EuRoC-like mix; see defaultPerFrameOps().
     */
    std::array<double, static_cast<std::size_t>(SlamPhase::NumPhases)>
        perFrameOps{};
    /** Candidate airframes. */
    std::vector<Quantity<Millimeters>> wheelbasesMm{
        Quantity<Millimeters>(450.0)};
    /** Battery cell counts to search. */
    std::vector<int> cells{3, 4};
    /** Battery capacity grid. */
    Quantity<MilliampHours> capacityLoMah{2000.0};
    Quantity<MilliampHours> capacityHiMah{6000.0};
    Quantity<MilliampHours> capacityStepMah{500.0};
    FlightActivity activity = FlightActivity::Hovering;
    /** Mission payload (camera, gimbal, ...). */
    Quantity<Grams> payloadG{};

    MissionSpec();
};

/**
 * A finite target rate and per-frame op counts > 0, and an airframe
 * and battery grid `validateSweepSpec` accepts.  Returns "" when
 * valid, else the first violation.
 */
std::string validateMission(const MissionSpec &mission);

/** The canonical amortized per-frame op mix. */
std::array<double, static_cast<std::size_t>(SlamPhase::NumPhases)>
defaultPerFrameOps();

/** Candidate SLAM frame rates the search considers (Hz). */
const std::vector<double> &frameRateLadder();

/** One point of the compute-configuration search space. */
struct ComputeConfig
{
    PlatformKind platform = PlatformKind::RPi;
    OffloadSplit split = OffloadSplit::HostOnly;
    /** Chosen SLAM frame rate (Hz). */
    double rateHz = 0.0;
    /** Roofline-capped sustainable frame rate (Hz). */
    double sustainedFps = 0.0;
    /** Fraction of a frame period the host pipeline is busy. */
    double hostDuty = 0.0;
    /** Fraction of a frame period the accelerator is busy. */
    double accelDuty = 0.0;
    /** Host base + host active-duty + accelerator duty power. */
    Quantity<Watts> computePowerW{};
    /** Host board plus accelerator weight. */
    Quantity<Grams> computeWeightG{};
    /** Grid key: "<platform>/<split>/<rate>hz". */
    std::string boardName;
};

/** One solved candidate: a compute config plus its design closure. */
struct CodesignChoice
{
    bool feasible = false;
    ComputeConfig config;
    DesignResult design;
};

/** Everything one mission's search produces. */
struct CodesignOutcome
{
    MissionSpec mission;
    /** The flight-time-optimal configuration (cost tie-broken). */
    CodesignChoice recommended;
    /**
     * Best configuration per platform, Table 5 order — the derived
     * Table 5: rank these by flight time and the paper's column
     * ordering falls out.
     */
    std::array<CodesignChoice,
               static_cast<std::size_t>(PlatformKind::NumPlatforms)>
        perPlatform{};
    /** Best configuration per offload split. */
    std::array<CodesignChoice,
               static_cast<std::size_t>(OffloadSplit::NumSplits)>
        perSplit{};
    /** Roofline-feasible compute configurations searched. */
    std::size_t configCount = 0;
    /** Engine grid points solved. */
    std::size_t gridPoints = 0;
    /**
     * Best roofline-sustained frame rate per platform over its
     * admissible splits, even when no config met the mission rate —
     * the "why is this board missing from the frontier" column.
     */
    std::array<double,
               static_cast<std::size_t>(PlatformKind::NumPlatforms)>
        bestSustainedFps{};
};

/**
 * Near-tie margin for the recommendation: within this much flight
 * time of the optimum, the cheaper platform to integrate and
 * fabricate wins.  This is the paper's FPGA-over-ASIC argument —
 * the ASIC's last fraction of a minute cannot justify fabrication
 * cost — applied symmetrically to every platform.
 */
inline constexpr double kTieMarginMin = 0.75;

/** Host (flight computer) busy-power addition over idle. */
inline constexpr double kHostActiveW = 2.5;

/**
 * The driver: enumerate roofline-feasible compute configurations,
 * close each over the mission's airframe/battery grid through the
 * engine, and pick the flight-time optimum.
 */
class CodesignDriver
{
  public:
    explicit CodesignDriver(engine::SweepEngine &eng,
                            const RooflineModel &model =
                                RooflineModel::shared());

    /** Run the full search for one mission. */
    CodesignOutcome run(const MissionSpec &mission) const;

    /**
     * The search restricted to one platform (all splits/rates) —
     * the fixed-board baseline the property tests compare against.
     */
    CodesignChoice runFixedPlatform(const MissionSpec &mission,
                                    PlatformKind kind) const;

    /**
     * Deterministic enumeration of the mission's compute configs:
     * platform (Table 5 order) x split x rate ladder, keeping only
     * configs whose roofline-sustained rate meets the chosen rate
     * and whose rate meets the mission target.
     */
    std::vector<ComputeConfig>
    enumerateConfigs(const MissionSpec &mission) const;

    /**
     * Roofline-sustained frame rate of one (platform, split) pairing
     * for this mission's per-frame op mix (independent of the chosen
     * rate).
     */
    double sustainedFps(const MissionSpec &mission, PlatformKind kind,
                        OffloadSplit split) const;

    const RooflineModel &model() const { return model_; }

  private:
    engine::SweepEngine &engine_;
    const RooflineModel &model_;
};

/**
 * The mission catalog the example and docs reproduce Table 5 from:
 * the paper's small- and large-drone missions (both of which must
 * select the FPGA, the board the paper assigns), a high-rate
 * inspection mission (front-end offload becomes mandatory), and a
 * nano mission whose optimal board differs by offload split.
 */
std::vector<MissionSpec> paperMissionCatalog();

/** Deterministic pseudo-random mission for property tests. */
MissionSpec seededMission(std::uint64_t seed);

} // namespace dronedse::codesign

#endif // DRONEDSE_CODESIGN_CODESIGN_HH
