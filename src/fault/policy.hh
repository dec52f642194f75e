/**
 * @file
 * Graceful-degradation policy: the reactive half of the fault
 * subsystem.
 *
 * The injector breaks things; this layer decides how the autonomy
 * stack retreats — the paper's Section 4-5 argument that a drone
 * keeps flying because the outer loop can shed work while the inner
 * loop keeps its physics-bounded rate.  Severity is ordered:
 *
 *   Nominal < DegradedSlam < RateShed < LandSafe
 *
 * and the policy computes, every health sample, the *least severe*
 * mode whose triggers are all clear:
 *
 *  - offload link or GPS unavailable        -> DegradedSlam
 *    (fall back from offloaded SLAM to onboard SLAM at reduced
 *    keyframe rate; retry the link with exponential backoff)
 *  - deadline-miss rate or estimation error -> RateShed
 *    (shed outer-loop rates so the inner loop's misses stop)
 *  - battery, motor health, long GPS denial,
 *    or runaway estimation error            -> LandSafe (absorbing)
 *
 * Escalation is immediate; de-escalation waits for `kRecoveryHoldS`
 * of continuously clear triggers (hysteresis), and LandSafe is never
 * left.  Because escalation is immediate and each trigger is a
 * monotone function of the health inputs, the worst mode of a run
 * equals the worst instantaneous demand — a strictly worse fault
 * trace can never yield a strictly better outcome tier (property
 * tested in tests/fault/).
 */

#ifndef DRONEDSE_FAULT_POLICY_HH
#define DRONEDSE_FAULT_POLICY_HH

#include <string>
#include <vector>

namespace dronedse::fault {

/** Degradation modes, ordered by severity. */
enum class FlightMode
{
    /** Full mission: offloaded SLAM, full outer-loop rates. */
    Nominal = 0,
    /** Onboard SLAM at reduced keyframe rate; link in backoff. */
    DegradedSlam = 1,
    /** Outer-loop rates shed to protect the inner loop. */
    RateShed = 2,
    /** Terminal: descend at the current position and stay down. */
    LandSafe = 3,
};

/** Human-readable mode name. */
const char *flightModeName(FlightMode mode);

/** Mission outcome tiers, ordered worst to best. */
enum class OutcomeTier
{
    /** Impact above limit, inverted, or departed controlled flight. */
    Crashed = 0,
    /** Came down intact under LandSafe (or battery floor). */
    LandedSafe = 1,
    /** Still flying / finished, but degradation was needed. */
    SurvivedDegraded = 2,
    /** Full mission, never left Nominal. */
    Completed = 3,
};

/** Human-readable tier name. */
const char *outcomeTierName(OutcomeTier tier);

// ---- Thresholds and timing of the policy. ------------------------
//
// Constants, not settings: the resilience harness and both fleet
// fidelity tiers degrade by these same rules.

/** Initial/minimum offload retry interval (s). */
inline constexpr double kBackoffMinS = 0.5;
/** Retry interval cap (s). */
inline constexpr double kBackoffMaxS = 8.0;
/** Multiplier applied after each failed retry. */
inline constexpr double kBackoffFactor = 2.0;

/**
 * Deadline-miss leaky accumulator: each new miss adds 1, the level
 * decays with this half-life (s).
 */
inline constexpr double kMissHalfLifeS = 4.0;
/** Accumulator level that triggers RateShed. */
inline constexpr double kMissShedLevel = 20.0;

/** Estimation error that triggers RateShed (m). */
inline constexpr double kEstErrShedM = 2.5;
/** Estimation error that triggers LandSafe (m). */
inline constexpr double kEstErrLandM = 8.0;

/** Continuous GPS denial that triggers LandSafe (s). */
inline constexpr double kGpsDenialLandS = 15.0;
/** State of charge at or below which LandSafe triggers. */
inline constexpr double kSocLandFraction = 0.12;
/** Weakest motor effectiveness below which LandSafe triggers. */
inline constexpr double kMotorEffLandFraction = 0.45;

/** Clear-trigger time required before de-escalating (s). */
inline constexpr double kRecoveryHoldS = 4.0;

static_assert(kBackoffMinS > 0.0 && kBackoffMaxS >= kBackoffMinS &&
              kBackoffFactor >= 1.0);
static_assert(kMissHalfLifeS > 0.0 && kRecoveryHoldS >= 0.0);

/** One sample of system health, fed to `update` once per tick. */
struct HealthSnapshot
{
    /** Mission time (s); must be non-decreasing across updates. */
    double t = 0.0;
    /** Offload link currently usable. */
    bool linkUp = true;
    /** GPS fixes currently arriving. */
    bool gpsAvailable = true;
    /** Cumulative scheduler deadline misses. */
    long deadlineMisses = 0;
    /** Estimation error / innovation monitor (m). */
    double estErrM = 0.0;
    /** Battery state of charge in [0, 1]. */
    double stateOfCharge = 1.0;
    /** Weakest motor effectiveness in [0, 1]. */
    double minMotorEffectiveness = 1.0;
};

/** One recorded mode change. */
struct ModeTransition
{
    double t = 0.0;
    FlightMode from = FlightMode::Nominal;
    FlightMode to = FlightMode::Nominal;
    /** Trigger that forced the change (or "recovered"). */
    std::string reason;
};

/** The reactive policy state machine. */
class DegradationPolicy
{
  public:
    /** Ingest one health sample; returns the mode now in force. */
    FlightMode update(const HealthSnapshot &health);

    /** Mode currently in force. */
    FlightMode mode() const { return mode_; }

    /** Most severe mode reached so far. */
    FlightMode worstMode() const { return worst_; }

    /** Every mode change, in order. */
    const std::vector<ModeTransition> &transitions() const
    {
        return transitions_;
    }

    /**
     * True when a link retry is due at time `t` (only while the
     * link is down).  The caller attempts the link and reports the
     * result through `onRetryResult`.
     */
    bool offloadRetryDue(double t) const;

    /**
     * Report a retry attempt: on failure the interval grows by
     * `kBackoffFactor` up to `kBackoffMaxS`; on success it resets
     * to `kBackoffMinS`.
     */
    void onRetryResult(double t, bool success);

    /** Current retry interval (s). */
    double currentBackoffS() const { return backoffS_; }

    /** Every retry interval scheduled so far (property tests). */
    const std::vector<double> &retryIntervals() const
    {
        return retryIntervals_;
    }

    /** Deadline-miss accumulator level (diagnostics). */
    double missLevel() const { return missLevel_; }

    /** Map a finished run to its outcome tier. */
    static OutcomeTier outcomeFor(bool crashed, bool mission_complete,
                                  FlightMode worst);

  private:
    /** Least severe mode whose triggers are all clear right now. */
    FlightMode demandedMode(const HealthSnapshot &health,
                            std::string &reason) const;
    void transitionTo(FlightMode to, double t,
                      const std::string &reason);

    FlightMode mode_ = FlightMode::Nominal;
    FlightMode worst_ = FlightMode::Nominal;
    std::vector<ModeTransition> transitions_;

    bool haveLast_ = false;
    double lastT_ = 0.0;
    long lastMisses_ = 0;
    double missLevel_ = 0.0;
    /** Start of the current continuous GPS denial (<0: none). */
    double gpsDownSince_ = -1.0;
    /** Last time the demanded mode was >= the current mode. */
    double lastElevatedT_ = 0.0;

    bool linkDown_ = false;
    double backoffS_ = kBackoffMinS;
    double nextRetryT_ = 0.0;
    std::vector<double> retryIntervals_;
};

} // namespace dronedse::fault

#endif // DRONEDSE_FAULT_POLICY_HH
