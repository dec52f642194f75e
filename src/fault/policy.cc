#include "fault/policy.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"

namespace dronedse::fault {

namespace {

/** Instant-marker name per mode (span names must be literals). */
const char *
modeSpanName(FlightMode mode)
{
    switch (mode) {
    case FlightMode::Nominal:
        return "fault.policy.nominal";
    case FlightMode::DegradedSlam:
        return "fault.policy.degraded_slam";
    case FlightMode::RateShed:
        return "fault.policy.rate_shed";
    case FlightMode::LandSafe:
        return "fault.policy.land_safe";
    }
    return "fault.policy.unknown";
}

} // namespace

const char *
flightModeName(FlightMode mode)
{
    switch (mode) {
    case FlightMode::Nominal:
        return "nominal";
    case FlightMode::DegradedSlam:
        return "degraded_slam";
    case FlightMode::RateShed:
        return "rate_shed";
    case FlightMode::LandSafe:
        return "land_safe";
    }
    return "unknown";
}

const char *
outcomeTierName(OutcomeTier tier)
{
    switch (tier) {
    case OutcomeTier::Crashed:
        return "crashed";
    case OutcomeTier::LandedSafe:
        return "landed_safe";
    case OutcomeTier::SurvivedDegraded:
        return "survived_degraded";
    case OutcomeTier::Completed:
        return "completed";
    }
    return "unknown";
}

FlightMode
DegradationPolicy::demandedMode(const HealthSnapshot &health,
                                std::string &reason) const
{
    // LandSafe triggers: conditions the outer loop cannot out-fly.
    if (health.stateOfCharge <= kSocLandFraction) {
        reason = "battery_floor";
        return FlightMode::LandSafe;
    }
    if (health.minMotorEffectiveness < kMotorEffLandFraction) {
        reason = "motor_health";
        return FlightMode::LandSafe;
    }
    if (health.estErrM >= kEstErrLandM) {
        reason = "estimation_runaway";
        return FlightMode::LandSafe;
    }
    if (gpsDownSince_ >= 0.0 &&
        health.t - gpsDownSince_ >= kGpsDenialLandS) {
        reason = "gps_denial_timeout";
        return FlightMode::LandSafe;
    }

    // RateShed triggers: the outer loop is starving the inner loop.
    if (missLevel_ >= kMissShedLevel) {
        reason = "deadline_misses";
        return FlightMode::RateShed;
    }
    if (health.estErrM >= kEstErrShedM) {
        reason = "estimation_error";
        return FlightMode::RateShed;
    }

    // DegradedSlam triggers: an input the mission planned on is gone.
    if (!health.linkUp) {
        reason = "offload_link_down";
        return FlightMode::DegradedSlam;
    }
    if (!health.gpsAvailable) {
        reason = "gps_denied";
        return FlightMode::DegradedSlam;
    }

    reason = "clear";
    return FlightMode::Nominal;
}

FlightMode
DegradationPolicy::update(const HealthSnapshot &health)
{
    if (haveLast_ && health.t < lastT_ - 1e-12)
        fatal("DegradationPolicy::update: time went backwards");

    const double dt = haveLast_ ? std::max(0.0, health.t - lastT_)
                                : 0.0;

    // Leaky deadline-miss accumulator: decay, then add new misses.
    const long new_misses =
        haveLast_ ? std::max(0L, health.deadlineMisses - lastMisses_)
                  : health.deadlineMisses;
    missLevel_ = missLevel_ * std::exp2(-dt / kMissHalfLifeS) +
                 static_cast<double>(new_misses);

    // Continuous GPS-denial clock.
    if (health.gpsAvailable) {
        gpsDownSince_ = -1.0;
    } else if (gpsDownSince_ < 0.0) {
        gpsDownSince_ = health.t;
    }

    // Offload retry bookkeeping: a fresh outage schedules the first
    // retry; a healthy link resets the backoff.
    if (!health.linkUp && !linkDown_) {
        linkDown_ = true;
        backoffS_ = kBackoffMinS;
        nextRetryT_ = health.t + backoffS_;
        retryIntervals_.push_back(backoffS_);
    } else if (health.linkUp && linkDown_) {
        linkDown_ = false;
        backoffS_ = kBackoffMinS;
    }

    haveLast_ = true;
    lastT_ = health.t;
    lastMisses_ = health.deadlineMisses;

    std::string reason;
    const FlightMode demanded = demandedMode(health, reason);

    if (mode_ == FlightMode::LandSafe) {
        // Terminal: once the policy decides to land, it lands.
        return mode_;
    }

    if (demanded > mode_) {
        // Escalation is immediate.
        transitionTo(demanded, health.t, reason);
        lastElevatedT_ = health.t;
    } else if (demanded == mode_) {
        lastElevatedT_ = health.t;
    } else if (health.t - lastElevatedT_ >= kRecoveryHoldS) {
        // De-escalate only after the triggers have stayed clear.
        transitionTo(demanded, health.t, "recovered");
        lastElevatedT_ = health.t;
    }
    return mode_;
}

void
DegradationPolicy::transitionTo(FlightMode to, double t,
                                const std::string &reason)
{
    transitions_.push_back({t, mode_, to, reason});
    mode_ = to;
    worst_ = std::max(worst_, to);

    static obs::Counter &transitions =
        obs::metrics().counter("fault.policy.transitions");
    static obs::Gauge &mode_gauge =
        obs::metrics().gauge("fault.policy.mode");
    transitions.add(1);
    mode_gauge.set(static_cast<double>(static_cast<int>(to)));
    obs::instant(modeSpanName(to), "fault");
}

bool
DegradationPolicy::offloadRetryDue(double t) const
{
    return linkDown_ && t + 1e-12 >= nextRetryT_;
}

void
DegradationPolicy::onRetryResult(double t, bool success)
{
    static obs::Counter &retries =
        obs::metrics().counter("fault.policy.link_retries");
    retries.add(1);
    if (success) {
        backoffS_ = kBackoffMinS;
        linkDown_ = false;
        return;
    }
    backoffS_ = std::min(backoffS_ * kBackoffFactor, kBackoffMaxS);
    nextRetryT_ = t + backoffS_;
    retryIntervals_.push_back(backoffS_);
}

OutcomeTier
DegradationPolicy::outcomeFor(bool crashed, bool mission_complete,
                              FlightMode worst)
{
    if (crashed)
        return OutcomeTier::Crashed;
    if (mission_complete) {
        return worst == FlightMode::Nominal
                   ? OutcomeTier::Completed
                   : OutcomeTier::SurvivedDegraded;
    }
    return worst == FlightMode::LandSafe
               ? OutcomeTier::LandedSafe
               : OutcomeTier::SurvivedDegraded;
}

} // namespace dronedse::fault
