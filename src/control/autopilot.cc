#include "control/autopilot.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace dronedse {

namespace {

CascadePlant
plantFromParams(const QuadrotorParams &params)
{
    CascadePlant plant;
    plant.massKg = params.massKg;
    plant.inertiaDiag = params.inertiaDiag;
    plant.mixer.armLengthM = params.armLengthM;
    plant.mixer.yawTorquePerThrust = params.yawTorquePerThrust;
    plant.mixer.maxThrustPerMotorN = params.maxThrustPerMotorN;
    return plant;
}

} // namespace

Autopilot::Autopilot(QuadrotorParams params, std::vector<Waypoint> mission,
                     AutopilotConfig config)
    : config_(config), quad_(params), wind_(config.wind, config.seed),
      sensors_(config.sensorRates, config.noise, config.seed + 1),
      estimator_(config.noise),
      cascade_(plantFromParams(params), config.rates),
      navigator_(std::move(mission))
{
    if (config_.simDt <= 0.0 || config_.simDt > 0.005)
        fatal("Autopilot: simDt must be in (0, 5 ms]");

    // The cascade's low level runs at rates.thrustHz; the physics
    // runs at 1/simDt.  The divider holds motor commands between
    // control updates, modelling a slower flight controller.
    controlDivider_ = std::max(
        1, static_cast<int>(std::lround(
               1.0 / (config_.simDt * config_.rates.thrustHz))));
    navDivider_ = std::max(
        1L, static_cast<long>(std::lround(
                1.0 / (config_.simDt * config_.navRateHz))));
}

void
Autopilot::step()
{
    const double dt = config_.simDt;

    // Physics step with wind; recover the true acceleration for the
    // accelerometer model.
    const Vec3 v_before = quad_.state().velocity;
    const Vec3 wind = wind_.sample(dt);
    quad_.step(dt, wind);
    const Vec3 accel_world = (quad_.state().velocity - v_before) / dt;

    t_ += dt;
    ++stepCount_;

    // Sensors fire at their own rates (Table 2a).
    sensors_.advance(t_, quad_.state(), accel_world);
    if (auto imu = sensors_.imu())
        estimator_.onImu(*imu);
    if (auto gps = sensors_.gps())
        estimator_.onGps(*gps);
    if (auto baro = sensors_.baro())
        estimator_.onBaro(*baro);
    if (auto mag = sensors_.mag())
        estimator_.onMag(*mag);

    // Outer loop: waypoint navigation at navRateHz — unless the
    // degradation policy has commanded a land-safe descent, which
    // pins the target under the vehicle and rides it to the ground.
    if (stepCount_ % navDivider_ == 0 && !landSafe_)
        targets_ = navigator_.update(navPosition(), t_);

    // Inner loop at thrustHz.
    if (stepCount_ % controlDivider_ == 0) {
        RigidBodyState estimate = config_.useTruthState
                                      ? quad_.state()
                                      : estimator_.estimate();
        quad_.commandMotors(cascade_.tick(estimate, targets_));
    }

    // ~50 Hz flight log.
    logAccumulator_ += dt;
    if (logAccumulator_ >= 0.02) {
        logAccumulator_ = 0.0;
        log_.push_back({t_, quad_.state().position, targets_.position,
                        quad_.electricalPowerW()});
    }
}

void
Autopilot::run(double duration)
{
    obs::ScopedSpan span("control.autopilot.run", "control");
    const long steps =
        static_cast<long>(std::lround(duration / config_.simDt));
    for (long i = 0; i < steps; ++i)
        step();
    static obs::Counter &steps_counter =
        obs::metrics().counter("control.autopilot.steps");
    steps_counter.add(static_cast<std::uint64_t>(std::max(0L, steps)));
}

Vec3
Autopilot::navPosition() const
{
    return config_.useTruthState ? quad_.state().position
                                 : estimator_.estimate().position;
}

void
Autopilot::commandLandSafe()
{
    if (landSafe_)
        return;
    landSafe_ = true;

    // Descend at a fixed slow rate in velocity mode.  Velocity
    // commands survive what position commands cannot: with GPS out
    // the position estimate drifts without bound, but the velocity
    // estimate drifts slowly, so a -0.5 m/s descent stays a gentle
    // descent — the least-demanding trajectory a degraded vehicle
    // can fly.
    targets_.velocity = {0.0, 0.0, -0.5};
    targets_.velocityMode = true;
    static obs::Counter &land_safe =
        obs::metrics().counter("control.autopilot.land_safe");
    land_safe.add(1);
    obs::instant("control.autopilot.land_safe", "control");
}

double
Autopilot::estimationErrorM() const
{
    return (estimator_.estimate().position - quad_.state().position)
        .norm();
}

double
Autopilot::meanTrackingErrorM(double window) const
{
    double sum = 0.0;
    long count = 0;
    for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
        if (t_ - it->t > window)
            break;
        sum += (it->position - it->target).norm();
        ++count;
    }
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

} // namespace dronedse
