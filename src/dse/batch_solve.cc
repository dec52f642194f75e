#include "dse/batch_solve.hh"

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "components/battery.hh"
#include "components/esc.hh"
#include "components/frame.hh"
#include "components/propeller.hh"
#include "dse/weight_closure.hh"
#include "physics/lipo.hh"
#include "physics/propeller_aero.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace dronedse {

namespace {

constexpr std::size_t kW = kBatchLaneWidth;

/**
 * Per-lane loop-invariant state of one block, structure-of-arrays.
 * Everything the fixed-point iteration reads is a plain double here;
 * the typed `Quantity` algebra runs in the scalar prologue/epilogue
 * and only its final magnitudes enter the lanes.  Each invariant is
 * the exact double the scalar path would recompute every iteration
 * (hoisting a bit-identical subexpression is bit-preserving; the
 * iteration-dependent expressions below keep the scalar path's
 * association untouched).
 */
struct BlockState
{
    std::array<double, kW> total;        // running all-up weight (g)
    std::array<double, kW> fixedW;       // thrust-independent weight
    std::array<double, kW> twrQuarter;   // twr / 4.0
    std::array<double, kW> propDm;       // prop diameter (m)
    std::array<double, kW> thrustDenom;  // Ct*rho*d^4 of revsForThrust
    std::array<double, kW> volt;         // pack voltage (V)
    std::array<double, kW> kvDenom;      // kLoadedRpmFraction * V
    std::array<double, kW> escSlope;     // Figure 8a fit slope
    std::array<double, kW> escIntercept; // Figure 8a fit intercept
    // Kernel values of the lane's most recent active iteration; on
    // convergence these are exactly the scalar path's final motor
    // match and ESC weight.
    std::array<double, kW> lastThrust;
    std::array<double, kW> lastKv;
    std::array<double, kW> lastCurrent;
    std::array<double, kW> lastMotorW;
    std::array<double, kW> lastEscW;
    std::array<std::uint8_t, kW> active;
    std::array<std::uint8_t, kW> converged;
};

/** Lanes past the batch edge still execute; keep their math benign. */
void
padLane(BlockState &st, std::size_t l)
{
    st.total[l] = 1.0;
    st.fixedW[l] = 1.0;
    st.twrQuarter[l] = 1.0;
    st.propDm[l] = 1.0;
    st.thrustDenom[l] = 1.0;
    st.volt[l] = 1.0;
    st.kvDenom[l] = 1.0;
    st.escSlope[l] = 0.0;
    st.escIntercept[l] = 10.0;
    st.lastThrust[l] = 1.0;
    st.lastKv[l] = 0.0;
    st.lastCurrent[l] = 0.0;
    st.lastMotorW[l] = 0.0;
    st.lastEscW[l] = 10.0;
    st.active[l] = 0;
    st.converged[l] = 0;
}

/**
 * Scalar prologue of one lane: validation and the thrust-independent
 * weights, via the same component models `solveDesign` calls.
 * Returns false when the lane is finished before iterating (invalid
 * inputs — result already carries the scalar path's reason string).
 */
bool
setupLane(const DesignInputs &in, DesignResult &res, BlockState &st,
          std::size_t l)
{
    res = DesignResult{}; // output buffers may be reused across calls
    res.inputs = in;

    if (in.cells < kMinCells || in.cells > kMaxCells) {
        res.infeasibleReason = "cell count out of range";
        return false;
    }
    if (in.capacityMah.value() <= 0.0 || in.twr < 1.0 ||
        in.wheelbaseMm.value() <= 0.0) {
        res.infeasibleReason = "invalid capacity, TWR, or wheelbase";
        return false;
    }

    const Quantity<Inches> prop = in.propDiameterIn.value() > 0.0
                                      ? in.propDiameterIn
                                      : maxPropDiameterIn(in.wheelbaseMm);
    const Quantity<Volts> voltage = lipoPackVoltage(in.cells);

    res.frameWeightG = frameWeightG(in.wheelbaseMm);
    res.batteryWeightG = batteryWeightG(in.cells, in.capacityMah);
    res.propSetWeightG = propellerSetWeightG(prop);
    res.wiringWeightG = wiringWeightG(res.frameWeightG);
    const Quantity<Grams> fixed_weight =
        res.frameWeightG + res.batteryWeightG + res.propSetWeightG +
        res.wiringWeightG + Quantity<Grams>(in.compute.weightG) +
        in.sensorWeightG + in.payloadG;

    st.fixedW[l] = fixed_weight.value();
    st.total[l] = st.fixedW[l];
    st.twrQuarter[l] = in.twr / 4.0;
    // The scalar path would abort inside matchMotor on the first
    // iteration; keep the failure mode (and message) identical.
    if (weightForce(fixed_weight).value() * st.twrQuarter[l] <= 0.0)
        fatal("matchMotor: required thrust must be positive");

    const double d_m = inchesToMeters(prop).value();
    st.propDm[l] = d_m;
    st.thrustDenom[l] =
        kThrustCoefficient * kAirDensity * d_m * d_m * d_m * d_m;
    st.volt[l] = voltage.value();
    st.kvDenom[l] = kLoadedRpmFraction * voltage.value();
    const LinearFit esc_fit = paperEscFit(in.escClass);
    st.escSlope[l] = esc_fit.slope;
    st.escIntercept[l] = esc_fit.intercept;
    st.lastThrust[l] = 1.0;
    st.lastKv[l] = 0.0;
    st.lastCurrent[l] = 0.0;
    st.lastMotorW[l] = 0.0;
    st.lastEscW[l] = 10.0;
    st.active[l] = 1;
    st.converged[l] = 0;
    return true;
}

/**
 * Scalar epilogue of one converged lane: Equations 3-6 and the
 * C-rating sanity check, written with the same typed expressions —
 * in the same order — as `solveDesign`.  The motor record (and its
 * name string) is built here, once, from the lane's final kernel
 * values.
 */
void
finishLane(const DesignInputs &in, DesignResult &res,
           const BlockState &st, std::size_t l)
{
    if (!st.converged[l]) {
        res.infeasibleReason = "weight closure diverged";
        return;
    }

    const Quantity<Inches> prop = in.propDiameterIn.value() > 0.0
                                      ? in.propDiameterIn
                                      : maxPropDiameterIn(in.wheelbaseMm);
    const Quantity<Volts> voltage = lipoPackVoltage(in.cells);

    MotorRecord motor;
    motor.maxThrustG = st.lastThrust[l];
    motor.propDiameterIn = prop.value();
    motor.kv = st.lastKv[l];
    motor.maxCurrentA = st.lastCurrent[l];
    motor.weightG = st.lastMotorW[l];
    motor.name = motorName(motor.kv, prop);

    const Quantity<Grams> total{st.total[l]};
    const Quantity<Grams> esc_w{st.lastEscW[l]};

    res.totalWeightG = total;
    res.motor = motor;
    res.motorMaxCurrentA = motor.maxCurrent();
    res.motorSetWeightG = 4.0 * motor.weight();
    res.escSetWeightG = esc_w;
    res.basicWeightG = total - res.batteryWeightG - res.motorSetWeightG -
                       res.escSetWeightG;
    res.extremeKv = motor.kv > kExtremeKvThreshold;

    const double load = flyingLoadFraction(in.activity);
    res.maxPowerW = 4.0 * (motor.maxCurrent() * voltage);
    res.propulsionPowerW = res.maxPowerW * load;
    res.computePowerW = Quantity<Watts>(in.compute.powerW);
    res.sensorPowerW = in.sensorPowerW;
    res.avgPowerW =
        res.propulsionPowerW + res.computePowerW + res.sensorPowerW;

    res.usableEnergyWh = usableEnergyWh(in.capacityMah, voltage);
    res.flightTimeMin = wattHoursToMinutes(res.usableEnergyWh,
                                           res.avgPowerW);
    res.computePowerFraction = res.computePowerW / res.avgPowerW;

    const Quantity<Amperes> max_current_needed = 4.0 * motor.maxCurrent();
    const Quantity<Amperes> pack_limit =
        (in.capacityMah * 80.0 / Quantity<Hours>(1.0)).to<Amperes>();
    if (pack_limit < max_current_needed) {
        res.infeasibleReason = "battery C-rating cannot supply max draw";
        return;
    }

    res.feasible = true;
}

/** One block of up to `kBatchLaneWidth` designs, SoA fixed point. */
void
solveBlock(std::span<const DesignInputs> inputs,
           std::span<DesignResult> results)
{
    BlockState st;
    std::size_t n_active = 0;
    for (std::size_t l = 0; l < kW; ++l) {
        if (l < inputs.size()) {
            if (setupLane(inputs[l], results[l], st, l))
                ++n_active;
            else
                st.active[l] = 0;
        } else {
            padLane(st, l);
        }
    }

    // Unit-conversion factors of the scalar path, taken from the same
    // `Quantity` machinery (1.0 * factor == factor, exactly).
    const double gf_to_n = Quantity<GramsForce>(1.0).to<Newtons>().value();
    const double rev_to_rpm =
        Quantity<RevPerSec>(1.0).to<Rpm>().value();

    // Equation 1/2 fixed point, lanes innermost.  Every expression
    // below reproduces the scalar path's association exactly:
    // divisions stay divisions and the d_m multiply chains keep
    // `propShaftPowerW`'s left-to-right order, so each lane's doubles
    // match `solveDesign` bit for bit at every iteration.
    for (int iter = 0; iter < 60 && n_active > 0; ++iter) {
        for (std::size_t l = 0; l < kW; ++l) {
            const double dm = st.propDm[l];
            const double t = st.total[l] * st.twrQuarter[l];
            const double thrust_n = t * gf_to_n;
            const double n_rev = std::sqrt(thrust_n / st.thrustDenom[l]);
            const double shaft = kPowerCoefficient * kAirDensity *
                                 n_rev * n_rev * n_rev * dm * dm * dm *
                                 dm * dm;
            const double elec = shaft / kMotorEfficiency;
            const double current = elec / st.volt[l];
            const double kv = (n_rev * rev_to_rpm) / st.kvDenom[l];
            const double motor_w = 2.0 + t / 15.0;
            const double esc_fit =
                st.escSlope[l] * current + st.escIntercept[l];
            const double esc_w = esc_fit < 10.0 ? 10.0 : esc_fit;
            const double new_total =
                st.fixedW[l] + 4.0 * motor_w + esc_w;
            const double delta = std::fabs(new_total - st.total[l]);

            if (st.active[l]) {
                st.lastThrust[l] = t;
                st.lastKv[l] = kv;
                st.lastCurrent[l] = current;
                st.lastMotorW[l] = motor_w;
                st.lastEscW[l] = esc_w;
                st.total[l] = new_total;
                if (delta < 0.01) {
                    st.active[l] = 0;
                    st.converged[l] = 1;
                    --n_active;
                } else if (new_total > 1.0e6) {
                    st.active[l] = 0;
                    --n_active;
                }
            }
        }
    }
    // Lanes still active after 60 iterations are non-converged, the
    // same verdict the scalar loop reaches by falling out of it.

    for (std::size_t l = 0; l < inputs.size(); ++l) {
        if (!results[l].infeasibleReason.empty())
            continue; // failed validation in the prologue
        finishLane(inputs[l], results[l], st, l);
    }
}

} // namespace

void
solveDesignBatch(std::span<const DesignInputs> inputs,
                 std::span<DesignResult> results)
{
    if (inputs.size() != results.size())
        fatal("solveDesignBatch: inputs/results size mismatch");
    for (std::size_t begin = 0; begin < inputs.size(); begin += kW) {
        const std::size_t n = std::min(kW, inputs.size() - begin);
        solveBlock(inputs.subspan(begin, n), results.subspan(begin, n));
    }
}

std::vector<DesignResult>
solveDesignBatch(std::span<const DesignInputs> inputs)
{
    std::vector<DesignResult> results(inputs.size());
    solveDesignBatch(inputs, std::span<DesignResult>(results));
    return results;
}

} // namespace dronedse
