#include "dse/batch_solve.hh"

#include <array>
#include <cmath>
#include <cstdint>

#include "dse/weight_closure.hh"
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
    // convergence these are exactly the scalar loop's final motor
    // match.
    std::array<double, kW> lastThrust;
    std::array<double, kW> lastKv;
    std::array<double, kW> lastCurrent;
    std::array<double, kW> lastMotorW;
    std::array<std::uint8_t, kW> active;
    std::array<std::uint8_t, kW> converged;
    // Per-lane scalar setup, read again by the epilogue.
    std::array<ClosureSetup, kW> setup;
};

/**
 * Every lane starts padded: lanes past the batch edge, and lanes
 * finished in the prologue, still execute; keep their math benign.
 */
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
    st.active[l] = 0;
    st.converged[l] = 0;
}

/**
 * Scalar prologue of one padded lane: `setupClosure`, then the
 * lane's loop invariants.  Returns false when the lane is finished
 * before iterating (the result already carries its verdict).
 */
bool
setupLane(const DesignInputs &in, const SurveyModel &model,
          DesignResult &res, BlockState &st, std::size_t l)
{
    ClosureSetup &setup = st.setup[l];
    if (!setupClosure(in, model, res, setup))
        return false;

    st.fixedW[l] = setup.fixedWeight.value();
    st.total[l] = st.fixedW[l];
    st.twrQuarter[l] = in.twr / 4.0;
    const double d_m = inchesToMeters(setup.prop).value();
    st.propDm[l] = d_m;
    st.thrustDenom[l] =
        kThrustCoefficient * kAirDensity * d_m * d_m * d_m * d_m;
    st.volt[l] = setup.voltage.value();
    st.kvDenom[l] = kLoadedRpmFraction * setup.voltage.value();
    st.escSlope[l] = setup.escFit.slope;
    st.escIntercept[l] = setup.escFit.intercept;
    st.active[l] = 1;
    return true;
}

/**
 * Scalar epilogue of one lane: the lane's final kernel values become
 * the `WeightLoop` the scalar loop would have returned, and
 * `finishClosure` does the rest.
 */
void
finishLane(const DesignInputs &in, DesignResult &res,
           const BlockState &st, std::size_t l)
{
    const ClosureSetup &setup = st.setup[l];
    WeightLoop loop;
    loop.motor.maxThrustG = st.lastThrust[l];
    loop.motor.propDiameterIn = setup.prop.value();
    loop.motor.kv = st.lastKv[l];
    loop.motor.maxCurrentA = st.lastCurrent[l];
    loop.motor.weightG = st.lastMotorW[l];
    loop.totalWeight = Quantity<Grams>(st.total[l]);
    loop.converged = st.converged[l] != 0;
    finishClosure(in, setup, loop, res);
}

/** Element `i` of a per-design span; a one-element span is shared. */
template <typename T>
const T &
laneAt(std::span<const T> values, std::size_t i)
{
    return values[values.size() == 1 ? 0 : i];
}

/**
 * One block of up to `kBatchLaneWidth` designs, SoA fixed point:
 * lane `l` solves design `first + l` into `results[l]`.
 */
void
solveBlock(std::span<const DesignInputs> inputs,
           std::span<const SurveyModel> models, std::size_t first,
           std::span<DesignResult> results)
{
    BlockState st;
    std::size_t n_active = 0;
    for (std::size_t l = 0; l < kW; ++l) {
        padLane(st, l);
        if (l < results.size() &&
            setupLane(laneAt(inputs, first + l), laneAt(models, first + l),
                      results[l], st, l))
            ++n_active;
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

    for (std::size_t l = 0; l < results.size(); ++l) {
        if (results[l].infeasibleReason != InfeasibleReason::None)
            continue; // finished in the prologue
        finishLane(laneAt(inputs, first + l), results[l], st, l);
    }
}

/** Every design of `results`, a block at a time. */
void
solveBlocks(std::span<const DesignInputs> inputs,
            std::span<const SurveyModel> models,
            std::span<DesignResult> results)
{
    for (std::size_t first = 0; first < results.size(); first += kW) {
        const std::size_t n = std::min(kW, results.size() - first);
        solveBlock(inputs, models, first, results.subspan(first, n));
    }
}

} // namespace

void
solveDesignBatch(std::span<const DesignInputs> inputs,
                 std::span<DesignResult> results)
{
    if (inputs.size() != results.size())
        fatal("solveDesignBatch: inputs/results size mismatch");
    solveBlocks(inputs, {&SurveyModel::paper(), 1}, results);
}

void
solveDesignBatch(const DesignInputs &point,
                 std::span<const SurveyModel> models,
                 std::span<DesignResult> results)
{
    if (models.size() != results.size())
        fatal("solveDesignBatch: models/results size mismatch");
    solveBlocks({&point, 1}, models, results);
}

std::vector<DesignResult>
solveDesignBatch(std::span<const DesignInputs> inputs)
{
    std::vector<DesignResult> results(inputs.size());
    solveDesignBatch(inputs, std::span<DesignResult>(results));
    return results;
}

} // namespace dronedse
