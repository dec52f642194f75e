#include "dse/sweep.hh"

#include <cmath>
#include <utility>

#include "components/battery.hh"
#include "components/esc.hh"
#include "dse/weight_closure.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace dronedse {

using namespace unit_literals;

const SizeClassSpec &
classSpec(SizeClass size_class)
{
    static const SizeClassSpec small{
        SizeClass::Small, "100mm (small consumer)", 200.0_mm, 5.0_in,
        500.0_mah, 4500.0_mah, 200.0_g, 1700.0_g, 23.0_min};
    static const SizeClassSpec medium{
        SizeClass::Medium, "450mm", 450.0_mm, 10.0_in,
        1000.0_mah, 8000.0_mah, 400.0_g, 2000.0_g, 19.0_min};
    static const SizeClassSpec large{
        SizeClass::Large, "800mm", 800.0_mm, 20.0_in,
        1000.0_mah, 8000.0_mah, 1200.0_g, 3200.0_g, 22.0_min};

    switch (size_class) {
      case SizeClass::Small:
        return small;
      case SizeClass::Medium:
        return medium;
      case SizeClass::Large:
        return large;
    }
    panic("classSpec: unreachable size class");
}

namespace {

/** How far past capacityHiMah the capacity loops still emit a value. */
constexpr Quantity<MilliampHours> kCapacitySlack{1e-9};

/** Capacity axis values, accumulated exactly like the serial loop. */
std::vector<Quantity<MilliampHours>>
capacityAxis(const SweepSpec &spec)
{
    std::vector<Quantity<MilliampHours>> out;
    for (Quantity<MilliampHours> cap = spec.capacityLoMah;
         cap <= spec.capacityHiMah + kCapacitySlack;
         cap += spec.capacityStepMah) {
        out.push_back(cap);
    }
    return out;
}

} // namespace

std::size_t
SweepSpec::pointCount() const
{
    std::size_t caps = 0;
    for (Quantity<MilliampHours> cap = capacityLoMah;
         cap <= capacityHiMah + kCapacitySlack;
         cap += capacityStepMah) {
        ++caps;
    }
    return airframes.size() * boards.size() * activities.size() *
           cells.size() * caps;
}

std::string
validateSweepSpec(const SweepSpec &spec)
{
    if (spec.airframes.empty() || spec.boards.empty() ||
        spec.activities.empty() || spec.cells.empty())
        return "every axis (airframes, boards, activities, cells) "
               "needs at least one value";
    const double step = spec.capacityStepMah.value();
    if (!(std::isfinite(step) && step > 0.0))
        return "capacityStepMah must be finite and > 0";

    // The design-point rules each read one field, so walking every
    // axis value through one probe point checks every grid point.
    DesignInputs probe;
    probe.twr = spec.twr;
    probe.sensorWeightG = spec.sensorWeightG;
    probe.sensorPowerW = spec.sensorPowerW;
    probe.payloadG = spec.payloadG;
    std::string err;
    const auto valid = [&] {
        err = validateDesignInputs(probe);
        return err.empty();
    };
    for (const SweepAirframe &airframe : spec.airframes) {
        probe.wheelbaseMm = airframe.wheelbaseMm;
        probe.propDiameterIn = airframe.propDiameterIn;
        if (!valid())
            return err;
    }
    for (const ComputeBoardRecord &board : spec.boards) {
        probe.compute = board;
        if (!valid())
            return err;
    }
    for (int cells : spec.cells) {
        probe.cells = cells;
        if (!valid())
            return err;
    }
    for (Quantity<MilliampHours> cap :
         {spec.capacityLoMah, spec.capacityHiMah}) {
        probe.capacityMah = cap;
        if (!valid())
            return err;
    }
    if (spec.capacityHiMah < spec.capacityLoMah)
        return "capacityHiMah must be >= capacityLoMah";
    // The capacity loops accumulate lo + step + step ...; a step below
    // the spacing of doubles near the top of the axis never gets there.
    const double top = (spec.capacityHiMah + kCapacitySlack).value();
    if (step < std::nextafter(top, INFINITY) - top)
        return "capacityStepMah is too small to advance the axis to "
               "capacityHiMah";
    return "";
}

SweepSpec
classSweepSpec(const SizeClassSpec &spec, std::vector<int> cells,
               Quantity<MilliampHours> step,
               const ComputeBoardRecord &compute,
               FlightActivity activity, double twr)
{
    SweepSpec out;
    out.airframes = {{spec.wheelbaseMm, spec.propDiameterIn}};
    out.boards = {compute};
    out.activities = {activity};
    out.cells = std::move(cells);
    out.capacityLoMah = spec.capacityLoMah;
    out.capacityHiMah = spec.capacityHiMah;
    out.capacityStepMah = step;
    out.twr = twr;
    return out;
}

std::vector<DesignInputs>
expandGrid(const SweepSpec &spec)
{
    const std::string err = validateSweepSpec(spec);
    if (!err.empty())
        fatal("expandGrid: " + err);

    const auto caps = capacityAxis(spec);
    std::vector<DesignInputs> out;
    out.reserve(spec.airframes.size() * spec.boards.size() *
                spec.activities.size() * spec.cells.size() *
                caps.size());
    for (const auto &airframe : spec.airframes) {
        for (const auto &board : spec.boards) {
            for (FlightActivity activity : spec.activities) {
                for (int cells : spec.cells) {
                    for (Quantity<MilliampHours> cap : caps) {
                        DesignInputs in;
                        in.wheelbaseMm = airframe.wheelbaseMm;
                        in.propDiameterIn = airframe.propDiameterIn;
                        in.cells = cells;
                        in.capacityMah = cap;
                        in.twr = spec.twr;
                        in.escClass = spec.escClass;
                        in.compute = board;
                        in.sensorWeightG = spec.sensorWeightG;
                        in.sensorPowerW = spec.sensorPowerW;
                        in.payloadG = spec.payloadG;
                        in.activity = activity;
                        out.push_back(std::move(in));
                    }
                }
            }
        }
    }
    return out;
}

std::vector<DesignResult>
runSweepSerial(const SweepSpec &spec)
{
    std::vector<DesignResult> out;
    const auto grid = expandGrid(spec);
    out.reserve(grid.size());
    for (const auto &in : grid)
        out.push_back(solveDesign(in));
    return out;
}

std::vector<DesignResult>
sweepCapacity(const SizeClassSpec &spec, int cells,
              Quantity<MilliampHours> step,
              const ComputeBoardRecord &compute, FlightActivity activity,
              double twr)
{
    const auto solved = runSweepSerial(
        classSweepSpec(spec, {cells}, step, compute, activity, twr));
    std::vector<DesignResult> out;
    for (const auto &res : solved) {
        if (res.feasible)
            out.push_back(res);
    }
    return out;
}

bool
withinPracticalLimits(const DesignResult &result,
                      const SizeClassSpec &spec)
{
    if (!result.feasible)
        return false;
    if (result.totalWeightG > spec.weightAxisHiG)
        return false;
    return result.batteryWeightG <=
           kMaxBatteryMassFraction * result.totalWeightG;
}

DesignResult
bestConfiguration(const SizeClassSpec &spec,
                  const ComputeBoardRecord &compute,
                  Quantity<MilliampHours> step, double twr)
{
    DesignResult best;
    for (int cells = kMinCells; cells <= kMaxCells; ++cells) {
        const auto series = sweepCapacity(spec, cells, step, compute,
                                          FlightActivity::Hovering, twr);
        for (const auto &res : series) {
            // Stay within the class's practical envelope so a 100 mm
            // "best" is not a 5 kg battery-dominated outlier.
            if (!withinPracticalLimits(res, spec))
                continue;
            if (!best.feasible ||
                res.flightTimeMin > best.flightTimeMin) {
                best = res;
            }
        }
    }
    if (!best.feasible)
        fatal("bestConfiguration: no feasible design in class sweep");
    return best;
}

std::vector<MotorCurrentPoint>
motorCurrentCurve(Quantity<Inches> prop_diameter, int cells,
                  Quantity<Grams> basic_lo, Quantity<Grams> basic_hi,
                  Quantity<Grams> step, double twr)
{
    if (step.value() <= 0.0 || basic_hi < basic_lo)
        fatal("motorCurrentCurve: invalid weight range");

    const Quantity<Volts> voltage = lipoPackVoltage(cells);
    std::vector<MotorCurrentPoint> out;
    for (Quantity<Grams> basic = basic_lo;
         basic <= basic_hi + Quantity<Grams>(1e-9); basic += step) {
        // Closure over motor and ESC mass only (battery excluded,
        // per the figure's basic-weight definition).
        Quantity<Grams> total = basic;
        MotorRecord motor;
        bool converged = false;
        for (int iter = 0; iter < 60; ++iter) {
            const Quantity<GramsForce> thrust =
                weightForce(total) * (twr / 4.0);
            motor = matchMotor(thrust, prop_diameter, voltage);
            const Quantity<Grams> esc_w = escSetWeightG(motor.maxCurrent());
            const Quantity<Grams> new_total =
                basic + 4.0 * motor.weight() + esc_w;
            if (std::fabs((new_total - total).value()) < 0.01) {
                converged = true;
                break;
            }
            total = new_total;
        }
        if (!converged)
            continue;
        out.push_back({basic, motor.maxCurrent(), motor.kv,
                       motor.weight()});
    }
    return out;
}

} // namespace dronedse
