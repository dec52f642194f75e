#include "dse/weight_closure.hh"

#include <cmath>

#include "components/battery.hh"
#include "components/frame.hh"
#include "components/propeller.hh"
#include "physics/lipo.hh"
#include "physics/propeller_aero.hh"
#include "util/units.hh"

namespace dronedse {

Quantity<Grams>
wiringWeightG(Quantity<Grams> frame_weight)
{
    return Quantity<Grams>(20.0) + 0.15 * frame_weight;
}

const SurveyModel &
SurveyModel::paper()
{
    static const SurveyModel model = [] {
        SurveyModel m;
        for (int cells = kMinCells; cells <= kMaxCells; ++cells)
            m.batteryFits[cells - 1] = paperBatteryFit(cells);
        for (EscClass cls : {EscClass::ShortFlight, EscClass::LongFlight})
            m.escFits[static_cast<int>(cls)] = paperEscFit(cls);
        m.frameFit = paperFrameFit();
        return m;
    }();
    return model;
}

bool
setupClosure(const DesignInputs &inputs, const SurveyModel &model,
             DesignResult &res, ClosureSetup &setup)
{
    res = DesignResult{}; // batch output buffers are reused
    res.inputs = inputs;

    if (inputs.cells < kMinCells || inputs.cells > kMaxCells) {
        res.infeasibleReason = InfeasibleReason::CellCount;
        return false;
    }
    if (inputs.capacityMah.value() <= 0.0 || inputs.twr < 1.0 ||
        inputs.wheelbaseMm.value() <= 0.0) {
        res.infeasibleReason = InfeasibleReason::InvalidInputs;
        return false;
    }

    setup.prop = inputs.propDiameterIn.value() > 0.0
                     ? inputs.propDiameterIn
                     : maxPropDiameterIn(inputs.wheelbaseMm);
    setup.voltage = lipoPackVoltage(inputs.cells);
    setup.escFit = model.escFits[static_cast<int>(inputs.escClass)];

    // Weight components independent of the thrust requirement.
    res.frameWeightG = frameWeightG(model.frameFit, inputs.wheelbaseMm);
    res.batteryWeightG = Quantity<Grams>(
        model.batteryFits[inputs.cells - 1].at(inputs.capacityMah.value()));
    res.propSetWeightG = propellerSetWeightG(setup.prop);
    res.wiringWeightG = wiringWeightG(res.frameWeightG);
    setup.fixedWeight =
        res.frameWeightG + res.batteryWeightG + res.propSetWeightG +
        res.wiringWeightG + Quantity<Grams>(inputs.compute.weightG) +
        inputs.sensorWeightG + inputs.payloadG;

    // A perturbed fit can leave nothing to lift; no motor matches a
    // thrust requirement of zero or less.
    if ((weightForce(setup.fixedWeight) * (inputs.twr / 4.0)).value() <=
        0.0) {
        res.infeasibleReason = InfeasibleReason::NonPositiveFixedWeight;
        return false;
    }
    return true;
}

WeightLoop
closeWeightLoop(const ClosureSetup &setup, double twr)
{
    WeightLoop loop;
    Quantity<Grams> total = setup.fixedWeight;
    for (int iter = 0; iter < 60; ++iter) {
        const Quantity<GramsForce> thrust_per_motor =
            weightForce(total) * (twr / 4.0);
        loop.motor = matchMotor(thrust_per_motor, setup.prop, setup.voltage);
        const Quantity<Grams> new_total =
            setup.fixedWeight + 4.0 * loop.motor.weight() +
            escSetWeightG(loop.motor.maxCurrent(), setup.escFit);
        if (std::fabs((new_total - total).value()) < 0.01) {
            total = new_total;
            loop.converged = true;
            break;
        }
        total = new_total;
        if (total.value() > 1.0e6)
            break;
    }
    loop.totalWeight = total;
    return loop;
}

void
finishClosure(const DesignInputs &inputs, const ClosureSetup &setup,
              const WeightLoop &loop, DesignResult &res)
{
    if (!loop.converged) {
        res.infeasibleReason = InfeasibleReason::Diverged;
        return;
    }

    const MotorRecord &motor = loop.motor;
    res.totalWeightG = loop.totalWeight;
    res.motor = motor;
    res.motorMaxCurrentA = motor.maxCurrent();
    res.motorSetWeightG = 4.0 * motor.weight();
    res.escSetWeightG = escSetWeightG(motor.maxCurrent(), setup.escFit);
    res.basicWeightG = res.totalWeightG - res.batteryWeightG -
                       res.motorSetWeightG - res.escSetWeightG;
    res.extremeKv = motor.kv > kExtremeKvThreshold;

    // Equation 3: average power from the flying load fraction.
    const double load = flyingLoadFraction(inputs.activity);
    res.maxPowerW = 4.0 * (motor.maxCurrent() * setup.voltage);
    res.propulsionPowerW = res.maxPowerW * load;
    res.computePowerW = Quantity<Watts>(inputs.compute.powerW);
    res.sensorPowerW = inputs.sensorPowerW;
    res.avgPowerW =
        res.propulsionPowerW + res.computePowerW + res.sensorPowerW;

    // Equation 4: usable energy.
    res.usableEnergyWh = usableEnergyWh(inputs.capacityMah, setup.voltage);

    // Equation 5: flight time.
    res.flightTimeMin = wattHoursToMinutes(res.usableEnergyWh,
                                           res.avgPowerW);

    // Equation 6: computation footprint.
    res.computePowerFraction = res.computePowerW / res.avgPowerW;

    // Sanity: the battery must be able to deliver the max current.
    const Quantity<Amperes> max_current_needed = 4.0 * motor.maxCurrent();
    // High-C packs reach ~80C continuous; beyond that no pack of
    // this capacity can feed the motors.
    const Quantity<Amperes> pack_limit =
        (inputs.capacityMah * 80.0 / Quantity<Hours>(1.0)).to<Amperes>();
    if (pack_limit < max_current_needed) {
        res.infeasibleReason = InfeasibleReason::CRating;
        return;
    }

    res.feasible = true;
}

DesignResult
solveDesign(const DesignInputs &inputs, const SurveyModel &model)
{
    DesignResult res;
    ClosureSetup setup;
    if (setupClosure(inputs, model, res, setup))
        finishClosure(inputs, setup, closeWeightLoop(setup, inputs.twr),
                      res);
    return res;
}

DesignResult
solveDesign(const DesignInputs &inputs)
{
    return solveDesign(inputs, SurveyModel::paper());
}

} // namespace dronedse
