#include "core/designer.hh"

#include <cmath>
#include <limits>

#include "dse/footprint.hh"
#include "dse/weight_closure.hh"
#include "util/table.hh"

namespace dronedse {

std::string
DesignReport::str() const
{
    std::string out;
    out += "Design: " + fmt(result.inputs.wheelbaseMm.value(), 0) +
           " mm wheelbase, " + std::to_string(result.inputs.cells) +
           "S " + fmt(result.inputs.capacityMah.value(), 0) + " mAh\n";
    if (!result.feasible) {
        out += std::string("  INFEASIBLE: ") +
               enumName(result.infeasibleReason) + "\n";
        return out;
    }
    out += "  all-up weight:    " + fmt(result.totalWeightG.value(), 0) +
           " g\n";
    out += "  motor:            " +
           motorName(result.motor.kv,
                     Quantity<Inches>(result.motor.propDiameterIn)) +
           " (" +
           fmt(result.motorMaxCurrentA.value(), 1) + " A max)\n";
    out += "  avg power:        " + fmt(result.avgPowerW.value(), 1) +
           " W\n";
    out += "  flight time:      " +
           fmt(result.flightTimeMin.value(), 1) + " min\n";
    out += "  compute share:    " + fmtPercent(computeFractionHover) +
           " hover / " + fmtPercent(computeFractionManeuver) +
           " maneuver\n";
    out += "  max compute gain: +" + fmt(maxComputeGainMin.value(), 1) +
           " min\n";
    out += "  nearest commercial: " + nearestCommercial + " (" +
           fmt(nearestCommercialDeltaG.value(), 0) + " g away)\n";
    return out;
}

DroneDesigner::DroneDesigner(DesignInputs inputs)
    : inputs_(std::move(inputs))
{
}

DroneDesigner &
DroneDesigner::wheelbase(Quantity<Millimeters> wheelbase_mm)
{
    inputs_.wheelbaseMm = wheelbase_mm;
    return *this;
}

DroneDesigner &
DroneDesigner::battery(int cells, Quantity<MilliampHours> capacity)
{
    inputs_.cells = cells;
    inputs_.capacityMah = capacity;
    return *this;
}

DroneDesigner &
DroneDesigner::twr(double ratio)
{
    inputs_.twr = ratio;
    return *this;
}

DroneDesigner &
DroneDesigner::escClass(EscClass esc_class)
{
    inputs_.escClass = esc_class;
    return *this;
}

DroneDesigner &
DroneDesigner::compute(const ComputeBoardRecord &board)
{
    inputs_.compute = board;
    return *this;
}

DroneDesigner &
DroneDesigner::sensor(const SensorRecord &record)
{
    inputs_.sensorWeightG += record.weight();
    inputs_.sensorPowerW += record.mainPackPowerW();
    return *this;
}

DroneDesigner &
DroneDesigner::payload(Quantity<Grams> grams)
{
    inputs_.payloadG += grams;
    return *this;
}

DroneDesigner &
DroneDesigner::activity(FlightActivity activity)
{
    inputs_.activity = activity;
    return *this;
}

DroneDesigner &
DroneDesigner::propeller(Quantity<Inches> diameter)
{
    inputs_.propDiameterIn = diameter;
    return *this;
}

DesignResult
DroneDesigner::design() const
{
    return solveDesign(inputs_);
}

DesignReport
DroneDesigner::report() const
{
    DesignReport rep;

    DesignInputs hover = inputs_;
    hover.activity = FlightActivity::Hovering;
    DesignInputs maneuver = inputs_;
    maneuver.activity = FlightActivity::Maneuvering;

    const DesignResult hover_res = solveDesign(hover);
    const DesignResult man_res = solveDesign(maneuver);
    rep.result = inputs_.activity == FlightActivity::Maneuvering
                     ? man_res
                     : hover_res;
    if (!rep.result.feasible)
        return rep;

    rep.computeFractionHover = hover_res.computePowerFraction;
    rep.computeFractionManeuver = man_res.computePowerFraction;
    rep.maxComputeGainMin =
        gainedFlightTimeMin(hover_res, hover_res.computePowerW);

    double best_delta = std::numeric_limits<double>::max();
    for (const auto &drone : commercialDroneTable()) {
        const double delta = std::fabs(
            (drone.weight() - rep.result.totalWeightG).value());
        if (delta < best_delta) {
            best_delta = delta;
            rep.nearestCommercial = drone.name;
        }
    }
    rep.nearestCommercialDeltaG = Quantity<Grams>(best_delta);
    return rep;
}

} // namespace dronedse
