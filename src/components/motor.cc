#include "components/motor.hh"

#include <algorithm>

#include "physics/propeller_aero.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace dronedse {

Quantity<Grams>
motorWeightG(Quantity<GramsForce> max_thrust)
{
    if (max_thrust.value() < 0.0)
        fatal("motorWeightG: thrust must be non-negative");
    // Stator mass scales with torque demand, which scales with max
    // thrust for a matched propeller.  Anchors: MT2213 (~55 g for
    // ~850 g thrust), 100 mm-class (~5 g), 1000 mm-class (~100 g).
    return Quantity<Grams>(2.0 + max_thrust.value() / 15.0);
}

std::string
motorName(double kv_rating, Quantity<Inches> prop_diameter)
{
    const auto whole = [](double v) {
        return std::to_string(
            static_cast<long long>(std::clamp(v, -9e18, 9e18)));
    };
    return "BLDC-" + whole(kv_rating) + "Kv-" +
           whole(prop_diameter.value()) + "in";
}

MotorRecord
matchMotor(Quantity<GramsForce> required_thrust,
           Quantity<Inches> prop_diameter, Quantity<Volts> supply_voltage)
{
    if (required_thrust.value() <= 0.0)
        fatal("matchMotor: required thrust must be positive");

    MotorRecord rec;
    rec.maxThrustG = required_thrust.value();
    rec.propDiameterIn = prop_diameter.value();
    rec.kv = requiredKv(required_thrust, prop_diameter, supply_voltage);
    rec.maxCurrentA =
        motorCurrentA(required_thrust, prop_diameter, supply_voltage)
            .value();
    rec.weightG = motorWeightG(required_thrust).value();
    return rec;
}

std::vector<MotorRecord>
generateMotorCatalog(Rng &rng, int per_class)
{
    // Wheelbase classes and their prop diameters, as in Figure 9.
    struct ClassSpec { double prop_in; double thrust_lo; double thrust_hi; };
    const ClassSpec classes[] = {
        {1.0, 20.0, 300.0},    // 50 mm
        {2.0, 50.0, 800.0},    // 100 mm
        {5.0, 100.0, 1600.0},  // 200 mm
        {10.0, 300.0, 2500.0}, // 450 mm
        {20.0, 800.0, 6000.0}, // 800 mm
    };

    std::vector<MotorRecord> catalog;
    catalog.reserve(sizeof(classes) / sizeof(classes[0]) *
                    static_cast<std::size_t>(per_class));
    for (const auto &cls : classes) {
        for (int i = 0; i < per_class; ++i) {
            const Quantity<GramsForce> thrust(
                rng.uniform(cls.thrust_lo, cls.thrust_hi));
            const int cells = static_cast<int>(rng.uniformInt(1, 6));
            MotorRecord rec = matchMotor(
                thrust, Quantity<Inches>(cls.prop_in),
                lipoPackVoltage(cells));
            // Manufacturing spread around the ideal match.
            rec.weightG *= 1.0 + rng.gaussian(0.0, 0.08);
            rec.kv *= 1.0 + rng.gaussian(0.0, 0.05);
            catalog.push_back(rec);
        }
    }
    return catalog;
}

} // namespace dronedse
