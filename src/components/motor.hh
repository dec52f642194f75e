/**
 * @file
 * BLDC motor records and the motor mass model (paper Figure 9).
 *
 * Motors are characterized by their Kv rating (RPM per volt), weight,
 * and maximum thrust with a matched propeller.  The paper observes
 * motor weight ranging from ~5 g on 100 mm drones to ~100 g on
 * 1000 mm drones, driven by the torque (pole count, diameter) needed
 * to swing larger propellers.
 */

#ifndef DRONEDSE_COMPONENTS_MOTOR_HH
#define DRONEDSE_COMPONENTS_MOTOR_HH

#include <string>
#include <vector>

#include "util/quantity.hh"
#include "util/rng.hh"

namespace dronedse {

/**
 * One BLDC motor model.  Data fields stay raw doubles (catalog
 * boundary); typed accessors cover the quantities the solver uses.
 */
struct MotorRecord
{
    /** Kv rating: no-load RPM per volt. */
    double kv = 0.0;
    /** Motor weight (g). */
    double weightG = 0.0;
    /** Maximum continuous current (A). */
    double maxCurrentA = 0.0;
    /** Maximum thrust (g) with the matched propeller. */
    double maxThrustG = 0.0;
    /** Matched propeller diameter (inches). */
    double propDiameterIn = 0.0;

    /** Motor weight as a typed quantity. */
    Quantity<Grams> weight() const { return Quantity<Grams>(weightG); }

    /** Max continuous current as a typed quantity. */
    Quantity<Amperes> maxCurrent() const
    {
        return Quantity<Amperes>(maxCurrentA);
    }

    /** Max thrust as a typed quantity. */
    Quantity<GramsForce> maxThrust() const
    {
        return Quantity<GramsForce>(maxThrustG);
    }
};

/**
 * Motor weight as a function of the max thrust it must produce.
 *
 * Calibrated to the paper's observations: an MT2213-class motor
 * (~55 g) lifts ~850 g with a 10" prop; 100 mm-class motors weigh
 * ~5 g; 1000 mm-class motors ~100 g.
 */
Quantity<Grams> motorWeightG(Quantity<GramsForce> max_thrust);

/**
 * A motor's display name "BLDC-<Kv>Kv-<prop>in", both values truncated to
 * whole numbers (saturating, so a degenerate Kv past INT_MAX stays
 * defined).
 */
std::string motorName(double kv_rating, Quantity<Inches> prop_diameter);

/**
 * Build the motor matched to a thrust requirement at a supply
 * voltage, using the propulsion physics to derive Kv and current.
 *
 * @param required_thrust   Max thrust per motor, i.e.
 *        TWR * weight / 4.
 * @param prop_diameter     Propeller diameter the frame allows.
 * @param supply_voltage    Battery nominal voltage.
 */
MotorRecord matchMotor(Quantity<GramsForce> required_thrust,
                       Quantity<Inches> prop_diameter,
                       Quantity<Volts> supply_voltage);

/**
 * Synthesize a motor catalog across wheelbase classes, mimicking the
 * data released by the paper's 150 manufacturers.
 */
std::vector<MotorRecord> generateMotorCatalog(Rng &rng, int per_class = 30);

} // namespace dronedse

#endif // DRONEDSE_COMPONENTS_MOTOR_HH
