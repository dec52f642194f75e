/**
 * @file
 * Inputs and outputs of one drone design-space point.
 *
 * A design point fixes the free variables of the paper's model
 * (wheelbase, battery configuration, compute board, TWR, activity)
 * and the solver (Equations 1-7, Section 3.2) resolves the coupled
 * weight/power/flight-time quantities.  Every dimensioned field is a
 * `Quantity`, so mixing up grams, watts, mAh, and minutes between
 * equations is a compile error; use `.value()` only at the CSV /
 * export boundary.
 */

#ifndef DRONEDSE_DSE_DESIGN_POINT_HH
#define DRONEDSE_DSE_DESIGN_POINT_HH

#include <string>

#include "components/battery.hh"
#include "components/compute_board.hh"
#include "components/esc.hh"
#include "components/motor.hh"
#include "physics/loads.hh"
#include "util/enum_names.hh"
#include "util/quantity.hh"

namespace dronedse {

/** Free variables of a design point. */
struct DesignInputs
{
    /** Frame wheelbase; fixes frame weight and max propeller. */
    Quantity<Millimeters> wheelbaseMm{450.0};
    /** LiPo series cell count (1-6). */
    int cells = 3;
    /** Battery capacity. */
    Quantity<MilliampHours> capacityMah{3000.0};
    /**
     * Target thrust-to-weight ratio.  The paper uses the minimum
     * flyable value of 2 to bound the computation power contribution
     * from above (Table 3).
     */
    double twr = 2.0;
    /**
     * Propeller diameter; 0 selects the largest the wheelbase allows
     * (the paper's procedure).
     */
    Quantity<Inches> propDiameterIn{0.0};
    /** ESC market segment (long-flight unless studying racers). */
    EscClass escClass = EscClass::LongFlight;
    /** Compute board (weight and power). */
    ComputeBoardRecord compute{"Basic 3W chip", BoardClass::Basic, 20.0,
                               3.0};
    /** External sensor weight carried. */
    Quantity<Grams> sensorWeightG{};
    /** External sensor power drawn from the main pack. */
    Quantity<Watts> sensorPowerW{};
    /** Additional payload. */
    Quantity<Grams> payloadG{};
    /** Activity regime for the average-power equation. */
    FlightActivity activity = FlightActivity::Hovering;
};

/** The physical envelope, beside the LiPo `kMinCells`/`kMaxCells`. */
inline constexpr double kMinTwr = 1.0;
inline constexpr double kMaxTwr = 10.0;
inline constexpr Quantity<Millimeters> kMaxWheelbase{2000.0};

/**
 * The inputs the model is defined for: wheelbase in (0,
 * kMaxWheelbase], TWR in [kMinTwr, kMaxTwr], cells in the LiPo range,
 * a finite capacity > 0, and every other number finite and >= 0.
 * Each rule reads one field.  Returns "" when valid, else the first
 * violation (the serve planner replies with it).
 */
std::string validateDesignInputs(const DesignInputs &inputs);

/** Why a design point has no feasible closure. */
enum class InfeasibleReason
{
    None,
    CellCount,
    InvalidInputs,
    NonPositiveFixedWeight,
    Diverged,
    CRating,
};

/** Wire spellings, also the report text (util/enum_names.hh). */
constexpr std::array<EnumName<InfeasibleReason>, 6>
wireNames(InfeasibleReason)
{
    return {{{InfeasibleReason::None, ""},
             {InfeasibleReason::CellCount, "cell count out of range"},
             {InfeasibleReason::InvalidInputs,
              "invalid capacity, TWR, or wheelbase"},
             {InfeasibleReason::NonPositiveFixedWeight,
              "fixed weight is not positive"},
             {InfeasibleReason::Diverged, "weight closure diverged"},
             {InfeasibleReason::CRating,
              "battery C-rating cannot supply max draw"}}};
}

/** Resolved quantities of a design point (Equations 1-7). */
struct DesignResult
{
    /** False when the closure failed (e.g. runaway weight). */
    bool feasible = false;
    /** Why, when infeasible; `None` when feasible. */
    InfeasibleReason infeasibleReason = InfeasibleReason::None;

    /** Echo of the inputs that produced this result. */
    DesignInputs inputs;

    // -- Equation 1: weight closure --------------------------------
    /** All-up weight. */
    Quantity<Grams> totalWeightG{};
    /**
     * Basic weight: total minus battery, ESCs, and motors
     * (the Figure 9 definition).
     */
    Quantity<Grams> basicWeightG{};
    Quantity<Grams> frameWeightG{};
    Quantity<Grams> batteryWeightG{};
    Quantity<Grams> motorSetWeightG{};
    Quantity<Grams> escSetWeightG{};
    Quantity<Grams> propSetWeightG{};
    Quantity<Grams> wiringWeightG{};

    // -- Equation 2: motor matching --------------------------------
    /** Matched motor (Kv, weight, max current). */
    MotorRecord motor;
    /** Max continuous current per motor. */
    Quantity<Amperes> motorMaxCurrentA{};
    /** Flag for the Figure 9/10 "extremely high Kv" region. */
    bool extremeKv = false;

    // -- Equations 3-4: power and energy ---------------------------
    /** Max electrical propulsion power, 4 * I_max * V. */
    Quantity<Watts> maxPowerW{};
    /** Propulsion power at the activity's flying load. */
    Quantity<Watts> propulsionPowerW{};
    /** Compute board power. */
    Quantity<Watts> computePowerW{};
    /** Sensor power from the main pack. */
    Quantity<Watts> sensorPowerW{};
    /** Average total power, Equation 3. */
    Quantity<Watts> avgPowerW{};
    /** Usable battery energy, Equation 4. */
    Quantity<WattHours> usableEnergyWh{};

    // -- Equations 5-6: flight time and footprint ------------------
    /** Flight time, Equation 5. */
    Quantity<Minutes> flightTimeMin{};
    /** Fraction of total power consumed by compute, Equation 6. */
    double computePowerFraction = 0.0;
};

} // namespace dronedse

#endif // DRONEDSE_DSE_DESIGN_POINT_HH
