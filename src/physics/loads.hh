/**
 * @file
 * Flying-load model (%FlyingLoad in Equation 3).
 *
 * The paper expresses average propulsion power as a fraction of the
 * maximum current draw: 20-30 % for low-load hovering, 60-70 % when
 * maneuvering (Section 3.2).
 */

#ifndef DRONEDSE_PHYSICS_LOADS_HH
#define DRONEDSE_PHYSICS_LOADS_HH

#include "util/enum_names.hh"

namespace dronedse {

/** Flight activity regimes used by the footprint analysis. */
enum class FlightActivity
{
    Hovering,
    Maneuvering,
};

/** Wire/CSV spellings (util/enum_names.hh). */
constexpr std::array<EnumName<FlightActivity>, 2>
wireNames(FlightActivity)
{
    return {{{FlightActivity::Hovering, "hovering"},
             {FlightActivity::Maneuvering, "maneuvering"}}};
}

/** Centre of the paper's hover band (20-30 % of max draw). */
inline constexpr double kHoverLoadFraction = 0.30;

/** Centre of the paper's maneuver band (60-70 % of max draw). */
inline constexpr double kManeuverLoadFraction = 0.65;

/** Load fraction for an activity regime. */
constexpr double
flyingLoadFraction(FlightActivity activity)
{
    return activity == FlightActivity::Hovering ? kHoverLoadFraction
                                                : kManeuverLoadFraction;
}

} // namespace dronedse

#endif // DRONEDSE_PHYSICS_LOADS_HH
