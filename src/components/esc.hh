/**
 * @file
 * Electronic speed controller records and weight model
 * (paper Figure 8a).
 *
 * The paper surveys 40 commercial ESCs and fits the total weight of
 * a set of four ESCs against the max continuous current per ESC,
 * split into long-flight designs (heavier MOSFETs/capacitors) and
 * short-flight racing designs that overheat in longer flights.
 */

#ifndef DRONEDSE_COMPONENTS_ESC_HH
#define DRONEDSE_COMPONENTS_ESC_HH

#include <vector>

#include "util/enum_names.hh"
#include "util/quantity.hh"
#include "util/regression.hh"
#include "util/rng.hh"

namespace dronedse {

/** Market segment an ESC design targets. */
enum class EscClass
{
    /** Racing ESCs: light, overheat after ~5 minutes. */
    ShortFlight,
    /** General-purpose ESCs sized for sustained flight. */
    LongFlight,
};

/** Wire spellings (util/enum_names.hh). */
constexpr std::array<EnumName<EscClass>, 2>
wireNames(EscClass)
{
    return {{{EscClass::ShortFlight, "short_flight"},
             {EscClass::LongFlight, "long_flight"}}};
}

/** One commercial ESC model. */
struct EscRecord
{
    EscClass escClass = EscClass::LongFlight;
    /** Max continuous current per ESC (A). */
    double maxCurrentA = 0.0;
    /** Weight of a set of four ESCs (g), as surveyed in Figure 8a. */
    double weight4xG = 0.0;
};

/**
 * Published current -> 4x-ESC-weight fit (Figure 8a legend:
 * long flight y = 4.9678x - 15.757; short y = 1.2269x + 11.816).
 */
LinearFit paperEscFit(EscClass esc_class);

/**
 * Weight of four ESCs rated for the given per-ESC continuous
 * current, from `fit`, with a 10 g floor for the set.
 */
Quantity<Grams> escSetWeightG(Quantity<Amperes> max_current,
                              const LinearFit &fit);

/** `escSetWeightG` at the published fit of `esc_class`. */
Quantity<Grams> escSetWeightG(Quantity<Amperes> max_current,
                              EscClass esc_class = EscClass::LongFlight);

/** Synthesize a catalog of ~40 ESCs scattered around the fits. */
std::vector<EscRecord> generateEscCatalog(Rng &rng, int per_class = 20);

/** Re-fit current vs weight from catalog entries of one class. */
LinearFit fitEscCatalog(const std::vector<EscRecord> &catalog,
                        EscClass esc_class);

} // namespace dronedse

#endif // DRONEDSE_COMPONENTS_ESC_HH
