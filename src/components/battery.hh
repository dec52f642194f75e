/**
 * @file
 * LiPo battery records, catalog, and weight model (paper Figure 7).
 *
 * The paper surveys 250 commercial LiPo packs and fits, per cell
 * count, a linear relationship between capacity (mAh) and weight (g).
 * We embed those published fits, synthesize a catalog of packs
 * scattered around them, and provide a fitter path that re-derives
 * the lines from the catalog (the survey -> fit -> model pipeline).
 */

#ifndef DRONEDSE_COMPONENTS_BATTERY_HH
#define DRONEDSE_COMPONENTS_BATTERY_HH

#include <vector>

#include "util/quantity.hh"
#include "util/regression.hh"
#include "util/rng.hh"

namespace dronedse {

/**
 * One commercial LiPo battery pack.  The data fields stay raw
 * doubles — catalog records are the survey/CSV boundary and feed the
 * unit-agnostic regression fitter — but every derived quantity is
 * typed.
 */
struct BatteryRecord
{
    /** Series cell count (1S..6S). */
    int cells = 1;
    /** Capacity in mAh. */
    double capacityMah = 0.0;
    /** Pack weight in grams, including case/wires/protection. */
    double weightG = 0.0;
    /** Discharge C rating (max continuous current = C * Ah). */
    double dischargeC = 25.0;

    /** Capacity as a typed quantity. */
    Quantity<MilliampHours> capacity() const;

    /** Pack weight as a typed quantity. */
    Quantity<Grams> weight() const;

    /** Nominal pack voltage (3.7 V/cell). */
    Quantity<Volts> nominalVoltage() const;

    /** Stored energy at nominal voltage. */
    Quantity<WattHours> energyWh() const;

    /** Maximum continuous discharge current. */
    Quantity<Amperes> maxContinuousCurrentA() const;
};

/** Smallest and largest cell counts covered by the survey. */
inline constexpr int kMinCells = 1;
inline constexpr int kMaxCells = 6;

/**
 * Published capacity->weight fit for a given cell count
 * (Figure 7 legend, e.g. 6S: y = 0.116x + 159.117).
 */
LinearFit paperBatteryFit(int cells);

/**
 * Weight of the lightest commercial pack of the given capacity and
 * cell count, from the published fit.
 */
Quantity<Grams> batteryWeightG(int cells, Quantity<MilliampHours> capacity);

/**
 * Battery capacity reachable at a given pack weight for a cell
 * count (the fit inverted); returns 0 when the weight is below the
 * fit's intercept.
 */
Quantity<MilliampHours> batteryCapacityAtWeight(int cells,
                                                Quantity<Grams> weight);

/**
 * Synthesize a catalog of commercial packs scattered around the
 * published fits.
 *
 * @param rng Seeded generator (catalog is deterministic per seed).
 * @param packs_per_config Packs per cell count (default gives ~250
 *        packs in total, matching the paper's survey size).
 */
std::vector<BatteryRecord>
generateBatteryCatalog(Rng &rng, int packs_per_config = 42);

/**
 * Re-fit capacity vs weight from catalog entries of one cell count.
 * Used by tests/benches to confirm the survey pipeline reproduces
 * the published coefficients.
 */
LinearFit fitBatteryCatalog(const std::vector<BatteryRecord> &catalog,
                            int cells);

} // namespace dronedse

#endif // DRONEDSE_COMPONENTS_BATTERY_HH
