#include "components/battery.hh"

#include <array>
#include <string>

#include "util/logging.hh"
#include "util/units.hh"

namespace dronedse {

Quantity<MilliampHours>
BatteryRecord::capacity() const
{
    return Quantity<MilliampHours>(capacityMah);
}

Quantity<Grams>
BatteryRecord::weight() const
{
    return Quantity<Grams>(weightG);
}

Quantity<Volts>
BatteryRecord::nominalVoltage() const
{
    return lipoPackVoltage(cells);
}

Quantity<WattHours>
BatteryRecord::energyWh() const
{
    return capacityToWattHours(capacity(), nominalVoltage());
}

Quantity<Amperes>
BatteryRecord::maxContinuousCurrentA() const
{
    // C rating multiplies the one-hour discharge current (C * Ah).
    return (capacity() * dischargeC / Quantity<Hours>(1.0))
        .to<Amperes>();
}

namespace {

/** Figure 7 legend coefficients, indexed by cells-1. */
constexpr std::array<std::pair<double, double>, 6> kPaperFits = {{
    {0.019, 4.856},   // 1S
    {0.050, 12.316},  // 2S
    {0.074, 16.935},  // 3S
    {0.077, 81.265},  // 4S
    {0.118, 45.478},  // 5S
    {0.116, 159.117}, // 6S
}};

void
checkCells(int cells)
{
    if (cells < kMinCells || cells > kMaxCells)
        fatal("battery: cell count must be in [1, 6], got " +
              std::to_string(cells));
}

} // namespace

LinearFit
paperBatteryFit(int cells)
{
    checkCells(cells);
    LinearFit fit;
    fit.slope = kPaperFits[cells - 1].first;
    fit.intercept = kPaperFits[cells - 1].second;
    fit.rSquared = 1.0;
    fit.samples = 0;
    return fit;
}

Quantity<Grams>
batteryWeightG(int cells, Quantity<MilliampHours> capacity)
{
    return Quantity<Grams>(paperBatteryFit(cells).at(capacity.value()));
}

Quantity<MilliampHours>
batteryCapacityAtWeight(int cells, Quantity<Grams> weight)
{
    const LinearFit fit = paperBatteryFit(cells);
    if (weight.value() <= fit.intercept)
        return Quantity<MilliampHours>(0.0);
    return Quantity<MilliampHours>((weight.value() - fit.intercept) /
                                   fit.slope);
}

std::vector<BatteryRecord>
generateBatteryCatalog(Rng &rng, int packs_per_config)
{
    std::vector<BatteryRecord> catalog;
    catalog.reserve(static_cast<std::size_t>(packs_per_config) * 6);

    for (int cells = kMinCells; cells <= kMaxCells; ++cells) {
        const LinearFit fit = paperBatteryFit(cells);
        // Typical commercial capacity range narrows for high-voltage
        // packs (few 1S packs above ~3 Ah, few 6S below ~1 Ah).
        const double cap_lo = cells <= 2 ? 150.0 : 800.0;
        const double cap_hi = cells <= 2 ? 3500.0 : 10000.0;
        for (int i = 0; i < packs_per_config; ++i) {
            BatteryRecord rec;
            rec.cells = cells;
            rec.capacityMah = rng.uniform(cap_lo, cap_hi);
            // Real packs scatter around the fit: manufacturing
            // variation plus heavier construction for higher C.
            rec.dischargeC = rng.uniform(20.0, 120.0);
            const double c_penalty = (rec.dischargeC - 20.0) / 100.0;
            const double noise = rng.gaussian(0.0, 0.03);
            rec.weightG = fit.at(rec.capacityMah) *
                          (1.0 + 0.04 * c_penalty + noise);
            catalog.push_back(rec);
        }
    }
    return catalog;
}

LinearFit
fitBatteryCatalog(const std::vector<BatteryRecord> &catalog, int cells)
{
    checkCells(cells);
    std::vector<double> xs, ys;
    for (const auto &rec : catalog) {
        if (rec.cells == cells) {
            xs.push_back(rec.capacityMah);
            ys.push_back(rec.weightG);
        }
    }
    return fitLinear(xs, ys);
}

} // namespace dronedse
