#include "components/esc.hh"

#include <algorithm>

namespace dronedse {

LinearFit
paperEscFit(EscClass esc_class)
{
    LinearFit fit;
    if (esc_class == EscClass::LongFlight) {
        fit.slope = 4.9678;
        fit.intercept = -15.757;
    } else {
        fit.slope = 1.2269;
        fit.intercept = 11.816;
    }
    fit.rSquared = 1.0;
    return fit;
}

Quantity<Grams>
escSetWeightG(Quantity<Amperes> max_current, const LinearFit &fit)
{
    // Tiny ESCs bottom out around 10 g for the set of four.
    return Quantity<Grams>(std::max(fit.at(max_current.value()), 10.0));
}

Quantity<Grams>
escSetWeightG(Quantity<Amperes> max_current, EscClass esc_class)
{
    return escSetWeightG(max_current, paperEscFit(esc_class));
}

std::vector<EscRecord>
generateEscCatalog(Rng &rng, int per_class)
{
    std::vector<EscRecord> catalog;
    catalog.reserve(static_cast<std::size_t>(per_class) * 2);

    for (EscClass cls : {EscClass::LongFlight, EscClass::ShortFlight}) {
        const LinearFit fit = paperEscFit(cls);
        for (int i = 0; i < per_class; ++i) {
            EscRecord rec;
            rec.escClass = cls;
            rec.maxCurrentA = rng.uniform(10.0, 90.0);
            rec.weight4xG = std::max(
                fit.at(rec.maxCurrentA) * (1.0 + rng.gaussian(0.0, 0.05)),
                10.0);
            catalog.push_back(rec);
        }
    }
    return catalog;
}

LinearFit
fitEscCatalog(const std::vector<EscRecord> &catalog, EscClass esc_class)
{
    std::vector<double> xs, ys;
    for (const auto &rec : catalog) {
        if (rec.escClass == esc_class) {
            xs.push_back(rec.maxCurrentA);
            ys.push_back(rec.weight4xG);
        }
    }
    return fitLinear(xs, ys);
}

} // namespace dronedse
