#include "components/frame.hh"

#include <algorithm>
#include <array>

#include "util/logging.hh"

namespace dronedse {

LinearFit
paperFrameFit()
{
    LinearFit fit;
    fit.slope = 1.2767;
    fit.intercept = -167.6;
    fit.rSquared = 1.0;
    return fit;
}

Quantity<Grams>
frameWeightG(const LinearFit &fit, Quantity<Millimeters> wheelbase)
{
    const double wheelbase_mm = wheelbase.value();
    if (wheelbase_mm <= 0.0)
        fatal("frameWeightG: wheelbase must be positive");

    if (wheelbase_mm > 200.0)
        return Quantity<Grams>(fit.at(wheelbase_mm));

    // Below 200 mm the survey shows a 50-200 g band rather than the
    // main fit; ramp linearly from 50 g at 50 mm to the fit value at
    // the 200 mm boundary so the model is continuous.
    const double boundary = fit.at(200.0);
    const double t = std::clamp((wheelbase_mm - 50.0) / 150.0, 0.0, 1.0);
    return Quantity<Grams>(50.0 + t * (boundary - 50.0));
}

Quantity<Grams>
frameWeightG(Quantity<Millimeters> wheelbase)
{
    return frameWeightG(paperFrameFit(), wheelbase);
}

Quantity<Inches>
maxPropDiameterIn(Quantity<Millimeters> wheelbase)
{
    const double wheelbase_mm = wheelbase.value();
    if (wheelbase_mm <= 0.0)
        fatal("maxPropDiameterIn: wheelbase must be positive");

    // Piecewise-linear through the Figure 9 wheelbase/prop pairings.
    constexpr std::array<std::pair<double, double>, 5> points = {{
        {50.0, 1.0}, {100.0, 2.0}, {200.0, 5.0}, {450.0, 10.0},
        {800.0, 20.0},
    }};

    if (wheelbase_mm <= points.front().first)
        return Quantity<Inches>(points.front().second * wheelbase_mm /
                                points.front().first);
    for (std::size_t i = 1; i < points.size(); ++i) {
        if (wheelbase_mm <= points[i].first) {
            const auto &[x0, y0] = points[i - 1];
            const auto &[x1, y1] = points[i];
            const double t = (wheelbase_mm - x0) / (x1 - x0);
            return Quantity<Inches>(y0 + t * (y1 - y0));
        }
    }
    // Extrapolate with the last segment's slope.
    const auto &[x0, y0] = points[points.size() - 2];
    const auto &[x1, y1] = points.back();
    return Quantity<Inches>(y1 + (wheelbase_mm - x1) * (y1 - y0) /
                            (x1 - x0));
}

std::vector<FrameRecord>
generateFrameCatalog(Rng &rng, int extra)
{
    // Named frames visible in Figure 8b.
    std::vector<FrameRecord> catalog = {
        {"220 Martian II", 220.0, 95.0},
        {"Crazepony F450", 450.0, 272.0},
        {"Readytosky S500", 500.0, 405.0},
        {"iFlight BumbleBee", 142.0, 86.0},
        {"Tarot T960", 960.0, 1060.0},
    };

    for (int i = 0; i < extra; ++i) {
        FrameRecord rec;
        rec.wheelbaseMm = rng.uniform(80.0, 1100.0);
        rec.weightG = std::max(
            frameWeightG(Quantity<Millimeters>(rec.wheelbaseMm)).value() *
                (1.0 + rng.gaussian(0.0, 0.08)),
            40.0);
        rec.name = "Frame-" +
                   std::to_string(static_cast<int>(rec.wheelbaseMm)) + "mm";
        catalog.push_back(rec);
    }
    return catalog;
}

LinearFit
fitFrameCatalog(const std::vector<FrameRecord> &catalog)
{
    std::vector<double> xs, ys;
    for (const auto &rec : catalog) {
        if (rec.wheelbaseMm > 200.0) {
            xs.push_back(rec.wheelbaseMm);
            ys.push_back(rec.weightG);
        }
    }
    return fitLinear(xs, ys);
}

} // namespace dronedse
