#include "dse/design_point.hh"

#include <cmath>
#include <cstdio>

namespace dronedse {

namespace {

bool
finiteNonNegative(double v)
{
    return std::isfinite(v) && v >= 0.0;
}

std::string
outside(const char *field, const char *open, double lo, double hi)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s must be in %s%g, %g]", field,
                  open, lo, hi);
    return buf;
}

} // namespace

std::string
validateDesignInputs(const DesignInputs &in)
{
    const double wheelbase = in.wheelbaseMm.value();
    if (!(wheelbase > 0.0 && wheelbase <= kMaxWheelbase.value()))
        return outside("wheelbaseMm", "(", 0.0, kMaxWheelbase.value());
    if (in.cells < kMinCells || in.cells > kMaxCells)
        return outside("cells", "[", kMinCells, kMaxCells);
    if (!(in.twr >= kMinTwr && in.twr <= kMaxTwr))
        return outside("twr", "[", kMinTwr, kMaxTwr);
    if (!(std::isfinite(in.capacityMah.value()) &&
          in.capacityMah.value() > 0.0))
        return "capacityMah must be finite and > 0";
    if (!finiteNonNegative(in.propDiameterIn.value()))
        return "propDiameterIn must be finite and >= 0";
    if (!finiteNonNegative(in.compute.weightG) ||
        !finiteNonNegative(in.compute.powerW))
        return "compute weightG/powerW must be finite and >= 0";
    if (!finiteNonNegative(in.sensorWeightG.value()))
        return "sensorWeightG must be finite and >= 0";
    if (!finiteNonNegative(in.sensorPowerW.value()))
        return "sensorPowerW must be finite and >= 0";
    if (!finiteNonNegative(in.payloadG.value()))
        return "payloadG must be finite and >= 0";
    return "";
}

} // namespace dronedse
