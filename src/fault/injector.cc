#include "fault/injector.hh"

#include <algorithm>
#include <cmath>

namespace dronedse::fault {

FaultInjector::FaultInjector(FaultScenario scenario)
    : scenario_(std::move(scenario))
{
    // Compile the timeline: what is in effect can change only where
    // some event's `activeAt` comparison flips, at its start or end
    // (the same `startS + durationS` sum `activeAt` compares with).
    // A NaN bound is never crossed, so it is left out.
    for (const auto &e : scenario_.events) {
        for (const double b : {e.startS, e.startS + e.durationS}) {
            if (!std::isnan(b))
                bounds_.push_back(b);
        }
    }
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                  bounds_.end());

    // Each segment's snapshot is the per-kind answer at its first
    // instant; no comparison flips inside the segment, so it is the
    // answer at every instant of it.
    segments_.resize(bounds_.size() + 1);
    for (std::size_t j = 0; j < bounds_.size(); ++j) {
        const double t = bounds_[j];
        FaultSnapshot &s = segments_[j + 1];
        s.gpsOut = active(FaultKind::GpsDropout, t);
        s.cameraOut = active(FaultKind::CameraFrameLoss, t);
        s.linkDown = active(FaultKind::OffloadLinkDown, t);
        s.imuNoise = magnitude(FaultKind::ImuNoiseSpike, t, 1.0);
        s.minMotorEff = magnitude(FaultKind::MotorDerate, t, 1.0);
        s.latencyMs = magnitude(FaultKind::OffloadLatencySpike, t, 0.0);
        s.costScale = magnitude(FaultKind::ComputeContention, t, 1.0);
    }
}

bool
FaultInjector::active(FaultKind kind, double t) const
{
    for (const auto &e : scenario_.events) {
        if (e.kind == kind && e.activeAt(t))
            return true;
    }
    return false;
}

int
FaultInjector::activeCount(double t) const
{
    int count = 0;
    for (const auto &e : scenario_.events)
        count += e.activeAt(t) ? 1 : 0;
    return count;
}

double
FaultInjector::magnitude(FaultKind kind, double t, double neutral) const
{
    const bool take_min = kind == FaultKind::MotorDerate;
    bool any = false;
    double strongest = neutral;
    for (const auto &e : scenario_.events) {
        if (e.kind != kind || !e.activeAt(t))
            continue;
        if (!any) {
            strongest = e.magnitude;
            any = true;
        } else {
            strongest = take_min ? std::min(strongest, e.magnitude)
                                 : std::max(strongest, e.magnitude);
        }
    }
    return strongest;
}

double
FaultInjector::motorEffectiveness(int index, double t) const
{
    double eff = 1.0;
    for (const auto &e : scenario_.events) {
        if (e.kind == FaultKind::MotorDerate && e.index == index &&
            e.activeAt(t)) {
            eff = std::min(eff, e.magnitude);
        }
    }
    return std::clamp(eff, 0.0, 1.0);
}

double
FaultInjector::lastEventEnd() const
{
    double end = 0.0;
    for (const auto &e : scenario_.events)
        end = std::max(end, e.startS + e.durationS);
    return end;
}

} // namespace dronedse::fault
