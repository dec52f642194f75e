/**
 * @file
 * Deterministic fault injector: a pure, replayable view over a
 * scripted `FaultScenario`.
 *
 * The injector answers "what is failing at mission time t" — it owns
 * no randomness and mutates nothing, so the mission harness can
 * apply the same scenario to the sensor suite, plant, scheduler, and
 * offload link every tick and two runs of one scenario are
 * bit-identical regardless of host thread count.
 *
 * A timeline is piecewise constant: what is in effect changes only at
 * an event's start or end.  The constructor compiles it once into
 * segments between those boundaries, each holding the `FaultSnapshot`
 * the steppers read, so a per-tick query is a cursor step instead of
 * a scan over every event per kind.  `active()` and `magnitude()`
 * stay the definition the segments are computed from (and the oracle
 * tests hold them to).
 */

#ifndef DRONEDSE_FAULT_INJECTOR_HH
#define DRONEDSE_FAULT_INJECTOR_HH

#include <cstddef>
#include <vector>

#include "fault/fault.hh"

namespace dronedse::fault {

/**
 * Everything a mission stepper reads of the timeline at one instant,
 * by kind: the three dropout flags and the four strongest magnitudes
 * (each `magnitude(kind, t, neutral)` with the neutral shown).
 */
struct FaultSnapshot
{
    /** GpsDropout active. */
    bool gpsOut = false;
    /** CameraFrameLoss active. */
    bool cameraOut = false;
    /** OffloadLinkDown active. */
    bool linkDown = false;
    /** ImuNoiseSpike magnitude, neutral 1. */
    double imuNoise = 1.0;
    /** Lowest MotorDerate magnitude over all motors, neutral 1. */
    double minMotorEff = 1.0;
    /** OffloadLatencySpike magnitude (ms), neutral 0. */
    double latencyMs = 0.0;
    /** ComputeContention magnitude, neutral 1. */
    double costScale = 1.0;
};

/** Replayable query interface over one scenario. */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultScenario scenario);

    const FaultScenario &scenario() const { return scenario_; }

    /** True while any event of `kind` is in effect at time `t`. */
    bool active(FaultKind kind, double t) const;

    /** Number of events (any kind) in effect at time `t`. */
    int activeCount(double t) const;

    /**
     * Strongest magnitude among active events of `kind` at `t`;
     * `neutral` when none are active.  "Strongest" is
     * kind-dependent: the minimum for MotorDerate (least remaining
     * effectiveness wins), the maximum for everything else.
     */
    double magnitude(FaultKind kind, double t, double neutral) const;

    /**
     * Effectiveness of motor `index` at time `t`: the lowest
     * active MotorDerate magnitude targeting that motor, 1.0 when
     * healthy.
     */
    double motorEffectiveness(int index, double t) const;

    /** Mission time of the last event's end (0 for no events). */
    double lastEventEnd() const;

    /**
     * The snapshot in effect at `t`, bit-identical to the per-kind
     * `active()`/`magnitude()` answers.  `cursor` is the caller's
     * segment index (start it at 0): it moves forward as `t` grows,
     * so a caller stepping monotone time pays O(1) per call.  A `t`
     * earlier than the cursor's segment walks again from the first.
     */
    const FaultSnapshot &snapshot(double t, std::size_t &cursor) const
    {
        if (cursor > 0 && !(t >= bounds_[cursor - 1]))
            cursor = 0;
        while (cursor < bounds_.size() && t >= bounds_[cursor])
            ++cursor;
        return segments_[cursor];
    }

  private:
    FaultScenario scenario_;
    /**
     * Sorted, distinct event starts and ends.  `segments_[0]` holds
     * for t before `bounds_[0]` (nothing active), `segments_[j]` for
     * t in [bounds_[j-1], bounds_[j]), the last one to infinity.
     */
    std::vector<double> bounds_;
    std::vector<FaultSnapshot> segments_;
};

} // namespace dronedse::fault

#endif // DRONEDSE_FAULT_INJECTOR_HH
