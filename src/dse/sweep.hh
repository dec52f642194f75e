/**
 * @file
 * Design-space sweeps: the grid descriptions and serial reference
 * loops that generate the series in Figures 9 and 10 and locate each
 * size class's best configuration.
 *
 * `SweepSpec` is the shared grid vocabulary: it names the axes of a
 * sweep (airframe x board x activity x cells x capacity) and expands
 * to a deterministic, ordered list of `DesignInputs`.  The serial
 * loops here and the parallel `engine::SweepEngine` both consume the
 * same expansion, which is what makes the parallel results
 * bit-identical to the serial reference.
 */

#ifndef DRONEDSE_DSE_SWEEP_HH
#define DRONEDSE_DSE_SWEEP_HH

#include <string>
#include <vector>

#include "components/commercial.hh"
#include "dse/design_point.hh"

namespace dronedse {

/** Canonical parameters of one Figure 10 size class. */
struct SizeClassSpec
{
    SizeClass sizeClass = SizeClass::Medium;
    const char *label = "";
    /** Representative wheelbase. */
    Quantity<Millimeters> wheelbaseMm{450.0};
    /**
     * Propeller diameter.  For the small consumer class the paper's
     * validation points (Mavic, Spark, ...) fly folding ~5" props
     * that overlap the arms, so the class prop exceeds the strict
     * wheelbase cap; see EXPERIMENTS.md.
     */
    Quantity<Inches> propDiameterIn{10.0};
    /** Capacity sweep bounds, Section 3.2 procedure. */
    Quantity<MilliampHours> capacityLoMah{1000.0};
    Quantity<MilliampHours> capacityHiMah{8000.0};
    /** Weight axis of the corresponding Figure 10 panel. */
    Quantity<Grams> weightAxisLoG{200.0};
    Quantity<Grams> weightAxisHiG{1700.0};
    /** Paper's validated best-configuration flight time. */
    Quantity<Minutes> paperBestFlightTimeMin{23.0};
};

/** The three Figure 10 classes (small/medium/large). */
const SizeClassSpec &classSpec(SizeClass size_class);

/**
 * Practical cap on the battery's share of all-up weight.  Commercial
 * drones carry 20-35 % battery (Figure 14: 23 %; Mavic: ~33 %);
 * beyond that, C-rating margins, voltage sag, and structure make
 * designs impractical, so the best-configuration search excludes
 * them.
 */
inline constexpr double kMaxBatteryMassFraction = 0.35;

/**
 * True when a design is inside the class's practical envelope:
 * within the weight axis and under the battery-mass-fraction cap.
 */
bool withinPracticalLimits(const DesignResult &result,
                           const SizeClassSpec &spec);

/** One airframe of a sweep grid: a wheelbase plus its propeller. */
struct SweepAirframe
{
    Quantity<Millimeters> wheelbaseMm{450.0};
    /** 0 selects the largest the wheelbase allows. */
    Quantity<Inches> propDiameterIn{0.0};
};

/**
 * Declarative description of a design-space grid: the cross product
 * airframe x board x activity x cells x capacity, plus the shared
 * scalar inputs (TWR, ESC class, sensors, payload).
 *
 * Expansion order is fixed (capacity innermost) so every consumer —
 * the serial loops below, the parallel engine, and the CSV exporters
 * — sees the identical point sequence.
 */
struct SweepSpec
{
    std::vector<SweepAirframe> airframes{SweepAirframe{}};
    std::vector<ComputeBoardRecord> boards;
    std::vector<FlightActivity> activities{FlightActivity::Hovering};
    std::vector<int> cells{3};
    Quantity<MilliampHours> capacityLoMah{1000.0};
    Quantity<MilliampHours> capacityHiMah{8000.0};
    Quantity<MilliampHours> capacityStepMah{250.0};
    double twr = 2.0;
    EscClass escClass = EscClass::LongFlight;
    Quantity<Grams> sensorWeightG{};
    Quantity<Watts> sensorPowerW{};
    Quantity<Grams> payloadG{};

    /** Number of grid points the spec expands to. */
    std::size_t pointCount() const;
};

/**
 * Every axis non-empty, a finite capacity step > 0, lo <= hi, and
 * every grid value passing `validateDesignInputs`.  Returns "" when
 * valid, else the first violation.
 */
std::string validateSweepSpec(const SweepSpec &spec);

/**
 * The shared Figure 10/11 builder: one size class's capacity grid
 * for a set of battery families on one board and activity.  Both
 * figure benches and the engine-backed best-configuration search
 * route through this so the size-class loop bodies exist once.
 */
SweepSpec classSweepSpec(const SizeClassSpec &spec,
                         std::vector<int> cells,
                         Quantity<MilliampHours> step,
                         const ComputeBoardRecord &compute,
                         FlightActivity activity = FlightActivity::Hovering,
                         double twr = 2.0);

/**
 * Expand a spec to its ordered list of design points (airframe, then
 * board, then activity, then cells, with capacity innermost).  The
 * capacity axis accumulates `lo + step + step + ...` exactly as the
 * original serial loop did, so expansion reproduces the historical
 * floating-point grid bit-for-bit.
 */
std::vector<DesignInputs> expandGrid(const SweepSpec &spec);

/**
 * Serial reference execution of a spec: `solveDesign` over
 * `expandGrid` in order.  The engine's determinism contract is
 * defined against this function's output.
 */
std::vector<DesignResult> runSweepSerial(const SweepSpec &spec);

/**
 * Sweep battery capacity for one class and cell count, solving each
 * design point (the Figure 10a-c series for one battery family).
 *
 * Infeasible points are omitted.
 */
std::vector<DesignResult>
sweepCapacity(const SizeClassSpec &spec, int cells,
              Quantity<MilliampHours> step,
              const ComputeBoardRecord &compute,
              FlightActivity activity = FlightActivity::Hovering,
              double twr = 2.0);

/**
 * Best configuration of a class: the max-flight-time design over
 * cell counts {1..6} and the class's capacity range.
 */
DesignResult bestConfiguration(
    const SizeClassSpec &spec, const ComputeBoardRecord &compute,
    Quantity<MilliampHours> step = Quantity<MilliampHours>(250.0),
    double twr = 2.0);

/** One point of a Figure 9 series. */
struct MotorCurrentPoint
{
    /** Basic weight: no battery, ESCs, or motors. */
    Quantity<Grams> basicWeightG{};
    /** Minimum required max current draw per motor. */
    Quantity<Amperes> motorCurrentA{};
    /** Kv rating of the matched motor. */
    double kv = 0.0;
    /** Matched motor weight. */
    Quantity<Grams> motorWeightG{};
};

/**
 * The Figure 9 relationship: per-motor max current vs basic weight
 * for a given propeller and supply voltage at a target TWR.
 *
 * Basic weight excludes battery, ESCs, and motors (the figure's
 * definition); the closure adds motor and ESC mass back before
 * computing the thrust requirement.
 */
std::vector<MotorCurrentPoint>
motorCurrentCurve(Quantity<Inches> prop_diameter, int cells,
                  Quantity<Grams> basic_lo, Quantity<Grams> basic_hi,
                  Quantity<Grams> step, double twr = 2.0);

} // namespace dronedse

#endif // DRONEDSE_DSE_SWEEP_HH
