/**
 * @file
 * Typed design-space boxes for adaptive exploration.
 *
 * An `ExploreSpace` generalizes the exhaustive `SweepSpec` grid: a
 * base `DesignInputs` point plus a list of `AxisSpec` lattices, one
 * per free variable.  Every axis is a *finite ordered lattice* — a
 * `lo + i*step` ladder for continuous variables, an explicit value
 * list for enumerated ones — so a candidate is just a vector of
 * per-axis indices.  Samplers draw index vectors, the driver crawls
 * the lattice neighborhood, and `materialize` turns an index vector
 * into the `DesignInputs` the solver consumes.
 *
 * Lattice values accumulate `lo + step + step + ...` exactly like
 * `expandGrid`'s capacity loop, so a space built from a `SweepSpec`
 * (`spaceFromSweepSpec`) materializes the *bit-identical* inputs the
 * grid would have produced — that is what makes frontier-set
 * comparisons against the exhaustive oracle exact rather than
 * epsilon-tolerant.
 */

#ifndef DRONEDSE_EXPLORE_SPACE_HH
#define DRONEDSE_EXPLORE_SPACE_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "util/enum_names.hh"

namespace dronedse::explore {

/** The design variable an axis spans. */
enum class AxisKind
{
    Wheelbase,
    Cells,
    Capacity,
    Twr,
    Board,
    Activity,
    Payload,
};

/** Wire/CSV spellings (util/enum_names.hh). */
constexpr std::array<EnumName<AxisKind>, 7>
wireNames(AxisKind)
{
    return {{{AxisKind::Wheelbase, "wheelbase_mm"},
             {AxisKind::Cells, "cells"},
             {AxisKind::Capacity, "capacity_mah"},
             {AxisKind::Twr, "twr"},
             {AxisKind::Board, "board"},
             {AxisKind::Activity, "activity"},
             {AxisKind::Payload, "payload_g"}}};
}

/** Wire/CSV spelling of `kind`. */
const char *axisKindName(AxisKind kind);

/** True for axes whose values are ordered (bisection applies). */
bool axisIsOrdered(AxisKind kind);

/**
 * One axis of a space: a finite ordered lattice of values.
 * Continuous axes store `lo`/`step` in the axis's natural unit
 * (raw doubles: this is a descriptor record, like the catalog
 * structs; the typed builders below are the public construction
 * surface).  Enumerated axes store their value list.
 */
struct AxisSpec
{
    AxisKind kind = AxisKind::Capacity;
    /** Continuous lattices: value_i = lo accumulated i steps. */
    double lo = 0.0;
    double step = 0.0;
    std::size_t count = 1;
    /** Valid when kind == Cells. */
    std::vector<int> cells;
    /** Valid when kind == Board. */
    std::vector<ComputeBoardRecord> boards;
    /** Valid when kind == Activity. */
    std::vector<FlightActivity> activities;

    /** Number of lattice positions on this axis. */
    std::size_t size() const;
};

/** Typed axis builders (the public construction surface). */
AxisSpec wheelbaseAxis(Quantity<Millimeters> lo,
                       Quantity<Millimeters> step, std::size_t count);
AxisSpec capacityAxis(Quantity<MilliampHours> lo,
                      Quantity<MilliampHours> step, std::size_t count);
AxisSpec twrAxis(double lo, double step, std::size_t count);
AxisSpec payloadAxis(Quantity<Grams> lo, Quantity<Grams> step,
                     std::size_t count);
AxisSpec cellsAxis(std::vector<int> cells);
AxisSpec boardAxis(std::vector<ComputeBoardRecord> boards);
AxisSpec activityAxis(std::vector<FlightActivity> activities);

/**
 * A design-space box: the base point plus one lattice per free
 * variable.  Axis order is significant — it fixes the index-vector
 * layout and the exhaustive (grid-sampler) enumeration order, which
 * runs lexicographically with the *last* axis fastest.
 */
struct ExploreSpace
{
    /** Values of every variable no axis overrides. */
    DesignInputs base;
    std::vector<AxisSpec> axes;

    std::size_t axisCount() const { return axes.size(); }

    /** Full lattice size (product of axis sizes, saturating). */
    std::size_t pointCount() const;

    /** The lattice value of axis `axis` at position `i`. */
    double axisValue(std::size_t axis, std::size_t i) const;

    /**
     * The `DesignInputs` at one index vector (`index.size()` must
     * equal `axisCount()`; every entry must be in range).
     */
    DesignInputs materialize(std::span<const std::size_t> index) const;
};

/**
 * The spaces exploration is defined for: at least one axis, at most
 * one per kind, every axis non-empty, lattice parameters finite with
 * a positive step when count > 1, and the base point, every cells
 * and board value, and both endpoints of every lattice passing
 * `validateDesignInputs`.  Returns an empty string when valid, else
 * the first violation (the serve planner surfaces it as an
 * `invalid_request` message).
 */
std::string validateSpace(const ExploreSpace &space);

/**
 * The space whose full lattice is exactly one `SweepSpec` grid:
 * axes [board, activity, cells, capacity] around the spec's single
 * airframe.  Grid enumeration of this space materializes the
 * bit-identical `DesignInputs` sequence `expandGrid(spec)` produces
 * (property-tested).  The spec must have exactly one airframe.
 */
ExploreSpace spaceFromSweepSpec(const SweepSpec &spec);

/**
 * The 450 mm reference space: TWR {1.5, 2.0, 2.5, 3.0} x the full
 * board table x both activities x cells {1..6} x capacity
 * 1000..8000 at `capacity_step`.  Five axes, 67680 lattice points
 * at the default 50 mAh step — the exhaustive-oracle workload of
 * the frontier-fidelity acceptance gate.
 */
ExploreSpace referenceSpace450(
    Quantity<MilliampHours> capacity_step = Quantity<MilliampHours>(
        50.0));

/**
 * A six-axis space no exhaustive grid can reasonably walk: the
 * reference space plus a payload axis {0, 150, 300, 450} g
 * (270720 lattice points at the 50 mAh step).
 */
ExploreSpace wideSpace6(
    Quantity<MilliampHours> capacity_step = Quantity<MilliampHours>(
        50.0));

/**
 * A seven-axis space (wideSpace6 plus a wheelbase axis
 * {350, 400, 450, 500} mm; ~1.08M lattice points) for headroom
 * studies beyond the acceptance gate.
 */
ExploreSpace wideSpace7(
    Quantity<MilliampHours> capacity_step = Quantity<MilliampHours>(
        50.0));

} // namespace dronedse::explore

#endif // DRONEDSE_EXPLORE_SPACE_HH
