#include "explore/space.hh"

#include <cmath>
#include <limits>

#include "components/battery.hh"
#include "util/logging.hh"

namespace dronedse::explore {

const char *
axisKindName(AxisKind kind)
{
    return enumName(kind);
}

bool
axisIsOrdered(AxisKind kind)
{
    // Boards and activities have no between-values ordering the
    // boundary bisection could exploit; everything else steps a
    // monotone physical quantity.
    return kind != AxisKind::Board && kind != AxisKind::Activity;
}

std::size_t
AxisSpec::size() const
{
    switch (kind) {
    case AxisKind::Cells: return cells.size();
    case AxisKind::Board: return boards.size();
    case AxisKind::Activity: return activities.size();
    default: return count;
    }
}

namespace {

AxisSpec
latticeAxis(AxisKind kind, double lo, double step, std::size_t count)
{
    AxisSpec axis;
    axis.kind = kind;
    axis.lo = lo;
    axis.step = step;
    axis.count = count;
    return axis;
}

/**
 * Lattice value by *accumulation* (`lo + step + step + ...`), not
 * `lo + i*step`: this replicates the historical serial capacity
 * loop bit-for-bit, which is what keeps grid-sampler enumeration
 * byte-identical to `expandGrid`.
 */
double
accumulate(double lo, double step, std::size_t i)
{
    double v = lo;
    for (std::size_t k = 0; k < i; ++k)
        v += step;
    return v;
}

/** Set the field a continuous (lattice) axis spans to `v`. */
void
assignLattice(DesignInputs &in, AxisKind kind, double v)
{
    switch (kind) {
    case AxisKind::Wheelbase:
        in.wheelbaseMm = Quantity<Millimeters>(v);
        break;
    case AxisKind::Capacity:
        in.capacityMah = Quantity<MilliampHours>(v);
        break;
    case AxisKind::Twr:
        in.twr = v;
        break;
    case AxisKind::Payload:
        in.payloadG = Quantity<Grams>(v);
        break;
    case AxisKind::Cells:
    case AxisKind::Board:
    case AxisKind::Activity:
        panic("assignLattice: not a lattice axis");
    }
}

} // namespace

AxisSpec
wheelbaseAxis(Quantity<Millimeters> lo, Quantity<Millimeters> step,
              std::size_t count)
{
    return latticeAxis(AxisKind::Wheelbase, lo.value(), step.value(),
                       count);
}

AxisSpec
capacityAxis(Quantity<MilliampHours> lo, Quantity<MilliampHours> step,
             std::size_t count)
{
    return latticeAxis(AxisKind::Capacity, lo.value(), step.value(),
                       count);
}

AxisSpec
twrAxis(double lo, double step, std::size_t count)
{
    return latticeAxis(AxisKind::Twr, lo, step, count);
}

AxisSpec
payloadAxis(Quantity<Grams> lo, Quantity<Grams> step,
            std::size_t count)
{
    return latticeAxis(AxisKind::Payload, lo.value(), step.value(),
                       count);
}

AxisSpec
cellsAxis(std::vector<int> cells)
{
    AxisSpec axis;
    axis.kind = AxisKind::Cells;
    axis.cells = std::move(cells);
    return axis;
}

AxisSpec
boardAxis(std::vector<ComputeBoardRecord> boards)
{
    AxisSpec axis;
    axis.kind = AxisKind::Board;
    axis.boards = std::move(boards);
    return axis;
}

AxisSpec
activityAxis(std::vector<FlightActivity> activities)
{
    AxisSpec axis;
    axis.kind = AxisKind::Activity;
    axis.activities = std::move(activities);
    return axis;
}

std::size_t
ExploreSpace::pointCount() const
{
    std::size_t total = 1;
    for (const AxisSpec &axis : axes) {
        const std::size_t n = axis.size();
        if (n == 0)
            return 0;
        if (total > std::numeric_limits<std::size_t>::max() / n)
            return std::numeric_limits<std::size_t>::max();
        total *= n;
    }
    return total;
}

double
ExploreSpace::axisValue(std::size_t axis, std::size_t i) const
{
    if (axis >= axes.size())
        fatal("ExploreSpace::axisValue: axis out of range");
    const AxisSpec &a = axes[axis];
    if (i >= a.size())
        fatal("ExploreSpace::axisValue: index out of range");
    switch (a.kind) {
    case AxisKind::Cells: return static_cast<double>(a.cells[i]);
    case AxisKind::Board:
    case AxisKind::Activity:
        return static_cast<double>(i);
    default: return accumulate(a.lo, a.step, i);
    }
}

DesignInputs
ExploreSpace::materialize(std::span<const std::size_t> index) const
{
    if (index.size() != axes.size())
        fatal("ExploreSpace::materialize: index arity mismatch");
    DesignInputs in = base;
    for (std::size_t d = 0; d < axes.size(); ++d) {
        const AxisSpec &axis = axes[d];
        const std::size_t i = index[d];
        if (i >= axis.size())
            fatal("ExploreSpace::materialize: index out of range on "
                  "axis " +
                  std::string(axisKindName(axis.kind)));
        switch (axis.kind) {
        case AxisKind::Cells:
            in.cells = axis.cells[i];
            break;
        case AxisKind::Board:
            in.compute = axis.boards[i];
            break;
        case AxisKind::Activity:
            in.activity = axis.activities[i];
            break;
        default:
            assignLattice(in, axis.kind,
                          accumulate(axis.lo, axis.step, i));
            break;
        }
    }
    return in;
}

std::string
validateSpace(const ExploreSpace &space)
{
    if (space.axes.empty())
        return "space needs at least one axis";
    std::string err = validateDesignInputs(space.base);
    if (!err.empty())
        return "base: " + err;
    // The design-point rules each read one field, so moving one
    // probe point through every axis value (or lattice endpoint)
    // checks every point of the lattice.
    DesignInputs probe = space.base;
    const auto valid = [&] {
        err = validateDesignInputs(probe);
        return err.empty();
    };
    bool seen[7] = {};
    for (const AxisSpec &axis : space.axes) {
        const int k = static_cast<int>(axis.kind);
        if (k < 0 || k >= 7)
            return "corrupt axis kind";
        if (seen[k])
            return std::string("duplicate axis '") +
                   axisKindName(axis.kind) + "'";
        seen[k] = true;
        if (axis.size() == 0)
            return std::string("axis '") + axisKindName(axis.kind) +
                   "' is empty";
        const auto fail = [&](const std::string &what) {
            return std::string("axis '") + axisKindName(axis.kind) +
                   "': " + what;
        };
        switch (axis.kind) {
        case AxisKind::Cells:
            for (int c : axis.cells) {
                probe.cells = c;
                if (!valid())
                    return fail(err);
            }
            break;
        case AxisKind::Board:
            for (const ComputeBoardRecord &board : axis.boards) {
                probe.compute = board;
                if (!valid())
                    return fail(err);
            }
            break;
        case AxisKind::Activity:
            break;
        default: {
            if (!std::isfinite(axis.lo) || !std::isfinite(axis.step))
                return fail("non-finite lattice parameters");
            if (axis.count > 1 && axis.step <= 0.0)
                return fail("needs a positive step when count > 1");
            const double hi =
                axis.lo +
                axis.step * static_cast<double>(axis.count - 1);
            for (double v : {axis.lo, hi}) {
                assignLattice(probe, axis.kind, v);
                if (!valid())
                    return fail(err);
            }
            break;
        }
        }
    }
    return "";
}

ExploreSpace
spaceFromSweepSpec(const SweepSpec &spec)
{
    if (spec.airframes.size() != 1)
        fatal("spaceFromSweepSpec: spec must have exactly one "
              "airframe");
    // Axis order mirrors the expandGrid nesting (board, activity,
    // cells, capacity innermost), so lexicographic enumeration with
    // the last axis fastest reproduces the grid sequence.
    ExploreSpace space;
    space.base.wheelbaseMm = spec.airframes[0].wheelbaseMm;
    space.base.propDiameterIn = spec.airframes[0].propDiameterIn;
    space.base.twr = spec.twr;
    space.base.escClass = spec.escClass;
    space.base.sensorWeightG = spec.sensorWeightG;
    space.base.sensorPowerW = spec.sensorPowerW;
    space.base.payloadG = spec.payloadG;

    std::size_t caps = 0;
    for (Quantity<MilliampHours> cap = spec.capacityLoMah;
         cap <= spec.capacityHiMah + Quantity<MilliampHours>(1e-9);
         cap += spec.capacityStepMah) {
        ++caps;
    }
    space.axes = {
        boardAxis(spec.boards),
        activityAxis(spec.activities),
        cellsAxis(spec.cells),
        capacityAxis(spec.capacityLoMah, spec.capacityStepMah, caps),
    };
    return space;
}

ExploreSpace
referenceSpace450(Quantity<MilliampHours> capacity_step)
{
    const SizeClassSpec &medium = classSpec(SizeClass::Medium);
    SweepSpec spec;
    spec.airframes = {{medium.wheelbaseMm, medium.propDiameterIn}};
    spec.boards = computeBoardTable();
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    spec.cells.clear();
    for (int c = kMinCells; c <= kMaxCells; ++c)
        spec.cells.push_back(c);
    spec.capacityLoMah = medium.capacityLoMah;
    spec.capacityHiMah = medium.capacityHiMah;
    spec.capacityStepMah = capacity_step;

    ExploreSpace space = spaceFromSweepSpec(spec);
    // TWR leads so the trailing axes keep the expandGrid nesting of
    // each per-TWR slice.
    space.axes.insert(space.axes.begin(), twrAxis(1.5, 0.5, 4));
    return space;
}

ExploreSpace
wideSpace6(Quantity<MilliampHours> capacity_step)
{
    ExploreSpace space = referenceSpace450(capacity_step);
    space.axes.push_back(payloadAxis(Quantity<Grams>(0.0),
                                     Quantity<Grams>(150.0), 4));
    return space;
}

ExploreSpace
wideSpace7(Quantity<MilliampHours> capacity_step)
{
    ExploreSpace space = wideSpace6(capacity_step);
    // A wheelbase axis overrides the base 450 mm point; prop
    // diameter 0 lets each wheelbase pick its own largest prop.
    space.base.propDiameterIn = Quantity<Inches>(0.0);
    space.axes.insert(space.axes.begin(),
                      wheelbaseAxis(Quantity<Millimeters>(350.0),
                                    Quantity<Millimeters>(50.0), 4));
    return space;
}

} // namespace dronedse::explore
