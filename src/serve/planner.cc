#include "serve/planner.hh"

#include <cmath>

#include "components/battery.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace dronedse::serve {

namespace {

bool
invalid(ErrorReply &err, const std::string &message)
{
    err.code = ErrorCode::InvalidRequest;
    err.message = message;
    return false;
}

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

bool
finiteNonNegative(double v)
{
    return std::isfinite(v) && v >= 0.0;
}

} // namespace

QueryPlanner::QueryPlanner(engine::SweepEngine &engine,
                           PlannerLimits limits)
    : engine_(engine), limits_(limits), codesign_(engine)
{
}

bool
QueryPlanner::validate(const Request &request, ErrorReply &err) const
{
    const auto check_board = [&](const ComputeBoardRecord &board) {
        if (!finiteNonNegative(board.weightG) ||
            !finiteNonNegative(board.powerW))
            return invalid(err,
                           "board weight/power must be finite and "
                           ">= 0");
        return true;
    };
    const auto check_cells = [&](int cells) {
        if (cells < kMinCells || cells > kMaxCells)
            return invalid(err,
                           "cells must be in [" +
                               std::to_string(kMinCells) + ", " +
                               std::to_string(kMaxCells) + "]");
        return true;
    };
    const auto check_twr = [&](double twr) {
        if (!std::isfinite(twr) || twr < limits_.minTwr ||
            twr > limits_.maxTwr)
            return invalid(err, "twr out of accepted range");
        return true;
    };
    const auto check_wheelbase = [&](Quantity<Millimeters> wb) {
        if (!finitePositive(wb.value()) ||
            wb.value() > limits_.maxWheelbaseMm.value())
            return invalid(err, "wheelbase_mm out of accepted range");
        return true;
    };
    const auto check_aux = [&](const char *what, double v) {
        if (!finiteNonNegative(v))
            return invalid(err, std::string(what) +
                                    " must be finite and >= 0");
        return true;
    };

    if (request.kind == QueryKind::Design) {
        const DesignInputs &point = request.point;
        if (!check_wheelbase(point.wheelbaseMm) ||
            !check_cells(point.cells) || !check_twr(point.twr))
            return false;
        if (!finitePositive(point.capacityMah.value()))
            return invalid(err, "capacity_mah must be > 0");
        return check_aux("prop_diameter_in",
                         point.propDiameterIn.value()) &&
               check_board(point.compute) &&
               check_aux("sensor_weight_g",
                         point.sensorWeightG.value()) &&
               check_aux("sensor_power_w",
                         point.sensorPowerW.value()) &&
               check_aux("payload_g", point.payloadG.value());
    }

    if (request.kind == QueryKind::Explore) {
        const explore::ExploreQuery &query = request.explore;
        // validateSpace owns the structural rules (arity, duplicate
        // axes, lattice sanity); the planner adds service limits and
        // the same physical-range checks a design point gets, so the
        // driver's own fatal() guards can never fire on an admitted
        // request.
        const std::string space_err =
            explore::validateSpace(query.space);
        if (!space_err.empty())
            return invalid(err, "explore space: " + space_err);
        for (const explore::AxisSpec &axis : query.space.axes) {
            if (axis.size() > limits_.maxAxisEntries)
                return invalid(err,
                               "explore axis exceeds max entries");
            const double hi =
                axis.lo +
                axis.step * static_cast<double>(
                                axis.count > 0 ? axis.count - 1 : 0);
            switch (axis.kind) {
            case explore::AxisKind::Wheelbase:
                if (!check_wheelbase(Quantity<Millimeters>(axis.lo)) ||
                    !check_wheelbase(Quantity<Millimeters>(hi)))
                    return false;
                break;
            case explore::AxisKind::Capacity:
                if (!finitePositive(axis.lo) || !finitePositive(hi))
                    return invalid(err,
                                   "capacity axis must stay > 0");
                break;
            case explore::AxisKind::Twr:
                if (!check_twr(axis.lo) || !check_twr(hi))
                    return false;
                break;
            case explore::AxisKind::Payload:
                if (!check_aux("payload axis", axis.lo) ||
                    !check_aux("payload axis", hi))
                    return false;
                break;
            case explore::AxisKind::Board:
                for (const ComputeBoardRecord &board : axis.boards) {
                    if (!check_board(board))
                        return false;
                }
                break;
            case explore::AxisKind::Cells:
            case explore::AxisKind::Activity:
                break; // validateSpace / parser already own these.
            }
        }
        // The base point fills every un-swept field; it must be as
        // physical as a standalone design query.
        const DesignInputs &base = query.space.base;
        if (!check_wheelbase(base.wheelbaseMm) ||
            !check_cells(base.cells) || !check_twr(base.twr))
            return false;
        if (!finitePositive(base.capacityMah.value()))
            return invalid(err, "base capacity_mah must be > 0");
        if (!check_aux("prop_diameter_in",
                       base.propDiameterIn.value()) ||
            !check_board(base.compute) ||
            !check_aux("sensor_weight_g",
                       base.sensorWeightG.value()) ||
            !check_aux("sensor_power_w",
                       base.sensorPowerW.value()) ||
            !check_aux("payload_g", base.payloadG.value()))
            return false;
        const explore::ExploreOptions &opts = query.options;
        if (opts.maxEvaluations == 0 ||
            opts.maxEvaluations > limits_.maxExploreEvaluations)
            return invalid(
                err, "max_evaluations must be in [1, " +
                         std::to_string(
                             limits_.maxExploreEvaluations) +
                         "]");
        if (opts.initialSamples == 0)
            return invalid(err, "initial_samples must be > 0");
        if (opts.roundEvaluations == 0)
            return invalid(err, "round_evaluations must be > 0");
        return true;
    }

    if (request.kind == QueryKind::Risk) {
        const explore::RiskQuery &query = request.risk;
        const DesignInputs &point = query.point;
        if (!check_wheelbase(point.wheelbaseMm) ||
            !check_cells(point.cells) || !check_twr(point.twr))
            return false;
        if (!finitePositive(point.capacityMah.value()))
            return invalid(err, "capacity_mah must be > 0");
        if (!check_aux("prop_diameter_in",
                       point.propDiameterIn.value()) ||
            !check_board(point.compute) ||
            !check_aux("sensor_weight_g",
                       point.sensorWeightG.value()) ||
            !check_aux("sensor_power_w",
                       point.sensorPowerW.value()) ||
            !check_aux("payload_g", point.payloadG.value()))
            return false;
        const explore::UncertaintyOptions &opts = query.options;
        if (opts.samples == 0 ||
            opts.samples > limits_.maxRiskSamples)
            return invalid(
                err, "samples must be in [1, " +
                         std::to_string(limits_.maxRiskSamples) +
                         "]");
        if (opts.scatterReplicates < 2 ||
            opts.scatterReplicates > limits_.maxScatterReplicates)
            return invalid(
                err, "scatter_replicates must be in [2, " +
                         std::to_string(
                             limits_.maxScatterReplicates) +
                         "]");
        if (query.gates.size() > limits_.maxAxisEntries ||
            query.quantiles.size() > limits_.maxAxisEntries)
            return invalid(err,
                           "gates/quantiles exceed max entries");
        for (const explore::GateSpec &gate : query.gates) {
            if (!std::isfinite(gate.threshold))
                return invalid(err,
                               "gate threshold must be finite");
            if (!std::isfinite(gate.minProbability) ||
                gate.minProbability < 0.0 ||
                gate.minProbability > 1.0)
                return invalid(
                    err, "gate min_probability must be in [0, 1]");
        }
        for (double q : query.quantiles) {
            if (!std::isfinite(q) || q < 0.0 || q > 1.0)
                return invalid(err,
                               "quantiles must be in [0, 1]");
        }
        return true;
    }

    if (request.kind == QueryKind::Codesign) {
        const codesign::MissionSpec &mission = request.mission;
        if (!finitePositive(mission.targetRateHz))
            return invalid(err, "target_rate_hz must be > 0");
        if (mission.wheelbasesMm.empty() || mission.cells.empty())
            return invalid(err,
                           "mission wheelbases_mm and cells must "
                           "be non-empty");
        if (mission.wheelbasesMm.size() > limits_.maxAxisEntries ||
            mission.cells.size() > limits_.maxAxisEntries)
            return invalid(err, "mission axis exceeds max entries");
        for (const Quantity<Millimeters> wb : mission.wheelbasesMm) {
            if (!check_wheelbase(wb))
                return false;
        }
        for (int cells : mission.cells) {
            if (!check_cells(cells))
                return false;
        }
        for (double ops : mission.perFrameOps) {
            if (!finitePositive(ops))
                return invalid(err,
                               "per_frame_ops must be finite and "
                               "> 0");
        }
        if (!finitePositive(mission.capacityLoMah.value()) ||
            !finitePositive(mission.capacityHiMah.value()) ||
            mission.capacityHiMah.value() <
                mission.capacityLoMah.value())
            return invalid(
                err, "capacity range must satisfy 0 < lo <= hi");
        if (!std::isfinite(mission.capacityStepMah.value()) ||
            mission.capacityStepMah.value() <
                limits_.minCapacityStepMah.value())
            return invalid(err, "capacity_step_mah below minimum");
        if (!check_aux("payload_g", mission.payloadG.value()))
            return false;
        // The compute-config axis is bounded by construction
        // (platforms x splits x rate ladder), so capping the
        // capacity axis bounds the whole expanded grid.
        const double capacity_steps =
            (mission.capacityHiMah.value() -
             mission.capacityLoMah.value()) /
            mission.capacityStepMah.value();
        if (capacity_steps >
            static_cast<double>(limits_.maxGridPoints))
            return invalid(err,
                           "capacity axis exceeds the grid cap");
        return true;
    }

    const SweepSpec &spec = request.spec;
    if (spec.airframes.empty() || spec.boards.empty() ||
        spec.activities.empty() || spec.cells.empty())
        return invalid(err,
                       "spec axes (airframes, boards, activities, "
                       "cells) must be non-empty");
    if (spec.airframes.size() > limits_.maxAxisEntries ||
        spec.boards.size() > limits_.maxAxisEntries ||
        spec.activities.size() > limits_.maxAxisEntries ||
        spec.cells.size() > limits_.maxAxisEntries)
        return invalid(err, "spec axis exceeds max entries");
    for (const SweepAirframe &airframe : spec.airframes) {
        if (!check_wheelbase(airframe.wheelbaseMm) ||
            !check_aux("prop_diameter_in",
                       airframe.propDiameterIn.value()))
            return false;
    }
    for (const ComputeBoardRecord &board : spec.boards) {
        if (!check_board(board))
            return false;
    }
    for (int cells : spec.cells) {
        if (!check_cells(cells))
            return false;
    }
    if (!check_twr(spec.twr))
        return false;
    if (!finitePositive(spec.capacityLoMah.value()) ||
        !finitePositive(spec.capacityHiMah.value()) ||
        spec.capacityHiMah.value() < spec.capacityLoMah.value())
        return invalid(err,
                       "capacity range must satisfy 0 < lo <= hi");
    if (!std::isfinite(spec.capacityStepMah.value()) ||
        spec.capacityStepMah.value() <
            limits_.minCapacityStepMah.value())
        return invalid(err, "capacity_step_mah below minimum");
    if (!check_aux("sensor_weight_g", spec.sensorWeightG.value()) ||
        !check_aux("sensor_power_w", spec.sensorPowerW.value()) ||
        !check_aux("payload_g", spec.payloadG.value()))
        return false;
    // Bound the capacity axis analytically before pointCount()
    // walks it — a hostile hi/step pair must not stall validation.
    const double capacity_steps =
        (spec.capacityHiMah.value() - spec.capacityLoMah.value()) /
        spec.capacityStepMah.value();
    if (capacity_steps > static_cast<double>(limits_.maxGridPoints))
        return invalid(err, "capacity axis exceeds the grid cap");
    if (spec.pointCount() > limits_.maxGridPoints)
        return invalid(err,
                       "grid expands to " +
                           std::to_string(spec.pointCount()) +
                           " points, cap is " +
                           std::to_string(limits_.maxGridPoints));
    return true;
}

template <typename T, typename MakeFn>
std::shared_ptr<T>
QueryPlanner::runSingleFlight(FlightTable<T> &table,
                              const std::string &key,
                              const char *span_name, MakeFn &&make)
{
    std::shared_ptr<InFlight<T>> flight;
    bool leader = false;
    {
        util::MutexLock lock(mutex_);
        auto &slot = table[key];
        if (!slot) {
            slot = std::make_shared<InFlight<T>>();
            leader = true;
        }
        flight = slot;
        if (leader)
            ++stats_.batchesLed;
        else
            ++stats_.coalesced;
    }

    if (leader) {
        obs::ScopedSpan span(span_name, "serve");
        auto value = std::make_shared<T>(make());
        {
            util::MutexLock lock(flight->mutex);
            flight->value = value;
            flight->done = true;
        }
        flight->cv.notifyAll();
        {
            util::MutexLock lock(mutex_);
            table.erase(key);
        }
        obs::metrics().counter("serve.batches.led").add(1);
        return value;
    }

    obs::metrics().counter("serve.batches.coalesced").add(1);
    util::MutexLock lock(flight->mutex);
    while (!flight->done)
        flight->cv.wait(flight->mutex);
    return flight->value;
}

std::shared_ptr<engine::SweepResult>
QueryPlanner::runCoalesced(const SweepSpec &spec)
{
    // The canonical spec serialization is the coalescing key: two
    // requests whose specs serialize identically expand to the
    // identical grid.
    Request key_request;
    key_request.kind = QueryKind::Sweep;
    key_request.spec = spec;
    return runSingleFlight(
        inflight_, serializeRequest(key_request), "serve.batch",
        [&] { return engine_.run(spec); });
}

std::shared_ptr<codesign::CodesignOutcome>
QueryPlanner::runCodesignCoalesced(
    const codesign::MissionSpec &mission)
{
    // Same key discipline: two codesign queries for byte-identical
    // missions share one search.
    Request key_request;
    key_request.kind = QueryKind::Codesign;
    key_request.mission = mission;
    return runSingleFlight(
        inflightCodesign_, serializeRequest(key_request),
        "serve.codesign", [&] { return codesign_.run(mission); });
}

std::shared_ptr<explore::ExploreResult>
QueryPlanner::runExploreCoalesced(const explore::ExploreQuery &query)
{
    // Byte-identical (space, options) pairs share one adaptive run.
    Request key_request;
    key_request.kind = QueryKind::Explore;
    key_request.explore = query;
    return runSingleFlight(
        inflightExplore_, serializeRequest(key_request),
        "serve.explore", [&] {
            explore::AdaptiveDriver driver(engine_, query.options);
            return driver.run(query.space);
        });
}

std::shared_ptr<explore::RiskOutcome>
QueryPlanner::runRiskCoalesced(const explore::RiskQuery &query)
{
    Request key_request;
    key_request.kind = QueryKind::Risk;
    key_request.risk = query;
    return runSingleFlight(
        inflightRisk_, serializeRequest(key_request), "serve.risk",
        [&] { return explore::runRiskQuery(query); });
}

std::string
QueryPlanner::execute(const Request &request)
{
    obs::ScopedSpan span("serve.execute", "serve");
    ErrorReply err;
    if (!validate(request, err)) {
        {
            util::MutexLock lock(mutex_);
            ++stats_.invalid;
        }
        obs::metrics().counter("serve.queries.invalid").add(1);
        return serializeErrorReply(request.id, err);
    }

    std::string reply;
    switch (request.kind) {
    case QueryKind::Design:
        reply = serializeDesignReply(request.id,
                                     engine_.solve(request.point));
        break;
    case QueryKind::Sweep: {
        const std::shared_ptr<engine::SweepResult> result =
            runCoalesced(request.spec);
        reply = serializeSweepReply(request.id, result->points,
                                    result->feasible.size(),
                                    result->frontier);
        break;
    }
    case QueryKind::Pareto: {
        const std::shared_ptr<engine::SweepResult> result =
            runCoalesced(request.spec);
        reply = serializeParetoReply(request.id, result->points,
                                     result->frontier);
        break;
    }
    case QueryKind::Codesign: {
        const std::shared_ptr<codesign::CodesignOutcome> outcome =
            runCodesignCoalesced(request.mission);
        reply = serializeCodesignReply(request.id, *outcome);
        break;
    }
    case QueryKind::Explore: {
        const std::shared_ptr<explore::ExploreResult> result =
            runExploreCoalesced(request.explore);
        reply = serializeExploreReply(request.id, *result);
        break;
    }
    case QueryKind::Risk: {
        const std::shared_ptr<explore::RiskOutcome> outcome =
            runRiskCoalesced(request.risk);
        reply = serializeRiskReply(request.id, *outcome,
                                   request.risk.quantiles);
        break;
    }
    }
    {
        util::MutexLock lock(mutex_);
        ++stats_.executed;
    }
    obs::metrics().counter("serve.queries.executed").add(1);
    return reply;
}

PlannerStats
QueryPlanner::stats() const
{
    util::MutexLock lock(mutex_);
    return stats_;
}

} // namespace dronedse::serve
