#include "serve/planner.hh"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace dronedse::serve {

namespace {

/*
 * Service limits: what one query may ask of the service, so no
 * single query can wedge it.  What is physical is the domain
 * validators' business.
 */
constexpr std::size_t kMaxGridPoints = 200000;
constexpr std::size_t kMaxAxisEntries = 256;
constexpr std::size_t kMaxExploreEvaluations = 100000;
constexpr std::size_t kMaxRiskSamples = 65536;
constexpr int kMaxScatterReplicates = 4096;
constexpr Quantity<MilliampHours> kMinCapacityStep{1.0};

std::string
exceeds(const char *what, std::size_t cap)
{
    return std::string(what) + " exceeds the cap of " +
           std::to_string(cap);
}

bool
overAxisCap(std::initializer_list<std::size_t> sizes)
{
    return std::max(sizes) > kMaxAxisEntries;
}

/**
 * The capacity-axis limits sweeps and missions share, bounded
 * analytically so a hostile hi/step pair is rejected without
 * walking the axis.
 */
std::string
capacityAxisViolation(Quantity<MilliampHours> lo,
                      Quantity<MilliampHours> hi,
                      Quantity<MilliampHours> step)
{
    if (step < kMinCapacityStep)
        return "capacity_step_mah is below the minimum step";
    if ((hi.value() - lo.value()) / step.value() >
        static_cast<double>(kMaxGridPoints))
        return exceeds("capacity axis length", kMaxGridPoints);
    return "";
}

/** The domain validator of the request's kind. */
std::string
domainViolation(const Request &request)
{
    switch (request.kind) {
    case QueryKind::Design:
        return validateDesignInputs(request.point);
    case QueryKind::Sweep:
    case QueryKind::Pareto:
        return validateSweepSpec(request.spec);
    case QueryKind::Codesign:
        return codesign::validateMission(request.mission);
    case QueryKind::Explore: {
        const std::string err =
            explore::validateSpace(request.explore.space);
        if (!err.empty())
            return "explore space: " + err;
        return explore::validateExploreOptions(request.explore.options);
    }
    case QueryKind::Risk:
        return explore::validateRiskQuery(request.risk);
    }
    return "";
}

/** The service limits of a request the domain validators accept. */
std::string
serviceLimitViolation(const Request &request)
{
    switch (request.kind) {
    case QueryKind::Design:
        return "";
    case QueryKind::Sweep:
    case QueryKind::Pareto: {
        const SweepSpec &spec = request.spec;
        if (overAxisCap({spec.airframes.size(), spec.boards.size(),
                         spec.activities.size(), spec.cells.size()}))
            return exceeds("a spec axis", kMaxAxisEntries);
        std::string err = capacityAxisViolation(
            spec.capacityLoMah, spec.capacityHiMah, spec.capacityStepMah);
        if (err.empty() && spec.pointCount() > kMaxGridPoints)
            err = exceeds("the grid", kMaxGridPoints);
        return err;
    }
    case QueryKind::Codesign: {
        // The compute-config axis is bounded by construction
        // (platforms x splits x rate ladder), so capping the
        // capacity axis bounds the whole expanded grid.
        const codesign::MissionSpec &mission = request.mission;
        if (overAxisCap({mission.wheelbasesMm.size(),
                         mission.cells.size()}))
            return exceeds("a mission axis", kMaxAxisEntries);
        return capacityAxisViolation(mission.capacityLoMah,
                                     mission.capacityHiMah,
                                     mission.capacityStepMah);
    }
    case QueryKind::Explore:
        for (const explore::AxisSpec &axis :
             request.explore.space.axes) {
            if (axis.size() > kMaxAxisEntries)
                return exceeds("an explore axis", kMaxAxisEntries);
        }
        if (request.explore.options.maxEvaluations >
            kMaxExploreEvaluations)
            return exceeds("max_evaluations", kMaxExploreEvaluations);
        return "";
    case QueryKind::Risk: {
        const explore::RiskQuery &query = request.risk;
        if (query.options.samples > kMaxRiskSamples)
            return exceeds("samples", kMaxRiskSamples);
        if (query.options.scatterReplicates > kMaxScatterReplicates)
            return exceeds("scatter_replicates", kMaxScatterReplicates);
        if (overAxisCap({query.gates.size(), query.quantiles.size()}))
            return exceeds("gates/quantiles", kMaxAxisEntries);
        return "";
    }
    }
    return "";
}

/**
 * The single-flight key: the canonical serialization without id and
 * class, with pareto folded into sweep, so any two queries that
 * compute the same thing share one run.
 */
std::string
coalescingKey(Request request)
{
    request.id = 0;
    request.cls = QueryClass::Interactive;
    if (request.kind == QueryKind::Pareto)
        request.kind = QueryKind::Sweep;
    return serializeRequest(request);
}

} // namespace

QueryPlanner::QueryPlanner(engine::SweepEngine &engine)
    : engine_(engine), codesign_(engine)
{
}

bool
QueryPlanner::validate(const Request &request, ErrorReply &err) const
{
    std::string violation = domainViolation(request);
    if (violation.empty())
        violation = serviceLimitViolation(request);
    if (violation.empty())
        return true;
    err.code = ErrorCode::InvalidRequest;
    err.message = std::move(violation);
    return false;
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
    case QueryKind::Sweep:
    case QueryKind::Pareto: {
        const std::shared_ptr<engine::SweepResult> result =
            runSingleFlight(inflight_, coalescingKey(request),
                            "serve.batch",
                            [&] { return engine_.run(request.spec); });
        reply = request.kind == QueryKind::Sweep
                    ? serializeSweepReply(request.id, result->points,
                                          result->feasible.size(),
                                          result->frontier)
                    : serializeParetoReply(request.id, result->points,
                                           result->frontier);
        break;
    }
    case QueryKind::Codesign:
        reply = serializeCodesignReply(
            request.id,
            *runSingleFlight(inflightCodesign_, coalescingKey(request),
                             "serve.codesign", [&] {
                                 return codesign_.run(request.mission);
                             }));
        break;
    case QueryKind::Explore:
        reply = serializeExploreReply(
            request.id,
            *runSingleFlight(inflightExplore_, coalescingKey(request),
                             "serve.explore", [&] {
                                 explore::AdaptiveDriver driver(
                                     engine_, request.explore.options);
                                 return driver.run(
                                     request.explore.space);
                             }));
        break;
    case QueryKind::Risk:
        reply = serializeRiskReply(
            request.id,
            *runSingleFlight(inflightRisk_, coalescingKey(request),
                             "serve.risk", [&] {
                                 return explore::runRiskQuery(
                                     request.risk);
                             }),
            request.risk.quantiles);
        break;
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
