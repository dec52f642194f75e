#include "serve/planner.hh"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "obs/tracer.hh"
#include "util/thread_annotations.hh"

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
 * The `results` rows of one sweep, written chunk by chunk on the pool
 * workers that solved them (the engine's chunk sink) and handed back
 * in grid order.
 */
class SweepRows
{
  public:
    void add(std::size_t first, std::span<const DesignResult> rows)
        DDSE_EXCLUDES(mutex_)
    {
        std::string text;
        appendSweepRows(text, rows);
        util::MutexLock lock(mutex_);
        chunks_.emplace_back(first, std::move(text));
    }

    /** The chunks in grid order; call once the run has returned. */
    std::vector<std::string> inGridOrder() DDSE_EXCLUDES(mutex_)
    {
        util::MutexLock lock(mutex_);
        std::sort(chunks_.begin(), chunks_.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        std::vector<std::string> out;
        out.reserve(chunks_.size());
        for (auto &chunk : chunks_)
            out.push_back(std::move(chunk.second));
        return out;
    }

  private:
    util::Mutex mutex_;
    std::vector<std::pair<std::size_t, std::string>> chunks_
        DDSE_GUARDED_BY(mutex_);
};

} // namespace

QueryPlanner::QueryPlanner(engine::SweepEngine &engine)
    : engine_(engine), codesign_(engine),
      executedCounter_(obs::metrics().counter("serve.queries.executed")),
      invalidCounter_(obs::metrics().counter("serve.queries.invalid"))
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

std::string
QueryPlanner::execute(const Request &request)
{
    obs::ScopedSpan span("serve.execute", "serve");
    ErrorReply err;
    if (!validate(request, err)) {
        invalid_.fetch_add(1, std::memory_order_relaxed);
        invalidCounter_.add(1);
        return serializeErrorReply(request.id, err);
    }

    std::string reply;
    switch (request.kind) {
    case QueryKind::Design:
        reply = serializeDesignReply(request.id,
                                     engine_.solve(request.point));
        break;
    case QueryKind::Sweep: {
        SweepRows rows;
        const engine::SweepResult result = engine_.run(
            request.spec,
            [&rows](std::size_t first,
                    std::span<const DesignResult> chunk) {
                rows.add(first, chunk);
            });
        reply = serializeSweepReply(request.id, result.points.size(),
                                    result.feasible.size(),
                                    result.frontier, rows.inGridOrder());
        break;
    }
    case QueryKind::Pareto: {
        const engine::SweepResult result = engine_.run(request.spec);
        reply = serializeParetoReply(request.id, result.points,
                                     result.frontier);
        break;
    }
    case QueryKind::Codesign:
        reply = serializeCodesignReply(request.id,
                                       codesign_.run(request.mission));
        break;
    case QueryKind::Explore: {
        explore::AdaptiveDriver driver(engine_, request.explore.options);
        reply = serializeExploreReply(
            request.id, driver.run(request.explore.space));
        break;
    }
    case QueryKind::Risk:
        reply = serializeRiskReply(request.id,
                                   explore::runRiskQuery(request.risk),
                                   request.risk.quantiles);
        break;
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    executedCounter_.add(1);
    return reply;
}

PlannerStats
QueryPlanner::stats() const
{
    return PlannerStats{
        .executed = executed_.load(std::memory_order_relaxed),
        .invalid = invalid_.load(std::memory_order_relaxed)};
}

} // namespace dronedse::serve
