/**
 * @file
 * QueryPlanner: validation and execution of admitted queries.
 *
 * Validation is the semantic half of request checking (the parser
 * owns types and spellings).  What is physical belongs to the
 * domain layers: each request kind dispatches to its type's
 * validator (`validateDesignInputs`, `validateSweepSpec`,
 * `codesign::validateMission`, `explore::validateSpace` +
 * `validateExploreOptions`, `explore::validateRiskQuery`).  The
 * planner adds only constant service limits — grid points, axis
 * entries, explore evaluations, risk samples and replicates, and
 * the capacity step and axis length — so one query cannot wedge
 * the service.
 *
 * Execution routes through one shared `engine::SweepEngine`.
 * Identical concurrent sweep/pareto specs are coalesced
 * single-flight: the first caller becomes the leader and runs the
 * batch, followers block on the leader's result and share it (the
 * canonical spec serialization is the coalescing key, so a sweep
 * and a pareto over the same spec share one engine run).
 */

#ifndef DRONEDSE_SERVE_PLANNER_HH
#define DRONEDSE_SERVE_PLANNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "codesign/codesign.hh"
#include "engine/engine.hh"
#include "serve/request.hh"
#include "util/thread_annotations.hh"

namespace dronedse::serve {

/** Monotonic planner counters. */
struct PlannerStats
{
    std::uint64_t executed = 0;
    std::uint64_t invalid = 0;
    /** Queries that ran a fresh engine batch as leader. */
    std::uint64_t batchesLed = 0;
    /** Queries that joined an in-flight identical batch. */
    std::uint64_t coalesced = 0;
};

class QueryPlanner
{
  public:
    explicit QueryPlanner(engine::SweepEngine &engine);

    /**
     * The request kind's domain validator, then the service limits;
     * fills `err` (InvalidRequest) and returns false on violation.
     * Touches no engine state.
     */
    bool validate(const Request &request, ErrorReply &err) const;

    /**
     * Validate + execute + serialize: the whole worker-side
     * pipeline for one admitted request.  Always returns exactly
     * one reply frame; thread-safe for any number of concurrent
     * callers.
     */
    std::string execute(const Request &request)
        DDSE_EXCLUDES(mutex_);

    PlannerStats stats() const DDSE_EXCLUDES(mutex_);

    engine::SweepEngine &engine() { return engine_; }

  private:
    /**
     * One in-flight computation of type T: the leader publishes the
     * shared value under the flight's own mutex, followers wait on
     * the condvar.  Every query family shares this one shape.
     */
    template <typename T> struct InFlight
    {
        util::Mutex mutex;
        util::CondVar cv;
        bool done DDSE_GUARDED_BY(mutex) = false;
        std::shared_ptr<T> value DDSE_GUARDED_BY(mutex);
    };

    template <typename T>
    using FlightTable =
        std::unordered_map<std::string,
                           std::shared_ptr<InFlight<T>>>;

    /**
     * The single-flight engine shared by every coalesced query
     * family: first caller on `key` becomes the leader and runs
     * `make`, followers block and share the leader's value.
     * Defined in planner.cc (only instantiated there).
     */
    template <typename T, typename MakeFn>
    std::shared_ptr<T> runSingleFlight(FlightTable<T> &table,
                                       const std::string &key,
                                       const char *span_name,
                                       MakeFn &&make)
        DDSE_EXCLUDES(mutex_);

    engine::SweepEngine &engine_;
    codesign::CodesignDriver codesign_;

    mutable util::Mutex mutex_;
    PlannerStats stats_ DDSE_GUARDED_BY(mutex_);
    FlightTable<engine::SweepResult> inflight_
        DDSE_GUARDED_BY(mutex_);
    FlightTable<codesign::CodesignOutcome> inflightCodesign_
        DDSE_GUARDED_BY(mutex_);
    FlightTable<explore::ExploreResult> inflightExplore_
        DDSE_GUARDED_BY(mutex_);
    FlightTable<explore::RiskOutcome> inflightRisk_
        DDSE_GUARDED_BY(mutex_);
};

} // namespace dronedse::serve

#endif // DRONEDSE_SERVE_PLANNER_HH
