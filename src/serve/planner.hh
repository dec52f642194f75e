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
 * Execution routes through one shared `engine::SweepEngine`.  Each
 * admitted request owns its run: `execute` calls the engine, the
 * co-design driver, the adaptive explorer or the risk query directly
 * and serializes the result, so concurrent callers share the pool's
 * workers but never a result.  The planner holds no lock.
 */

#ifndef DRONEDSE_SERVE_PLANNER_HH
#define DRONEDSE_SERVE_PLANNER_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "codesign/codesign.hh"
#include "engine/engine.hh"
#include "obs/metrics.hh"
#include "serve/request.hh"

namespace dronedse::serve {

/** Monotonic planner counters. */
struct PlannerStats
{
    std::uint64_t executed = 0;
    std::uint64_t invalid = 0;
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
    std::string execute(const Request &request);

    PlannerStats stats() const;

    engine::SweepEngine &engine() { return engine_; }

  private:
    engine::SweepEngine &engine_;
    codesign::CodesignDriver codesign_;

    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> invalid_{0};
    obs::Counter &executedCounter_;
    obs::Counter &invalidCounter_;
};

} // namespace dronedse::serve

#endif // DRONEDSE_SERVE_PLANNER_HH
