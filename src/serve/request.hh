/**
 * @file
 * Wire protocol of the DSE query service.
 *
 * Frames are line-delimited JSON: one request object per line in,
 * one reply object per line out.  Four query kinds map onto the
 * existing model vocabulary:
 *
 *   design   — one `DesignInputs` point, solved by `solveDesign`
 *              (`{"id": 1, "kind": "design", "point": {...}}`)
 *   sweep    — a full `SweepSpec` grid; the reply carries every grid
 *              point in `expandGrid` order plus the feasible count
 *              and Pareto frontier indices
 *   pareto   — same spec, but the reply carries only the frontier
 *   codesign — a `codesign::MissionSpec`; the reply carries the
 *              recommended compute configuration plus the
 *              per-platform and per-split frontiers
 *   explore  — an `explore::ExploreQuery` (typed space + budget
 *              options); the reply carries the adaptive Pareto
 *              frontier, the round ledger, and the incumbent
 *   risk     — an `explore::RiskQuery` (one point + uncertainty
 *              options + gates); the reply carries the gate report
 *              and requested flight-time/weight quantiles
 *
 * Every reply echoes the request id and carries either `"ok": true`
 * with results or `"ok": false` with a typed error
 * (`{"code": "parse_error" | "invalid_request" | "too_large" |
 * "rate_limited" | "overloaded" | "internal", "message": ...}`).
 *
 * `serializeRequest` emits a canonical spelling (fixed member order,
 * every field explicit), so serialize -> parse -> serialize is a
 * byte-identical fixed point; `parseRequest` is lenient about member
 * order and missing fields (defaults apply) but strict about types
 * and enum spellings, and never touches engine or admission state —
 * a malformed frame costs one error reply and nothing else.  The
 * full grammar is in DESIGN.md §12.
 */

#ifndef DRONEDSE_SERVE_REQUEST_HH
#define DRONEDSE_SERVE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "codesign/codesign.hh"
#include "dse/sweep.hh"
#include "explore/driver.hh"
#include "explore/gate.hh"

namespace dronedse::serve {

/** Query kinds of the protocol. */
enum class QueryKind
{
    Design,
    Sweep,
    Pareto,
    Codesign,
    Explore,
    Risk,
};

/** Admission classes: interactive outranks batch under shed. */
enum class QueryClass
{
    Interactive,
    Batch,
};

/** Typed error taxonomy of the protocol. */
enum class ErrorCode
{
    /** Frame is not a JSON object / not valid JSON. */
    ParseError,
    /** Well-formed JSON that violates the request schema or limits. */
    InvalidRequest,
    /** Frame exceeds the transport's line-length cap. */
    TooLarge,
    /** Per-class token bucket is empty. */
    RateLimited,
    /** Shed by admission control (queue full or overload state). */
    Overloaded,
    /** Server-side bug surfaced as a reply instead of a crash. */
    Internal,
};

/** Wire spellings ("design", "interactive", "parse_error", ...). */
const char *queryKindName(QueryKind kind);
const char *queryClassName(QueryClass cls);
const char *errorCodeName(ErrorCode code);

/** One parsed request frame. */
struct Request
{
    std::uint64_t id = 0;
    QueryKind kind = QueryKind::Design;
    QueryClass cls = QueryClass::Interactive;
    /** Valid when kind == Design. */
    DesignInputs point;
    /** Valid when kind == Sweep or Pareto. */
    SweepSpec spec;
    /** Valid when kind == Codesign. */
    codesign::MissionSpec mission;
    /** Valid when kind == Explore. */
    explore::ExploreQuery explore;
    /** Valid when kind == Risk. */
    explore::RiskQuery risk;
};

/** Payload of an error reply. */
struct ErrorReply
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;
};

/**
 * Parse one request frame.  On success fills `out` and returns true;
 * on failure fills `err` (ParseError for non-JSON, InvalidRequest
 * for schema violations) and, when the frame carried a readable id,
 * echoes it into `out.id` so the error reply can be correlated.
 */
bool parseRequest(const std::string &frame, Request &out,
                  ErrorReply &err);

/** Canonical request frame (no trailing newline). */
std::string serializeRequest(const Request &request);

/** Reply frames (no trailing newline). */
std::string serializeErrorReply(std::uint64_t id,
                                const ErrorReply &err);
std::string serializeDesignReply(std::uint64_t id,
                                 const DesignResult &result);
std::string
serializeSweepReply(std::uint64_t id,
                    const std::vector<DesignResult> &points,
                    std::size_t feasible_count,
                    const std::vector<std::size_t> &frontier);
std::string
serializeParetoReply(std::uint64_t id,
                     const std::vector<DesignResult> &points,
                     const std::vector<std::size_t> &frontier);
std::string
serializeCodesignReply(std::uint64_t id,
                       const codesign::CodesignOutcome &outcome);
std::string
serializeExploreReply(std::uint64_t id,
                      const explore::ExploreResult &result);
/** `quantiles` echoes the request's list (values read off the ECDF). */
std::string serializeRiskReply(std::uint64_t id,
                               const explore::RiskOutcome &outcome,
                               const std::vector<double> &quantiles);

} // namespace dronedse::serve

#endif // DRONEDSE_SERVE_REQUEST_HH
