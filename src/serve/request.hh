/**
 * @file
 * Wire protocol of the DSE query service.
 *
 * Frames are line-delimited JSON: one request object per line in,
 * one reply object per line out.  Six query kinds map onto the
 * existing model vocabulary:
 *
 *   design   — one `DesignInputs` point, solved by `solveDesign`
 *              (`{"id": 1, "kind": <kind>, "point": {...}}`)
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
 * (`{"code": <ErrorCode spelling>, "message": ...}`).
 *
 * `serializeRequest` emits a canonical spelling (fixed member order,
 * every field explicit), so serialize -> parse -> serialize is a
 * byte-identical fixed point for every request whose ids, seeds and
 * counts are at most 2^53 (the largest integers a JSON number carries
 * exactly; `parseRequest` rejects anything above).  `parseRequest` is
 * lenient about member order, unknown keys and missing fields
 * (defaults apply, as they do for an empty string in an optional
 * enum field; of two duplicate keys the first wins) but strict about
 * types (`null` included) and enum spellings, and never touches
 * engine or admission state — a malformed frame costs one error
 * reply and nothing else.  One field list per wire struct in
 * request.cc drives both directions; the full grammar is in
 * DESIGN.md §12.
 */

#ifndef DRONEDSE_SERVE_REQUEST_HH
#define DRONEDSE_SERVE_REQUEST_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codesign/codesign.hh"
#include "dse/sweep.hh"
#include "explore/driver.hh"
#include "explore/gate.hh"
#include "util/enum_names.hh"

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

/** Wire spellings (util/enum_names.hh). */
constexpr std::array<EnumName<QueryKind>, 6>
wireNames(QueryKind)
{
    return {{{QueryKind::Design, "design"},
             {QueryKind::Sweep, "sweep"},
             {QueryKind::Pareto, "pareto"},
             {QueryKind::Codesign, "codesign"},
             {QueryKind::Explore, "explore"},
             {QueryKind::Risk, "risk"}}};
}

/** Admission classes: interactive outranks batch under shed. */
enum class QueryClass
{
    Interactive,
    Batch,
};

/** Wire spellings (util/enum_names.hh). */
constexpr std::array<EnumName<QueryClass>, 2>
wireNames(QueryClass)
{
    return {{{QueryClass::Interactive, "interactive"},
             {QueryClass::Batch, "batch"}}};
}

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

/** Wire spellings (util/enum_names.hh). */
constexpr std::array<EnumName<ErrorCode>, 6>
wireNames(ErrorCode)
{
    return {{{ErrorCode::ParseError, "parse_error"},
             {ErrorCode::InvalidRequest, "invalid_request"},
             {ErrorCode::TooLarge, "too_large"},
             {ErrorCode::RateLimited, "rate_limited"},
             {ErrorCode::Overloaded, "overloaded"},
             {ErrorCode::Internal, "internal"}}};
}

/** Wire spelling of a query kind. */
const char *queryKindName(QueryKind kind);

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
 *
 * `out` must be a freshly constructed `Request`: the frame's fields
 * are read into it as it stands, and a field the frame omits keeps
 * the value `out` holds, which is the default only for a fresh one.
 * Constructing a `Request` allocates its default vectors, so each
 * frame pays for exactly one, made by the caller.
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
/**
 * The same sweep reply from rows written ahead, chunk by chunk:
 * `row_chunks` are `appendSweepRows` outputs over consecutive,
 * non-empty slices of the grid, in grid order.  Byte-identical to
 * the overload above on the points the chunks were written from.
 * The reply is allocated once, at its exact size.
 */
std::string
serializeSweepReply(std::uint64_t id, std::size_t grid_points,
                    std::size_t feasible_count,
                    const std::vector<std::size_t> &frontier,
                    std::span<const std::string> row_chunks);
/**
 * Appends `rows` as a sweep reply's `results` entries: comma-separated
 * result objects, without brackets.  Both sweep-reply overloads write
 * their rows through the same writer.
 */
void appendSweepRows(std::string &out, std::span<const DesignResult> rows);
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
