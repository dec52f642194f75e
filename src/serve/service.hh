/**
 * @file
 * Service: the transport-independent core of the DSE query server.
 *
 * Owns the three stages every transport shares — parse (request.hh),
 * admit (admission.hh), execute (planner.hh over one SweepEngine) —
 * so the poll(2) TCP server and the deterministic in-process
 * `LocalTransport` run the *same* pipeline and tests never need a
 * socket to cover protocol, planning, or admission behaviour.
 *
 * Two entry styles:
 *  - `handleFrame(frame, t)`: the synchronous path — size check,
 *    parse, admission (zero queue wait), execute, one reply frame.
 *    Safe for concurrent callers: each runs the request it parsed.
 *  - `ingest(frame, conn, t)` + `processOne(t, ...)`: the queued
 *    path transports use — ingest replies immediately on any
 *    rejection and queues admitted work; workers drain with
 *    `processOne`.
 */

#ifndef DRONEDSE_SERVE_SERVICE_HH
#define DRONEDSE_SERVE_SERVICE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "engine/engine.hh"
#include "obs/metrics.hh"
#include "serve/admission.hh"
#include "serve/planner.hh"
#include "serve/request.hh"

namespace dronedse::serve {

/** Frames longer than this are answered with `too_large`. */
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/** The `too_large` reply to a frame over `kMaxFrameBytes`. */
ErrorReply frameTooLarge();

/** Everything a Service instance is configured by. */
struct ServiceOptions
{
    engine::EngineOptions engine;
    AdmissionConfig admission;
};

/** What `ingest` did with a frame. */
struct IngestOutcome
{
    /** True when the frame was queued for a worker. */
    bool queued = false;
    /** The immediate reply frame when not queued. */
    std::string reply;
};

class Service
{
  public:
    explicit Service(const ServiceOptions &options = {});

    /**
     * Full pipeline, no queueing, at time `t`.  Never fails: every
     * frame maps to exactly one reply frame (no newline).
     */
    std::string handleFrame(const std::string &frame, double t);

    /**
     * Transport front half: size check + parse + admission.  A
     * rejection (oversize, malformed, rate-limited, shed) yields
     * the immediate error reply; an admitted frame is queued
     * tagged with `conn` and the outcome has `queued == true`.
     */
    IngestOutcome ingest(const std::string &frame,
                         std::uint64_t conn, double t);

    /**
     * Transport back half: pop one queued request at time `t`,
     * execute it, and return (conn, reply).  nullopt when idle.
     */
    std::optional<std::pair<std::uint64_t, std::string>>
    processOne(double t);

    AdmissionController &admission() { return admission_; }
    QueryPlanner &planner() { return planner_; }
    engine::SweepEngine &engine() { return engine_; }

  private:
    /**
     * Size check, parse, admission.  False leaves the error frame in
     * `reply`; an admitted request is queued tagged with `conn` when
     * `enqueue`, else left in `request` for the caller to run.
     */
    bool admit(const std::string &frame, std::uint64_t conn, double t,
               bool enqueue, Request &request, std::string &reply);

    engine::SweepEngine engine_;
    QueryPlanner planner_;
    AdmissionController admission_;

    // Registry instruments, resolved once at construction.
    obs::Counter &framesCounter_;
    obs::Counter &okCounter_;
    obs::Counter &errorCounter_;
};

} // namespace dronedse::serve

#endif // DRONEDSE_SERVE_SERVICE_HH
