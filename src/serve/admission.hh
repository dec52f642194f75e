/**
 * @file
 * Admission control for the DSE query service: a bounded FIFO
 * request queue, per-class token-bucket rate limits, and an
 * overload load-shedding state machine.
 *
 * The shed states reuse the `fault::DegradationPolicy` shape — an
 * ordered severity ladder driven by a leaky accumulator, immediate
 * escalation, hysteresis de-escalation:
 *
 *   Nominal < ShedLowPriority < RejectAll
 *
 * The accumulator is fed by the queue-wait p95 read from an
 * `obs::Histogram` (the same fixed-bucket type the metrics registry
 * snapshots): every `kP95WindowSamples` dequeues, the controller
 * takes the histogram's count delta over the window, locates the
 * bucket edge where the cumulative delta crosses 95 %, and adds to
 * the accumulator when that edge exceeds the shed (or, harder, the
 * reject) threshold.  The level decays exponentially with
 * `kOverloadHalfLifeS`, so a burst that clears drains back to
 * Nominal after `kRecoveryHoldS` of clean windows.  Unlike LandSafe,
 * RejectAll is not absorbing — a server must come back.  The shed
 * thresholds and histogram edges are constants of the class; only
 * the queue capacity and the token buckets are per instance.
 *
 * All methods take an explicit time `t` (seconds, any monotone
 * origin), so the whole machine runs deterministically under the
 * virtual clock of `LocalTransport` tests; the TCP server feeds it
 * a steady-clock reading.  Thread-safe: one internal mutex guards
 * queue + buckets + state (admission is not the hot path — a solve
 * costs orders of magnitude more than a queue push).
 */

#ifndef DRONEDSE_SERVE_ADMISSION_HH
#define DRONEDSE_SERVE_ADMISSION_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "serve/request.hh"
#include "util/thread_annotations.hh"

namespace dronedse::serve {

/** Overload states, ordered by severity. */
enum class ShedState
{
    /** Admit everything the buckets and queue allow. */
    Nominal = 0,
    /** Reject batch-class queries; interactive still admitted. */
    ShedLowPriority = 1,
    /** Reject every query until the overload drains. */
    RejectAll = 2,
};

/** Human-readable state name. */
const char *shedStateName(ShedState state);

/** One token bucket: sustained rate plus burst headroom. */
struct TokenBucketConfig
{
    /** Tokens replenished per second. */
    double ratePerSecond = 2000.0;
    /** Bucket capacity (burst size). */
    double burst = 400.0;
};

/** Per-instance settings of the controller. */
struct AdmissionConfig
{
    /** Bounded queue capacity; a full queue sheds. */
    std::size_t queueCapacity = 1024;

    TokenBucketConfig interactive{2000.0, 400.0};
    TokenBucketConfig batch{500.0, 100.0};
};

/** Outcome of one admission attempt. */
enum class AdmitDecision
{
    Admit,
    /** Class token bucket empty. */
    RateLimited,
    /** Bounded queue at capacity. */
    QueueFull,
    /** ShedLowPriority rejected a batch-class query. */
    ShedClass,
    /** RejectAll rejected the query. */
    ShedAll,
};

/** Map a rejection to its wire error; panics on Admit. */
ErrorReply admitError(AdmitDecision decision);

/** One queued, already-parsed request awaiting a worker. */
struct QueuedItem
{
    /** Transport correlation token (connection id). */
    std::uint64_t conn = 0;
    Request request;
    /** Admission time (the controller's clock). */
    double enqueueT = 0.0;
};

/** One recorded shed-state change. */
struct ShedTransition
{
    double t = 0.0;
    ShedState from = ShedState::Nominal;
    ShedState to = ShedState::Nominal;
    std::string reason;
};

/** Monotonic per-controller counters. */
struct AdmissionStats
{
    std::uint64_t admitted = 0;
    std::uint64_t rateLimited = 0;
    std::uint64_t queueFull = 0;
    std::uint64_t shedClass = 0;
    std::uint64_t shedAll = 0;

    std::uint64_t rejected() const
    {
        return rateLimited + queueFull + shedClass + shedAll;
    }
};

class AdmissionController
{
  public:
    /** Dequeues per p95 window (see file comment). */
    static constexpr std::uint64_t kP95WindowSamples = 32;
    /** Queue-wait histogram bucket edges (s); every controller
     *  shares the registry's `serve.queue.wait_seconds` edges. */
    static constexpr std::array<double, 15> kWaitBounds{
        1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025,
        0.05, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0};
    /** p95 edge at/above this feeds the accumulator +1 (s). */
    static constexpr double kWaitP95ShedS = 0.05;
    /** p95 edge at/above this feeds it +3 instead (s). */
    static constexpr double kWaitP95RejectS = 0.5;
    /** Accumulator exponential-decay half-life (s). */
    static constexpr double kOverloadHalfLifeS = 2.0;
    /** Accumulator level that demands ShedLowPriority. */
    static constexpr double kShedLevel = 3.0;
    /** Accumulator level that demands RejectAll. */
    static constexpr double kRejectLevel = 9.0;
    /** Continuous low-demand time before de-escalating (s). */
    static constexpr double kRecoveryHoldS = 1.0;

    static_assert(0.0 < kShedLevel && kShedLevel < kRejectLevel);
    static_assert(kWaitP95ShedS < kWaitP95RejectS);
    static_assert(kOverloadHalfLifeS > 0.0 && kRecoveryHoldS >= 0.0);

    explicit AdmissionController(AdmissionConfig config = {});

    /**
     * Attempt to admit `item` at time `t`.  On Admit the item is
     * queued; every other decision leaves all queue state untouched
     * and maps to a typed error via `admitError`.
     */
    AdmitDecision submit(QueuedItem item, double t)
        DDSE_EXCLUDES(mutex_);

    /**
     * `submit` for a caller that runs `request` itself: on Admit it
     * records the zero queue wait `pop` would, and queues nothing.
     */
    AdmitDecision admitNow(const Request &request, double t)
        DDSE_EXCLUDES(mutex_);

    /**
     * Pop the oldest queued item at time `t`.  Records the item's
     * queue wait into the histogram (driving the shed machine) and
     * returns false when the queue is empty.
     */
    bool pop(double t, QueuedItem &out) DDSE_EXCLUDES(mutex_);

    std::size_t depth() const DDSE_EXCLUDES(mutex_);
    ShedState state() const DDSE_EXCLUDES(mutex_);
    AdmissionStats stats() const DDSE_EXCLUDES(mutex_);

    /** p95 bucket edge of the last completed window (s). */
    double lastWindowP95S() const DDSE_EXCLUDES(mutex_);
    /** Every shed-state change, in order. */
    std::vector<ShedTransition> transitions() const
        DDSE_EXCLUDES(mutex_);

  private:
    struct Bucket
    {
        double tokens = 0.0;
        double lastT = 0.0;
        bool started = false;
    };

    /** The admission decision at time t, counted. */
    AdmitDecision decide(QueryClass cls, double t)
        DDSE_REQUIRES(mutex_);
    /** Record one dequeue's wait and advance the shed machine. */
    void recordWait(double wait, double t) DDSE_REQUIRES(mutex_);
    /** Refill at time t, then try to take one token. */
    bool takeToken(Bucket &bucket, const TokenBucketConfig &config,
                   double t) DDSE_REQUIRES(mutex_);
    /** Decay the accumulator and resolve hysteresis at time t. */
    void advanceState(double t) DDSE_REQUIRES(mutex_);
    void transitionTo(ShedState to, double t,
                      const std::string &reason)
        DDSE_REQUIRES(mutex_);
    /** Fold one completed p95 window into the accumulator. */
    void closeWindow() DDSE_REQUIRES(mutex_);

    AdmissionConfig config_;

    // Registry instruments, resolved once at construction.
    obs::Counter &admittedCounter_;
    obs::Counter &rateLimitedCounter_;
    obs::Counter &queueFullCounter_;
    obs::Counter &shedClassCounter_;
    obs::Counter &shedAllCounter_;
    obs::Counter &transitionsCounter_;
    obs::Gauge &stateGauge_;
    obs::Gauge &depthGauge_;
    obs::Gauge &waitP95Gauge_;
    obs::Histogram &waitSecondsHist_;

    mutable util::Mutex mutex_;
    std::deque<QueuedItem> queue_ DDSE_GUARDED_BY(mutex_);
    Bucket interactiveBucket_ DDSE_GUARDED_BY(mutex_);
    Bucket batchBucket_ DDSE_GUARDED_BY(mutex_);

    /** Recorded and window-scanned only under `mutex_` (its own
     *  atomics make `record` safe, but the p95 window arithmetic
     *  needs count deltas from one consistent cut). */
    obs::Histogram waitHist_ DDSE_GUARDED_BY(mutex_);
    /** Histogram bucket counts at the last window close. */
    std::vector<std::uint64_t> windowBaseCounts_
        DDSE_GUARDED_BY(mutex_);
    std::uint64_t samplesInWindow_ DDSE_GUARDED_BY(mutex_) = 0;
    double lastWindowP95S_ DDSE_GUARDED_BY(mutex_) = 0.0;

    ShedState state_ DDSE_GUARDED_BY(mutex_) = ShedState::Nominal;
    double overloadLevel_ DDSE_GUARDED_BY(mutex_) = 0.0;
    bool haveLevelT_ DDSE_GUARDED_BY(mutex_) = false;
    double levelT_ DDSE_GUARDED_BY(mutex_) = 0.0;
    /** Last time the demanded state was >= the current state. */
    double lastElevatedT_ DDSE_GUARDED_BY(mutex_) = 0.0;
    std::vector<ShedTransition> transitions_
        DDSE_GUARDED_BY(mutex_);

    AdmissionStats stats_ DDSE_GUARDED_BY(mutex_);
};

} // namespace dronedse::serve

#endif // DRONEDSE_SERVE_ADMISSION_HH
