/**
 * @file
 * Scoped-span tracer: thread-safe, per-thread buffers, monotonic
 * timestamps, exported as Chrome `chrome://tracing` JSON or a flat
 * per-span CSV.
 *
 * One run-time gate keeps the cost proportional to use: spans are
 * only captured while `tracer().setEnabled` is on, so an untraced
 * run pays one relaxed atomic load per span site, and any running
 * binary can be traced without a rebuild.
 *
 * Spans carry a `track` so wall-clock instruments (thread pool,
 * SLAM phases) and simulated-time instruments (the rate scheduler,
 * whose "time" is the mission clock) never interleave on one
 * timeline: track 1 is wall time, track 2 simulated time.  Chrome
 * renders tracks as separate processes.
 */

#ifndef DRONEDSE_OBS_TRACER_HH
#define DRONEDSE_OBS_TRACER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.hh"

namespace dronedse::obs {

/** Chrome `pid` of wall-clock spans. */
inline constexpr std::uint32_t kWallTrack = 1;
/** Chrome `pid` of simulated-time spans (mission clock). */
inline constexpr std::uint32_t kSimTrack = 2;

/** One captured span or instant marker. */
struct SpanRecord
{
    std::string name;
    std::string category;
    /** Timeline this span lives on (kWallTrack / kSimTrack). */
    std::uint32_t track = kWallTrack;
    /** Capturing thread (sequential registration order). */
    std::uint32_t thread = 0;
    /** 'X' = complete span, 'i' = instant marker. */
    char phase = 'X';
    /** Start, microseconds since the tracer epoch. */
    double startUs = 0.0;
    /** Duration in microseconds (0 for instants). */
    double durUs = 0.0;
};

/**
 * The tracer.  All member functions are safe from any thread; spans
 * append to a per-thread buffer under that buffer's own mutex, so
 * concurrent capture never contends across threads.
 */
class Tracer
{
  public:
    Tracer();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on);

    /** Microseconds since the tracer epoch (monotonic clock). */
    double nowUs() const;

    /** Record a wall-clock span from two monotonic time points. */
    void recordSpan(const char *name, const char *category,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end);

    /** Record an instant marker at "now" on the wall track. */
    void recordInstant(const char *name, const char *category);

    /**
     * Record a span with caller-supplied timestamps on an explicit
     * track — how simulated-time instruments (the rate scheduler)
     * land on their own timeline.
     */
    void recordManual(const char *name, const char *category,
                      std::uint32_t track, double start_us,
                      double dur_us);

    /**
     * Copy of every captured span, sorted by (startUs, thread) so
     * equal captures compare equal regardless of buffer order.
     */
    std::vector<SpanRecord> snapshot() const;

    /** Drop all captured spans (buffers stay registered). */
    void clear();

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    std::string toChromeJson() const;

    /** Flat CSV: name,category,track,thread,phase,start_us,dur_us. */
    std::string toCsv() const;

    void writeChromeJson(const std::string &path) const;
    void writeCsv(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        mutable util::Mutex mutex;
        /** Written once at registration (under `buffersMutex_`),
         *  read-only afterwards — not guarded by `mutex`. */
        std::uint32_t thread = 0;
        std::vector<SpanRecord> spans DDSE_GUARDED_BY(mutex);
    };

    ThreadBuffer &localBuffer() DDSE_EXCLUDES(buffersMutex_);
    void append(SpanRecord record);

    /** Process-unique, so no two tracers share a thread's cache. */
    const std::uint64_t id_;
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<bool> enabled_{false};
    mutable util::Mutex buffersMutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_
        DDSE_GUARDED_BY(buffersMutex_);
};

/** The process-wide tracer every instrument records through. */
Tracer &tracer();

/**
 * RAII span: captures [construction, destruction) on the wall track
 * when tracing is enabled.  `name` and `category` must outlive the
 * span (string literals at every call site).
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *category)
        : active_(tracer().enabled()), name_(name),
          category_(category)
    {
        if (active_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedSpan()
    {
        if (active_) {
            tracer().recordSpan(name_, category_, start_,
                                std::chrono::steady_clock::now());
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_;
    const char *name_;
    const char *category_;
    std::chrono::steady_clock::time_point start_;
};

/** Instant marker helper. */
inline void
instant(const char *name, const char *category)
{
    if (tracer().enabled())
        tracer().recordInstant(name, category);
}

} // namespace dronedse::obs

#endif // DRONEDSE_OBS_TRACER_HH
