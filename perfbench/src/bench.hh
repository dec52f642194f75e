/**
 * @file
 * Shared pieces of the perfbench harness: clocks, statistics, the
 * benchmark's own span log, and the Phase interface every workload
 * is built from.
 *
 * A run is a schedule of fixed-work blocks drawn from three phases
 * (design, grid, studies).  Each block runs against a freshly
 * constructed `serve::Service`, so every block sees the same cache
 * state no matter how many ran before it; the per-run value of a
 * timed metric is the interquartile mean of its per-block values.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/service.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/** Mean of a sample (0 for an empty one). */
double mean(const std::vector<double> &values);

/**
 * Interquartile mean: the mean of the sorted sample with a quarter
 * of its values (rounded down) dropped from each end.
 */
double midMean(std::vector<double> values);

/** Engine worker threads of every Service the benchmark builds. */
inline constexpr int kEngineThreads = 2;
/** Closed-loop client threads of the design and grid phases. */
inline constexpr int kClients = 2;

/**
 * Service options with admission widened so that benchmark rates
 * are never refused: a rate-limited reply would time the error path.
 */
dronedse::serve::ServiceOptions serviceOptions();

/** Seconds on one process-wide monotone clock (handleFrame's `t`). */
double serviceTime();

/**
 * Closed-loop clients sharing one Service through its queued path
 * (`ingest` + `processOne`), the way `serve::Server`'s workers use
 * it minus the sockets: a client queues its frame tagged with its
 * own id, then works the queue, handing any reply it dequeued for
 * another client to that client.  Waits spin (yielding): a sleeping
 * client's wake-up would add a scheduler hop to its latency.
 * `handleFrame` cannot be shared:
 * its submit and pop go through the one admission queue, so two
 * concurrent callers can each receive the other's reply.
 */
class ClientPool
{
  public:
    ClientPool(dronedse::serve::Service &service, int clients);

    /** Send one frame as `client` and wait for its reply. */
    std::string roundTrip(int client, const std::string &frame);

  private:
    /** One client's reply slot: written by whichever client
     *  executed the request, then flagged. */
    struct Mailbox
    {
        std::atomic<bool> full{false};
        std::string reply;
    };

    dronedse::serve::Service &service_;
    std::vector<Mailbox> mailbox_;
};

/**
 * The benchmark's own trace: spans recorded around the calls into
 * each layer, kept in memory and written as a chrome trace at exit.
 * Single-threaded by design — traced replays run on one thread.
 */
class SpanLog
{
  public:
    SpanLog();

    struct Span
    {
        std::uint64_t request = 0;
        int parent = -1;
        const char *name = "";
        double startUs = 0.0;
        double endUs = 0.0;
    };

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::uint64_t request, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int index_;
    };

    std::size_t size() const { return spans_.size(); }

    /**
     * Self time (µs) summed per span name over spans [from, size()):
     * a span's duration minus the part its children cover.
     */
    std::map<std::string, double> selfTimeUs(std::size_t from) const;

    /** Chrome trace JSON (complete events on the wall track). */
    std::string chromeJson() const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Per-block samples of named metrics. */
using Samples = std::map<std::string, std::vector<double>>;

/** Requests attempted and answered correctly (ok and equal to the
 *  oracle), plus any whole-run check that failed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::vector<std::string> failures;

    void record(bool good, const std::string &what);
};

/** One kind of traffic, run as a sequence of fixed-work blocks. */
class Phase
{
  public:
    virtual ~Phase() = default;

    virtual const char *name() const = 0;

    /**
     * One timed block with tracing off; appends to samples() and
     * returns the seconds it spent in timed work.
     */
    virtual double runBlock() = 0;

    /**
     * One traced block: the same requests replayed through the
     * public entry points under spans, timed through handleFrame
     * with and without the program's tracer; appends per-layer
     * values to layerSamples().
     */
    virtual void runTracedBlock(SpanLog &log) = 0;

    const Samples &samples() const { return samples_; }
    const Samples &layerSamples() const { return layers_; }
    const Tally &tally() const { return tally_; }

  protected:
    /** Flip a byte of every oracle reply (the gate's self-test). */
    bool corruptOracle = false;

    Samples samples_;
    Samples layers_;
    Tally tally_;
};

/** Build options shared by the three phase factories. */
struct PhaseConfig
{
    std::uint64_t seed = 1;
    /** True for the workload's main phase (full-size blocks). */
    bool main = false;
    bool corruptOracle = false;
};

std::unique_ptr<Phase> makeDesignPhase(const PhaseConfig &config);
std::unique_ptr<Phase> makeGridPhase(const PhaseConfig &config);
std::unique_ptr<Phase> makeStudiesPhase(const PhaseConfig &config);

/** Seeded 64-bit hash of a string (FNV-1a, for sub-seeds). */
std::uint64_t mixSeed(std::uint64_t seed, const char *salt);

/** Flip the last byte before the closing brace of a reply. */
void corrupt(std::string &reply);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
