/**
 * @file
 * Process-wide metrics registry: named atomic counters, gauges, and
 * fixed-bucket histograms with a JSON snapshot.
 *
 * This is the one aggregation point for the quantities the paper's
 * studies report — sweep throughput (Fig 10/11 grids), scheduler
 * deadline misses (§2.1.3), uarch miss rates (Fig 15) — so an
 * experiment reads one snapshot instead of four bespoke stats
 * structs.  Handles returned by the registry are
 * stable for the registry's lifetime; updates are lock-free atomics,
 * so instrumented hot paths pay one relaxed RMW per event.
 *
 * Naming convention (DESIGN.md §10): dot-separated
 * `<module>.<object>.<event>` in lower_snake segments, e.g.
 * `engine.grid_points`, `control.scheduler.deadline_misses`.
 */

#ifndef DRONEDSE_OBS_METRICS_HH
#define DRONEDSE_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.hh"

namespace dronedse::obs {

/** Monotonic event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram: `bounds` are ascending upper edges; a
 * sample lands in the first bucket whose edge is >= the sample, or
 * in the implicit overflow bucket past the last edge.  Bucket counts
 * and the running sum are atomics, so `record` is wait-free.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void record(double sample);

    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket counts, `bounds().size() + 1` entries. */
    std::vector<std::uint64_t> counts() const;
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const;

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * The registry.  `counter`/`gauge`/`histogram` find-or-create by
 * name and return a reference that stays valid for the registry's
 * lifetime (instruments cache the reference, the map is only walked
 * once per call site).  Snapshots walk the maps under the lock but
 * never block updates.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name)
        DDSE_EXCLUDES(mutex_);
    Gauge &gauge(const std::string &name) DDSE_EXCLUDES(mutex_);
    /** `bounds` only applies on first registration of `name`. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds)
        DDSE_EXCLUDES(mutex_);

    /**
     * One JSON object:
     * {"counters": {name: n}, "gauges": {name: v},
     *  "histograms": {name: {"bounds": [...], "counts": [...],
     *                        "count": n, "sum": v}}}
     * Keys are sorted, so equal states serialize identically.
     */
    std::string toJson() const DDSE_EXCLUDES(mutex_);

    /** Write the snapshot to a file; fatal() on I/O failure. */
    void writeJson(const std::string &path) const;

  private:
    mutable util::Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        DDSE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        DDSE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        DDSE_GUARDED_BY(mutex_);
};

/** The process-wide registry every instrument publishes through. */
MetricsRegistry &metrics();

} // namespace dronedse::obs

#endif // DRONEDSE_OBS_METRICS_HH
