/**
 * @file
 * Self-scheduling thread pool for batch design-space sweeps.
 *
 * The pool owns N-1 persistent workers; the caller participates as
 * worker 0, so a single-threaded pool, or any job that fits in one
 * chunk, runs entirely inline and wakes no worker.  Each
 * `parallelForChunks` call is one job with its own chunk cursor:
 * the caller and any idle workers claim `[next, next + chunk)`
 * ranges from it with one atomic add until the range is exhausted.
 * Several callers may run jobs on one pool at once; idle workers
 * help the oldest job that still has unclaimed chunks.  Because
 * callers write results into pre-allocated slots indexed by grid
 * position, which worker claims which chunk never affects the
 * output — that is the engine's determinism contract (DESIGN.md §9).
 *
 * This is pool plumbing, not model code: indices and timings are raw
 * integers/doubles by design; typed `Quantity` stops at the engine's
 * public API.
 */

#ifndef DRONEDSE_ENGINE_THREAD_POOL_HH
#define DRONEDSE_ENGINE_THREAD_POOL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hh"

namespace dronedse::engine {

/** Per-worker accounting of one job. */
struct WorkerStats
{
    /** Indices this worker processed. */
    std::uint64_t itemsProcessed = 0;
    /** Time spent inside the loop body, seconds. */
    double busySeconds = 0.0;
};

/**
 * A fixed-size pool that runs any number of concurrent jobs.  Safe
 * to reuse across many calls; the workers sleep between jobs.
 */
class ThreadPool
{
  public:
    /** 0 threads means hardware concurrency (at least 1). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers_.size()) + 1; }

    /**
     * Run `body(begin, end, worker)` over [0, count) in chunks of
     * `chunk_size` consecutive indices, blocking until every chunk
     * is done; `chunk_size` 0 picks a size that gives each worker
     * ~4 chunks.  A chunk body can hand the whole [begin, end) range
     * to the SoA batch solver in one call.
     *
     * The body must be safe to call concurrently on different
     * ranges.  `worker` is unique among the threads inside this job
     * (the caller is 0), not across concurrent jobs.  Returns this
     * job's stats, one entry per worker.
     */
    std::vector<WorkerStats> parallelForChunks(
        std::size_t count, std::size_t chunk_size,
        const std::function<void(std::size_t, std::size_t, int)> &body)
        DDSE_EXCLUDES(jobMutex_);

    /** Per-index form: `body(index, worker)` for every index. */
    void parallelFor(std::size_t count, std::size_t chunk_size,
                     const std::function<void(std::size_t, int)> &body)
        DDSE_EXCLUDES(jobMutex_);

  private:
    struct Job;

    void workerLoop(int worker) DDSE_EXCLUDES(jobMutex_);
    /** Oldest listed job with unclaimed chunks, or null. */
    Job *claimableJob() const DDSE_REQUIRES(jobMutex_);
    /** Claim and run chunks of `job` until its cursor passes the end. */
    static void drain(Job &job, int worker);

    std::vector<std::thread> workers_;

    // Jobs are listed oldest first while their caller drains them;
    // a worker counts itself into a job under the mutex, and the
    // caller unlinks its job and waits for that count to reach 0
    // before the stack-local job goes away.
    util::Mutex jobMutex_;
    util::CondVar jobReady_;
    util::CondVar jobDone_;
    std::vector<Job *> jobs_ DDSE_GUARDED_BY(jobMutex_);
    bool shutdown_ DDSE_GUARDED_BY(jobMutex_) = false;
};

} // namespace dronedse::engine

#endif // DRONEDSE_ENGINE_THREAD_POOL_HH
