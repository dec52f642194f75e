#include "engine/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/tracer.hh"
#include "util/logging.hh"

namespace dronedse::engine {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

/** One `parallelForChunks` call; lives on its caller's stack. */
struct ThreadPool::Job
{
    const std::function<void(std::size_t, std::size_t, int)> &body;
    std::size_t count = 0;
    std::size_t chunk = 1;
    /** Start of the next unclaimed chunk. */
    std::atomic<std::size_t> next{0};
    /** Pool workers inside the job; guarded by `jobMutex_`. */
    int inside = 0;
    /** One slot per worker, written only by that worker. */
    std::vector<WorkerStats> stats;
};

ThreadPool::ThreadPool(int threads)
{
    if (threads < 0)
        fatal("ThreadPool: thread count must be >= 0");
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : static_cast<int>(hw);
    }

    // Worker 0 is the calling thread; spawn the rest.
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 1; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        util::MutexLock lock(jobMutex_);
        shutdown_ = true;
    }
    jobReady_.notifyAll();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::parallelFor(std::size_t count, std::size_t chunk_size,
                        const std::function<void(std::size_t, int)> &body)
{
    parallelForChunks(count, chunk_size,
                      [&body](std::size_t begin, std::size_t end,
                              int worker) {
                          for (std::size_t i = begin; i < end; ++i)
                              body(i, worker);
                      });
}

std::vector<WorkerStats>
ThreadPool::parallelForChunks(
    std::size_t count, std::size_t chunk_size,
    const std::function<void(std::size_t, std::size_t, int)> &body)
{
    const auto n_workers = static_cast<std::size_t>(threadCount());
    if (count == 0)
        return std::vector<WorkerStats>(n_workers);
    if (chunk_size == 0) {
        // ~4 chunks per worker evens out uneven chunks without
        // drowning the run in cursor traffic.
        chunk_size = std::max<std::size_t>(1, count / (n_workers * 4));
    }

    Job job{.body = body,
            .count = count,
            .chunk = chunk_size,
            .stats = std::vector<WorkerStats>(n_workers)};
    if (count <= chunk_size || workers_.empty()) {
        // Nothing for a worker to take: run inline, unlisted, so no
        // worker is woken for a job the caller drains alone.
        drain(job, 0);
        return std::move(job.stats);
    }
    {
        util::MutexLock lock(jobMutex_);
        jobs_.push_back(&job);
    }
    jobReady_.notifyAll();

    drain(job, 0);

    {
        util::MutexLock lock(jobMutex_);
        jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
        while (job.inside != 0)
            jobDone_.wait(jobMutex_);
    }
    return std::move(job.stats);
}

ThreadPool::Job *
ThreadPool::claimableJob() const
{
    for (Job *job : jobs_) {
        if (job->next.load() < job->count)
            return job;
    }
    return nullptr;
}

void
ThreadPool::workerLoop(int worker)
{
    for (;;) {
        Job *job = nullptr;
        {
            util::MutexLock lock(jobMutex_);
            while (!shutdown_ && (job = claimableJob()) == nullptr)
                jobReady_.wait(jobMutex_);
            if (shutdown_)
                return;
            // The caller cannot unlink and destroy the job until this
            // count drops back to 0.
            ++job->inside;
        }
        drain(*job, worker);
        {
            util::MutexLock lock(jobMutex_);
            if (--job->inside == 0)
                jobDone_.notifyAll();
        }
    }
}

void
ThreadPool::drain(Job &job, int worker)
{
    auto &stat = job.stats[static_cast<std::size_t>(worker)];
    for (;;) {
        const std::size_t begin = job.next.fetch_add(job.chunk);
        if (begin >= job.count)
            return;
        const std::size_t end = std::min(job.count, begin + job.chunk);
        const auto start = std::chrono::steady_clock::now();
        {
            obs::ScopedSpan span("engine.chunk", "engine");
            job.body(begin, end, worker);
        }
        stat.busySeconds += secondsSince(start);
        stat.itemsProcessed += end - begin;
    }
}

} // namespace dronedse::engine
