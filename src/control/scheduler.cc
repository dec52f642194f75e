#include "control/scheduler.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"

namespace dronedse {

void
RateScheduler::addTask(std::string name, double rate_hz, double cost_s,
                       std::function<void(double)> fn)
{
    if (rate_hz <= 0.0 || cost_s < 0.0)
        fatal("RateScheduler::addTask: invalid rate or cost");

    Task task;
    task.stats.name = std::move(name);
    task.stats.rateHz = rate_hz;
    task.periodS = 1.0 / rate_hz;
    task.costS = cost_s;
    task.fn = std::move(fn);
    tasks_.push_back(std::move(task));

    // Rate-monotonic priority: highest rate first.
    std::stable_sort(tasks_.begin(), tasks_.end(),
                     [](const Task &a, const Task &b) {
                         return a.stats.rateHz > b.stats.rateHz;
                     });
}

void
RateScheduler::advanceTo(double t)
{
    if (t < now_)
        fatal("RateScheduler::advanceTo: time must not go backwards");

    // Release loop: find the earliest pending release and run it.
    while (true) {
        Task *next = nullptr;
        for (auto &task : tasks_) {
            if (task.nextRelease <= t + 1e-12 &&
                (!next || task.nextRelease < next->nextRelease - 1e-12 ||
                 (task.nextRelease <= next->nextRelease + 1e-12 &&
                  task.stats.rateHz > next->stats.rateHz))) {
                next = &task;
            }
        }
        if (!next)
            break;

        const double release = next->nextRelease;
        // The CPU starts this job when it is free; contention
        // inflates the job's cost by the current scale.
        const double cost = next->costS * costScale_;
        const double start = std::max(release, cpuBusyUntil_);
        const double finish = start + cost;
        // Deadline: the next release of the same task.
        if (finish > release + next->periodS + 1e-12) {
            ++next->stats.deadlineMisses;
            // Each handle is registered at its first bump, as the
            // per-call lookups did; later bumps skip the registry
            // mutex.
            static obs::Counter &deadline_misses =
                obs::metrics().counter("control.scheduler.deadline_misses");
            deadline_misses.add(1);
        }

        cpuBusyUntil_ = finish;
        totalCpuS_ += cost;
        ++next->stats.executions;
        next->stats.cpuTimeS += cost;
        static obs::Counter &executions =
            obs::metrics().counter("control.scheduler.executions");
        executions.add(1);
        // Scheduler time is the mission clock, not wall time: the
        // span lands on the simulated-time track.
        if (obs::tracer().enabled()) {
            obs::tracer().recordManual(next->stats.name.c_str(),
                                       "control", obs::kSimTrack,
                                       start * 1e6, cost * 1e6);
        }
        next->fn(release);
        next->nextRelease = release + next->periodS;
    }
    now_ = t;
}

void
RateScheduler::setCostScale(double scale)
{
    if (scale <= 0.0)
        fatal("RateScheduler::setCostScale: scale must be > 0");
    costScale_ = scale;
}

RateScheduler::Task &
RateScheduler::findTask(const std::string &name)
{
    for (auto &task : tasks_) {
        if (task.stats.name == name)
            return task;
    }
    fatal("RateScheduler: no task named '" + name + "'");
}

const RateScheduler::Task &
RateScheduler::findTask(const std::string &name) const
{
    return const_cast<RateScheduler *>(this)->findTask(name);
}

void
RateScheduler::setTaskRate(const std::string &name, double rate_hz)
{
    if (rate_hz <= 0.0)
        fatal("RateScheduler::setTaskRate: rate must be > 0");

    Task &task = findTask(name);
    task.stats.rateHz = rate_hz;
    task.periodS = 1.0 / rate_hz;

    // Priorities are rate-monotonic; a re-rated task re-sorts.
    std::stable_sort(tasks_.begin(), tasks_.end(),
                     [](const Task &a, const Task &b) {
                         return a.stats.rateHz > b.stats.rateHz;
                     });
}

double
RateScheduler::taskRate(const std::string &name) const
{
    return findTask(name).stats.rateHz;
}

void
RateScheduler::setTaskCost(const std::string &name, double cost_s)
{
    if (cost_s < 0.0)
        fatal("RateScheduler::setTaskCost: cost must be >= 0");
    findTask(name).costS = cost_s;
}

double
RateScheduler::taskCost(const std::string &name) const
{
    return findTask(name).costS;
}

long
RateScheduler::totalDeadlineMisses() const
{
    long total = 0;
    for (const auto &task : tasks_)
        total += task.stats.deadlineMisses;
    return total;
}

std::vector<TaskStats>
RateScheduler::stats() const
{
    std::vector<TaskStats> out;
    out.reserve(tasks_.size());
    for (const auto &task : tasks_)
        out.push_back(task.stats);
    return out;
}

double
RateScheduler::utilization() const
{
    return now_ > 0.0 ? std::min(1.0, totalCpuS_ / now_) : 0.0;
}

} // namespace dronedse
