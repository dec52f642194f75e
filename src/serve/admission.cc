#include "serve/admission.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dronedse::serve {

const char *
shedStateName(ShedState state)
{
    switch (state) {
    case ShedState::Nominal: return "nominal";
    case ShedState::ShedLowPriority: return "shed_low_priority";
    case ShedState::RejectAll: return "reject_all";
    }
    panic("shedStateName: corrupt state");
    return "";
}

ErrorReply
admitError(AdmitDecision decision)
{
    switch (decision) {
    case AdmitDecision::RateLimited:
        return {ErrorCode::RateLimited,
                "per-class rate limit exceeded"};
    case AdmitDecision::QueueFull:
        return {ErrorCode::Overloaded, "request queue full"};
    case AdmitDecision::ShedClass:
        return {ErrorCode::Overloaded,
                "shedding low-priority queries"};
    case AdmitDecision::ShedAll:
        return {ErrorCode::Overloaded, "rejecting all queries"};
    case AdmitDecision::Admit:
        break;
    }
    panic("admitError: Admit is not an error");
    return {};
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(std::move(config)), waitHist_(config_.waitBounds),
      windowBaseCounts_(config_.waitBounds.size() + 1, 0)
{
    if (config_.queueCapacity == 0)
        fatal("AdmissionController: queueCapacity must be > 0");
    if (config_.shedLevel <= 0.0 ||
        config_.rejectLevel <= config_.shedLevel)
        fatal("AdmissionController: need 0 < shedLevel < "
              "rejectLevel");
}

bool
AdmissionController::takeToken(Bucket &bucket,
                               const TokenBucketConfig &config,
                               double t)
{
    if (!bucket.started) {
        bucket.tokens = config.burst;
        bucket.lastT = t;
        bucket.started = true;
    }
    const double dt = std::max(0.0, t - bucket.lastT);
    bucket.tokens = std::min(config.burst,
                             bucket.tokens + dt * config.ratePerSecond);
    bucket.lastT = t;
    if (bucket.tokens < 1.0)
        return false;
    bucket.tokens -= 1.0;
    return true;
}

void
AdmissionController::transitionTo(ShedState to, double t,
                                  const std::string &reason)
{
    if (to == state_)
        return;
    transitions_.push_back(ShedTransition{t, state_, to, reason});
    state_ = to;
    obs::metrics().counter("serve.admission.transitions").add(1);
    obs::metrics()
        .gauge("serve.admission.state")
        .set(static_cast<double>(to));
}

void
AdmissionController::advanceState(double t)
{
    if (!haveLevelT_) {
        haveLevelT_ = true;
        levelT_ = t;
        lastElevatedT_ = t;
    }
    const double dt = std::max(0.0, t - levelT_);
    if (dt > 0.0 && config_.overloadHalfLifeS > 0.0) {
        overloadLevel_ *=
            std::exp2(-dt / config_.overloadHalfLifeS);
        levelT_ = t;
    }

    ShedState demand = ShedState::Nominal;
    std::string reason;
    if (overloadLevel_ >= config_.rejectLevel) {
        demand = ShedState::RejectAll;
        reason = "overload level above reject threshold";
    } else if (overloadLevel_ >= config_.shedLevel) {
        demand = ShedState::ShedLowPriority;
        reason = "overload level above shed threshold";
    }

    if (demand > state_) {
        // Escalation is immediate, exactly like the degradation
        // policy's severity ladder.
        transitionTo(demand, t, reason);
        lastElevatedT_ = t;
        return;
    }
    if (demand == state_) {
        lastElevatedT_ = t;
        return;
    }
    if (t - lastElevatedT_ >= config_.recoveryHoldS)
        transitionTo(demand, t, "recovered");
}

void
AdmissionController::closeWindow()
{
    const std::vector<std::uint64_t> counts = waitHist_.counts();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i)
        total += counts[i] - windowBaseCounts_[i];
    if (total == 0)
        return;
    // Smallest bucket edge at which the cumulative window count
    // reaches 95 %; the overflow bucket reports past the last edge.
    const std::uint64_t target = total - total / 20; // ceil(0.95 n)
    std::uint64_t cumulative = 0;
    double p95 = 0.0;
    const std::vector<double> &bounds = waitHist_.bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
        cumulative += counts[i] - windowBaseCounts_[i];
        if (cumulative >= target) {
            p95 = i < bounds.size() ? bounds[i]
                                    : bounds.back() * 2.0;
            break;
        }
    }
    lastWindowP95S_ = p95;
    windowBaseCounts_ = counts;
    samplesInWindow_ = 0;

    if (p95 >= config_.waitP95RejectS)
        overloadLevel_ += 3.0;
    else if (p95 >= config_.waitP95ShedS)
        overloadLevel_ += 1.0;
    obs::metrics()
        .gauge("serve.queue.wait_p95_seconds")
        .set(p95);
}

AdmitDecision
AdmissionController::decide(QueryClass cls, double t)
{
    obs::MetricsRegistry &registry = obs::metrics();
    advanceState(t);

    if (state_ == ShedState::RejectAll) {
        ++stats_.shedAll;
        registry.counter("serve.admission.shed_all").add(1);
        return AdmitDecision::ShedAll;
    }
    if (state_ == ShedState::ShedLowPriority &&
        cls == QueryClass::Batch) {
        ++stats_.shedClass;
        registry.counter("serve.admission.shed_class").add(1);
        return AdmitDecision::ShedClass;
    }
    const bool interactive = cls == QueryClass::Interactive;
    if (!takeToken(interactive ? interactiveBucket_ : batchBucket_,
                   interactive ? config_.interactive : config_.batch,
                   t)) {
        ++stats_.rateLimited;
        registry.counter("serve.admission.rate_limited").add(1);
        return AdmitDecision::RateLimited;
    }
    if (queue_.size() >= config_.queueCapacity) {
        ++stats_.queueFull;
        registry.counter("serve.admission.queue_full").add(1);
        return AdmitDecision::QueueFull;
    }
    ++stats_.admitted;
    registry.counter("serve.admission.admitted").add(1);
    return AdmitDecision::Admit;
}

void
AdmissionController::recordWait(double wait, double t)
{
    waitHist_.record(wait);
    obs::metrics()
        .histogram("serve.queue.wait_seconds", config_.waitBounds)
        .record(wait);
    obs::metrics().gauge("serve.queue.depth")
        .set(static_cast<double>(queue_.size()));
    advanceState(t);
    if (++samplesInWindow_ >= kP95WindowSamples) {
        // Decay (above) happens before the window feeds the
        // accumulator, so the ladder sees the freshly-added level;
        // the second advanceState call has dt == 0 and only
        // resolves the state.
        closeWindow();
        advanceState(t);
    }
}

AdmitDecision
AdmissionController::submit(QueuedItem item, double t)
{
    util::MutexLock lock(mutex_);
    const AdmitDecision decision = decide(item.request.cls, t);
    if (decision != AdmitDecision::Admit)
        return decision;
    item.enqueueT = t;
    queue_.push_back(std::move(item));
    obs::metrics().gauge("serve.queue.depth")
        .set(static_cast<double>(queue_.size()));
    return AdmitDecision::Admit;
}

AdmitDecision
AdmissionController::admitNow(const Request &request, double t)
{
    util::MutexLock lock(mutex_);
    const AdmitDecision decision = decide(request.cls, t);
    if (decision == AdmitDecision::Admit)
        recordWait(0.0, t);
    return decision;
}

bool
AdmissionController::pop(double t, QueuedItem &out)
{
    util::MutexLock lock(mutex_);
    if (queue_.empty())
        return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    recordWait(std::max(0.0, t - out.enqueueT), t);
    return true;
}

std::size_t
AdmissionController::depth() const
{
    util::MutexLock lock(mutex_);
    return queue_.size();
}

ShedState
AdmissionController::state() const
{
    util::MutexLock lock(mutex_);
    return state_;
}

AdmissionStats
AdmissionController::stats() const
{
    util::MutexLock lock(mutex_);
    return stats_;
}

double
AdmissionController::overloadLevel() const
{
    util::MutexLock lock(mutex_);
    return overloadLevel_;
}

double
AdmissionController::lastWindowP95S() const
{
    util::MutexLock lock(mutex_);
    return lastWindowP95S_;
}

std::vector<ShedTransition>
AdmissionController::transitions() const
{
    util::MutexLock lock(mutex_);
    return transitions_;
}

} // namespace dronedse::serve
