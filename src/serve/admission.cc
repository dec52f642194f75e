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

namespace {

std::vector<double>
waitBounds()
{
    return std::vector<double>(
        AdmissionController::kWaitBounds.begin(),
        AdmissionController::kWaitBounds.end());
}

} // namespace

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config),
      admittedCounter_(
          obs::metrics().counter("serve.admission.admitted")),
      rateLimitedCounter_(
          obs::metrics().counter("serve.admission.rate_limited")),
      queueFullCounter_(
          obs::metrics().counter("serve.admission.queue_full")),
      shedClassCounter_(
          obs::metrics().counter("serve.admission.shed_class")),
      shedAllCounter_(obs::metrics().counter("serve.admission.shed_all")),
      transitionsCounter_(
          obs::metrics().counter("serve.admission.transitions")),
      stateGauge_(obs::metrics().gauge("serve.admission.state")),
      depthGauge_(obs::metrics().gauge("serve.queue.depth")),
      waitP95Gauge_(obs::metrics().gauge("serve.queue.wait_p95_seconds")),
      waitSecondsHist_(obs::metrics().histogram(
          "serve.queue.wait_seconds", waitBounds())),
      waitHist_(waitBounds()),
      windowBaseCounts_(kWaitBounds.size() + 1, 0)
{
    if (config_.queueCapacity == 0)
        fatal("AdmissionController: queueCapacity must be > 0");
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
    transitionsCounter_.add(1);
    stateGauge_.set(static_cast<double>(to));
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
    if (dt > 0.0) {
        overloadLevel_ *= std::exp2(-dt / kOverloadHalfLifeS);
        levelT_ = t;
    }

    ShedState demand = ShedState::Nominal;
    std::string reason;
    if (overloadLevel_ >= kRejectLevel) {
        demand = ShedState::RejectAll;
        reason = "overload level above reject threshold";
    } else if (overloadLevel_ >= kShedLevel) {
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
    if (t - lastElevatedT_ >= kRecoveryHoldS)
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

    if (p95 >= kWaitP95RejectS)
        overloadLevel_ += 3.0;
    else if (p95 >= kWaitP95ShedS)
        overloadLevel_ += 1.0;
    waitP95Gauge_.set(p95);
}

AdmitDecision
AdmissionController::decide(QueryClass cls, double t)
{
    advanceState(t);

    if (state_ == ShedState::RejectAll) {
        ++stats_.shedAll;
        shedAllCounter_.add(1);
        return AdmitDecision::ShedAll;
    }
    if (state_ == ShedState::ShedLowPriority &&
        cls == QueryClass::Batch) {
        ++stats_.shedClass;
        shedClassCounter_.add(1);
        return AdmitDecision::ShedClass;
    }
    const bool interactive = cls == QueryClass::Interactive;
    if (!takeToken(interactive ? interactiveBucket_ : batchBucket_,
                   interactive ? config_.interactive : config_.batch,
                   t)) {
        ++stats_.rateLimited;
        rateLimitedCounter_.add(1);
        return AdmitDecision::RateLimited;
    }
    if (queue_.size() >= config_.queueCapacity) {
        ++stats_.queueFull;
        queueFullCounter_.add(1);
        return AdmitDecision::QueueFull;
    }
    ++stats_.admitted;
    admittedCounter_.add(1);
    return AdmitDecision::Admit;
}

void
AdmissionController::recordWait(double wait, double t)
{
    waitHist_.record(wait);
    waitSecondsHist_.record(wait);
    depthGauge_.set(static_cast<double>(queue_.size()));
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
    depthGauge_.set(static_cast<double>(queue_.size()));
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
