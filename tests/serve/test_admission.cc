#include "serve/admission.hh"

#include <gtest/gtest.h>

#include <vector>

using namespace dronedse::serve;

namespace {

QueuedItem
item(QueryClass cls)
{
    QueuedItem out;
    out.request.cls = cls;
    return out;
}

/** Config with wide-open buckets so only the knob under test acts. */
AdmissionConfig
openConfig()
{
    AdmissionConfig config;
    config.interactive = {1e9, 1e9};
    config.batch = {1e9, 1e9};
    return config;
}

} // namespace

TEST(ServeAdmission, TokenBucketEnforcesBurstThenRate)
{
    AdmissionConfig config = openConfig();
    config.interactive = {10.0, 5.0}; // 10/s sustained, burst of 5
    AdmissionController admission{config};

    // The burst admits 5 back-to-back at t=0, then the bucket is dry.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.0),
                  AdmitDecision::Admit)
            << i;
    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.0),
              AdmitDecision::RateLimited);

    // 0.5 s refills 5 tokens.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.5),
                  AdmitDecision::Admit)
            << i;
    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.5),
              AdmitDecision::RateLimited);
    EXPECT_EQ(admission.stats().rateLimited, 2u);
}

TEST(ServeAdmission, ClassBucketsAreIndependent)
{
    AdmissionConfig config = openConfig();
    config.interactive = {10.0, 1.0};
    AdmissionController admission{config};

    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.0),
              AdmitDecision::Admit);
    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.0),
              AdmitDecision::RateLimited);
    // Batch has its own (open) bucket.
    EXPECT_EQ(admission.submit(item(QueryClass::Batch), 0.0),
              AdmitDecision::Admit);
}

TEST(ServeAdmission, BoundedQueueRejectsWhenFull)
{
    AdmissionConfig config = openConfig();
    config.queueCapacity = 3;
    AdmissionController admission{config};

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.0),
                  AdmitDecision::Admit);
    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.0),
              AdmitDecision::QueueFull);
    EXPECT_EQ(admission.depth(), 3u);

    QueuedItem out;
    ASSERT_TRUE(admission.pop(0.0, out));
    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), 0.0),
              AdmitDecision::Admit);
}

TEST(ServeAdmission, PopIsFifoAndRecordsWaits)
{
    AdmissionController admission{openConfig()};
    QueuedItem first = item(QueryClass::Interactive);
    first.request.id = 1;
    QueuedItem second = item(QueryClass::Interactive);
    second.request.id = 2;
    EXPECT_EQ(admission.submit(first, 0.0), AdmitDecision::Admit);
    EXPECT_EQ(admission.submit(second, 0.0), AdmitDecision::Admit);

    QueuedItem out;
    ASSERT_TRUE(admission.pop(0.25, out));
    EXPECT_EQ(out.request.id, 1u);
    ASSERT_TRUE(admission.pop(0.25, out));
    EXPECT_EQ(out.request.id, 2u);
    EXPECT_FALSE(admission.pop(0.25, out));
}

namespace {

using AC = AdmissionController;

/** Queue wait that feeds +1 per window: its p95 edge (0.25 s) lies
 *  between the shed and reject thresholds. */
constexpr double kSlowWaitS = 0.2;
/** Queue wait that feeds +3 per window: its p95 edge (2.5 s) lies
 *  past the reject threshold. */
constexpr double kVerySlowWaitS = 2.0;
static_assert(AC::kWaitP95ShedS <= 0.25 && 0.25 < AC::kWaitP95RejectS);
static_assert(AC::kWaitP95RejectS <= 2.5);

/**
 * Push `n` items through with queue wait `wait` each: all are
 * enqueued at `t - wait`, then all popped at `t`.  The accumulator
 * only decays over elapsed time, so windows pumped at one `t` add
 * up undecayed.
 */
void
pumpWindow(AdmissionController &admission, double t, double wait,
           int n = AC::kP95WindowSamples)
{
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(admission.submit(item(QueryClass::Interactive),
                                   t - wait),
                  AdmitDecision::Admit);
    QueuedItem out;
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(admission.pop(t, out));
}

} // namespace

TEST(ServeAdmission, SlowWindowsEscalateToShedThenReject)
{
    AdmissionController admission{openConfig()};
    const double t = 10.0;

    // Two slow windows: level 2, still Nominal.
    pumpWindow(admission, t, kSlowWaitS);
    pumpWindow(admission, t, kSlowWaitS);
    EXPECT_EQ(admission.state(), ShedState::Nominal);
    EXPECT_GE(admission.lastWindowP95S(), AC::kWaitP95ShedS);
    EXPECT_LT(admission.lastWindowP95S(), AC::kWaitP95RejectS);

    // Third slow window reaches kShedLevel = 3.
    pumpWindow(admission, t, kSlowWaitS);
    EXPECT_EQ(admission.state(), ShedState::ShedLowPriority);

    // Batch is now shed, interactive still admitted.
    EXPECT_EQ(admission.submit(item(QueryClass::Batch), t),
              AdmitDecision::ShedClass);
    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), t),
              AdmitDecision::Admit);
    QueuedItem out;
    ASSERT_TRUE(admission.pop(t, out));

    // Complete that window (the pop above is its first sample, a
    // zero wait; the 31 slow ones still set its p95), then five
    // more slow windows reach kRejectLevel = 9: everything is shed.
    pumpWindow(admission, t, kSlowWaitS, AC::kP95WindowSamples - 1);
    for (int i = 0; i < 5; ++i)
        pumpWindow(admission, t, kSlowWaitS);
    EXPECT_EQ(admission.state(), ShedState::RejectAll);
    EXPECT_EQ(admission.submit(item(QueryClass::Interactive), t),
              AdmitDecision::ShedAll);
    EXPECT_EQ(admission.submit(item(QueryClass::Batch), t),
              AdmitDecision::ShedAll);
}

TEST(ServeAdmission, RejectThresholdEscalatesThreeTimesAsFast)
{
    AdmissionController admission{openConfig()};
    const double t = 10.0;

    // One window past the reject threshold feeds the accumulator
    // +3 — straight to ShedLowPriority, where slow windows take
    // three.
    pumpWindow(admission, t, kVerySlowWaitS);
    EXPECT_GE(admission.lastWindowP95S(), AC::kWaitP95RejectS);
    EXPECT_EQ(admission.state(), ShedState::ShedLowPriority);

    // Two more reach kRejectLevel = 9, where slow windows take nine.
    pumpWindow(admission, t, kVerySlowWaitS);
    EXPECT_EQ(admission.state(), ShedState::ShedLowPriority);
    pumpWindow(admission, t, kVerySlowWaitS);
    EXPECT_EQ(admission.state(), ShedState::RejectAll);
}

TEST(ServeAdmission, RecoversAfterHoldWithHysteresis)
{
    AdmissionController admission{openConfig()};
    // One very slow window: level exactly kShedLevel at t0.
    const double t0 = 10.0;
    pumpWindow(admission, t0, kVerySlowWaitS);
    ASSERT_EQ(admission.state(), ShedState::ShedLowPriority);

    // Half a hold later the level has decayed below kShedLevel, but
    // the recovery hold has not elapsed: still shedding
    // (hysteresis).
    double t = t0 + AC::kRecoveryHoldS / 2;
    EXPECT_EQ(admission.submit(item(QueryClass::Batch), t),
              AdmitDecision::ShedClass);
    EXPECT_EQ(admission.state(), ShedState::ShedLowPriority);

    // Once the hold has elapsed since the last elevated demand,
    // Nominal again.
    t = t0 + AC::kRecoveryHoldS;
    EXPECT_EQ(admission.submit(item(QueryClass::Batch), t),
              AdmitDecision::Admit);
    EXPECT_EQ(admission.state(), ShedState::Nominal);

    // The transition log recorded the round trip.
    const std::vector<ShedTransition> transitions =
        admission.transitions();
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_EQ(transitions[0].to, ShedState::ShedLowPriority);
    EXPECT_EQ(transitions[0].t, t0);
    EXPECT_EQ(transitions[1].to, ShedState::Nominal);
    EXPECT_EQ(transitions[1].reason, "recovered");
    QueuedItem out;
    ASSERT_TRUE(admission.pop(t, out));
}

TEST(ServeAdmission, RejectionMapsToTypedErrors)
{
    EXPECT_EQ(admitError(AdmitDecision::RateLimited).code,
              ErrorCode::RateLimited);
    EXPECT_EQ(admitError(AdmitDecision::QueueFull).code,
              ErrorCode::Overloaded);
    EXPECT_EQ(admitError(AdmitDecision::ShedClass).code,
              ErrorCode::Overloaded);
    EXPECT_EQ(admitError(AdmitDecision::ShedAll).code,
              ErrorCode::Overloaded);
}

TEST(ServeAdmission, StateNamesAreStable)
{
    EXPECT_STREQ(shedStateName(ShedState::Nominal), "nominal");
    EXPECT_STREQ(shedStateName(ShedState::ShedLowPriority),
                 "shed_low_priority");
    EXPECT_STREQ(shedStateName(ShedState::RejectAll), "reject_all");
}
