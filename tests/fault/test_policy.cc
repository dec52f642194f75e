/**
 * @file
 * DegradationPolicy property tests: monotonicity (a strictly worse
 * fault trace never yields a strictly better outcome), idempotent
 * recovery, and backoff bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/policy.hh"
#include "util/rng.hh"

using namespace dronedse;
using namespace dronedse::fault;

namespace {

/** A deterministic pseudo-random health trace, 0.1 s ticks. */
std::vector<HealthSnapshot>
randomTrace(std::uint64_t seed, int ticks)
{
    Rng rng(seed);
    std::vector<HealthSnapshot> trace;
    trace.reserve(ticks);
    long misses = 0;
    double soc = 1.0;
    for (int k = 0; k < ticks; ++k) {
        HealthSnapshot h;
        h.t = 0.1 * k;
        h.linkUp = !rng.bernoulli(0.2);
        h.gpsAvailable = !rng.bernoulli(0.15);
        misses += rng.uniformInt(0, 2);
        h.deadlineMisses = misses;
        h.estErrM = rng.uniform(0.0, 4.0);
        soc = std::max(0.0, soc - rng.uniform(0.0, 0.002));
        h.stateOfCharge = soc;
        h.minMotorEffectiveness = rng.uniform(0.5, 1.0);
        trace.push_back(h);
    }
    return trace;
}

/**
 * Degrade a trace pointwise: every sample gets worse or stays the
 * same in every health dimension (misses stay cumulative).
 */
std::vector<HealthSnapshot>
worsen(const std::vector<HealthSnapshot> &trace, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<HealthSnapshot> worse = trace;
    long extra = 0;
    for (auto &h : worse) {
        h.linkUp = h.linkUp && !rng.bernoulli(0.3);
        h.gpsAvailable = h.gpsAvailable && !rng.bernoulli(0.3);
        extra += rng.uniformInt(0, 3);
        h.deadlineMisses += extra;
        h.estErrM += rng.uniform(0.0, 3.0);
        h.stateOfCharge =
            std::max(0.0, h.stateOfCharge - rng.uniform(0.0, 0.1));
        h.minMotorEffectiveness = std::max(
            0.0, h.minMotorEffectiveness - rng.uniform(0.0, 0.2));
        h.t = trace[&h - worse.data()].t;
    }
    return worse;
}

FlightMode
runTrace(const std::vector<HealthSnapshot> &trace)
{
    DegradationPolicy policy;
    for (const auto &h : trace)
        policy.update(h);
    return policy.worstMode();
}

} // namespace

TEST(PolicyProperty, WorseTraceNeverYieldsBetterOutcome)
{
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const auto base = randomTrace(seed, 300);
        const auto worse = worsen(base, seed + 1000);

        const FlightMode base_worst = runTrace(base);
        const FlightMode worse_worst = runTrace(worse);
        EXPECT_GE(static_cast<int>(worse_worst),
                  static_cast<int>(base_worst))
            << "seed " << seed;

        // Same crash/completion facts, worse trace: the tier must
        // not improve.
        for (const bool crashed : {false, true}) {
            for (const bool complete : {false, true}) {
                const auto base_tier = DegradationPolicy::outcomeFor(
                    crashed, complete, base_worst);
                const auto worse_tier = DegradationPolicy::outcomeFor(
                    crashed, complete, worse_worst);
                EXPECT_LE(static_cast<int>(worse_tier),
                          static_cast<int>(base_tier))
                    << "seed " << seed;
            }
        }
    }
}

TEST(PolicyProperty, EscalationIsImmediate)
{
    DegradationPolicy policy;
    HealthSnapshot h;
    h.t = 0.0;
    EXPECT_EQ(policy.update(h), FlightMode::Nominal);
    h.t = 0.1;
    h.linkUp = false;
    EXPECT_EQ(policy.update(h), FlightMode::DegradedSlam);
    h.t = 0.2;
    h.estErrM = 3.0;
    EXPECT_EQ(policy.update(h), FlightMode::RateShed);
    h.t = 0.3;
    h.minMotorEffectiveness = 0.2;
    EXPECT_EQ(policy.update(h), FlightMode::LandSafe);
}

TEST(PolicyProperty, RecoveryIsIdempotent)
{
    DegradationPolicy policy;
    HealthSnapshot h;

    // Break the link, then restore it.
    h.t = 0.0;
    h.linkUp = false;
    EXPECT_EQ(policy.update(h), FlightMode::DegradedSlam);
    h.linkUp = true;

    // The elevated mode holds until recoveryHoldS of clear health.
    h.t = 1.0;
    EXPECT_EQ(policy.update(h), FlightMode::DegradedSlam);
    h.t = 1.0 + kRecoveryHoldS + 0.1;
    EXPECT_EQ(policy.update(h), FlightMode::Nominal);

    // Re-applying the same clear health changes nothing: no mode
    // flapping, no new transitions.
    const std::size_t transitions = policy.transitions().size();
    for (int k = 0; k < 50; ++k) {
        h.t += 0.1;
        EXPECT_EQ(policy.update(h), FlightMode::Nominal);
    }
    EXPECT_EQ(policy.transitions().size(), transitions);
}

TEST(PolicyProperty, LandSafeIsAbsorbing)
{
    DegradationPolicy policy;
    HealthSnapshot h;
    h.t = 0.0;
    h.stateOfCharge = 0.05;
    EXPECT_EQ(policy.update(h), FlightMode::LandSafe);

    // Perfect health forever after: still landing.
    h.stateOfCharge = 1.0;
    for (int k = 1; k <= 100; ++k) {
        h.t = 0.1 * k;
        EXPECT_EQ(policy.update(h), FlightMode::LandSafe);
    }
    EXPECT_EQ(policy.worstMode(), FlightMode::LandSafe);
}

TEST(PolicyProperty, BackoffStaysWithinConfiguredBounds)
{
    DegradationPolicy policy;

    HealthSnapshot h;
    h.linkUp = false;
    double t = 0.0;
    policy.update(h);

    // Fail every retry for a long stretch.
    for (int k = 0; k < 200; ++k) {
        t += 0.1;
        h.t = t;
        policy.update(h);
        if (policy.offloadRetryDue(t))
            policy.onRetryResult(t, false);
    }
    ASSERT_FALSE(policy.retryIntervals().empty());
    for (const double interval : policy.retryIntervals()) {
        EXPECT_GE(interval, kBackoffMinS);
        EXPECT_LE(interval, kBackoffMaxS);
    }
    // Intervals grow monotonically up to the cap...
    for (std::size_t i = 1; i < policy.retryIntervals().size(); ++i)
        EXPECT_GE(policy.retryIntervals()[i],
                  policy.retryIntervals()[i - 1]);
    EXPECT_DOUBLE_EQ(policy.currentBackoffS(), kBackoffMaxS);

    // ...and a success resets the interval to the minimum.
    policy.onRetryResult(t, true);
    EXPECT_DOUBLE_EQ(policy.currentBackoffS(), kBackoffMinS);
}

TEST(PolicyProperty, RetryCadenceRespectsBackoff)
{
    DegradationPolicy policy;
    HealthSnapshot h;
    h.linkUp = false;
    policy.update(h);

    // Immediately after the outage no retry is due; the first one
    // comes after backoffMinS.
    EXPECT_FALSE(policy.offloadRetryDue(0.0));
    EXPECT_FALSE(
        policy.offloadRetryDue(kBackoffMinS * 0.9));
    EXPECT_TRUE(
        policy.offloadRetryDue(kBackoffMinS * 1.1));
}

TEST(PolicyTest, TimeMustNotGoBackwards)
{
    EXPECT_EXIT(
        {
            DegradationPolicy policy;
            HealthSnapshot h;
            h.t = 5.0;
            policy.update(h);
            h.t = 4.0;
            policy.update(h);
        },
        testing::ExitedWithCode(1), "");
}

TEST(PolicyTest, OutcomeTierMapping)
{
    using P = DegradationPolicy;
    EXPECT_EQ(P::outcomeFor(true, true, FlightMode::Nominal),
              OutcomeTier::Crashed);
    EXPECT_EQ(P::outcomeFor(false, true, FlightMode::Nominal),
              OutcomeTier::Completed);
    EXPECT_EQ(P::outcomeFor(false, true, FlightMode::RateShed),
              OutcomeTier::SurvivedDegraded);
    EXPECT_EQ(P::outcomeFor(false, false, FlightMode::LandSafe),
              OutcomeTier::LandedSafe);
    EXPECT_EQ(P::outcomeFor(false, false, FlightMode::DegradedSlam),
              OutcomeTier::SurvivedDegraded);
}

TEST(PolicyTest, TransitionsRecordReasons)
{
    DegradationPolicy policy;
    HealthSnapshot h;
    h.t = 0.0;
    h.gpsAvailable = false;
    policy.update(h);
    ASSERT_EQ(policy.transitions().size(), 1u);
    EXPECT_EQ(policy.transitions()[0].to, FlightMode::DegradedSlam);
    EXPECT_FALSE(policy.transitions()[0].reason.empty());
}
