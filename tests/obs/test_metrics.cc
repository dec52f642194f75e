/**
 * @file
 * Metrics-registry battery: find-or-create identity, counter/gauge
 * semantics, histogram bucket placement, exact accounting under
 * thread contention, and deterministic JSON snapshots.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace dronedse::obs {
namespace {

TEST(Metrics, CounterFindOrCreateReturnsStableReference)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("test.counter.a");
    Counter &a_again = reg.counter("test.counter.a");
    Counter &b = reg.counter("test.counter.b");
    EXPECT_EQ(&a, &a_again);
    EXPECT_NE(&a, &b);

    EXPECT_EQ(a.value(), 0u);
    a.add();
    a.add(41);
    EXPECT_EQ(a.value(), 42u);
    EXPECT_EQ(a_again.value(), 42u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(Metrics, GaugeIsLastWriteWins)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("test.gauge");
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-7.25);
    EXPECT_EQ(g.value(), -7.25);
}

TEST(Metrics, HistogramPlacesSamplesInTheFirstCoveringBucket)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("test.hist", {1.0, 2.0, 4.0});
    ASSERT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 4.0}));

    h.record(0.5); // bucket 0 (<= 1)
    h.record(1.0); // bucket 0 (edge is inclusive)
    h.record(1.5); // bucket 1
    h.record(4.0); // bucket 2
    h.record(9.0); // overflow bucket

    EXPECT_EQ(h.counts(),
              (std::vector<std::uint64_t>{2, 1, 1, 1}));
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(Metrics, HistogramBoundsOnlyApplyOnFirstRegistration)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("test.hist", {1.0, 2.0});
    Histogram &again = reg.histogram("test.hist", {99.0});
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsDeathTest, UnsortedHistogramBoundsAreFatal)
{
    EXPECT_DEATH(Histogram({2.0, 1.0}), "ascending");
}

TEST(Metrics, ConcurrentCounterUpdatesAccountEveryIncrement)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("test.contended");
    Histogram &h = reg.histogram("test.contended.hist", {0.5});
    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, &h] {
            for (int i = 0; i < kAddsPerThread; ++i) {
                c.add();
                h.record(i % 2 == 0 ? 0.25 : 1.0);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const auto total =
        static_cast<std::uint64_t>(kThreads) * kAddsPerThread;
    EXPECT_EQ(c.value(), total);
    EXPECT_EQ(h.count(), total);
    EXPECT_EQ(h.counts(),
              (std::vector<std::uint64_t>{total / 2, total / 2}));
}

TEST(Metrics, JsonSnapshotIsDeterministicAndSorted)
{
    const auto populate = [](MetricsRegistry &reg) {
        // Registered out of order; the snapshot must sort.
        reg.counter("zz.last").add(3);
        reg.counter("aa.first").add(1);
        reg.gauge("mid.gauge").set(2.5);
        reg.histogram("hist.h", {1.0}).record(0.5);
    };
    MetricsRegistry one, two;
    populate(one);
    populate(two);
    const std::string json = one.toJson();
    EXPECT_EQ(json, two.toJson());

    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_LT(json.find("aa.first"), json.find("zz.last"));
    EXPECT_NE(json.find("\"bounds\""), std::string::npos);
    EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

TEST(Metrics, GlobalRegistryIsASingleton)
{
    EXPECT_EQ(&metrics(), &metrics());
    // Instrumented modules publish through it; a name created here
    // must come back as the same object later.
    Counter &c = metrics().counter("test.metrics.singleton");
    EXPECT_EQ(&c, &metrics().counter("test.metrics.singleton"));
}

} // namespace
} // namespace dronedse::obs
