/**
 * @file
 * Tracer battery: runtime gating, scoped-span capture, per-thread
 * buffers, snapshot ordering, and Chrome-JSON / CSV export shape.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "obs/tracer.hh"
#include "util/csv.hh"

namespace dronedse::obs {
namespace {

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer t;
    EXPECT_FALSE(t.enabled());
    const auto now = std::chrono::steady_clock::now();
    t.recordSpan("x", "test", now, now);
    t.recordInstant("x", "test");
    t.recordManual("x", "test", kWallTrack, 0.0, 1.0);
    EXPECT_TRUE(t.snapshot().empty());

    t.setEnabled(true);
    t.recordManual("x", "test", kWallTrack, 0.0, 1.0);
    EXPECT_EQ(t.snapshot().size(), 1u);
}

TEST(Tracer, RecordSpanMeasuresTheGivenInterval)
{
    Tracer t;
    t.setEnabled(true);
    const auto start = std::chrono::steady_clock::now();
    const auto end = start + std::chrono::microseconds(1500);
    t.recordSpan("timed", "test", start, end);

    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "timed");
    EXPECT_EQ(spans[0].category, "test");
    EXPECT_EQ(spans[0].phase, 'X');
    EXPECT_EQ(spans[0].track, kWallTrack);
    EXPECT_DOUBLE_EQ(spans[0].durUs, 1500.0);
    EXPECT_GE(spans[0].startUs, 0.0);
}

TEST(Tracer, ScopedSpanCapturesItsScopeOnTheGlobalTracer)
{
    tracer().clear();
    tracer().setEnabled(true);
    {
        ScopedSpan span("test.scoped", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    instant("test.instant", "test");
    tracer().setEnabled(false);

    const auto spans = tracer().snapshot();
    tracer().clear();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "test.scoped");
    EXPECT_EQ(spans[0].phase, 'X');
    EXPECT_GE(spans[0].durUs, 1000.0);
    EXPECT_EQ(spans[1].name, "test.instant");
    EXPECT_EQ(spans[1].phase, 'i');
    EXPECT_EQ(spans[1].durUs, 0.0);
}

TEST(Tracer, ScopedSpanIsNotCapturedWhenDisabled)
{
    tracer().clear();
    tracer().setEnabled(false);
    {
        ScopedSpan span("test.ghost", "test");
    }
    instant("test.ghost", "test");
    EXPECT_TRUE(tracer().snapshot().empty());
}

TEST(Tracer, RecordManualLandsOnTheRequestedTrack)
{
    Tracer t;
    t.setEnabled(true);
    t.recordManual("sim.task", "control", kSimTrack, 2.0e6, 5.0e3);

    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].track, kSimTrack);
    EXPECT_DOUBLE_EQ(spans[0].startUs, 2.0e6);
    EXPECT_DOUBLE_EQ(spans[0].durUs, 5.0e3);
}

TEST(Tracer, SnapshotIsSortedByStartThenThread)
{
    Tracer t;
    t.setEnabled(true);
    t.recordManual("late", "test", kWallTrack, 30.0, 1.0);
    t.recordManual("early", "test", kWallTrack, 10.0, 1.0);
    t.recordManual("mid", "test", kWallTrack, 20.0, 1.0);

    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "early");
    EXPECT_EQ(spans[1].name, "mid");
    EXPECT_EQ(spans[2].name, "late");
}

TEST(Tracer, ThreadsGetDistinctBuffersAndIds)
{
    Tracer t;
    t.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 50;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&t, i] {
            for (int k = 0; k < kSpansPerThread; ++k) {
                t.recordManual("w", "test", kWallTrack,
                               1000.0 * i + k, 1.0);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(),
              static_cast<std::size_t>(kThreads) * kSpansPerThread);
    std::set<std::uint32_t> ids;
    for (const auto &span : spans)
        ids.insert(span.thread);
    // Every worker registered its own buffer (the main thread never
    // recorded, so exactly kThreads ids appear).
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Tracer, ChromeJsonHasTheTraceEventShape)
{
    Tracer t;
    t.setEnabled(true);
    t.recordManual("engine.chunk", "engine", kWallTrack, 1.5, 2.5);
    t.recordInstant("engine.steal", "engine");
    t.recordManual("ctl", "control", kSimTrack, 9.0, 1.0);

    const std::string json = t.toChromeJson();
    EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    // Complete spans carry ph=X and a dur; instants ph=i and s=t.
    EXPECT_NE(json.find("\"name\": \"engine.chunk\", \"cat\": "
                        "\"engine\", \"ph\": \"X\", \"ts\": "
                        "1.500000, \"dur\": 2.500000, \"pid\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
    // The sim-track span renders under pid 2.
    EXPECT_NE(json.find("\"ts\": 9.000000, \"dur\": 1.000000, "
                        "\"pid\": 2"),
              std::string::npos);
}

TEST(Tracer, CsvExportRoundTripsThroughTheCsvParser)
{
    Tracer t;
    t.setEnabled(true);
    t.recordManual("a", "test", kWallTrack, 1.0, 2.0);
    t.recordManual("b", "test", kSimTrack, 3.0, 4.0);

    const auto rows = parseCsv(t.toCsv());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0],
              (std::vector<std::string>{"name", "category", "track",
                                        "thread", "phase", "start_us",
                                        "dur_us"}));
    EXPECT_EQ(rows[1][0], "a");
    EXPECT_EQ(rows[1][2], "1");
    EXPECT_EQ(rows[2][0], "b");
    EXPECT_EQ(rows[2][2], "2");
}

TEST(Tracer, ClearDropsSpansButKeepsBuffersUsable)
{
    Tracer t;
    t.setEnabled(true);
    t.recordManual("x", "test", kWallTrack, 1.0, 1.0);
    EXPECT_EQ(t.snapshot().size(), 1u);
    t.clear();
    EXPECT_TRUE(t.snapshot().empty());
    t.recordManual("y", "test", kWallTrack, 2.0, 1.0);
    EXPECT_EQ(t.snapshot().size(), 1u);
}

TEST(Tracer, NewTracerAtReusedAddressSeesItsOwnSpans)
{
    // The second tracer is built in the first one's storage, so a
    // per-thread buffer cache keyed on the address would hand it the
    // dead tracer's buffer, which its own snapshot never reads.
    std::optional<Tracer> slot;
    for (const char *name : {"first", "second"}) {
        slot.emplace();
        slot->setEnabled(true);
        slot->recordManual(name, "test", kWallTrack, 1.0, 1.0);
        const auto spans = slot->snapshot();
        ASSERT_EQ(spans.size(), 1u) << name;
        EXPECT_EQ(spans[0].name, name);
    }
}

} // namespace
} // namespace dronedse::obs
