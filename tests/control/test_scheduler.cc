#include <gtest/gtest.h>

#include "control/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace dronedse {
namespace {

TEST(Scheduler, ExecutesAtDeclaredRates)
{
    RateScheduler sched;
    long fast = 0, slow = 0;
    sched.addTask("fast", 100.0, 0.0, [&](double) { ++fast; });
    sched.addTask("slow", 10.0, 0.0, [&](double) { ++slow; });
    sched.advanceTo(1.0);
    // Releases at t=0 inclusive.
    EXPECT_NEAR(static_cast<double>(fast), 100.0, 2.0);
    EXPECT_NEAR(static_cast<double>(slow), 10.0, 2.0);
}

TEST(Scheduler, NoMissesWhenCpuIsLight)
{
    RateScheduler sched;
    // Inner-loop-like: 500 Hz with 0.2 ms cost = 10 % utilization.
    sched.addTask("inner", 500.0, 0.0002, [](double) {});
    sched.advanceTo(2.0);
    const auto stats = sched.stats();
    EXPECT_EQ(stats[0].deadlineMisses, 0);
    EXPECT_NEAR(sched.utilization(), 0.1, 0.02);
}

TEST(Scheduler, HeavyTaskCausesDeadlineMisses)
{
    // A SLAM-like job that takes longer than its own period misses
    // deadlines and, sharing the CPU, delays the inner loop too.
    RateScheduler sched;
    sched.addTask("inner", 500.0, 0.0005, [](double) {});
    sched.addTask("slam", 10.0, 0.15, [](double) {});
    sched.advanceTo(2.0);
    const auto stats = sched.stats();
    long slam_misses = 0, inner_misses = 0;
    for (const auto &s : stats) {
        if (s.name == "slam")
            slam_misses = s.deadlineMisses;
        else
            inner_misses = s.deadlineMisses;
    }
    EXPECT_GT(slam_misses, 0);
    // With SLAM hogging 150 ms blocks, the 2 ms-period inner loop
    // inevitably misses (a non-preemptive CPU, the paper's argument
    // for a dedicated inner-loop processor).
    EXPECT_GT(inner_misses, 0);
}

TEST(Scheduler, DedicatedInnerLoopHasNoMisses)
{
    // The paper's design point: the inner loop gets its own MCU.
    RateScheduler inner_cpu;
    inner_cpu.addTask("inner", 500.0, 0.0005, [](double) {});
    RateScheduler companion;
    companion.addTask("slam", 10.0, 0.15, [](double) {});
    inner_cpu.advanceTo(2.0);
    companion.advanceTo(2.0);
    EXPECT_EQ(inner_cpu.stats()[0].deadlineMisses, 0);
}

TEST(Scheduler, UtilizationAccumulates)
{
    RateScheduler sched;
    sched.addTask("a", 100.0, 0.004, [](double) {});
    sched.advanceTo(1.0);
    EXPECT_NEAR(sched.utilization(), 0.4, 0.05);
}

TEST(Scheduler, StatsCarryNamesAndRates)
{
    RateScheduler sched;
    sched.addTask("ekf", 200.0, 0.0001, [](double) {});
    sched.addTask("nav", 10.0, 0.001, [](double) {});
    sched.advanceTo(0.5);
    const auto stats = sched.stats();
    ASSERT_EQ(stats.size(), 2u);
    // Rate-monotonic order: highest rate first.
    EXPECT_EQ(stats[0].name, "ekf");
    EXPECT_EQ(stats[0].rateHz, 200.0);
    EXPECT_EQ(stats[1].name, "nav");
    EXPECT_GT(stats[0].cpuTimeS, 0.0);
}

TEST(Scheduler, ObsCountersTrackMissesWhileTheInnerRateHolds)
{
    // The paper's split-CPU design point, now observable: the
    // companion runs an outer-loop task costing more than its
    // period (guaranteed misses), the inner loop owns its MCU and
    // holds rate; the registry's deadline-miss counter must account
    // exactly for the companion's misses.
    obs::Counter &misses =
        obs::metrics().counter("control.scheduler.deadline_misses");
    obs::Counter &execs =
        obs::metrics().counter("control.scheduler.executions");
    const std::uint64_t misses_before = misses.value();
    const std::uint64_t execs_before = execs.value();

    RateScheduler inner_cpu;
    long inner_runs = 0;
    inner_cpu.addTask("inner", 400.0, 0.0005,
                      [&](double) { ++inner_runs; });
    RateScheduler companion;
    companion.addTask("slam", 10.0, 0.15, [](double) {});
    inner_cpu.advanceTo(2.0);
    companion.advanceTo(2.0);

    // Inner-loop rate holds on its dedicated CPU.
    EXPECT_EQ(inner_cpu.stats()[0].deadlineMisses, 0);
    EXPECT_NEAR(static_cast<double>(inner_runs), 800.0, 2.0);

    // An over-budget task misses on (nearly) every release, and the
    // registry saw exactly the misses the schedulers reported.
    long reported_misses = 0, reported_execs = 0;
    for (const auto *sched : {&inner_cpu, &companion}) {
        for (const auto &s : sched->stats()) {
            reported_misses += s.deadlineMisses;
            reported_execs += s.executions;
        }
    }
    EXPECT_GT(reported_misses, 0);
    EXPECT_EQ(misses.value() - misses_before,
              static_cast<std::uint64_t>(reported_misses));
    EXPECT_EQ(execs.value() - execs_before,
              static_cast<std::uint64_t>(reported_execs));
}

TEST(Scheduler, TaskExecutionsLandOnTheSimTrack)
{
    obs::tracer().clear();
    obs::tracer().setEnabled(true);
    RateScheduler sched;
    sched.addTask("nav", 10.0, 0.001, [](double) {});
    sched.advanceTo(1.0);
    obs::tracer().setEnabled(false);

    const auto spans = obs::tracer().snapshot();
    obs::tracer().clear();
    long nav_spans = 0;
    for (const auto &span : spans) {
        if (span.name != "nav")
            continue;
        ++nav_spans;
        // Scheduler time is the simulated mission clock, so its
        // spans live on the sim track, in microseconds.
        EXPECT_EQ(span.track, obs::kSimTrack);
        EXPECT_DOUBLE_EQ(span.durUs, 1000.0);
    }
    EXPECT_NEAR(static_cast<double>(nav_spans), 10.0, 2.0);
}

TEST(SchedulerDeath, RejectsInvalidTask)
{
    RateScheduler sched;
    EXPECT_EXIT(sched.addTask("bad", 0.0, 0.0, [](double) {}),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(sched.addTask("bad", 10.0, -1.0, [](double) {}),
                testing::ExitedWithCode(1), "");
}

TEST(SchedulerDeath, TimeMustNotGoBackwards)
{
    RateScheduler sched;
    sched.addTask("a", 10.0, 0.0, [](double) {});
    sched.advanceTo(1.0);
    EXPECT_EXIT(sched.advanceTo(0.5), testing::ExitedWithCode(1), "");
}

TEST(SchedulerFault, CostScaleInflatesMisses)
{
    // At scale 1 the task set fits; a contention burst makes every
    // job overrun its period.
    RateScheduler sched;
    sched.addTask("heavy", 10.0, 0.06, [](double) {});
    sched.advanceTo(2.0);
    EXPECT_EQ(sched.totalDeadlineMisses(), 0);

    sched.setCostScale(8.0);
    sched.advanceTo(4.0);
    EXPECT_GT(sched.totalDeadlineMisses(), 0);

    // After the burst the CPU still has a queue of inflated jobs;
    // misses continue until the backlog drains, then stop.
    const long during_burst = sched.totalDeadlineMisses();
    sched.setCostScale(1.0);
    sched.advanceTo(25.0);
    const long after_drain = sched.totalDeadlineMisses();
    sched.advanceTo(30.0);
    EXPECT_EQ(sched.totalDeadlineMisses(), after_drain);
    EXPECT_GE(after_drain, during_burst);
}

TEST(SchedulerFault, RateSheddingRelievesOverload)
{
    RateScheduler sched;
    sched.addTask("nav", 10.0, 0.05, [](double) {});
    sched.addTask("slam", 10.0, 0.08, [](double) {});
    sched.advanceTo(2.0);
    // 1.3x utilization demanded: misses pile up.
    const long overloaded = sched.totalDeadlineMisses();
    EXPECT_GT(overloaded, 0);

    // Shed to 0.65x demanded: once the backlog drains, no new
    // misses.
    sched.setTaskRate("nav", 5.0);
    sched.setTaskRate("slam", 5.0);
    EXPECT_DOUBLE_EQ(sched.taskRate("nav"), 5.0);
    sched.advanceTo(6.0);
    const long after_drain = sched.totalDeadlineMisses();
    sched.advanceTo(10.0);
    EXPECT_EQ(sched.totalDeadlineMisses(), after_drain);
}

TEST(SchedulerFault, TaskCostCanMigrate)
{
    RateScheduler sched;
    sched.addTask("slam", 10.0, 0.012, [](double) {});
    EXPECT_DOUBLE_EQ(sched.taskCost("slam"), 0.012);
    sched.setTaskCost("slam", 0.045);
    EXPECT_DOUBLE_EQ(sched.taskCost("slam"), 0.045);
    // Releases at t = 0, 0.1, ..., 1.0 inclusive: 11 executions.
    sched.advanceTo(1.0);
    const auto stats = sched.stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_NEAR(stats[0].cpuTimeS, 11 * 0.045, 1e-9);
}

TEST(SchedulerFaultDeath, MutatorsValidate)
{
    RateScheduler sched;
    sched.addTask("a", 10.0, 0.0, [](double) {});
    EXPECT_EXIT(sched.setCostScale(0.0), testing::ExitedWithCode(1),
                "");
    EXPECT_EXIT(sched.setTaskRate("a", -1.0),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(sched.setTaskRate("missing", 5.0),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(sched.setTaskCost("a", -0.1),
                testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace dronedse
