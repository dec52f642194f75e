#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "engine/engine.hh"
#include "engine/thread_pool.hh"

#include "../dse/batch_test_util.hh"

namespace dronedse {
namespace {

using namespace unit_literals;
using batch_test::expectByteIdentical;
using engine::EngineOptions;
using engine::SweepEngine;
using engine::ThreadPool;
using engine::WorkerStats;

/** Outcome of one job: how often each index was visited, and the
 *  job's own stats. */
struct JobCheck
{
    bool everyIndexOnce = true;
    bool rangesInBounds = true;
    std::uint64_t itemsCounted = 0;
    std::size_t statsSlots = 0;
};

JobCheck
runJob(ThreadPool &pool, std::size_t count, std::size_t chunk)
{
    std::vector<std::atomic<int>> hits(count);
    std::atomic<bool> in_bounds{true};
    const std::vector<WorkerStats> stats = pool.parallelForChunks(
        count, chunk, [&](std::size_t begin, std::size_t end, int) {
            if (begin >= end || end > count)
                in_bounds.store(false);
            for (std::size_t i = begin; i < end && i < count; ++i)
                hits[i].fetch_add(1);
        });

    JobCheck check;
    check.rangesInBounds = in_bounds.load();
    for (const auto &hit : hits)
        check.everyIndexOnce = check.everyIndexOnce && hit.load() == 1;
    for (const WorkerStats &stat : stats)
        check.itemsCounted += stat.itemsProcessed;
    check.statsSlots = stats.size();
    return check;
}

TEST(ThreadPool, EveryIndexOnceAtAnyThreadCount)
{
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        ASSERT_EQ(pool.threadCount(), threads);
        for (std::size_t count : {0, 1, 7, 10'007}) {
            for (std::size_t chunk : {0, 1}) {
                SCOPED_TRACE("threads " + std::to_string(threads) +
                             " count " + std::to_string(count) +
                             " chunk " + std::to_string(chunk));
                const JobCheck check = runJob(pool, count, chunk);
                EXPECT_TRUE(check.everyIndexOnce);
                EXPECT_TRUE(check.rangesInBounds);
                EXPECT_EQ(check.itemsCounted, count);
                EXPECT_EQ(check.statsSlots,
                          static_cast<std::size_t>(threads));
            }
        }
    }
}

TEST(ThreadPool, ConcurrentJobsShareOnePool)
{
    // Four callers submit jobs to one pool at once; each job must
    // still cover exactly its own range and account only its own
    // items, whichever workers helped with it.
    constexpr int kCallers = 4;
    constexpr int kJobsPerCaller = 50;
    ThreadPool pool(3);
    std::vector<std::vector<JobCheck>> checks(kCallers);
    std::vector<std::vector<std::size_t>> counts(kCallers);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int j = 0; j < kJobsPerCaller; ++j) {
                const std::size_t count =
                    static_cast<std::size_t>((c * 7919 + j * 104729) %
                                             3000);
                const std::size_t chunk = static_cast<std::size_t>(j % 3);
                counts[c].push_back(count);
                checks[c].push_back(runJob(pool, count, chunk));
            }
        });
    }
    for (std::thread &caller : callers)
        caller.join();

    for (int c = 0; c < kCallers; ++c) {
        ASSERT_EQ(checks[c].size(), std::size_t{kJobsPerCaller});
        for (int j = 0; j < kJobsPerCaller; ++j) {
            SCOPED_TRACE("caller " + std::to_string(c) + " job " +
                         std::to_string(j));
            const JobCheck &check = checks[c][j];
            EXPECT_TRUE(check.everyIndexOnce);
            EXPECT_TRUE(check.rangesInBounds);
            EXPECT_EQ(check.itemsCounted, counts[c][j]);
            EXPECT_EQ(check.statsSlots, 3u);
        }
    }
}

TEST(ThreadPool, OneChunkJobsRunInlineOnTheCaller)
{
    // A job that fits in one chunk leaves nothing for a worker to
    // claim, so the caller runs all of it and no worker is woken.
    ThreadPool pool(2);
    constexpr std::size_t kCount = 64;
    for (int call = 0; call < 1000; ++call) {
        const std::vector<WorkerStats> stats = pool.parallelForChunks(
            kCount, kCount, [](std::size_t, std::size_t, int) {});
        ASSERT_EQ(stats.size(), 2u);
        ASSERT_EQ(stats[0].itemsProcessed, kCount) << "call " << call;
        ASSERT_EQ(stats[1].itemsProcessed, 0u) << "call " << call;
    }
}

TEST(SolvePoints, ConcurrentCallersMatchScalar)
{
    // Two clients solve distinct point lists through one 2-thread
    // engine at the same time; each reply must be its own list's
    // scalar solves, byte for byte.
    SweepSpec medium = classSweepSpec(classSpec(SizeClass::Medium),
                                      {1, 2, 3, 4, 5, 6}, 250.0_mah,
                                      basicChip3W());
    medium.boards = {advancedChip20W(), basicChip3W()};
    const std::vector<std::vector<DesignInputs>> lists{
        expandGrid(medium),
        expandGrid(classSweepSpec(classSpec(SizeClass::Small),
                                  {1, 2, 3, 4}, 100.0_mah,
                                  advancedChip20W()))};
    constexpr int kRounds = 10;
    SweepEngine eng{EngineOptions{.threads = 2}};
    std::vector<std::vector<std::vector<DesignResult>>> results(
        lists.size());
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < lists.size(); ++c) {
        clients.emplace_back([&, c] {
            for (int round = 0; round < kRounds; ++round)
                results[c].push_back(eng.solvePoints(lists[c]));
        });
    }
    for (std::thread &client : clients)
        client.join();

    for (std::size_t c = 0; c < lists.size(); ++c) {
        SCOPED_TRACE("client " + std::to_string(c));
        ASSERT_EQ(results[c].size(), std::size_t{kRounds});
        for (const std::vector<DesignResult> &solved : results[c]) {
            ASSERT_EQ(solved.size(), lists[c].size());
            for (std::size_t i = 0; i < solved.size(); ++i) {
                SCOPED_TRACE("index " + std::to_string(i));
                expectByteIdentical(solveDesign(lists[c][i]), solved[i]);
            }
        }
    }
}

} // namespace
} // namespace dronedse
