/**
 * @file
 * Property-based checks of the Pareto frontier against seeded-random
 * point clouds: membership is exactly "no dominator exists", the
 * frontier is invariant under input permutation, and the frontier is
 * a fixed point of itself.  Clouds mix clustered and spread points
 * plus signed zeros, duplicates and infeasibles so ties and
 * boundaries get hit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <set>
#include <vector>

#include "engine/pareto.hh"
#include "pareto_oracle.hh"
#include "util/rng.hh"

namespace dronedse {
namespace {

using engine::paretoFrontier;
using pareto_oracle::pairwiseFrontier;
using pareto_oracle::tieCloud;

/** The frontier as a multiset of coordinate triples, so frontiers of
 * permuted inputs can be compared index-free. */
std::multiset<std::tuple<double, double, double>>
frontierPoints(const std::vector<DesignResult> &cloud,
               const std::vector<std::size_t> &frontier)
{
    std::multiset<std::tuple<double, double, double>> set;
    for (std::size_t idx : frontier) {
        const DesignResult &p = cloud[idx];
        set.insert({p.flightTimeMin.value(), p.computePowerW.value(),
                    p.totalWeightG.value()});
    }
    return set;
}

TEST(ParetoProperties, MembershipIsExactlyNoDominatorExists)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const auto cloud = tieCloud(
            rng, static_cast<std::size_t>(rng.uniformInt(1, 120)));
        EXPECT_EQ(paretoFrontier(cloud), pairwiseFrontier(cloud))
            << "seed " << seed;
    }
}

TEST(ParetoProperties, FrontierIsInvariantUnderPermutation)
{
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        Rng rng(seed);
        auto cloud = tieCloud(rng, 80);
        const auto baseline =
            frontierPoints(cloud, paretoFrontier(cloud));
        for (int round = 0; round < 5; ++round) {
            // Fisher-Yates with the deterministic Rng.
            for (std::size_t i = cloud.size(); i > 1; --i) {
                const auto j = static_cast<std::size_t>(
                    rng.uniformInt(0,
                                   static_cast<std::int64_t>(i) - 1));
                std::swap(cloud[i - 1], cloud[j]);
            }
            EXPECT_EQ(frontierPoints(cloud, paretoFrontier(cloud)),
                      baseline)
                << "seed " << seed << " round " << round;
        }
    }
}

TEST(ParetoProperties, FrontierIsAFixedPointOfItself)
{
    for (std::uint64_t seed = 200; seed < 215; ++seed) {
        Rng rng(seed);
        const auto cloud = tieCloud(rng, 100);
        const auto frontier = paretoFrontier(cloud);
        std::vector<DesignResult> survivors;
        survivors.reserve(frontier.size());
        for (std::size_t idx : frontier)
            survivors.push_back(cloud[idx]);

        std::vector<std::size_t> everything(survivors.size());
        std::iota(everything.begin(), everything.end(), 0u);
        EXPECT_EQ(paretoFrontier(survivors), everything)
            << "seed " << seed;
    }
}

TEST(ParetoProperties, FrontierIndicesAreSortedUniqueAndFeasible)
{
    for (std::uint64_t seed = 300; seed < 310; ++seed) {
        Rng rng(seed);
        const auto cloud = tieCloud(rng, 60);
        const auto frontier = paretoFrontier(cloud);
        EXPECT_TRUE(
            std::is_sorted(frontier.begin(), frontier.end()));
        EXPECT_EQ(std::adjacent_find(frontier.begin(), frontier.end()),
                  frontier.end());
        for (std::size_t idx : frontier) {
            ASSERT_LT(idx, cloud.size());
            EXPECT_TRUE(cloud[idx].feasible);
        }
    }
}

} // namespace
} // namespace dronedse
