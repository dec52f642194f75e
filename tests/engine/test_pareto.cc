#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "engine/pareto.hh"
#include "pareto_oracle.hh"
#include "util/rng.hh"

namespace dronedse {
namespace {

using engine::dominates;
using engine::paretoFrontier;
using pareto_oracle::pairwiseFrontier;
using pareto_oracle::point;

TEST(Pareto, DominanceRequiresStrictImprovementSomewhere)
{
    const DesignResult a = point(20.0, 3.0, 1000.0);
    EXPECT_FALSE(dominates(a, a));

    // Better on one axis, equal elsewhere: dominates.
    EXPECT_TRUE(dominates(point(21.0, 3.0, 1000.0), a));
    EXPECT_TRUE(dominates(point(20.0, 4.0, 1000.0), a));
    EXPECT_TRUE(dominates(point(20.0, 3.0, 900.0), a));

    // A tradeoff (better one axis, worse another) never dominates.
    EXPECT_FALSE(dominates(point(25.0, 1.0, 1000.0), a));
    EXPECT_FALSE(dominates(a, point(25.0, 1.0, 1000.0)));

    // Infeasible points neither dominate nor get dominated.
    EXPECT_FALSE(dominates(point(99.0, 99.0, 1.0, false), a));
    EXPECT_FALSE(dominates(a, point(1.0, 1.0, 9999.0, false)));
}

TEST(Pareto, HandComputedSixPointFrontier)
{
    // Objectives: flight time up, compute power up, weight down.
    const std::vector<DesignResult> points{
        point(20.0, 3.0, 1000.0),        // 0: on frontier
        point(18.0, 20.0, 1200.0),       // 1: on frontier
        point(20.0, 3.0, 1100.0),        // 2: dominated by 0
        point(25.0, 1.0, 900.0),         // 3: on frontier
        point(17.0, 15.0, 1250.0),       // 4: dominated by 1
        point(30.0, 50.0, 500.0, false), // 5: infeasible, excluded
    };
    const std::vector<std::size_t> expected{0, 1, 3};
    EXPECT_EQ(paretoFrontier(points), expected);
}

TEST(Pareto, DuplicatePointsAllStayOnTheFrontier)
{
    const std::vector<DesignResult> points{
        point(20.0, 3.0, 1000.0),
        point(20.0, 3.0, 1000.0),
        point(10.0, 3.0, 1500.0),
    };
    const std::vector<std::size_t> expected{0, 1};
    EXPECT_EQ(paretoFrontier(points), expected);
}

TEST(Pareto, EmptyAndAllInfeasibleInputs)
{
    EXPECT_TRUE(paretoFrontier({}).empty());
    const std::vector<DesignResult> infeasible{
        point(20.0, 3.0, 1000.0, false),
        point(25.0, 5.0, 900.0, false),
    };
    EXPECT_TRUE(paretoFrontier(infeasible).empty());
}

TEST(Pareto, SingleFeasiblePointIsTheFrontier)
{
    const std::vector<DesignResult> points{point(15.0, 2.0, 800.0)};
    const std::vector<std::size_t> expected{0};
    EXPECT_EQ(paretoFrontier(points), expected);
}

TEST(Pareto, NonFiniteObjectivesMatchPairwiseOracle)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<DesignResult> base{
        point(20.0, 3.0, 1000.0), point(18.0, 20.0, 1200.0),
        point(25.0, 1.0, 900.0),  point(10.0, 1.0, 1500.0),
        point(20.0, 3.0, 1000.0), point(30.0, 50.0, 500.0, false),
    };
    // Each objective of one extra point set to NaN, +inf or -inf, on
    // its own and alongside a copy of itself and an infeasible twin.
    for (int axis = 0; axis < 3; ++axis) {
        for (double v : {nan, inf, -inf}) {
            SCOPED_TRACE("axis " + std::to_string(axis) + " value " +
                         std::to_string(v));
            double objectives[3] = {19.0, 10.0, 1100.0};
            objectives[axis] = v;
            const DesignResult odd =
                point(objectives[0], objectives[1], objectives[2]);
            std::vector<DesignResult> points = base;
            points.push_back(odd);
            EXPECT_EQ(paretoFrontier(points), pairwiseFrontier(points));
            points.insert(points.begin() + 2, odd);
            DesignResult twin = odd;
            twin.feasible = false;
            points.push_back(twin);
            EXPECT_EQ(paretoFrontier(points), pairwiseFrontier(points));
            if (std::isnan(v)) {
                // NaN compares false with everything: on the
                // frontier, and dominating nothing.
                const auto frontier = paretoFrontier(points);
                EXPECT_EQ(std::count(frontier.begin(), frontier.end(),
                                     std::size_t{2}),
                          1);
            }
        }
    }

    // A cloud where every objective of every point may be non-finite.
    const double values[] = {nan, inf, -inf, 0.0, -0.0, 1.0, 2.0};
    Rng rng(7);
    const auto pick = [&] {
        return values[rng.uniformInt(0, std::ssize(values) - 1)];
    };
    for (int round = 0; round < 200; ++round) {
        std::vector<DesignResult> points;
        for (int i = 0; i < 12; ++i) {
            const double flight = pick();
            const double power = pick();
            points.push_back(
                point(flight, power, pick(), !rng.bernoulli(0.1)));
        }
        EXPECT_EQ(paretoFrontier(points), pairwiseFrontier(points))
            << "round " << round;
    }
}

} // namespace
} // namespace dronedse
