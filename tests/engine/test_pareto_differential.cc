/**
 * @file
 * The skyline frontier against the pairwise oracle at scale: real
 * engine grids of ~4k and ~15k points at 1/2/8 threads, and a
 * thousand seeded tie-heavy clouds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "engine/engine.hh"
#include "engine/pareto.hh"
#include "pareto_oracle.hh"
#include "util/rng.hh"

namespace dronedse {
namespace {

using engine::EngineOptions;
using engine::paretoFrontier;
using engine::SweepEngine;
using pareto_oracle::pairwiseFrontier;

/** Three airframes x two boards x both activities x cells 1..6. */
SweepSpec
ladderGrid(double capacity_step_mah)
{
    SweepSpec spec;
    spec.airframes = {SweepAirframe{Quantity<Millimeters>(350.0), {}},
                      SweepAirframe{Quantity<Millimeters>(450.0), {}},
                      SweepAirframe{Quantity<Millimeters>(550.0), {}}};
    spec.boards = {basicChip3W(), advancedChip20W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    spec.cells = {1, 2, 3, 4, 5, 6};
    spec.capacityLoMah = Quantity<MilliampHours>(1000.0);
    spec.capacityHiMah = Quantity<MilliampHours>(8000.0);
    spec.capacityStepMah = Quantity<MilliampHours>(capacity_step_mah);
    return spec;
}

TEST(ParetoDifferential, EngineGridsMatchPairwiseOracle)
{
    for (double step : {125.0, 34.0}) {
        const SweepSpec spec = ladderGrid(step);
        const std::vector<DesignResult> serial = runSweepSerial(spec);
        const std::vector<std::size_t> oracle = pairwiseFrontier(serial);
        SCOPED_TRACE(std::to_string(serial.size()) + " points");
        ASSERT_GE(serial.size(), step > 100.0 ? 4000u : 14000u);
        ASSERT_FALSE(oracle.empty());
        for (int threads : {1, 2, 8}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            SweepEngine eng{EngineOptions{.threads = threads}};
            EXPECT_EQ(eng.run(spec).frontier, oracle);
        }
    }

    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        Rng rng(seed);
        const auto cloud = pareto_oracle::tieCloud(
            rng, static_cast<std::size_t>(rng.uniformInt(1, 400)));
        ASSERT_EQ(paretoFrontier(cloud), pairwiseFrontier(cloud))
            << "seed " << seed;
    }
}

} // namespace
} // namespace dronedse
