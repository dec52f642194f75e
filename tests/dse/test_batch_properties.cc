/**
 * @file
 * Algebraic properties of `solveDesignBatch` (the batch API part of
 * the DESIGN.md §15 contract) plus hostile-input edges:
 *
 *   - permutation invariance: each result depends only on its own
 *     input, never on its neighbours in the batch;
 *   - partition invariance: solve(N) == concat(solve(k), solve(N-k))
 *     for arbitrary seeded splits, i.e. the lane blocking is not
 *     observable (this is what lets the engine chunk freely);
 *   - idempotence across repeat calls, including into a reused
 *     (dirty) output buffer;
 *   - duplicate, infeasible, non-converging, and empty/odd-sized
 *     batches (0, 1, lane-width +/- 1) all match the scalar path
 *     element for element.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "components/compute_board.hh"
#include "dse/batch_solve.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "batch_test_util.hh"
#include "util/rng.hh"

using namespace dronedse;
using namespace dronedse::unit_literals;
using batch_test::expectByteIdentical;

namespace {

/** A mixed bag: feasible points, every rejection reason, repeats. */
std::vector<DesignInputs>
mixedBatch()
{
    std::vector<DesignInputs> inputs;

    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {2, 4, 6}, 500.0_mah, basicChip3W());
    const std::vector<DesignInputs> grid = expandGrid(spec);
    inputs.insert(inputs.end(), grid.begin(), grid.end());

    DesignInputs bad_cells;
    bad_cells.cells = 9; // "cell count out of range"
    inputs.push_back(bad_cells);

    DesignInputs bad_capacity;
    bad_capacity.capacityMah = -100.0_mah; // "invalid capacity, ..."
    inputs.push_back(bad_capacity);

    DesignInputs bad_twr;
    bad_twr.twr = 0.5; // "invalid capacity, TWR, or wheelbase"
    inputs.push_back(bad_twr);

    DesignInputs c_rating;
    c_rating.cells = 6;
    c_rating.capacityMah = 5.0_mah; // C-rating cannot supply max draw
    inputs.push_back(c_rating);

    DesignInputs runaway;
    runaway.twr = 40.0; // weight closure diverges
    inputs.push_back(runaway);

    // Duplicates of a feasible point and of a rejected one.
    inputs.push_back(grid.front());
    inputs.push_back(bad_cells);

    return inputs;
}

std::vector<DesignResult>
solveBatchOf(const std::vector<DesignInputs> &inputs)
{
    return solveDesignBatch(std::span<const DesignInputs>(inputs));
}

} // namespace

TEST(BatchProperties, MixedBatchPremises)
{
    // The mixed bag must actually cover every scalar verdict, or the
    // batteries below prove less than they claim.
    const std::vector<DesignInputs> inputs = mixedBatch();
    std::vector<InfeasibleReason> reasons;
    for (const auto &in : inputs)
        reasons.push_back(solveDesign(in).infeasibleReason);
    for (InfeasibleReason expected :
         {InfeasibleReason::None, InfeasibleReason::CellCount,
          InfeasibleReason::InvalidInputs, InfeasibleReason::CRating,
          InfeasibleReason::Diverged}) {
        EXPECT_NE(std::find(reasons.begin(), reasons.end(), expected),
                  reasons.end())
            << enumName(expected);
    }
}

TEST(BatchProperties, HostileBatchMatchesScalarElementForElement)
{
    const std::vector<DesignInputs> inputs = mixedBatch();
    const std::vector<DesignResult> batch = solveBatchOf(inputs);
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(solveDesign(inputs[i]), batch[i]);
    }
}

TEST(BatchProperties, InvariantUnderPermutation)
{
    const std::vector<DesignInputs> inputs = mixedBatch();
    const std::vector<DesignResult> reference = solveBatchOf(inputs);

    for (std::uint64_t seed : {3ull, 17ull, 99ull}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::vector<std::size_t> perm(inputs.size());
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1],
                      perm[static_cast<std::size_t>(
                          rng.uniformInt(0, static_cast<std::int64_t>(
                                                i - 1)))]);

        std::vector<DesignInputs> shuffled;
        for (std::size_t i : perm)
            shuffled.push_back(inputs[i]);
        const std::vector<DesignResult> out = solveBatchOf(shuffled);
        for (std::size_t i = 0; i < perm.size(); ++i) {
            SCOPED_TRACE("slot " + std::to_string(i));
            expectByteIdentical(reference[perm[i]], out[i]);
        }
    }
}

TEST(BatchProperties, InvariantUnderPartitioning)
{
    const std::vector<DesignInputs> inputs = mixedBatch();
    const std::vector<DesignResult> whole = solveBatchOf(inputs);

    Rng rng(7);
    for (int trial = 0; trial < 8; ++trial) {
        SCOPED_TRACE(trial);
        // Random split points, including lane-misaligned ones.
        const std::size_t k = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(inputs.size())));
        const std::vector<DesignInputs> head(inputs.begin(),
                                             inputs.begin() +
                                                 static_cast<long>(k));
        const std::vector<DesignInputs> tail(inputs.begin() +
                                                 static_cast<long>(k),
                                             inputs.end());
        std::vector<DesignResult> parts = solveBatchOf(head);
        const std::vector<DesignResult> rest = solveBatchOf(tail);
        parts.insert(parts.end(), rest.begin(), rest.end());
        ASSERT_EQ(parts.size(), whole.size());
        for (std::size_t i = 0; i < whole.size(); ++i) {
            SCOPED_TRACE("index " + std::to_string(i));
            expectByteIdentical(whole[i], parts[i]);
        }
    }
}

TEST(BatchProperties, IdempotentAcrossRepeatCalls)
{
    const std::vector<DesignInputs> inputs = mixedBatch();
    const std::vector<DesignResult> first = solveBatchOf(inputs);

    // Second pass writes into the *same* buffer the first pass
    // filled: stale state in a reused output slot must not leak.
    std::vector<DesignResult> reused = first;
    solveDesignBatch(std::span<const DesignInputs>(inputs),
                     std::span<DesignResult>(reused));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(first[i], reused[i]);
    }
}

TEST(BatchProperties, EdgeSizesMatchScalar)
{
    const std::vector<DesignInputs> pool = mixedBatch();
    // 0, 1, lane-width-1, lane-width, lane-width+1 — the mask edges.
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          kBatchLaneWidth - 1, kBatchLaneWidth,
                          kBatchLaneWidth + 1}) {
        SCOPED_TRACE("size " + std::to_string(n));
        ASSERT_LE(n, pool.size());
        const std::vector<DesignInputs> inputs(pool.begin(),
                                               pool.begin() +
                                                   static_cast<long>(n));
        const std::vector<DesignResult> batch = solveBatchOf(inputs);
        ASSERT_EQ(batch.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("index " + std::to_string(i));
            expectByteIdentical(solveDesign(inputs[i]), batch[i]);
        }
    }
}

TEST(BatchProperties, AllDuplicatesBatch)
{
    // A batch that is one design repeated past the lane width.
    DesignInputs in;
    in.cells = 4;
    in.capacityMah = 4000.0_mah;
    const std::vector<DesignInputs> inputs(2 * kBatchLaneWidth + 3, in);
    const DesignResult scalar = solveDesign(in);
    for (const DesignResult &res : solveBatchOf(inputs))
        expectByteIdentical(scalar, res);
}
