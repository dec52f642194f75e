/**
 * @file
 * Frontier-fidelity benchmark for the adaptive explorer.
 *
 * Solves the 450 mm reference space exhaustively once (the oracle),
 * then re-runs the adaptive driver at a ladder of evaluation budgets
 * — 1%, 2.5%, 5%, 7.5%, and 10% of the grid — and scores each run
 * against the oracle frontier: matched / missing / false-positive
 * counts and the fidelity ratio.  A final entry runs the six-axis
 * wide space adaptively (its grid is too large to solve
 * exhaustively, which is the point of the subsystem).
 *
 * Emits `BENCH_explore.json` with the full fidelity-vs-evaluations
 * series plus `explore_fidelity.csv` for plotting.  Each budget gets
 * a fresh engine.
 *
 * Usage: explore_frontier [--output PATH] [--csv-dir DIR]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "engine/engine.hh"
#include "engine/pareto.hh"
#include "explore/driver.hh"
#include "explore/sampler.hh"
#include "explore/space.hh"
#include "util/csv.hh"
#include "util/logging.hh"

using namespace dronedse;
using namespace dronedse::explore;
using namespace dronedse::unit_literals;

namespace {

double
now_seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
}

/** Canonical identity of one lattice design (bit-exact fields). */
using PointKey = std::tuple<double, int, double, double, std::string,
                            int, double>;

PointKey
keyOf(const DesignResult &res)
{
    return {res.inputs.wheelbaseMm.value(), res.inputs.cells,
            res.inputs.capacityMah.value(), res.inputs.twr,
            res.inputs.compute.name,
            static_cast<int>(res.inputs.activity),
            res.inputs.payloadG.value()};
}

struct Fidelity
{
    std::size_t matched = 0;
    std::size_t missing = 0;
    std::size_t falsePositives = 0;

    double ratio(std::size_t oracle_size) const
    {
        return oracle_size == 0
                   ? 1.0
                   : static_cast<double>(matched) /
                         static_cast<double>(oracle_size);
    }
};

Fidelity
scoreAgainstOracle(const ExploreResult &result,
                   const std::set<PointKey> &oracle_frontier)
{
    Fidelity out;
    std::set<PointKey> found;
    for (std::size_t i : result.frontier)
        found.insert(keyOf(result.points[i]));
    for (const PointKey &key : found) {
        if (oracle_frontier.contains(key))
            ++out.matched;
        else
            ++out.falsePositives;
    }
    out.missing = oracle_frontier.size() - out.matched;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_explore.json";
    std::string csv_dir = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--csv-dir") == 0 &&
                   i + 1 < argc) {
            csv_dir = argv[++i];
        } else {
            fatal(std::string("explore_frontier: unknown argument "
                              "'") +
                  argv[i] + "' (usage: explore_frontier "
                            "[--output PATH] [--csv-dir DIR])");
        }
    }

    std::printf("=== Adaptive frontier fidelity vs. evaluation "
                "budget ===\n\n");

    // Oracle: the full 450 mm reference grid, solved exhaustively.
    const ExploreSpace space = referenceSpace450(100.0_mah);
    const std::size_t grid = space.pointCount();
    engine::SweepEngine oracle_engine{
        engine::EngineOptions{.threads = 4}};
    const auto oracle_start = std::chrono::steady_clock::now();
    std::vector<DesignResult> oracle;
    {
        auto gen = makeGenerator(SamplerKind::Grid, 0);
        const auto all = gen->nextBatch(space, grid);
        std::vector<DesignInputs> inputs;
        inputs.reserve(all.size());
        for (const auto &idx : all)
            inputs.push_back(space.materialize(idx));
        oracle = oracle_engine.solvePoints(inputs);
    }
    const double oracle_seconds = now_seconds_since(oracle_start);
    std::set<PointKey> oracle_frontier;
    for (std::size_t i : engine::paretoFrontier(oracle))
        oracle_frontier.insert(keyOf(oracle[i]));
    std::printf("oracle           %8.3f s   %zu points, frontier "
                "%zu\n",
                oracle_seconds, grid, oracle_frontier.size());

    std::string json = "{\"bench\": \"explore_frontier\"";
    json += ", \"space_points\": " + std::to_string(grid);
    json += ", \"oracle_frontier\": " +
            std::to_string(oracle_frontier.size());
    json += ", \"oracle_seconds\": " + num(oracle_seconds);
    json += ", \"series\": [";

    CsvWriter csv({"budget_fraction", "budget", "evaluations",
                   "rounds", "wall_seconds", "frontier_size",
                   "matched", "missing", "false_positives",
                   "fidelity"});

    bool first = true;
    for (const double fraction : {0.01, 0.025, 0.05, 0.075, 0.10}) {
        const auto budget = static_cast<std::size_t>(
            static_cast<double>(grid) * fraction);
        engine::SweepEngine engine{
            engine::EngineOptions{.threads = 4}};
        ExploreOptions options;
        options.maxEvaluations = budget;
        AdaptiveDriver driver(engine, options);
        const auto start = std::chrono::steady_clock::now();
        const ExploreResult result = driver.run(space);
        const double seconds = now_seconds_since(start);
        const Fidelity score =
            scoreAgainstOracle(result, oracle_frontier);
        const double fidelity = score.ratio(oracle_frontier.size());
        std::printf("budget %5.1f%%    %8.3f s   %zu evals, %zu "
                    "rounds, fidelity %.4f (%zu missing, %zu "
                    "false)\n",
                    fraction * 100.0, seconds, result.evaluations(),
                    result.rounds.size(), fidelity, score.missing,
                    score.falsePositives);

        if (!first)
            json += ", ";
        first = false;
        json += "{\"budget_fraction\": " + num(fraction);
        json += ", \"budget\": " + std::to_string(budget);
        json += ", \"evaluations\": " +
                std::to_string(result.evaluations());
        json += ", \"rounds\": " +
                std::to_string(result.rounds.size());
        json += ", \"wall_seconds\": " + num(seconds);
        json += ", \"frontier_size\": " +
                std::to_string(result.frontier.size());
        json += ", \"matched\": " + std::to_string(score.matched);
        json += ", \"missing\": " + std::to_string(score.missing);
        json += ", \"false_positives\": " +
                std::to_string(score.falsePositives);
        json += ", \"fidelity\": " + num(fidelity) + "}";

        csv.addRow({num(fraction), std::to_string(budget),
                    std::to_string(result.evaluations()),
                    std::to_string(result.rounds.size()),
                    num(seconds),
                    std::to_string(result.frontier.size()),
                    std::to_string(score.matched),
                    std::to_string(score.missing),
                    std::to_string(score.falsePositives),
                    num(fidelity)});
    }
    json += "]";

    // The six-axis wide space: too large to grid, adaptive-only.
    {
        const ExploreSpace wide = wideSpace6();
        engine::SweepEngine engine{
            engine::EngineOptions{.threads = 4}};
        ExploreOptions options;
        options.maxEvaluations = 4096;
        AdaptiveDriver driver(engine, options);
        const auto start = std::chrono::steady_clock::now();
        const ExploreResult result = driver.run(wide);
        const double seconds = now_seconds_since(start);
        std::printf("wide 6-axis      %8.3f s   %zu evals of %zu "
                    "points, frontier %zu\n",
                    seconds, result.evaluations(),
                    wide.pointCount(), result.frontier.size());
        json += ", \"wide6\": {\"space_points\": " +
                std::to_string(wide.pointCount());
        json += ", \"evaluations\": " +
                std::to_string(result.evaluations());
        json += ", \"rounds\": " +
                std::to_string(result.rounds.size());
        json += ", \"frontier_size\": " +
                std::to_string(result.frontier.size());
        json += ", \"wall_seconds\": " + num(seconds) + "}";
    }
    json += "}";

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out)
        fatal("explore_frontier: cannot open '" + out_path + "'");
    std::fprintf(out, "%s\n", json.c_str());
    std::fclose(out);
    csv.write(csv_dir + "/explore_fidelity.csv");
    std::printf("\nwrote %s and %s/explore_fidelity.csv\n",
                out_path.c_str(), csv_dir.c_str());
    return 0;
}
