#include "explore/driver.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "engine/pareto.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"

namespace dronedse::explore {

namespace {

/**
 * Word-wise FNV-1a over an index vector.  The maps below use it for
 * membership tests only — they are never iterated, so the driver's
 * outputs cannot depend on bucket order.
 */
struct IndexVecHash
{
    std::size_t
    operator()(const std::vector<std::size_t> &v) const noexcept
    {
        std::uint64_t h = 14695981039346656037ULL;
        for (std::size_t x : v) {
            h ^= static_cast<std::uint64_t>(x);
            h *= 1099511628211ULL;
        }
        return static_cast<std::size_t>(h);
    }
};

using EvaluatedMap = std::unordered_map<std::vector<std::size_t>,
                                        std::size_t, IndexVecHash>;

const char *
activityCsvName(FlightActivity activity)
{
    switch (activity) {
    case FlightActivity::Hovering: return "hovering";
    case FlightActivity::Maneuvering: return "maneuvering";
    }
    panic("activityCsvName: corrupt activity");
    return "";
}

/**
 * Refinement candidates around the current frontier, in a fixed
 * order (frontier point ascending, then axis, then offset): the
 * lattice crawl neighborhood plus the boundary-bisection probes.
 */
std::vector<std::vector<std::size_t>>
refineCandidates(const ExploreSpace &space, const ExploreResult &result,
                 const EvaluatedMap &evaluated,
                 const ExploreOptions &options)
{
    std::vector<std::vector<std::size_t>> out;
    std::vector<std::size_t> probe;
    // Interior span fill first (highest value per solve when the
    // budget runs short): frontier runs along an ordered axis are
    // usually contiguous, so the midpoint between two frontier
    // points that differ only on that axis is a strong candidate.
    // Halving the gap each round closes a run interior in log steps
    // where the radius-1 crawl would need linearly many.
    for (std::size_t d = 0; d < space.axes.size(); ++d) {
        if (!axisIsOrdered(space.axes[d].kind))
            continue;
        // Ordered map: iteration order is the key order, never the
        // hash layout, so candidate order stays deterministic.
        std::map<std::vector<std::size_t>, std::vector<std::size_t>>
            lines;
        for (std::size_t f : result.frontier) {
            std::vector<std::size_t> key = result.indices[f];
            const std::size_t coord = key[d];
            key.erase(key.begin() +
                      static_cast<std::ptrdiff_t>(d));
            lines[std::move(key)].push_back(coord);
        }
        for (auto &[key, coords] : lines) {
            std::sort(coords.begin(), coords.end());
            for (std::size_t i = 1; i < coords.size(); ++i) {
                if (coords[i] - coords[i - 1] <= 1)
                    continue;
                probe = key;
                probe.insert(probe.begin() +
                                 static_cast<std::ptrdiff_t>(d),
                             (coords[i] + coords[i - 1]) / 2);
                out.push_back(probe);
            }
        }
    }
    // Rank axes by whether the frontier varies along them.  An axis
    // whose coordinate is the same across every frontier point (a
    // single twr, a single activity) is where refinement evals go to
    // die: every probe off the shared value is one step into a
    // dominated region.  Crawl the diverse axes first and leave the
    // uniform ones for whatever budget is left.
    // Three tiers within that: ordered diverse axes first (cheap
    // crawl + bisect probes that close runs), unordered diverse
    // fans second (one probe per alternative board per point — a
    // wide spray), uniform axes last.
    std::vector<std::size_t> axis_order;
    {
        std::vector<std::size_t> fans, uniform;
        for (std::size_t d = 0; d < space.axes.size(); ++d) {
            bool diverse = false;
            for (std::size_t f : result.frontier) {
                if (result.indices[f][d] !=
                    result.indices[result.frontier.front()][d]) {
                    diverse = true;
                    break;
                }
            }
            if (!diverse)
                uniform.push_back(d);
            else if (axisIsOrdered(space.axes[d].kind))
                axis_order.push_back(d);
            else
                fans.push_back(d);
        }
        axis_order.insert(axis_order.end(), fans.begin(),
                          fans.end());
        axis_order.insert(axis_order.end(), uniform.begin(),
                          uniform.end());
    }
    for (std::size_t d : axis_order) {
        const std::size_t size = space.axes[d].size();
        for (std::size_t f : result.frontier) {
            const std::vector<std::size_t> &p = result.indices[f];
            // Unordered axis (board, activity): index adjacency is
            // an accident of table order, so the neighborhood is the
            // whole fan — a frontier design on one board proposes
            // the same design on every board.  Without this, a
            // frontier island on a board nobody sits next to in the
            // table is unreachable at any budget.
            if (!axisIsOrdered(space.axes[d].kind)) {
                for (std::size_t v = 0; v < size; ++v) {
                    if (v == p[d])
                        continue;
                    probe = p;
                    probe[d] = v;
                    out.push_back(probe);
                }
                continue;
            }
            // Crawl: every lattice neighbor within the radius.  A
            // frontier run discovered anywhere extends itself one
            // step per round until its ends are mapped.
            for (std::size_t delta = 1;
                 delta <= options.neighborRadius; ++delta) {
                if (p[d] >= delta) {
                    probe = p;
                    probe[d] -= delta;
                    out.push_back(probe);
                }
                if (p[d] + delta < size) {
                    probe = p;
                    probe[d] += delta;
                    out.push_back(probe);
                }
            }
            if (!options.bisectBoundary ||
                !axisIsOrdered(space.axes[d].kind))
                continue;
            // Bisect: walk outward past the crawl radius.  Track the
            // outermost evaluated position still on the current
            // frontier and stop at the first evaluated one that is
            // off it — infeasible or dominated, either way the run
            // ends somewhere in between, and everything strictly
            // between them is unevaluated, so the midpoint halves
            // the unknown gap.  Walling on dominated points matters:
            // a frontier run's low end usually dies by domination,
            // not infeasibility, and without it the run would creep
            // one crawl step per round.  With no wall before the
            // axis edge, probe the edge — either the run reaches it
            // or it becomes the wall a later round bisects against.
            for (int dir : {-1, +1}) {
                std::size_t front_at = p[d];
                bool walled = false;
                std::size_t wall = 0;
                probe = p;
                for (std::size_t j = p[d];;) {
                    if (dir < 0 ? j == 0 : j + 1 >= size)
                        break;
                    j = dir < 0 ? j - 1 : j + 1;
                    probe[d] = j;
                    const auto it = evaluated.find(probe);
                    if (it == evaluated.end())
                        continue;
                    if (std::binary_search(result.frontier.begin(),
                                           result.frontier.end(),
                                           it->second)) {
                        front_at = j;
                        continue;
                    }
                    walled = true;
                    wall = j;
                    break;
                }
                if (walled) {
                    const std::size_t gap = wall > front_at
                                                ? wall - front_at
                                                : front_at - wall;
                    if (gap > 1) {
                        probe[d] = (wall + front_at) / 2;
                        out.push_back(probe);
                    }
                } else {
                    const std::size_t edge =
                        dir < 0 ? 0 : size - 1;
                    if (edge != p[d]) {
                        probe[d] = edge;
                        out.push_back(probe);
                    }
                }
            }
        }
    }
    return out;
}

/**
 * Fold newly evaluated points (from `first_new` on) into the
 * frontier: Pareto(A u B) == Pareto(Pareto(A) u B), so only the old
 * frontier plus the new points need the pairwise test.
 */
void
foldFrontier(ExploreResult &result, std::size_t first_new)
{
    std::vector<std::size_t> cand = result.frontier;
    for (std::size_t i = first_new; i < result.points.size(); ++i)
        cand.push_back(i);
    std::vector<DesignResult> sub;
    sub.reserve(cand.size());
    for (std::size_t i : cand)
        sub.push_back(result.points[i]);
    const std::vector<std::size_t> keep = engine::paretoFrontier(sub);
    result.frontier.clear();
    result.frontier.reserve(keep.size());
    // `cand` is ascending (old frontier ascending, new indices above
    // it) and `paretoFrontier` preserves input order, so the fold
    // keeps the frontier ascending by evaluation index.
    for (std::size_t k : keep)
        result.frontier.push_back(cand[k]);
}

} // namespace

std::string
validateExploreOptions(const ExploreOptions &options)
{
    if (options.maxEvaluations == 0)
        return "maxEvaluations must be positive";
    if (options.initialSamples == 0)
        return "initialSamples must be positive";
    if (options.roundEvaluations == 0)
        return "roundEvaluations must be positive";
    return "";
}

AdaptiveDriver::AdaptiveDriver(engine::SweepEngine &eng,
                               ExploreOptions options)
    : engine_(eng), options_(options)
{
    const std::string err = validateExploreOptions(options_);
    if (!err.empty())
        fatal("AdaptiveDriver: " + err);
}

ExploreResult
AdaptiveDriver::run(const ExploreSpace &space)
{
    const std::string err = validateSpace(space);
    if (!err.empty())
        fatal("AdaptiveDriver::run: invalid space: " + err);
    obs::ScopedSpan span("explore.run", "explore");

    const std::unique_ptr<CandidateGenerator> gen =
        makeGenerator(options_.sampler, options_.seed);

    ExploreResult result;
    result.spacePoints = space.pointCount();

    EvaluatedMap evaluated;
    std::size_t feasible_total = 0;

    // Round 0 seeds from the generator; later rounds refine around
    // the frontier and fall back to the generator when refinement
    // runs dry with budget remaining.
    bool seeded_round = true;
    std::vector<std::vector<std::size_t>> candidates = gen->nextBatch(
        space,
        std::min(options_.initialSamples, options_.maxEvaluations));

    while (result.rounds.size() < options_.maxRounds) {
        const std::size_t remaining =
            options_.maxEvaluations - result.points.size();
        if (remaining == 0)
            break;

        // Dedup (order-preserving, against both prior evaluations
        // and this batch) and truncate to the round cap.  The cap
        // matters: refinement candidates are emitted best-first
        // (span fills, then diverse-axis probes, then the uniform-
        // axis tail), and capping each round re-ranks against the
        // *updated* frontier before the tail spends the budget.
        // Seed rounds use the full generator batch.
        const std::size_t round_cap = std::min(
            remaining, seeded_round ? options_.initialSamples
                                    : options_.roundEvaluations);
        std::vector<std::vector<std::size_t>> fresh;
        std::unordered_set<std::vector<std::size_t>, IndexVecHash>
            pending;
        for (std::vector<std::size_t> &c : candidates) {
            if (fresh.size() >= round_cap)
                break;
            if (evaluated.contains(c) || pending.contains(c))
                continue;
            pending.insert(c);
            fresh.push_back(std::move(c));
        }

        if (fresh.empty()) {
            if (!seeded_round) {
                candidates = gen->nextBatch(
                    space,
                    std::min(options_.initialSamples, remaining));
                seeded_round = true;
                continue;
            }
            result.converged = true;
            break;
        }

        RoundStats stats;
        stats.candidates = candidates.size();
        stats.evaluated = fresh.size();

        std::vector<DesignInputs> inputs;
        inputs.reserve(fresh.size());
        for (const std::vector<std::size_t> &c : fresh)
            inputs.push_back(space.materialize(c));
        const std::vector<DesignResult> solved =
            engine_.solvePoints(inputs);

        const std::size_t first_new = result.points.size();
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            evaluated.emplace(fresh[i], result.points.size());
            if (solved[i].feasible)
                ++feasible_total;
            result.points.push_back(solved[i]);
            result.indices.push_back(std::move(fresh[i]));
        }
        foldFrontier(result, first_new);

        stats.cumulativeEvaluations = result.points.size();
        stats.frontierSize = result.frontier.size();
        stats.feasiblePoints = feasible_total;
        result.rounds.push_back(stats);

        candidates =
            refineCandidates(space, result, evaluated, options_);
        seeded_round = false;
    }

    result.incumbent = engine::bestFeasibleIndex(result.points);

    obs::MetricsRegistry &registry = obs::metrics();
    registry.counter("explore.runs").add(1);
    registry.counter("explore.evaluations").add(result.points.size());
    registry.counter("explore.rounds").add(result.rounds.size());
    registry.counter("explore.frontier_points")
        .add(result.frontier.size());
    if (result.converged)
        registry.counter("explore.converged").add(1);
    return result;
}

std::string
frontierCsv(const ExploreResult &result)
{
    std::string out =
        "wheelbase_mm,cells,capacity_mah,twr,payload_g,board,"
        "activity,flight_time_min,total_weight_g,compute_power_w,"
        "avg_power_w\n";
    char buf[256];
    for (std::size_t i : result.frontier) {
        const DesignResult &res = result.points[i];
        const DesignInputs &in = res.inputs;
        std::snprintf(buf, sizeof buf, "%.17g,%d,%.17g,%.17g,%.17g,",
                      in.wheelbaseMm.value(), in.cells,
                      in.capacityMah.value(), in.twr,
                      in.payloadG.value());
        out += buf;
        out += in.compute.name;
        out += ',';
        out += activityCsvName(in.activity);
        std::snprintf(buf, sizeof buf, ",%.17g,%.17g,%.17g,%.17g\n",
                      res.flightTimeMin.value(),
                      res.totalWeightG.value(),
                      res.computePowerW.value(), res.avgPowerW.value());
        out += buf;
    }
    return out;
}

std::string
roundsCsv(const ExploreResult &result)
{
    std::string out = "round,candidates,evaluated,cumulative_"
                      "evaluations,frontier_size,feasible_points\n";
    char buf[160];
    for (std::size_t r = 0; r < result.rounds.size(); ++r) {
        const RoundStats &s = result.rounds[r];
        std::snprintf(buf, sizeof buf, "%zu,%zu,%zu,%zu,%zu,%zu\n", r,
                      s.candidates, s.evaluated,
                      s.cumulativeEvaluations, s.frontierSize,
                      s.feasiblePoints);
        out += buf;
    }
    return out;
}

} // namespace dronedse::explore
