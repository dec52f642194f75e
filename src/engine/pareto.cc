#include "engine/pareto.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>

namespace dronedse::engine {

namespace {

/** One feasible point's objectives, packed so the sort stays in cache. */
struct Triple
{
    double flight;
    double power;
    double weight;
    std::size_t index;
};

bool
sameTriple(const Triple &a, const Triple &b)
{
    return a.flight == b.flight && a.power == b.power &&
           a.weight == b.weight;
}

/**
 * The (power up, weight down) skyline of the points processed so far:
 * power -> minimum weight, with weight strictly increasing in power,
 * so the cheapest entry at or above any power is its lower bound.
 */
class Staircase
{
  public:
    /** True when some entry has power >= `power` and weight <= `weight`. */
    bool covers(double power, double weight) const
    {
        const auto it = steps_.lower_bound(power);
        return it != steps_.end() && it->second <= weight;
    }

    /** Add an uncovered point and drop the steps it now covers. */
    void insert(double power, double weight)
    {
        auto it = steps_.insert_or_assign(power, weight).first;
        while (it != steps_.begin()) {
            const auto below = std::prev(it);
            if (below->second < weight)
                break;
            steps_.erase(below);
        }
    }

  private:
    std::map<double, double> steps_;
};

} // namespace

bool
dominates(const DesignResult &a, const DesignResult &b)
{
    if (!a.feasible || !b.feasible)
        return false;
    const bool no_worse =
        a.flightTimeMin >= b.flightTimeMin &&
        a.computePowerW >= b.computePowerW &&
        a.totalWeightG <= b.totalWeightG;
    if (!no_worse)
        return false;
    return a.flightTimeMin > b.flightTimeMin ||
           a.computePowerW > b.computePowerW ||
           a.totalWeightG < b.totalWeightG;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<DesignResult> &points)
{
    std::vector<std::size_t> frontier;
    std::vector<Triple> order;
    order.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DesignResult &p = points[i];
        if (!p.feasible)
            continue;
        const Triple t{p.flightTimeMin.value(), p.computePowerW.value(),
                       p.totalWeightG.value(), i};
        // Every comparison with a NaN is false, so such a point
        // neither dominates nor is dominated; it also would break
        // the sort's strict weak ordering.
        if (std::isnan(t.flight) || std::isnan(t.power) ||
            std::isnan(t.weight)) {
            frontier.push_back(i);
            continue;
        }
        order.push_back(t);
    }

    // Flight descending, then power descending, then weight
    // ascending: every dominator of a point sorts before it, in an
    // earlier run of identical triples.
    std::sort(order.begin(), order.end(),
              [](const Triple &a, const Triple &b) {
                  if (a.flight != b.flight)
                      return a.flight > b.flight;
                  if (a.power != b.power)
                      return a.power > b.power;
                  if (a.weight != b.weight)
                      return a.weight < b.weight;
                  return a.index < b.index;
              });

    // Each earlier run has flight >= this run's and a different
    // triple, so it dominates exactly when it also has power >= and
    // weight <=.  Querying before inserting the run keeps equal
    // triples from dominating each other.
    Staircase staircase;
    for (std::size_t run = 0; run < order.size();) {
        std::size_t end = run + 1;
        while (end < order.size() && sameTriple(order[run], order[end]))
            ++end;
        const Triple &t = order[run];
        if (!staircase.covers(t.power, t.weight)) {
            for (std::size_t k = run; k < end; ++k)
                frontier.push_back(order[k].index);
            staircase.insert(t.power, t.weight);
        }
        run = end;
    }

    std::sort(frontier.begin(), frontier.end());
    return frontier;
}

} // namespace dronedse::engine
