#include "explore/gate.hh"

#include <cmath>
#include <cstdio>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace dronedse::explore {

const char *
gateMetricName(GateMetric metric)
{
    switch (metric) {
    case GateMetric::FlightTimeMin: return "flight_time_min";
    case GateMetric::TotalWeightG: return "total_weight_g";
    }
    panic("gateMetricName: corrupt metric");
    return "";
}

bool
parseGateMetric(const std::string &name, GateMetric &out)
{
    if (name == "flight_time_min")
        out = GateMetric::FlightTimeMin;
    else if (name == "total_weight_g")
        out = GateMetric::TotalWeightG;
    else
        return false;
    return true;
}

const char *
gateOpName(GateOp op)
{
    switch (op) {
    case GateOp::AtLeast: return "at_least";
    case GateOp::AtMost: return "at_most";
    }
    panic("gateOpName: corrupt op");
    return "";
}

bool
parseGateOp(const std::string &name, GateOp &out)
{
    if (name == "at_least")
        out = GateOp::AtLeast;
    else if (name == "at_most")
        out = GateOp::AtMost;
    else
        return false;
    return true;
}

GateReport
evaluateGates(const UncertaintyResult &uncertainty,
              const std::vector<GateSpec> &gates)
{
    GateReport report;
    report.samples = uncertainty.samples;
    report.feasibleFraction = uncertainty.feasibleFraction();
    report.gates.reserve(gates.size());
    for (const GateSpec &spec : gates) {
        const Ecdf &dist = spec.metric == GateMetric::FlightTimeMin
                               ? uncertainty.flightTimeMin
                               : uncertainty.totalWeightG;
        // Count the feasible samples meeting the threshold directly
        // (the sorted sample walk keeps this exact on ties), then
        // divide by *all* samples: an infeasible draw misses every
        // gate by definition.
        std::size_t met = 0;
        for (double x : dist.samples()) {
            if (spec.op == GateOp::AtLeast ? x >= spec.threshold
                                           : x <= spec.threshold)
                ++met;
        }
        GateOutcome outcome;
        outcome.spec = spec;
        outcome.probability =
            uncertainty.samples == 0
                ? 0.0
                : static_cast<double>(met) /
                      static_cast<double>(uncertainty.samples);
        outcome.pass = outcome.probability >= spec.minProbability;
        report.gates.push_back(outcome);
        if (!outcome.pass)
            report.allPass = false;
    }
    return report;
}

std::string
gateReportText(const GateReport &report)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "closeout: %zu samples, %.1f%% feasible\n",
                  report.samples, 100.0 * report.feasibleFraction);
    std::string out = buf;
    for (const GateOutcome &g : report.gates) {
        std::snprintf(buf, sizeof buf,
                      "  P[%s %s %g] = %.3f (need %.3f): %s\n",
                      gateMetricName(g.spec.metric),
                      g.spec.op == GateOp::AtLeast ? ">=" : "<=",
                      g.spec.threshold, g.probability,
                      g.spec.minProbability,
                      g.pass ? "PASS" : "FAIL");
        out += buf;
    }
    out += report.allPass ? "verdict: PASS\n" : "verdict: FAIL\n";
    return out;
}

std::string
gateReportCsv(const GateReport &report)
{
    std::string out =
        "metric,op,threshold,min_probability,probability,pass\n";
    char buf[160];
    for (const GateOutcome &g : report.gates) {
        std::snprintf(buf, sizeof buf, "%s,%s,%.17g,%.17g,%.17g,%d\n",
                      gateMetricName(g.spec.metric),
                      gateOpName(g.spec.op), g.spec.threshold,
                      g.spec.minProbability, g.probability,
                      g.pass ? 1 : 0);
        out += buf;
    }
    return out;
}

std::string
validateRiskQuery(const RiskQuery &query)
{
    std::string err = validateDesignInputs(query.point);
    if (err.empty())
        err = validateUncertaintyOptions(query.options);
    if (!err.empty())
        return err;
    for (const GateSpec &gate : query.gates) {
        if (!std::isfinite(gate.threshold))
            return "gate threshold must be finite";
        if (!(gate.minProbability >= 0.0 &&
              gate.minProbability <= 1.0))
            return "gate minProbability must be in [0, 1]";
    }
    for (double q : query.quantiles) {
        if (!(q >= 0.0 && q <= 1.0))
            return "quantiles must be in [0, 1]";
    }
    return "";
}

RiskOutcome
runRiskQuery(const RiskQuery &query)
{
    return runRiskQuery(
        query, FitScatter::fromCatalogs(query.options.seed,
                                        query.options.scatterReplicates));
}

RiskOutcome
runRiskQuery(const RiskQuery &query, const FitScatter &scatter)
{
    const std::string err = validateRiskQuery(query);
    if (!err.empty())
        fatal("runRiskQuery: " + err);
    RiskOutcome outcome;
    outcome.uncertainty =
        propagateUncertainty(query.point, query.options, scatter);
    outcome.report = evaluateGates(outcome.uncertainty, query.gates);

    obs::MetricsRegistry &registry = obs::metrics();
    registry.counter("explore.risk_queries").add(1);
    registry.counter("explore.risk_samples")
        .add(outcome.uncertainty.samples);
    if (!outcome.report.allPass)
        registry.counter("explore.risk_gate_failures").add(1);
    return outcome;
}

} // namespace dronedse::explore
