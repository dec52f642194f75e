/**
 * @file
 * Risk-gated closeout: probabilistic acceptance checks over the
 * uncertainty ECDFs.
 *
 * A gate is a statistical claim a design must clear before the
 * exploration "closes out" on it — e.g. P[flight time >= 15 min]
 * >= 0.9 under survey-fit uncertainty.  Infeasible Monte-Carlo
 * samples count against every gate (a draw whose closure diverges
 * certainly does not meet the threshold), so the reported
 * probability is `#(feasible and meeting) / #samples`, never the
 * conditional-on-feasible one.
 *
 * `runRiskQuery` is the serve layer's `risk` request body: one
 * uncertainty propagation plus a gate evaluation, returned whole.
 */

#ifndef DRONEDSE_EXPLORE_GATE_HH
#define DRONEDSE_EXPLORE_GATE_HH

#include <string>
#include <vector>

#include "explore/uncertainty.hh"

namespace dronedse::explore {

/** The distribution a gate tests. */
enum class GateMetric
{
    FlightTimeMin,
    TotalWeightG,
};

/** Wire/CSV spelling ("flight_time_min", "total_weight_g"). */
const char *gateMetricName(GateMetric metric);

/** Inverse of `gateMetricName`; false on unknown spelling. */
bool parseGateMetric(const std::string &name, GateMetric &out);

/** Direction of the claim. */
enum class GateOp
{
    /** P[metric >= threshold] (flight time floors). */
    AtLeast,
    /** P[metric <= threshold] (weight ceilings). */
    AtMost,
};

/** Wire/CSV spelling ("at_least", "at_most"). */
const char *gateOpName(GateOp op);

/** Inverse of `gateOpName`; false on unknown spelling. */
bool parseGateOp(const std::string &name, GateOp &out);

/** One probabilistic acceptance requirement. */
struct GateSpec
{
    GateMetric metric = GateMetric::FlightTimeMin;
    GateOp op = GateOp::AtLeast;
    /** Threshold in the metric's natural unit (min or g). */
    double threshold = 0.0;
    /** Required probability of meeting the threshold. */
    double minProbability = 0.9;
};

/** One gate evaluated against one uncertainty result. */
struct GateOutcome
{
    GateSpec spec;
    /** P[gate met], infeasible samples counted as misses. */
    double probability = 0.0;
    bool pass = false;
};

/** The closeout verdict of one design point. */
struct GateReport
{
    std::vector<GateOutcome> gates;
    std::size_t samples = 0;
    double feasibleFraction = 0.0;
    /** True when every gate passed (vacuously true for none). */
    bool allPass = true;
};

/** Evaluate gates against a propagated uncertainty result. */
GateReport evaluateGates(const UncertaintyResult &uncertainty,
                         const std::vector<GateSpec> &gates);

/** Human-readable one-line-per-gate rendering. */
std::string gateReportText(const GateReport &report);

/** CSV rendering (`%.17g` values; byte-stable). */
std::string gateReportCsv(const GateReport &report);

/** A complete risk request (the serve layer's payload). */
struct RiskQuery
{
    DesignInputs point;
    UncertaintyOptions options;
    std::vector<GateSpec> gates;
    /** Extra flight-time quantiles to report (each in [0, 1]). */
    std::vector<double> quantiles;
};

/**
 * A point and options their validators accept, finite gate
 * thresholds, and probabilities and quantiles in [0, 1].  Returns ""
 * when valid, else the first violation.
 */
std::string validateRiskQuery(const RiskQuery &query);

/** Everything one risk query produces. */
struct RiskOutcome
{
    UncertaintyResult uncertainty;
    GateReport report;
};

/**
 * Propagate and gate one design point.  The two-argument form
 * reuses a precomputed scatter (batch callers derive it once).
 */
RiskOutcome runRiskQuery(const RiskQuery &query);
RiskOutcome runRiskQuery(const RiskQuery &query,
                         const FitScatter &scatter);

} // namespace dronedse::explore

#endif // DRONEDSE_EXPLORE_GATE_HH
