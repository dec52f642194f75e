#include "explore/uncertainty.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "components/battery.hh"
#include "components/esc.hh"
#include "components/frame.hh"
#include "components/motor.hh"
#include "components/propeller.hh"
#include "dse/weight_closure.hh"
#include "physics/lipo.hh"
#include "physics/loads.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace dronedse::explore {

std::string
validateUncertaintyOptions(const UncertaintyOptions &options)
{
    if (options.samples == 0)
        return "samples must be positive";
    if (options.scatterReplicates < 2)
        return "scatterReplicates must be >= 2";
    return "";
}

SurveyModel
SurveyModel::paper()
{
    SurveyModel model;
    for (int cells = kMinCells; cells <= kMaxCells; ++cells)
        model.batteryFits[cells - 1] = paperBatteryFit(cells);
    model.escFits[static_cast<int>(EscClass::ShortFlight)] =
        paperEscFit(EscClass::ShortFlight);
    model.escFits[static_cast<int>(EscClass::LongFlight)] =
        paperEscFit(EscClass::LongFlight);
    model.frameFit = paperFrameFit();
    return model;
}

FitScatter
FitScatter::fromCatalogs(std::uint64_t seed, int replicates)
{
    const std::string err = validateUncertaintyOptions(
        UncertaintyOptions{.seed = seed,
                           .scatterReplicates = replicates});
    if (!err.empty())
        fatal("FitScatter::fromCatalogs: " + err);

    std::array<std::vector<double>, 6> bat_slope, bat_icept;
    std::array<std::vector<double>, 2> esc_slope, esc_icept;
    std::vector<double> frame_slope, frame_icept;

    for (int rep = 0; rep < replicates; ++rep) {
        // One independent survey per replicate: fresh catalogs,
        // fresh fits, seeds spread by the SplitMix64 increment.
        Rng rng(seed + 0x9e3779b97f4a7c15ULL *
                           static_cast<std::uint64_t>(rep + 1));
        const std::vector<BatteryRecord> packs =
            generateBatteryCatalog(rng);
        const std::vector<EscRecord> escs = generateEscCatalog(rng);
        const std::vector<FrameRecord> frames =
            generateFrameCatalog(rng);
        for (int cells = kMinCells; cells <= kMaxCells; ++cells) {
            const LinearFit fit = fitBatteryCatalog(packs, cells);
            bat_slope[cells - 1].push_back(fit.slope);
            bat_icept[cells - 1].push_back(fit.intercept);
        }
        for (EscClass cls :
             {EscClass::ShortFlight, EscClass::LongFlight}) {
            const LinearFit fit = fitEscCatalog(escs, cls);
            esc_slope[static_cast<int>(cls)].push_back(fit.slope);
            esc_icept[static_cast<int>(cls)].push_back(fit.intercept);
        }
        const LinearFit fit = fitFrameCatalog(frames);
        frame_slope.push_back(fit.slope);
        frame_icept.push_back(fit.intercept);
    }

    FitScatter scatter;
    for (int i = 0; i < 6; ++i) {
        scatter.batterySlopeSd[i] = stddev(bat_slope[i]);
        scatter.batteryInterceptSd[i] = stddev(bat_icept[i]);
    }
    for (int i = 0; i < 2; ++i) {
        scatter.escSlopeSd[i] = stddev(esc_slope[i]);
        scatter.escInterceptSd[i] = stddev(esc_icept[i]);
    }
    scatter.frameSlopeSd = stddev(frame_slope);
    scatter.frameInterceptSd = stddev(frame_icept);
    return scatter;
}

SurveyModel
perturbSurveyModel(const SurveyModel &base, const FitScatter &scatter,
                   Rng &rng)
{
    // Fixed draw order (the reproducibility contract): battery
    // 1S..6S, then ESC short/long, then frame; slope before
    // intercept within each fit.
    SurveyModel model = base;
    for (int i = 0; i < 6; ++i) {
        model.batteryFits[i].slope =
            rng.gaussian(base.batteryFits[i].slope,
                         scatter.batterySlopeSd[i]);
        model.batteryFits[i].intercept =
            rng.gaussian(base.batteryFits[i].intercept,
                         scatter.batteryInterceptSd[i]);
    }
    for (int i = 0; i < 2; ++i) {
        model.escFits[i].slope =
            rng.gaussian(base.escFits[i].slope, scatter.escSlopeSd[i]);
        model.escFits[i].intercept = rng.gaussian(
            base.escFits[i].intercept, scatter.escInterceptSd[i]);
    }
    model.frameFit.slope =
        rng.gaussian(base.frameFit.slope, scatter.frameSlopeSd);
    model.frameFit.intercept =
        rng.gaussian(base.frameFit.intercept, scatter.frameInterceptSd);
    return model;
}

namespace {

/** `frameWeightG` with the caller's fit (same ramp below 200 mm). */
double
modelFrameWeightG(const LinearFit &fit, double wheelbase_mm)
{
    if (wheelbase_mm > 200.0)
        return fit.at(wheelbase_mm);
    const double boundary = fit.at(200.0);
    const double t =
        std::clamp((wheelbase_mm - 50.0) / 150.0, 0.0, 1.0);
    return 50.0 + t * (boundary - 50.0);
}

/** `escSetWeightG` with the caller's fit (same 10 g floor). */
double
modelEscSetWeightG(const LinearFit &fit, double max_current_a)
{
    return std::max(fit.at(max_current_a), 10.0);
}

} // namespace

DesignResult
solveDesignModel(const DesignInputs &inputs, const SurveyModel &model)
{
    // Mirror of dse::solveDesign with the three survey fits routed
    // through `model`.  Every branch, constant, iteration count, and
    // arithmetic order matches; the differential battery holds this
    // function to the original bit-for-bit at the paper model.
    DesignResult res;
    res.inputs = inputs;

    if (inputs.cells < kMinCells || inputs.cells > kMaxCells) {
        res.infeasibleReason = "cell count out of range";
        return res;
    }
    if (inputs.capacityMah.value() <= 0.0 || inputs.twr < 1.0 ||
        inputs.wheelbaseMm.value() <= 0.0) {
        res.infeasibleReason = "invalid capacity, TWR, or wheelbase";
        return res;
    }

    const Quantity<Inches> prop =
        inputs.propDiameterIn.value() > 0.0
            ? inputs.propDiameterIn
            : maxPropDiameterIn(inputs.wheelbaseMm);
    const Quantity<Volts> voltage = lipoPackVoltage(inputs.cells);

    res.frameWeightG = Quantity<Grams>(modelFrameWeightG(
        model.frameFit, inputs.wheelbaseMm.value()));
    res.batteryWeightG =
        Quantity<Grams>(model.batteryFits[inputs.cells - 1].at(
            inputs.capacityMah.value()));
    res.propSetWeightG = propellerSetWeightG(prop);
    res.wiringWeightG = wiringWeightG(res.frameWeightG);
    const Quantity<Grams> fixed_weight =
        res.frameWeightG + res.batteryWeightG + res.propSetWeightG +
        res.wiringWeightG + Quantity<Grams>(inputs.compute.weightG) +
        inputs.sensorWeightG + inputs.payloadG;

    const LinearFit &esc_fit =
        model.escFits[static_cast<int>(inputs.escClass)];
    Quantity<Grams> total = fixed_weight;
    MotorRecord motor;
    Quantity<Grams> esc_w{};
    bool converged = false;
    for (int iter = 0; iter < 60; ++iter) {
        const Quantity<GramsForce> thrust_per_motor =
            weightForce(total) * (inputs.twr / 4.0);
        motor = matchMotor(thrust_per_motor, prop, voltage);
        esc_w = Quantity<Grams>(
            modelEscSetWeightG(esc_fit, motor.maxCurrent().value()));
        const Quantity<Grams> new_total =
            fixed_weight + 4.0 * motor.weight() + esc_w;
        if (std::fabs((new_total - total).value()) < 0.01) {
            total = new_total;
            converged = true;
            break;
        }
        total = new_total;
        if (total.value() > 1.0e6)
            break;
    }
    if (!converged) {
        res.infeasibleReason = "weight closure diverged";
        return res;
    }

    res.totalWeightG = total;
    res.motor = motor;
    res.motorMaxCurrentA = motor.maxCurrent();
    res.motorSetWeightG = 4.0 * motor.weight();
    res.escSetWeightG = esc_w;
    res.basicWeightG = total - res.batteryWeightG -
                       res.motorSetWeightG - res.escSetWeightG;
    res.extremeKv = motor.kv > kExtremeKvThreshold;

    const double load = flyingLoadFraction(inputs.activity);
    res.maxPowerW = 4.0 * (motor.maxCurrent() * voltage);
    res.propulsionPowerW = res.maxPowerW * load;
    res.computePowerW = Quantity<Watts>(inputs.compute.powerW);
    res.sensorPowerW = inputs.sensorPowerW;
    res.avgPowerW =
        res.propulsionPowerW + res.computePowerW + res.sensorPowerW;

    res.usableEnergyWh = usableEnergyWh(inputs.capacityMah, voltage);
    res.flightTimeMin =
        wattHoursToMinutes(res.usableEnergyWh, res.avgPowerW);
    res.computePowerFraction = res.computePowerW / res.avgPowerW;

    const Quantity<Amperes> max_current_needed =
        4.0 * motor.maxCurrent();
    const Quantity<Amperes> pack_limit =
        (inputs.capacityMah * 80.0 / Quantity<Hours>(1.0))
            .to<Amperes>();
    if (pack_limit < max_current_needed) {
        res.infeasibleReason =
            "battery C-rating cannot supply max draw";
        return res;
    }

    res.feasible = true;
    return res;
}

UncertaintyResult
propagateUncertainty(const DesignInputs &point,
                     const UncertaintyOptions &options)
{
    return propagateUncertainty(
        point, options,
        FitScatter::fromCatalogs(options.seed,
                                 options.scatterReplicates));
}

UncertaintyResult
propagateUncertainty(const DesignInputs &point,
                     const UncertaintyOptions &options,
                     const FitScatter &scatter)
{
    const std::string err = validateUncertaintyOptions(options);
    if (!err.empty())
        fatal("propagateUncertainty: " + err);

    UncertaintyResult out;
    out.nominal = solveDesign(point);
    out.samples = options.samples;

    // A fresh Rng per call means every design sees the identical
    // perturbation stream: common random numbers, so per-design
    // deltas are paired comparisons.
    Rng rng(options.seed);
    const SurveyModel base = SurveyModel::paper();
    std::vector<double> flight, weight;
    flight.reserve(options.samples);
    weight.reserve(options.samples);
    for (std::size_t i = 0; i < options.samples; ++i) {
        const SurveyModel model =
            perturbSurveyModel(base, scatter, rng);
        const DesignResult res = solveDesignModel(point, model);
        if (!res.feasible)
            continue;
        ++out.feasibleSamples;
        flight.push_back(res.flightTimeMin.value());
        weight.push_back(res.totalWeightG.value());
    }
    if (!flight.empty()) {
        out.flightTimeMin = Ecdf(std::move(flight));
        out.totalWeightG = Ecdf(std::move(weight));
    }
    return out;
}

} // namespace dronedse::explore
