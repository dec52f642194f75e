#include "explore/uncertainty.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "components/battery.hh"
#include "components/esc.hh"
#include "components/frame.hh"
#include "dse/batch_solve.hh"
#include "util/logging.hh"

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
    // deltas are paired comparisons.  The models are drawn serially,
    // in that stream's order, a block at a time; each block is solved
    // as batch-kernel lanes.
    Rng rng(options.seed);
    const SurveyModel &base = SurveyModel::paper();
    constexpr std::size_t kSampleBlock = 8 * kBatchLaneWidth;
    std::array<SurveyModel, kSampleBlock> models;
    std::array<DesignResult, kSampleBlock> results;
    std::vector<double> flight, weight;
    flight.reserve(options.samples);
    weight.reserve(options.samples);
    for (std::size_t begin = 0; begin < options.samples;
         begin += kSampleBlock) {
        const std::size_t n =
            std::min(kSampleBlock, options.samples - begin);
        for (std::size_t i = 0; i < n; ++i)
            models[i] = perturbSurveyModel(base, scatter, rng);
        solveDesignBatch(point, std::span(models).first(n),
                         std::span(results).first(n));
        for (std::size_t i = 0; i < n; ++i) {
            if (!results[i].feasible)
                continue;
            ++out.feasibleSamples;
            flight.push_back(results[i].flightTimeMin.value());
            weight.push_back(results[i].totalWeightG.value());
        }
    }
    if (!flight.empty()) {
        out.flightTimeMin = Ecdf(std::move(flight));
        out.totalWeightG = Ecdf(std::move(weight));
    }
    return out;
}

} // namespace dronedse::explore
