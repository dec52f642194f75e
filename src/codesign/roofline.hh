/**
 * @file
 * Roofline model of the Table 5 platforms, calibrated against the
 * trace-driven core simulator instead of copied from a datasheet.
 *
 * Two microkernel profiles run through `runIsolated` fit the host
 * (RPi-class) roofline: an L1-resident streaming kernel measures
 * peak ops/s (IPC at the core clock with no memory stalls), and a
 * pointer-chasing kernel whose footprint dwarfs the LLC measures
 * sustainable DRAM bandwidth (miss lines per cycle).  Five per-phase
 * SLAM workload profiles then measure each `SlamPhase`'s arithmetic
 * intensity — abstract pipeline ops per DRAM byte actually touched —
 * which places every phase on the roofline: attainable throughput is
 * min(peak, bandwidth x intensity), and a phase is memory-bound when
 * the bandwidth roof is the binding one.  Accelerator rooflines are
 * the host roofline scaled by per-platform peak/bandwidth factors
 * (GPU lanes, FPGA pipelines + BRAM, ASIC memory specialization).
 *
 * The fit is a pure function of fixed kernels, seed and clock, so
 * its seven doubles are pinned in `kCanonicalHostFit` and a
 * default-constructed `RooflineModel` is a constant expression: no
 * simulation runs to serve it.  `calibrateHost()` is the slow path
 * that derives the fit; a test holds it to the pinned literals bit
 * for bit.
 *
 * The measured-vs-roofline gap per phase (attainable / Table 4
 * calibrated throughput) is the report the co-design driver cites
 * when it explains a recommendation.
 */

#ifndef DRONEDSE_CODESIGN_ROOFLINE_HH
#define DRONEDSE_CODESIGN_ROOFLINE_HH

#include <array>
#include <cstddef>
#include <vector>

#include "platform/platform.hh"
#include "uarch/core.hh"
#include "util/logging.hh"

namespace dronedse::codesign {

/** One platform's roofline: a flat peak and a bandwidth slope. */
struct RooflineSpec
{
    PlatformKind kind = PlatformKind::RPi;
    /** Compute roof (abstract pipeline ops per second). */
    double peakOpsPerSec = 0.0;
    /** Memory roof slope (DRAM bytes per second). */
    double bandwidthBytesPerSec = 0.0;

    /** Intensity at which the two roofs intersect (ops/byte). */
    constexpr double
    ridgeOpsPerByte() const
    {
        return bandwidthBytesPerSec > 0.0
                   ? peakOpsPerSec / bandwidthBytesPerSec
                   : 0.0;
    }

    /** Attainable throughput at a given arithmetic intensity. */
    constexpr double
    attainable(double intensity_ops_per_byte) const
    {
        const double memory_roof =
            bandwidthBytesPerSec * intensity_ops_per_byte;
        return memory_roof < peakOpsPerSec ? memory_roof
                                           : peakOpsPerSec;
    }
};

/** The host roofline fit: the seven doubles a model is built from. */
struct HostFit
{
    /** Fitted host roofline. */
    RooflineSpec host;
    /** Per-phase arithmetic intensity (ops per DRAM byte). */
    std::array<double,
               static_cast<std::size_t>(SlamPhase::NumPhases)>
        intensityOpsPerByte{};
};

/**
 * The canonical fit, pinned: `calibrateHost()`'s result as hex-float
 * literals, so no decimal rounding stands between the simulator and
 * the served model.  Intensities are in `SlamPhase` order.
 * `Roofline.CanonicalCalibrationIsPinned` holds the two equal bit for
 * bit; after a deliberate change to the `uarch` model or a kernel
 * profile it prints the literals to paste here.
 */
inline constexpr HostFit kCanonicalHostFit = {
    {PlatformKind::RPi, 0x1.15670aca9a7d1p+30, 0x1.6189028137acfp+29},
    {{0x1.3f2ed1ff2ed2p-2,
      0x1.e848p+0,
      0x1.4585555555555p+4,
      0x1.a005a503aa11p-3,
      0x1.3e51543294541p-4}},
};

/** Raw host-calibration measurements and the fit they give. */
struct HostCalibration
{
    /** Streaming microkernel counters (peak fit). */
    PerfCounters streaming;
    /** Pointer-chasing microkernel counters (bandwidth fit). */
    PerfCounters chasing;
    /** Per-phase characterization counters (intensity fit). */
    std::array<PerfCounters,
               static_cast<std::size_t>(SlamPhase::NumPhases)>
        phases{};
    /** The fit derived from the counters above. */
    HostFit fit;
};

/** One row of the per-platform roofline report. */
struct PhaseRooflineReport
{
    SlamPhase phase = SlamPhase::FeatureExtraction;
    /** Arithmetic intensity (a workload property, host-measured). */
    double intensityOpsPerByte = 0.0;
    /** min(peak, bandwidth x intensity) on this platform. */
    double attainableOpsPerSec = 0.0;
    /** Table 4 calibrated throughput on this platform. */
    double measuredOpsPerSec = 0.0;
    /** True when the bandwidth roof binds. */
    bool memoryBound = false;
    /** attainable / measured: how much roofline headroom is unused. */
    double gap = 0.0;
};

/** The streaming (peak-fit) microkernel profile. */
WorkloadProfile streamingKernelProfile();

/** The pointer-chasing (bandwidth-fit) microkernel profile. */
WorkloadProfile pointerChaseKernelProfile();

/** Per-phase SLAM characterization profile. */
WorkloadProfile phaseKernelProfile(SlamPhase phase);

/**
 * Run the microkernels and fit the host roofline + intensities: the
 * oracle `kCanonicalHostFit` is pinned against (~0.6 s of simulation).
 */
HostCalibration calibrateHost();

/**
 * The roofline model over all four Table 4/5 platforms, built from a
 * host fit.  The default is the pinned canonical fit, and building
 * any model is a constant expression; a freshly calibrated model is
 * `RooflineModel{calibrateHost().fit}`.
 */
class RooflineModel
{
  public:
    constexpr explicit RooflineModel(
        const HostFit &fit = kCanonicalHostFit)
        : fit_(fit)
    {
        for (std::size_t i = 0; i < rooflines_.size(); ++i) {
            rooflines_[i].kind = static_cast<PlatformKind>(i);
            rooflines_[i].peakOpsPerSec =
                fit_.host.peakOpsPerSec * kFactors[i].peak;
            rooflines_[i].bandwidthBytesPerSec =
                fit_.host.bandwidthBytesPerSec * kFactors[i].bandwidth;
        }
    }

    /** Process-wide canonical model (the pinned fit). */
    static const RooflineModel &shared();

    constexpr const HostFit &fit() const { return fit_; }

    /** This platform's fitted roofline. */
    constexpr const RooflineSpec &
    roofline(PlatformKind kind) const
    {
        const auto idx = static_cast<std::size_t>(kind);
        if (idx >= rooflines_.size())
            fatal("RooflineModel::roofline: invalid platform");
        return rooflines_[idx];
    }

    /** Host-measured arithmetic intensity of a phase (ops/byte). */
    constexpr double
    intensity(SlamPhase phase) const
    {
        const auto idx = static_cast<std::size_t>(phase);
        if (idx >= fit_.intensityOpsPerByte.size())
            fatal("RooflineModel::intensity: invalid phase");
        return fit_.intensityOpsPerByte[idx];
    }

    /** min(peak, bandwidth x intensity) for a phase on a platform. */
    constexpr double
    attainable(PlatformKind kind, SlamPhase phase) const
    {
        return roofline(kind).attainable(intensity(phase));
    }

    /** True when the bandwidth roof binds for phase on platform. */
    bool memoryBound(PlatformKind kind, SlamPhase phase) const;

    /**
     * Roofline-capped execution throughput the co-design driver
     * plans with: the Table 4 calibrated phase throughput, clipped
     * from above by the roofline (a platform cannot beat its own
     * memory system no matter what the calibration table says).
     */
    double effectiveThroughput(PlatformKind kind,
                               SlamPhase phase) const;

    /** The full five-row report for one platform. */
    std::vector<PhaseRooflineReport> report(PlatformKind kind) const;

  private:
    /**
     * Peak/bandwidth scale of each platform relative to the host
     * fit.  These are the fitted accelerator rooflines: wide GPU
     * lanes but a shared LPDDR4 bus (TX2), deep pipelines over
     * BRAM-fed datapaths (FPGA), and a Navion-style memory-
     * specialized datapath (ASIC).  The factors are fitted so every
     * platform's roof lies at or above its Table 4 calibrated phase
     * throughput — a roofline is an upper bound, and `report()`
     * gives the gap.
     */
    struct PlatformFactors
    {
        double peak;
        double bandwidth;
    };
    static constexpr std::array<
        PlatformFactors,
        static_cast<std::size_t>(PlatformKind::NumPlatforms)>
        kFactors = {{
            {1.0, 1.0},   // RPi: the calibrated host itself
            {16.0, 9.0},  // TX2
            {60.0, 55.0}, // FPGA
            {50.0, 45.0}, // ASIC
        }};

    HostFit fit_;
    std::array<RooflineSpec,
               static_cast<std::size_t>(PlatformKind::NumPlatforms)>
        rooflines_{};
};

} // namespace dronedse::codesign

#endif // DRONEDSE_CODESIGN_ROOFLINE_HH
