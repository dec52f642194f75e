#include "codesign/roofline.hh"

#include <algorithm>
#include <cstdint>

#include "util/logging.hh"

namespace dronedse::codesign {

namespace {

constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(SlamPhase::NumPhases);

/** DRAM transfer granularity: one LLC line. */
constexpr double kLineBytes = 64.0;

/** Events per microkernel / phase characterization run. */
constexpr std::uint64_t kCalibrationEvents = 1000000;

/** Trace seed; phase i characterizes at kCalibrationSeed + 1 + i. */
constexpr std::uint64_t kCalibrationSeed = 17;

/** Host core clock the cycle counts are converted with (Hz). */
constexpr double kHostClockHz = 1.5e9;

/** Arithmetic intensity from one characterization run. */
double
fitIntensity(const PerfCounters &counters)
{
    const double dram_bytes = std::max(
        1.0, static_cast<double>(counters.llcMisses) * kLineBytes);
    return static_cast<double>(counters.instructions) / dram_bytes;
}

} // namespace

WorkloadProfile
streamingKernelProfile()
{
    WorkloadProfile p;
    p.name = "roofline.streaming";
    // L1-resident stream: every access hits, so cycles/instruction
    // measures the core's issue behaviour, not the memory system.
    p.footprintBytes = 16 * 1024;
    p.sequentialFraction = 1.0;
    p.hotRegionBytes = 16 * 1024;
    p.hotFraction = 1.0;
    p.memoryFraction = 0.25;
    p.branchFraction = 0.05;
    p.loopBranchFraction = 0.99;
    p.loopBodyLength = 64;
    p.addressBase = 0x70000000;
    p.branchSites = 8;
    return p;
}

WorkloadProfile
pointerChaseKernelProfile()
{
    WorkloadProfile p;
    p.name = "roofline.chase";
    // Cold gathers over a footprint that dwarfs the LLC: nearly
    // every load misses to DRAM, so lines/cycle measures sustainable
    // bandwidth.
    p.footprintBytes = 64ULL * 1024 * 1024;
    p.sequentialFraction = 0.0;
    p.hotRegionBytes = 64ULL * 1024 * 1024;
    p.hotFraction = 0.0;
    p.memoryFraction = 0.6;
    p.branchFraction = 0.05;
    p.loopBranchFraction = 0.95;
    p.loopBodyLength = 16;
    p.addressBase = 0x80000000;
    p.branchSites = 16;
    return p;
}

WorkloadProfile
phaseKernelProfile(SlamPhase phase)
{
    WorkloadProfile p;
    switch (phase) {
      case SlamPhase::FeatureExtraction:
        // Image pyramid streaming: sequential over a buffer larger
        // than the LLC, light reuse.
        p.name = "roofline.feature";
        p.footprintBytes = 4ULL * 1024 * 1024;
        p.sequentialFraction = 0.95;
        p.hotRegionBytes = 256 * 1024;
        p.hotFraction = 0.5;
        p.memoryFraction = 0.35;
        p.branchFraction = 0.12;
        p.loopBranchFraction = 0.95;
        p.loopBodyLength = 32;
        p.addressBase = 0x20000000;
        p.branchSites = 64;
        return p;

      case SlamPhase::Matching:
        // Descriptor popcount loops: heavy compute per byte, the
        // candidate descriptors LLC-resident after first touch.
        p.name = "roofline.matching";
        p.footprintBytes = 512 * 1024;
        p.sequentialFraction = 0.5;
        p.hotRegionBytes = 192 * 1024;
        p.hotFraction = 0.95;
        p.memoryFraction = 0.3;
        p.branchFraction = 0.2;
        p.loopBranchFraction = 0.85;
        p.loopBodyLength = 12;
        p.addressBase = 0x28000000;
        p.branchSites = 128;
        return p;

      case SlamPhase::Tracking:
        // PnP on the current frame: a small, cache-resident state.
        p.name = "roofline.tracking";
        p.footprintBytes = 48 * 1024;
        p.sequentialFraction = 0.8;
        p.hotRegionBytes = 48 * 1024;
        p.hotFraction = 1.0;
        p.memoryFraction = 0.25;
        p.branchFraction = 0.15;
        p.loopBranchFraction = 0.9;
        p.loopBodyLength = 24;
        p.addressBase = 0x30000000;
        p.branchSites = 64;
        return p;

      case SlamPhase::LocalBa:
        // Local-map gathers: hot covisibility window plus cold map
        // spills.
        p.name = "roofline.local_ba";
        p.footprintBytes = 8ULL * 1024 * 1024;
        p.sequentialFraction = 0.3;
        p.hotRegionBytes = 512 * 1024;
        p.hotFraction = 0.8;
        p.memoryFraction = 0.45;
        p.branchFraction = 0.18;
        p.loopBranchFraction = 0.7;
        p.loopBodyLength = 10;
        p.addressBase = 0x38000000;
        p.branchSites = 512;
        return p;

      case SlamPhase::GlobalBa:
        // Whole-map traversal: the coldest, most gather-heavy phase.
        p.name = "roofline.global_ba";
        p.footprintBytes = 24ULL * 1024 * 1024;
        p.sequentialFraction = 0.2;
        p.hotRegionBytes = 512 * 1024;
        p.hotFraction = 0.6;
        p.memoryFraction = 0.5;
        p.branchFraction = 0.18;
        p.loopBranchFraction = 0.7;
        p.loopBodyLength = 10;
        p.addressBase = 0x48000000;
        p.branchSites = 512;
        return p;

      case SlamPhase::NumPhases:
        break;
    }
    panic("phaseKernelProfile: invalid phase");
}

HostCalibration
calibrateHost()
{
    HostCalibration cal;
    cal.streaming = runIsolated(streamingKernelProfile(),
                                kCalibrationEvents, kCalibrationSeed);
    cal.chasing = runIsolated(pointerChaseKernelProfile(),
                              kCalibrationEvents, kCalibrationSeed);

    // Peak: instructions/cycle with the memory system out of the
    // picture, at the host clock.
    HostFit &fit = cal.fit;
    fit.host.kind = PlatformKind::RPi;
    fit.host.peakOpsPerSec = cal.streaming.ipc() * kHostClockHz;

    // Bandwidth: DRAM lines fetched per cycle, at the host clock.
    const double chase_seconds =
        static_cast<double>(cal.chasing.cycles) / kHostClockHz;
    fit.host.bandwidthBytesPerSec =
        static_cast<double>(cal.chasing.llcMisses) * kLineBytes /
        chase_seconds;

    for (std::size_t i = 0; i < kNumPhases; ++i) {
        const auto phase = static_cast<SlamPhase>(i);
        cal.phases[i] = runIsolated(phaseKernelProfile(phase),
                                    kCalibrationEvents,
                                    kCalibrationSeed + 1 + i);
        fit.intensityOpsPerByte[i] = fitIntensity(cal.phases[i]);
    }
    return cal;
}

const RooflineModel &
RooflineModel::shared()
{
    static constexpr RooflineModel model{};
    return model;
}

bool
RooflineModel::memoryBound(PlatformKind kind, SlamPhase phase) const
{
    const RooflineSpec &roof = roofline(kind);
    return roof.bandwidthBytesPerSec * intensity(phase) <
           roof.peakOpsPerSec;
}

double
RooflineModel::effectiveThroughput(PlatformKind kind,
                                   SlamPhase phase) const
{
    const double measured =
        platformSpec(kind)
            .phaseThroughput[static_cast<std::size_t>(phase)];
    return std::min(measured, attainable(kind, phase));
}

std::vector<PhaseRooflineReport>
RooflineModel::report(PlatformKind kind) const
{
    std::vector<PhaseRooflineReport> rows;
    rows.reserve(kNumPhases);
    const PlatformSpec &spec = platformSpec(kind);
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        PhaseRooflineReport row;
        row.phase = static_cast<SlamPhase>(i);
        row.intensityOpsPerByte = fit_.intensityOpsPerByte[i];
        row.attainableOpsPerSec =
            attainable(kind, row.phase);
        row.measuredOpsPerSec = spec.phaseThroughput[i];
        row.memoryBound = memoryBound(kind, row.phase);
        row.gap = row.measuredOpsPerSec > 0.0
                      ? row.attainableOpsPerSec / row.measuredOpsPerSec
                      : 0.0;
        rows.push_back(row);
    }
    return rows;
}

} // namespace dronedse::codesign
