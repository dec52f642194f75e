#include "uarch/core.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace dronedse {

namespace {

/** Publish one workload's counters under `uarch.<workload>.*`. */
void
publishCounters(const char *workload, const PerfCounters &counters)
{
    obs::MetricsRegistry &registry = obs::metrics();
    const std::string prefix = std::string("uarch.") + workload;
    registry.counter(prefix + ".instructions")
        .add(counters.instructions);
    registry.counter(prefix + ".cycles").add(counters.cycles);
    registry.counter(prefix + ".llc_misses").add(counters.llcMisses);
    registry.counter(prefix + ".tlb_misses").add(counters.tlbMisses);
    registry.counter(prefix + ".branch_mispredicts")
        .add(counters.branchMispredicts);
    registry.gauge(prefix + ".ipc").set(counters.ipc());
    registry.gauge(prefix + ".llc_miss_rate")
        .set(counters.llcMissRate());
    registry.gauge(prefix + ".tlb_miss_rate")
        .set(counters.tlbMissRate());
    registry.gauge(prefix + ".branch_miss_rate")
        .set(counters.branchMissRate());
}

} // namespace

void
executeEvent(const TraceEvent &event, CorePlatform &platform,
             PerfCounters &counters)
{
    ++counters.instructions;
    const CoreTiming &t = platform.timing;

    switch (event.kind) {
      case TraceKind::Alu:
        counters.cycles += t.aluCycles;
        break;

      case TraceKind::Load:
      case TraceKind::Store: {
        // Address translation first.
        ++counters.tlbAccesses;
        const bool tlb_hit = platform.tlb.access(event.addr);
        if (!tlb_hit) {
            ++counters.tlbMisses;
            counters.cycles += t.tlbMissCycles;
        }
        ++counters.l1Accesses;
        if (platform.l1.access(event.addr)) {
            counters.cycles += t.l1HitCycles;
            break;
        }
        ++counters.l1Misses;
        ++counters.llcAccesses;
        if (platform.llc.access(event.addr)) {
            counters.cycles += t.llcHitCycles;
        } else {
            ++counters.llcMisses;
            counters.cycles += t.memoryCycles;
        }
        break;
      }

      case TraceKind::Branch: {
        ++counters.branches;
        const bool correct =
            platform.predictor.predictAndTrain(event.pc, event.taken);
        counters.cycles += t.aluCycles;
        if (!correct) {
            ++counters.branchMispredicts;
            counters.cycles += t.branchMispredictCycles;
        }
        break;
      }
    }
}

PerfCounters
runAlone(TraceGenerator &generator, std::uint64_t instructions,
         CorePlatform &platform)
{
    PerfCounters counters;
    for (std::uint64_t i = 0; i < instructions; ++i)
        executeEvent(generator.next(), platform, counters);
    return counters;
}

PerfCounters
runIsolated(const WorkloadProfile &profile,
            std::uint64_t instructions, std::uint64_t seed)
{
    TraceGenerator generator(profile, seed);
    CorePlatform platform;
    return runAlone(generator, instructions, platform);
}

CoScheduleResult
coSchedule(TraceGenerator &first, TraceGenerator &second,
           std::uint64_t instructions_each, std::uint64_t slice,
           CorePlatform &platform)
{
    if (slice == 0)
        fatal("coSchedule: slice must be positive");

    CoScheduleResult result;
    std::uint64_t done_first = 0, done_second = 0;
    while (done_first < instructions_each ||
           done_second < instructions_each) {
        for (std::uint64_t i = 0;
             i < slice && done_first < instructions_each;
             ++i, ++done_first) {
            executeEvent(first.next(), platform, result.first);
        }
        for (std::uint64_t i = 0;
             i < slice && done_second < instructions_each;
             ++i, ++done_second) {
            executeEvent(second.next(), platform, result.second);
        }
    }

    // The Figure 15 quantities (miss rates of co-scheduled
    // workloads) go through the registry so an experiment reads one
    // metrics snapshot instead of the bespoke PerfCounters structs.
    static obs::Counter &runs =
        obs::metrics().counter("uarch.coschedule.runs");
    runs.add(1);
    publishCounters("coschedule.first", result.first);
    publishCounters("coschedule.second", result.second);
    return result;
}

} // namespace dronedse
