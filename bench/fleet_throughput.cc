/**
 * @file
 * Fleet-engine throughput gate: one run of the full composed
 * scenario catalog (11 singles + every cleanly-composing ordered
 * pair) x 64 drones at 8 threads.
 *
 * Prints missions/s and exits nonzero below 1000 missions/s —
 * roughly the 25 ms/mission full-stack harness times 25, which is
 * what makes million-mission risk studies tractable.  The batched
 * stepper reads each scenario's fault timeline compiled into
 * constant segments, one snapshot per lane-tick (DESIGN.md §11), and
 * runs well over an order of magnitude above the gate, so the gate
 * only catches a gross regression.  The repeated, per-thread-count
 * timings that resolve smaller ones are perfbench's
 * `fleet.missions_per_s_1t` and `_2t`; ECDF identity across thread
 * counts is `FleetDeterminism.ByteIdenticalAcrossJobs128`, and the
 * whole catalog's bytes are pinned by
 * `FleetDeterminism.ComposedCatalogPinnedAtSeed17` (DESIGN.md §16).
 *
 * Usage: fleet_throughput
 */

#include <chrono>
#include <cstdio>

#include "fleet/fleet.hh"

using namespace dronedse;
using namespace dronedse::fleet;

int
main()
{
    ComposedCatalog catalog = composedCatalog();
    FleetSpec spec;
    spec.mission = findMission("survey");
    spec.scenarios = std::move(catalog.scenarios);
    spec.dronesPerScenario = 64;
    const std::size_t missions =
        spec.scenarios.size() * spec.dronesPerScenario;

    const auto start = std::chrono::steady_clock::now();
    runFleet(spec, 8);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const double mps = static_cast<double>(missions) / seconds;

    const bool gate = mps >= 1000.0;
    std::printf("fleet: %zu composed scenarios x %zu drones = %zu "
                "missions at 8 threads in %.3f s: %.0f missions/s "
                "(gate >= 1000: %s)\n",
                spec.scenarios.size(), spec.dronesPerScenario,
                missions, seconds, mps, gate ? "PASS" : "FAIL");
    return gate ? 0 : 1;
}
