/**
 * @file
 * Seeded candidate generators over an `ExploreSpace` lattice.
 *
 * Four interchangeable strategies behind one interface:
 *
 *   grid     — exhaustive lexicographic enumeration (last axis
 *              fastest; the expandGrid order when the space came
 *              from a SweepSpec)
 *   uniform  — i.i.d. uniform draws from the seeded `Rng`
 *   lhs      — Latin-hypercube batches: each batch stratifies every
 *              axis into `n` equal slices and places exactly one
 *              sample per slice per axis (one-per-stratum marginals,
 *              property-tested)
 *   sobol    — digitally-shifted Sobol' low-discrepancy sequence
 *              (new-Joe-Kuo direction numbers, up to 10 dimensions);
 *              1-D projections of any 2^k-aligned prefix hit every
 *              dyadic stratum exactly once
 *
 * Every generator is a pure function of (seed, call history): the
 * same seed yields the byte-identical candidate stream on any
 * machine and at any thread count — generators never touch the
 * engine or any clock.  Continuous unit-cube samples map onto
 * lattice indices via `i = min(count-1, floor(u * count))`.
 */

#ifndef DRONEDSE_EXPLORE_SAMPLER_HH
#define DRONEDSE_EXPLORE_SAMPLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "explore/space.hh"
#include "util/enum_names.hh"

namespace dronedse::explore {

/** The candidate-generation strategies. */
enum class SamplerKind
{
    Grid,
    UniformRandom,
    LatinHypercube,
    Sobol,
};

/** Wire/CLI spellings (util/enum_names.hh). */
constexpr std::array<EnumName<SamplerKind>, 4>
wireNames(SamplerKind)
{
    return {{{SamplerKind::Grid, "grid"},
             {SamplerKind::UniformRandom, "uniform"},
             {SamplerKind::LatinHypercube, "lhs"},
             {SamplerKind::Sobol, "sobol"}}};
}

/** Wire/CLI spelling of `kind`. */
const char *samplerKindName(SamplerKind kind);

/** Inverse of `samplerKindName`; returns false on unknown input. */
bool parseSamplerKind(const std::string &name, SamplerKind &out);

/** Largest axis count the Sobol' direction-number table covers. */
inline constexpr std::size_t kMaxSobolDimensions = 10;

/**
 * One candidate stream.  `nextBatch` returns up to `n` index
 * vectors over `space` (fewer only when an exhaustive generator
 * runs dry).  Successive calls continue the same stream; the space
 * passed to every call of one generator must have the same axis
 * arity (fatal otherwise).  Candidates may repeat across calls for
 * the stochastic strategies — deduplication is the driver's job.
 */
class CandidateGenerator
{
  public:
    virtual ~CandidateGenerator() = default;

    virtual std::vector<std::vector<std::size_t>>
    nextBatch(const ExploreSpace &space, std::size_t n) = 0;

    virtual SamplerKind kind() const = 0;
};

/** Construct a generator of the given strategy and seed. */
std::unique_ptr<CandidateGenerator> makeGenerator(SamplerKind kind,
                                                  std::uint64_t seed);

} // namespace dronedse::explore

#endif // DRONEDSE_EXPLORE_SAMPLER_HH
