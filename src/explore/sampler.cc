#include "explore/sampler.hh"

#include <array>
#include <bit>

#include "util/logging.hh"
#include "util/rng.hh"

namespace dronedse::explore {

const char *
samplerKindName(SamplerKind kind)
{
    return enumName(kind);
}

bool
parseSamplerKind(const std::string &name, SamplerKind &out)
{
    return parseEnum(name, out);
}

namespace {

/** SplitMix64 step — the seed expander `Rng` itself uses. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
axisSizes(const ExploreSpace &space)
{
    std::vector<std::size_t> sizes;
    sizes.reserve(space.axes.size());
    for (const AxisSpec &axis : space.axes)
        sizes.push_back(axis.size());
    return sizes;
}

/** Unit-cube coordinate -> lattice index. */
std::size_t
indexFromUnit(double u, std::size_t count)
{
    const auto i =
        static_cast<std::size_t>(u * static_cast<double>(count));
    return i >= count ? count - 1 : i;
}

/** Shared arity bookkeeping: a generator serves one space shape. */
class SpaceShapeCheck
{
  public:
    void check(const ExploreSpace &space)
    {
        if (dims_ == 0) {
            dims_ = space.axes.size();
            if (dims_ == 0)
                fatal("CandidateGenerator: space has no axes");
            return;
        }
        if (dims_ != space.axes.size())
            fatal("CandidateGenerator: axis arity changed between "
                  "nextBatch calls");
    }

    std::size_t dims() const { return dims_; }

  private:
    std::size_t dims_ = 0;
};

class GridGenerator final : public CandidateGenerator
{
  public:
    std::vector<std::vector<std::size_t>>
    nextBatch(const ExploreSpace &space, std::size_t n) override
    {
        shape_.check(space);
        if (cursor_.empty() && !exhausted_)
            cursor_.assign(space.axes.size(), 0);
        const std::vector<std::size_t> sizes = axisSizes(space);
        std::vector<std::vector<std::size_t>> out;
        while (!exhausted_ && out.size() < n) {
            out.push_back(cursor_);
            // Lexicographic increment, last axis fastest.
            std::size_t d = cursor_.size();
            while (d > 0) {
                --d;
                if (++cursor_[d] < sizes[d])
                    break;
                cursor_[d] = 0;
                if (d == 0)
                    exhausted_ = true;
            }
        }
        return out;
    }

    SamplerKind kind() const override { return SamplerKind::Grid; }

  private:
    SpaceShapeCheck shape_;
    std::vector<std::size_t> cursor_;
    bool exhausted_ = false;
};

class UniformGenerator final : public CandidateGenerator
{
  public:
    explicit UniformGenerator(std::uint64_t seed) : rng_(seed) {}

    std::vector<std::vector<std::size_t>>
    nextBatch(const ExploreSpace &space, std::size_t n) override
    {
        shape_.check(space);
        const std::vector<std::size_t> sizes = axisSizes(space);
        std::vector<std::vector<std::size_t>> out(n);
        for (std::size_t i = 0; i < n; ++i) {
            out[i].resize(sizes.size());
            for (std::size_t d = 0; d < sizes.size(); ++d)
                out[i][d] = indexFromUnit(rng_.uniform(), sizes[d]);
        }
        return out;
    }

    SamplerKind kind() const override
    {
        return SamplerKind::UniformRandom;
    }

  private:
    SpaceShapeCheck shape_;
    Rng rng_;
};

class LatinHypercubeGenerator final : public CandidateGenerator
{
  public:
    explicit LatinHypercubeGenerator(std::uint64_t seed) : rng_(seed)
    {
    }

    std::vector<std::vector<std::size_t>>
    nextBatch(const ExploreSpace &space, std::size_t n) override
    {
        shape_.check(space);
        if (n == 0)
            return {};
        const std::vector<std::size_t> sizes = axisSizes(space);
        // Per axis: a random permutation of the n strata, then one
        // uniform offset inside each stratum.  Sample i gets
        // stratum perm[i], so every axis marginal covers each
        // stratum exactly once per batch.
        std::vector<std::vector<double>> unit(
            sizes.size(), std::vector<double>(n));
        std::vector<std::size_t> perm(n);
        for (std::size_t d = 0; d < sizes.size(); ++d) {
            for (std::size_t i = 0; i < n; ++i)
                perm[i] = i;
            for (std::size_t i = n; i > 1; --i) {
                const auto j = static_cast<std::size_t>(
                    rng_.uniformInt(0,
                                    static_cast<std::int64_t>(i) - 1));
                std::swap(perm[i - 1], perm[j]);
            }
            for (std::size_t i = 0; i < n; ++i) {
                unit[d][i] = (static_cast<double>(perm[i]) +
                              rng_.uniform()) /
                             static_cast<double>(n);
            }
        }
        std::vector<std::vector<std::size_t>> out(n);
        for (std::size_t i = 0; i < n; ++i) {
            out[i].resize(sizes.size());
            for (std::size_t d = 0; d < sizes.size(); ++d)
                out[i][d] = indexFromUnit(unit[d][i], sizes[d]);
        }
        return out;
    }

    SamplerKind kind() const override
    {
        return SamplerKind::LatinHypercube;
    }

  private:
    SpaceShapeCheck shape_;
    Rng rng_;
};

/**
 * Primitive polynomial parameters of the first Sobol' dimensions
 * after the van-der-Corput dimension (Joe & Kuo's new-joe-kuo-6
 * table): degree `s`, coefficient bits `a`, and the initial
 * direction values m_1..m_s.
 */
struct SobolPoly
{
    int s;
    std::uint32_t a;
    std::array<std::uint32_t, 5> m;
};

constexpr std::array<SobolPoly, 9> kSobolPolys = {{
    {1, 0, {1, 0, 0, 0, 0}},
    {2, 1, {1, 3, 0, 0, 0}},
    {3, 1, {1, 3, 1, 0, 0}},
    {3, 2, {1, 1, 1, 0, 0}},
    {4, 1, {1, 1, 3, 3, 0}},
    {4, 4, {1, 3, 5, 13, 0}},
    {5, 2, {1, 1, 5, 5, 17}},
    {5, 4, {1, 1, 5, 5, 5}},
    {5, 7, {1, 1, 7, 11, 19}},
}};

constexpr int kSobolBits = 32;

class SobolGenerator final : public CandidateGenerator
{
  public:
    explicit SobolGenerator(std::uint64_t seed) : seed_(seed) {}

    std::vector<std::vector<std::size_t>>
    nextBatch(const ExploreSpace &space, std::size_t n) override
    {
        shape_.check(space);
        init(space.axes.size());
        const std::vector<std::size_t> sizes = axisSizes(space);
        std::vector<std::vector<std::size_t>> out(n);
        constexpr double scale = 1.0 / 4294967296.0; // 2^-32
        for (std::size_t i = 0; i < n; ++i) {
            out[i].resize(sizes.size());
            for (std::size_t d = 0; d < sizes.size(); ++d) {
                const double u =
                    static_cast<double>(cur_[d]) * scale;
                out[i][d] = indexFromUnit(u, sizes[d]);
            }
            // Gray-code advance: flip the direction of the lowest
            // zero bit of the point counter.
            const int bit = std::countr_zero(~index_);
            if (bit >= kSobolBits)
                fatal("SobolGenerator: 2^32-point sequence "
                      "exhausted");
            for (std::size_t d = 0; d < cur_.size(); ++d)
                cur_[d] ^= v_[d][bit];
            ++index_;
        }
        return out;
    }

    SamplerKind kind() const override { return SamplerKind::Sobol; }

  private:
    void init(std::size_t dims)
    {
        if (!v_.empty())
            return;
        if (dims > kMaxSobolDimensions)
            fatal("SobolGenerator: " + std::to_string(dims) +
                  " axes exceeds the direction-number table (" +
                  std::to_string(kMaxSobolDimensions) + ")");
        v_.assign(dims, {});
        for (std::size_t d = 0; d < dims; ++d) {
            auto &v = v_[d];
            if (d == 0) {
                for (int k = 0; k < kSobolBits; ++k)
                    v[k] = 1u << (31 - k);
            } else {
                const SobolPoly &p = kSobolPolys[d - 1];
                std::array<std::uint32_t, kSobolBits> m{};
                for (int k = 0; k < p.s; ++k)
                    m[k] = p.m[k];
                for (int k = p.s; k < kSobolBits; ++k) {
                    m[k] = m[k - p.s] ^ (m[k - p.s] << p.s);
                    for (int i = 1; i < p.s; ++i) {
                        if ((p.a >> (p.s - 1 - i)) & 1u)
                            m[k] ^= m[k - i] << i;
                    }
                }
                for (int k = 0; k < kSobolBits; ++k)
                    v[k] = m[k] << (31 - k);
            }
        }
        // Seeded digital shift: XORing a fixed random word into
        // every point preserves the dyadic (t,m,s)-net structure
        // while decorrelating streams of different seeds.
        cur_.resize(dims);
        std::uint64_t state = seed_;
        for (std::size_t d = 0; d < dims; ++d)
            cur_[d] = static_cast<std::uint32_t>(
                splitmix64(state) >> 32);
        index_ = 0;
    }

    SpaceShapeCheck shape_;
    std::uint64_t seed_;
    std::vector<std::array<std::uint32_t, kSobolBits>> v_;
    std::vector<std::uint32_t> cur_;
    std::uint32_t index_ = 0;
};

} // namespace

std::unique_ptr<CandidateGenerator>
makeGenerator(SamplerKind kind, std::uint64_t seed)
{
    switch (kind) {
    case SamplerKind::Grid:
        return std::make_unique<GridGenerator>();
    case SamplerKind::UniformRandom:
        return std::make_unique<UniformGenerator>(seed);
    case SamplerKind::LatinHypercube:
        return std::make_unique<LatinHypercubeGenerator>(seed);
    case SamplerKind::Sobol:
        return std::make_unique<SobolGenerator>(seed);
    }
    panic("makeGenerator: corrupt kind");
    return nullptr;
}

} // namespace dronedse::explore
