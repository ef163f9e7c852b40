#include "mc/samplers.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "stats/qq.hpp"
#include "util/error.hpp"

namespace vsstat::mc {

SampleGenerator::SampleGenerator(std::size_t dim, std::size_t samples)
    : dim_(dim), samples_(samples) {
  require(dim_ > 0, "SampleGenerator: dimension must be positive");
  require(samples_ > 0, "SampleGenerator: sample count must be positive");
}

void SampleGenerator::checkIndex(std::size_t sampleIndex) const {
  require(sampleIndex < samples_,
          "SampleGenerator: sample index out of range");
}

// --- iid -----------------------------------------------------------------------

IidSampler::IidSampler(std::size_t dim, std::size_t samples,
                       std::uint64_t seed)
    : SampleGenerator(dim, samples), root_(seed) {}

std::vector<double> IidSampler::standardNormals(
    std::size_t sampleIndex) const {
  checkIndex(sampleIndex);
  stats::Rng rng = root_.fork(sampleIndex);
  std::vector<double> z(dimension());
  for (double& v : z) v = rng.normal();
  return z;
}

// --- Latin hypercube ---------------------------------------------------------

LatinHypercubeSampler::LatinHypercubeSampler(std::size_t dim,
                                             std::size_t samples,
                                             std::uint64_t seed)
    : SampleGenerator(dim, samples), root_(seed) {
  permutations_.resize(dim);
  stats::Rng rng(seed);
  for (std::size_t d = 0; d < dim; ++d) {
    auto& perm = permutations_[d];
    perm.resize(samples);
    for (std::size_t i = 0; i < samples; ++i)
      perm[i] = static_cast<std::uint32_t>(i);
    // Fisher-Yates with the library RNG.
    for (std::size_t i = samples; i-- > 1;) {
      const std::size_t j = static_cast<std::size_t>(rng.below(i + 1));
      std::swap(perm[i], perm[j]);
    }
  }
}

std::vector<double> LatinHypercubeSampler::standardNormals(
    std::size_t sampleIndex) const {
  checkIndex(sampleIndex);
  // Per-sample jitter stream, independent of the permutation stream.
  stats::Rng jitter = root_.fork(0x10C5 + sampleIndex);
  const double n = static_cast<double>(samples());
  std::vector<double> z(dimension());
  for (std::size_t d = 0; d < dimension(); ++d) {
    const double stratum = permutations_[d][sampleIndex];
    const double u = (stratum + jitter.uniform()) / n;
    z[d] = stats::normalQuantile(u);
  }
  return z;
}

// --- randomized Halton ---------------------------------------------------------

namespace {

constexpr std::array<std::uint32_t, 64> kPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,
    43,  47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101,
    103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
    173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
    241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311};

}  // namespace

HaltonSampler::HaltonSampler(std::size_t dim, std::size_t samples,
                             std::uint64_t seed)
    : SampleGenerator(dim, samples) {
  require(dim <= kPrimes.size(),
          "HaltonSampler: supports at most 64 dimensions");
  bases_.assign(kPrimes.begin(),
                kPrimes.begin() + static_cast<std::ptrdiff_t>(dim));
  shifts_.resize(dim);
  stats::Rng rng(seed);
  for (double& s : shifts_) s = rng.uniform();
}

double HaltonSampler::radicalInverse(std::uint64_t index,
                                     std::uint32_t base) {
  double result = 0.0;
  double digitWeight = 1.0 / base;
  while (index > 0) {
    result += static_cast<double>(index % base) * digitWeight;
    index /= base;
    digitWeight /= base;
  }
  return result;
}

std::vector<double> HaltonSampler::standardNormals(
    std::size_t sampleIndex) const {
  checkIndex(sampleIndex);
  std::vector<double> z(dimension());
  for (std::size_t d = 0; d < dimension(); ++d) {
    // Skip index 0 (the all-zeros point) and apply the rotation.
    double u = radicalInverse(sampleIndex + 1, bases_[d]) + shifts_[d];
    u -= std::floor(u);
    // Clamp away from {0,1} so the quantile stays finite.
    u = std::min(std::max(u, 1e-12), 1.0 - 1e-12);
    z[d] = stats::normalQuantile(u);
  }
  return z;
}

// --- randomized Sobol ----------------------------------------------------------

namespace {

constexpr std::size_t kSobolBits = 32;

/// Primitive polynomial over GF(2) for one Sobol dimension: degree `s`,
/// interior coefficients encoded in `a` (bit s-1-j holds the coefficient of
/// x^(s-j)), and the first `s` initial direction values m_k (0 = "choose a
/// deterministic random odd value" -- used for the degree-7 dimensions,
/// where only the polynomial, not the tuned initialization, is pinned
/// down; every admissible odd m_k < 2^(k+1) yields a valid digital net,
/// and the Cranley-Patterson rotation keeps the estimator unbiased).
struct SobolPoly {
  std::uint32_t s;
  std::uint32_t a;
  std::array<std::uint32_t, 7> m;
};

/// Dimensions 2..32 (dimension 1 is the van der Corput sequence).  The
/// polynomial list is the canonical primitive-polynomial ordering; the
/// degree <= 6 initializations are the standard Joe-Kuo values.
constexpr std::array<SobolPoly, 31> kSobolPolys = {{
    {1, 0, {1, 0, 0, 0, 0, 0, 0}},
    {2, 1, {1, 3, 0, 0, 0, 0, 0}},
    {3, 1, {1, 3, 1, 0, 0, 0, 0}},
    {3, 2, {1, 1, 1, 0, 0, 0, 0}},
    {4, 1, {1, 1, 3, 3, 0, 0, 0}},
    {4, 4, {1, 3, 5, 13, 0, 0, 0}},
    {5, 2, {1, 1, 5, 5, 17, 0, 0}},
    {5, 4, {1, 1, 5, 5, 5, 0, 0}},
    {5, 7, {1, 1, 7, 11, 19, 0, 0}},
    {5, 11, {1, 1, 5, 1, 1, 0, 0}},
    {5, 13, {1, 1, 1, 3, 11, 0, 0}},
    {5, 14, {1, 3, 5, 5, 31, 0, 0}},
    {6, 1, {1, 3, 3, 9, 7, 49, 0}},
    {6, 13, {1, 1, 1, 15, 21, 21, 0}},
    {6, 16, {1, 3, 1, 13, 27, 49, 0}},
    {6, 19, {1, 1, 1, 15, 7, 5, 0}},
    {6, 22, {1, 3, 1, 15, 13, 25, 0}},
    {6, 25, {1, 1, 5, 5, 19, 61, 0}},
    {7, 1, {0, 0, 0, 0, 0, 0, 0}},
    {7, 4, {0, 0, 0, 0, 0, 0, 0}},
    {7, 7, {0, 0, 0, 0, 0, 0, 0}},
    {7, 8, {0, 0, 0, 0, 0, 0, 0}},
    {7, 14, {0, 0, 0, 0, 0, 0, 0}},
    {7, 19, {0, 0, 0, 0, 0, 0, 0}},
    {7, 21, {0, 0, 0, 0, 0, 0, 0}},
    {7, 28, {0, 0, 0, 0, 0, 0, 0}},
    {7, 31, {0, 0, 0, 0, 0, 0, 0}},
    {7, 32, {0, 0, 0, 0, 0, 0, 0}},
    {7, 37, {0, 0, 0, 0, 0, 0, 0}},
    {7, 41, {0, 0, 0, 0, 0, 0, 0}},
    {7, 42, {0, 0, 0, 0, 0, 0, 0}},
}};

}  // namespace

SobolSampler::SobolSampler(std::size_t dim, std::size_t samples,
                           std::uint64_t seed)
    : SampleGenerator(dim, samples) {
  require(dim <= kSobolPolys.size() + 1,
          "SobolSampler: supports at most 32 dimensions");
  directions_.assign(dim * kSobolBits, 0);
  // Dimension 1: van der Corput, v_k = 2^(31-k).
  for (std::size_t k = 0; k < kSobolBits; ++k)
    directions_[k] = 1u << (31 - k);
  // The degree-7 initial values are drawn from a FIXED internal stream
  // (independent of `seed`): every SobolSampler shares one point set, and
  // the caller's seed only randomizes the rotation below.
  stats::Rng init(0x50B01u);
  for (std::size_t d = 1; d < dim; ++d) {
    const SobolPoly& poly = kSobolPolys[d - 1];
    std::array<std::uint32_t, kSobolBits> m{};
    for (std::uint32_t k = 0; k < poly.s; ++k) {
      std::uint32_t mk = poly.m[k];
      if (mk == 0)
        mk = 2u * static_cast<std::uint32_t>(init.below(1u << k)) + 1u;
      // Admissibility: m_k odd and below 2^(k+1) (leading-bit property).
      require((mk & 1u) == 1u && mk < (1u << (k + 1)),
              "SobolSampler: inadmissible direction initialization");
      m[k] = mk;
    }
    for (std::uint32_t k = poly.s; k < kSobolBits; ++k) {
      std::uint32_t v = m[k - poly.s] ^ (m[k - poly.s] << poly.s);
      for (std::uint32_t j = 1; j < poly.s; ++j)
        if ((poly.a >> (poly.s - 1 - j)) & 1u) v ^= m[k - j] << j;
      m[k] = v;
    }
    for (std::size_t k = 0; k < kSobolBits; ++k)
      directions_[d * kSobolBits + k] = m[k] << (31 - k);
  }
  shifts_.resize(dim);
  stats::Rng rng(seed);
  for (double& s : shifts_) s = rng.uniform();
}

double SobolSampler::coordinate(std::size_t sampleIndex,
                                std::size_t dimension) const {
  // Gray-code form of the XOR construction: point n is the XOR of the
  // direction numbers selected by the set bits of gray(n), which gives
  // random access (no sequential state) at the same cost.
  const std::uint64_t gray = sampleIndex ^ (sampleIndex >> 1);
  std::uint32_t x = 0;
  const std::uint32_t* v = directions_.data() + dimension * kSobolBits;
  for (std::size_t k = 0; k < kSobolBits && (gray >> k) != 0; ++k)
    if ((gray >> k) & 1u) x ^= v[k];
  return static_cast<double>(x) * 0x1p-32;
}

std::vector<double> SobolSampler::standardNormals(
    std::size_t sampleIndex) const {
  checkIndex(sampleIndex);
  std::vector<double> z(dimension());
  for (std::size_t d = 0; d < dimension(); ++d) {
    double u = coordinate(sampleIndex, d) + shifts_[d];
    u -= std::floor(u);
    u = std::min(std::max(u, 1e-12), 1.0 - 1e-12);
    z[d] = stats::normalQuantile(u);
  }
  return z;
}

// --- sampling plans ------------------------------------------------------------

SamplingPlan::Scheme parseScheme(const std::string& name) {
  if (name == "rng" || name == "providerRng")
    return SamplingPlan::Scheme::providerRng;
  if (name == "iid") return SamplingPlan::Scheme::iid;
  if (name == "lhs") return SamplingPlan::Scheme::lhs;
  if (name == "halton") return SamplingPlan::Scheme::halton;
  if (name == "sobol") return SamplingPlan::Scheme::sobol;
  throw InvalidArgumentError("SamplingPlan: unknown scheme '" + name +
                             "' (expected rng|iid|lhs|halton|sobol)");
}

std::unique_ptr<SampleGenerator> makeSampleGenerator(
    const SamplingPlan& plan, std::size_t samples,
    std::uint64_t fallbackSeed) {
  if (plan.scheme == SamplingPlan::Scheme::providerRng) return nullptr;
  require(plan.dimension > 0,
          "SamplingPlan: generator schemes need an explicit dimension");
  const std::uint64_t seed = plan.seed != 0 ? plan.seed : fallbackSeed;
  switch (plan.scheme) {
    case SamplingPlan::Scheme::iid:
      return std::make_unique<IidSampler>(plan.dimension, samples, seed);
    case SamplingPlan::Scheme::lhs:
      return std::make_unique<LatinHypercubeSampler>(plan.dimension, samples,
                                                     seed);
    case SamplingPlan::Scheme::halton:
      return std::make_unique<HaltonSampler>(plan.dimension, samples, seed);
    case SamplingPlan::Scheme::sobol:
      return std::make_unique<SobolSampler>(plan.dimension, samples, seed);
    case SamplingPlan::Scheme::providerRng: break;
  }
  return nullptr;
}

}  // namespace vsstat::mc
