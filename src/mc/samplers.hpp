// Sample-point generators over the standardized mismatch space.
//
// Plain Monte Carlo converges as 1/sqrt(N) regardless of what the paper's
// campaigns measure; stratified (Latin hypercube) and low-discrepancy
// (randomized Halton) designs cut the constant substantially for the
// smooth responses that dominate this library (Idsat, delay, SNM).  Every
// generator produces *standard normal* coordinates so downstream code can
// scale by the Pelgrom sigmas exactly as with iid sampling.
//
// All generators are deterministic functions of (seed, sampleIndex), so
// campaigns remain reproducible and thread-order independent.
#ifndef VSSTAT_MC_SAMPLERS_HPP
#define VSSTAT_MC_SAMPLERS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats/rng.hpp"

namespace vsstat::mc {

/// Abstract generator of standardized-normal sample vectors.
class SampleGenerator {
 public:
  virtual ~SampleGenerator() = default;

  SampleGenerator(const SampleGenerator&) = delete;
  SampleGenerator& operator=(const SampleGenerator&) = delete;

  /// z-vector (length dimension()) for one sample; indices must lie in
  /// [0, samples()).
  [[nodiscard]] virtual std::vector<double> standardNormals(
      std::size_t sampleIndex) const = 0;

  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }

 protected:
  SampleGenerator(std::size_t dim, std::size_t samples);

  void checkIndex(std::size_t sampleIndex) const;

 private:
  std::size_t dim_;
  std::size_t samples_;
};

/// Independent draws -- the baseline the paper's campaigns use.
class IidSampler final : public SampleGenerator {
 public:
  IidSampler(std::size_t dim, std::size_t samples, std::uint64_t seed);

  [[nodiscard]] std::vector<double> standardNormals(
      std::size_t sampleIndex) const override;

 private:
  stats::Rng root_;
};

/// Latin hypercube: every dimension's N values occupy the N probability
/// strata exactly once (random permutation per dimension, jittered within
/// each stratum), mapped through the normal quantile.
class LatinHypercubeSampler final : public SampleGenerator {
 public:
  LatinHypercubeSampler(std::size_t dim, std::size_t samples,
                        std::uint64_t seed);

  [[nodiscard]] std::vector<double> standardNormals(
      std::size_t sampleIndex) const override;

 private:
  std::vector<std::vector<std::uint32_t>> permutations_;  ///< [dim][sample]
  stats::Rng root_;
};

/// Randomized Halton low-discrepancy sequence: dimension d uses the d-th
/// prime as its radical-inverse base, with a Cranley-Patterson rotation
/// (per-dimension uniform shift mod 1) so the estimator stays unbiased and
/// the high-dimension correlations of the raw sequence are broken.
class HaltonSampler final : public SampleGenerator {
 public:
  /// Supports up to 64 dimensions (the first 64 primes).
  HaltonSampler(std::size_t dim, std::size_t samples, std::uint64_t seed);

  [[nodiscard]] std::vector<double> standardNormals(
      std::size_t sampleIndex) const override;

  /// Radical inverse of `index` in the given base (exposed for tests).
  [[nodiscard]] static double radicalInverse(std::uint64_t index,
                                             std::uint32_t base);

 private:
  std::vector<std::uint32_t> bases_;
  std::vector<double> shifts_;
};

/// Randomized Sobol low-discrepancy sequence (Joe-Kuo direction numbers,
/// Gray-code point construction), with the same Cranley-Patterson rotation
/// as HaltonSampler.  Better high-dimension equidistribution than Halton
/// for the 30-dimensional mismatch spaces of the SRAM yield flow.
class SobolSampler final : public SampleGenerator {
 public:
  /// Supports up to 32 dimensions (embedded direction-number table).
  SobolSampler(std::size_t dim, std::size_t samples, std::uint64_t seed);

  [[nodiscard]] std::vector<double> standardNormals(
      std::size_t sampleIndex) const override;

  /// Raw [0,1) coordinate of (sampleIndex, dimension) before the rotation
  /// (exposed for tests: equidistribution checks).
  [[nodiscard]] double coordinate(std::size_t sampleIndex,
                                  std::size_t dimension) const;

 private:
  std::vector<std::uint32_t> directions_;  ///< [dim * kSobolBits] v_k
  std::vector<double> shifts_;
};

/// First-class campaign sampling plan: which generator realizes the
/// standardized mismatch space of a circuit campaign.  `providerRng`
/// (default) keeps the historical behavior -- the DeviceProvider draws
/// from the sample's decorrelated child RNG.  Generator schemes require
/// the campaign's providers to accept externally-supplied z-vectors
/// (circuits::FixedZProvider) and make the variance-reduction designs of
/// this header a mc::runCampaign mode instead of an examples-only loop.
struct SamplingPlan {
  enum class Scheme : std::uint8_t { providerRng, iid, lhs, halton, sobol };
  Scheme scheme = Scheme::providerRng;
  /// Standardized-space dimensionality (entries consumed per sample);
  /// required for generator schemes.
  std::size_t dimension = 0;
  /// Generator seed; 0 derives one from the campaign seed.
  std::uint64_t seed = 0;
};

/// Parses a CLI scheme name ("iid", "lhs", "halton", "sobol", "rng");
/// throws InvalidArgumentError on anything else.
[[nodiscard]] SamplingPlan::Scheme parseScheme(const std::string& name);

/// Instantiates the plan's generator for a campaign of `samples` samples,
/// or nullptr for Scheme::providerRng.  A zero plan seed falls back to
/// `fallbackSeed` (the campaign seed), keeping runs reproducible.
[[nodiscard]] std::unique_ptr<SampleGenerator> makeSampleGenerator(
    const SamplingPlan& plan, std::size_t samples, std::uint64_t fallbackSeed);

}  // namespace vsstat::mc

#endif  // VSSTAT_MC_SAMPLERS_HPP
