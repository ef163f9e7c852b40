// Mean-shift importance sampling for rare failure events.
//
// SRAM cells fail at the far tail of the SNM distribution (paper Fig. 9
// territory): brute-force Monte Carlo needs ~100/P samples to see a
// failure probability P, which is hopeless at 5-sigma.  Mean-shift IS
// samples the standardized parameter space around a point near the
// failure boundary and reweights by the Gaussian likelihood ratio
// w(z) = exp(-shift.z + |shift|^2/2), giving an unbiased estimate with
// orders-of-magnitude variance reduction.
#ifndef VSSTAT_YIELD_IMPORTANCE_HPP
#define VSSTAT_YIELD_IMPORTANCE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "stats/rng.hpp"

namespace vsstat::mc {
class SampleGenerator;
}

namespace vsstat::yield {

/// Failure indicator over the standardized Gaussian space: z has one entry
/// per statistical parameter; returns true when the sample FAILS.
///
/// importanceSample/bruteForceProbability evaluate the indicator as the
/// samples of an mc::runCampaign, so it must be safe to call concurrently
/// (circuit-backed indicators should lease per-worker fixtures from a
/// sim::SessionPool; see examples/sram_yield.cpp).
using FailureIndicator = std::function<bool(const std::vector<double>& z)>;

struct ImportanceOptions {
  int samples = 2000;
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< 0 == hardware concurrency
  /// Optional standardized-normal generator for the base draws (mc::
  /// samplers -- LHS/Halton/Sobol variance reduction COMPOSED with the
  /// mean shift: z = shift + generator point).  Must be sized for
  /// >= samples points of the shift's dimension; not owned, must outlive
  /// the call.  nullptr keeps the iid child-stream draws.
  const mc::SampleGenerator* generator = nullptr;
};

struct ImportanceResult {
  double probability = 0.0;     ///< unbiased failure-probability estimate
  double relStdError = 0.0;     ///< sigma(P_hat)/P_hat from sample variance
  double effectiveSamples = 0;  ///< (sum w)^2 / sum w^2 over failing draws
  int failingDraws = 0;         ///< raw count of indicator hits
};

/// Mean-shift importance sampling: draws z ~ N(shift, I) and averages
/// 1_fail(z) * w(z).  The shift should sit at (or slightly inside) the
/// failure boundary; see findFailureShift().
///
/// The draws are the samples of an mc::runCampaign: each draws from its
/// own child RNG stream derived from (seed, sample index), and the weight
/// reduction runs serially in index order afterwards, so results are
/// bit-identical regardless of thread count.  An indicator that throws a
/// SampleFailure aborts the call: the lowest-indexed failure is rethrown
/// as a SampleFailure of its class.
[[nodiscard]] ImportanceResult importanceSample(
    const FailureIndicator& fails, const std::vector<double>& shift,
    const ImportanceOptions& options = {});

/// Plain Monte Carlo baseline over the same space (shift = 0, weights 1).
[[nodiscard]] ImportanceResult bruteForceProbability(
    const FailureIndicator& fails, std::size_t dim,
    const ImportanceOptions& options = {});

/// Finds a mean-shift vector for importanceSample(): scans a direction set
/// (coordinate axes, both signs, plus the caller's extra directions),
/// bisects each direction for the failure-boundary radius (to 0.05 sigma,
/// within 8 sigma), and returns 0.9 * radius * direction for the closest
/// boundary -- an approximation of the most-probable failure point, placed
/// slightly inside the failure region.  Throws ConvergenceError when no
/// direction fails within 8 sigma.
[[nodiscard]] std::vector<double> findFailureShift(
    const FailureIndicator& fails, std::size_t dim,
    const std::vector<std::vector<double>>& extraDirections = {});

}  // namespace vsstat::yield

#endif  // VSSTAT_YIELD_IMPORTANCE_HPP
