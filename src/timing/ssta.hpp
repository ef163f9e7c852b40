// Statistical static timing analysis on first-order canonical delays.
//
// The paper's Fig. 7 discussion cites ref [14]: when delay distributions
// go non-Gaussian at low Vdd, "the application of statistical static
// timing analysis becomes more difficult".  This module supplies the SSTA
// machinery that discussion presumes, in its standard first-order
// (Gaussian, canonical) form:
//
//   D = mean + sum_k global_k * X_k + local * R
//
// with X_k shared unit Gaussians (die-level sources, e.g. the corner
// axes) and R an independent unit Gaussian per stage.  Series composition
// adds means and global coefficients and RSS-combines local terms;
// arrival-time max uses Clark's moment matching with the usual
// tightness-weighted coefficient propagation.
#ifndef VSSTAT_TIMING_SSTA_HPP
#define VSSTAT_TIMING_SSTA_HPP

#include <vector>

namespace vsstat::timing {

/// First-order canonical delay/arrival-time form.
struct CanonicalDelay {
  double mean = 0.0;
  std::vector<double> global;  ///< coefficients on shared unit Gaussians
  double local = 0.0;          ///< independent sigma (RSS-combined)

  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double sigma() const noexcept;
  /// mean + n * sigma
  [[nodiscard]] double quantileSigma(double n) const noexcept;
};

/// Series composition (a stage after an arrival): means and global
/// coefficients add, local parts RSS.  Global vectors must have equal
/// length (use zero-padding helpers when mixing sources).
[[nodiscard]] CanonicalDelay addSeries(const CanonicalDelay& a,
                                       const CanonicalDelay& b);

/// Clark's max: Gaussian moment matching of max(a, b) with
/// tightness-weighted propagation of the canonical coefficients.  The
/// result's variance is matched exactly to Clark's second moment by
/// scaling the local term.
[[nodiscard]] CanonicalDelay statisticalMax(const CanonicalDelay& a,
                                            const CanonicalDelay& b);

/// Probability that a exceeds b (P[a - b > 0]) under the shared-source
/// model; the building block of path criticality.
[[nodiscard]] double exceedanceProbability(const CanonicalDelay& a,
                                           const CanonicalDelay& b);

}  // namespace vsstat::timing

#endif  // VSSTAT_TIMING_SSTA_HPP
