// Die-level composition of variation components (paper Sec. I, Eq. 1).
//
// The paper's extraction characterizes the *within-die* (mismatch)
// component and notes that inter-die variation can be handled with the
// same BPV idea through the variance split
//
//   sigma^2_inter-die = sigma^2_total - sigma^2_within-die          (Eq. 1)
//
// This module supplies the other half of that picture: a DieSampler that
// composes, per device instance,
//
//   delta = global (one draw per die, geometry-independent)
//         + local Pelgrom mismatch (the paper's extracted component),
//
// and the decomposition helpers to recover the components from population
// statistics, so the Eq. (1) workflow can be exercised end to end.
#ifndef VSSTAT_MODELS_DIE_VARIATION_HPP
#define VSSTAT_MODELS_DIE_VARIATION_HPP

#include <vector>

#include "models/process_variation.hpp"
#include "stats/rng.hpp"

namespace vsstat::models {

/// Inter-die (global) standard deviations, SI absolute units; one draw per
/// die shifts every device on it identically.
struct GlobalSigmas {
  double sVt0 = 0.0;   ///< V
  double sLeff = 0.0;  ///< m
  double sWeff = 0.0;  ///< m
  double sMu = 0.0;    ///< m^2/(V s)
  double sCinv = 0.0;  ///< F/m^2
};

struct DieVariationSpec {
  PelgromAlphas local;  ///< within-die mismatch (the paper's component)
  GlobalSigmas global;  ///< inter-die shifts
};

/// Samples whole dies of `deviceCount` devices: call newDie() once per
/// die, then deltaFor() once per device instance.
class DieSampler {
 public:
  DieSampler(DieVariationSpec spec, std::size_t deviceCount);

  /// Draws the die-level state (the global delta).
  void newDie(stats::Rng& rng);

  /// Per-instance delta for device `deviceIndex`; composes the current die
  /// state with a fresh local mismatch draw.
  [[nodiscard]] VariationDelta deltaFor(std::size_t deviceIndex,
                                        const DeviceGeometry& geom,
                                        stats::Rng& rng) const;

  [[nodiscard]] const VariationDelta& globalDelta() const noexcept {
    return globalDelta_;
  }
  [[nodiscard]] std::size_t deviceCount() const noexcept {
    return deviceCount_;
  }

 private:
  DieVariationSpec spec_;
  std::size_t deviceCount_;
  VariationDelta globalDelta_{};
};

/// Eq. (1) decomposition of a measured population.
struct VarianceDecomposition {
  double total = 0.0;      ///< variance over all devices, all dies
  double withinDie = 0.0;  ///< pooled variance around per-die means
  double interDie = 0.0;   ///< total - withinDie, clamped at 0 (Eq. 1)
};

/// Decomposes per-die samples (outer index: die, inner: device) into
/// within-die and inter-die variance components.  Requires at least two
/// dies with at least two devices each.
[[nodiscard]] VarianceDecomposition decomposeVariance(
    const std::vector<std::vector<double>>& perDieSamples);

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_DIE_VARIATION_HPP
