// Statistical design corners from the extracted VS variability model.
//
// Classic corner methodology (McAndrew, ISQED'03 -- the paper's ref [12])
// derives FF/SS/FS/SF cards from the statistical model instead of ad-hoc
// skews: each corner is the most-probable parameter-space point that moves
// the polarity's Idsat by +/- n sigma.  For a linear target e = g'p with
// independent Gaussian parameters, that point is
//
//   delta_j = +/- n * sigma_j^2 * g_j / sqrt(sum_k (g_k sigma_k)^2),
//
// i.e. the sigma-scaled gradient direction.  Sigmas come from the
// Pelgrom alphas evaluated at a reference geometry and are interpreted as
// a die-level (global) skew applied identically to every instance -- the
// Eq. (1) composition's inter-die slot.  Corners sit at n = 3 sigma, with
// Idsat evaluated at the kit's supply.
#ifndef VSSTAT_CORE_CORNERS_HPP
#define VSSTAT_CORE_CORNERS_HPP

#include <array>
#include <memory>
#include <string>

#include "circuits/provider.hpp"
#include "core/statistical_vs.hpp"
#include "models/process_variation.hpp"

namespace vsstat::core {

/// Five-corner set: first letter NMOS speed, second PMOS speed.
enum class Corner { TT, FF, SS, FS, SF };

inline constexpr std::array<Corner, 5> kAllCorners = {
    Corner::TT, Corner::FF, Corner::SS, Corner::FS, Corner::SF};

[[nodiscard]] const char* toString(Corner c) noexcept;

/// Geometry the corner deltas are derived at: W/L = 300/40 nm.
inline constexpr models::DeviceGeometry kCornerReferenceGeometry{300e-9,
                                                                 40e-9};

/// Corner distance in Idsat sigmas.
inline constexpr double kCornerSigmas = 3.0;

/// Derives and holds the five corner deltas for a calibrated kit.
class StatisticalCorners {
 public:
  explicit StatisticalCorners(const StatisticalVsKit& kit);

  /// The per-polarity parameter shift at this corner (zero for TT).
  [[nodiscard]] const models::VariationDelta& delta(
      Corner corner, models::DeviceType type) const noexcept;

  /// First-order predicted Idsat at the corner relative to nominal
  /// (e.g. 1.08 for a fast corner), at the reference geometry.
  [[nodiscard]] double predictedIdsatRatio(
      Corner corner, models::DeviceType type) const noexcept;

  /// Device provider applying this corner's skew to every instance
  /// (cards and geometry both shifted; no random component).
  [[nodiscard]] std::unique_ptr<circuits::DeviceProvider> makeProvider(
      Corner corner) const;

  /// Human-readable corner report (per-corner VT0/Leff/mu shifts).
  [[nodiscard]] std::string summary() const;

 private:
  struct PolarityCorner {
    models::VariationDelta fast;  ///< +kCornerSigmas Idsat shift
    models::VariationDelta slow;  ///< -kCornerSigmas Idsat shift
    double idsatNominal = 0.0;
    double idsatSigma = 0.0;  ///< first-order sigma at the reference geom
  };

  [[nodiscard]] static PolarityCorner derive(const models::VsParams& card,
                                             const models::PelgromAlphas& a,
                                             double vdd);

  const StatisticalVsKit& kit_;
  PolarityCorner nmos_;
  PolarityCorner pmos_;
  models::VariationDelta zero_{};
};

}  // namespace vsstat::core

#endif  // VSSTAT_CORE_CORNERS_HPP
