// Sensitivities of the electrical targets e_i = {Idsat, log10(Ioff),
// Cgg@Vdd} with respect to the statistical VS parameters p_j = {VT0, Leff,
// Weff, mu, Cinv}.  These populate the BPV system matrix (paper Eq. 10).
//
// The derivatives are central finite differences routed through the same
// applyToVs/applyGeometry path as Monte Carlo sampling, so the Eq. (5)
// vxo coupling (mobility and DIBL terms) is part of the sensitivity --
// matching the paper, which folds vxo variation into Leff and mu rather
// than treating it as an independent parameter.
#ifndef VSSTAT_EXTRACT_SENSITIVITY_HPP
#define VSSTAT_EXTRACT_SENSITIVITY_HPP

#include <array>

#include "linalg/matrix.hpp"
#include "models/process_variation.hpp"
#include "models/vs_params.hpp"

namespace vsstat::extract {

/// Row order of the electrical targets.
enum class Target : std::size_t { Idsat = 0, Log10Ioff = 1, Cgg = 2 };
inline constexpr std::size_t kTargetCount = 3;

/// Column order of the statistical parameters.
enum class Parameter : std::size_t {
  Vt0 = 0,
  Leff = 1,
  Weff = 2,
  Mu = 3,
  Cinv = 4
};
inline constexpr std::size_t kParameterCount = 5;

[[nodiscard]] const char* toString(Target t) noexcept;

/// d(e_i)/d(p_j) in SI units at the nominal card and geometry.
/// Rows follow Target, columns follow Parameter.
[[nodiscard]] linalg::Matrix targetSensitivities(
    const models::VsParams& card, const models::DeviceGeometry& geom,
    double vdd);

/// Finite-difference steps used for each parameter (absolute, SI).
[[nodiscard]] std::array<double, kParameterCount> sensitivitySteps(
    const models::VsParams& card, const models::DeviceGeometry& geom);

}  // namespace vsstat::extract

#endif  // VSSTAT_EXTRACT_SENSITIVITY_HPP
