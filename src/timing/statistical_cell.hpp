// Bridge from the statistical VS kit to canonical SSTA delays.
//
// A stage's first-order canonical delay has two shared global sources --
// the NMOS and PMOS speed axes of the statistical corners, at 1 sigma --
// and an independent local term from within-die mismatch:
//
//   D = d0 + gN * X_N + gP * X_P + sigma_local * R
//
// gN/gP come from central differences of the stage delay along the corner
// axes; sigma_local from a mismatch-only Monte Carlo of the same fixture.
#ifndef VSSTAT_TIMING_STATISTICAL_CELL_HPP
#define VSSTAT_TIMING_STATISTICAL_CELL_HPP

#include "circuits/cells.hpp"
#include "core/corners.hpp"
#include "core/statistical_vs.hpp"
#include "timing/ssta.hpp"

namespace vsstat::timing {

/// Operating point of the canonical stage model: input slew [s] and load
/// capacitance [F], measured with largest transient step kStageDt [s].
inline constexpr double kStageInputSlew = 15e-12;
inline constexpr double kStageLoadFarads = 2e-15;
inline constexpr double kStageDt = 0.3e-12;

struct StageModelOptions {
  int mismatchSamples = 40;    ///< local-sigma Monte Carlo size
};

/// Canonical delay of one inverter stage under the kit's variation model.
/// global[0] is the NMOS axis, global[1] the PMOS axis.  The local sigma's
/// Monte Carlo is an mc::runCampaign on a fixed seed; a sample that throws
/// a SampleFailure aborts the call (rethrown as a SampleFailure of its
/// class).
[[nodiscard]] CanonicalDelay characterizeStageDelay(
    const core::StatisticalVsKit& kit, const core::StatisticalCorners& corners,
    const circuits::CellSizing& sizing, const StageModelOptions& options = {});

}  // namespace vsstat::timing

#endif  // VSSTAT_TIMING_STATISTICAL_CELL_HPP
