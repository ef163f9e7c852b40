// Nominal card fitting against the golden kit's I-V/C-V data -- the step
// the paper shows in Fig. 1 ("VS model fitting for NMOS with data from a
// 40-nm BSIM4 industrial design kit", W = 300 nm).
//
// A well-characterized nominal model is the foundation of the BPV flow
// (paper Sec. III): the sensitivities d(e_i)/d(p_j) are evaluated on this
// fitted card.  Each fit is a one-lane extract::FitCampaign over a grid of
// weighted points: log-space Id-Vg (so subthreshold decades count),
// relative-space Id-Vd, and anchors on the BPV targets -- Cgg at
// (Vdd, 0), the bias of measure::cggAtVdd, plus Idsat and, for the VS
// card, log Ioff.  The golden data are measured on the same grid through
// FitCampaign::synthesizeDataset; box-bounded Levenberg-Marquardt does the
// minimization.
#ifndef VSSTAT_EXTRACT_FIT_HPP
#define VSSTAT_EXTRACT_FIT_HPP

#include "models/alpha_power.hpp"
#include "models/device.hpp"
#include "models/vs_params.hpp"

namespace vsstat::extract {

struct FitOptions {
  double vdd = 0.9;
  double vgsStep = 0.05;     ///< Id-Vg grid pitch [V]
  double vdsStep = 0.05;     ///< Id-Vd grid pitch [V]
  double vdsLin = 0.05;      ///< linear-region drain bias [V]
  int maxIterations = 300;
};

struct IvFitResult {
  models::VsParams card;       ///< fitted card
  double rmsLogIdVg = 0.0;     ///< RMS of ln(Id_VS/Id_golden) on Id-Vg grid
  double rmsRelIdVd = 0.0;     ///< RMS relative error on Id-Vd grid
  double relCggError = 0.0;    ///< relative Cgg error at (Vdd, 0)
  int iterations = 0;
  /// LM converged formally, or cut its cost below 0.2x the seed's.
  bool converged = false;
};

/// Fits {VT0, delta0, n0, vxo, mu, beta, cinv} of the seed card so the VS
/// model reproduces the golden model's characteristics at the reference
/// geometry (paper: W/L = 300/40 nm).  Throws InvalidArgumentError on a
/// non-positive vdd or golden value, and SingularMatrixError /
/// NonFiniteError when the fit lane fails.
[[nodiscard]] IvFitResult fitVsToGolden(const models::VsParams& seed,
                                        const models::MosfetModel& golden,
                                        const models::DeviceGeometry& geom,
                                        const FitOptions& options = {});

struct AlphaFitResult {
  models::AlphaPowerParams card;  ///< fitted card
  double rmsRelIdVg = 0.0;  ///< RMS relative error, above-VT Id-Vg grid
  double rmsRelIdVd = 0.0;  ///< RMS relative error, Id-Vd grid
  double relCggError = 0.0; ///< relative Cgg error at (Vdd, 0)
  int iterations = 0;
  bool converged = false;   ///< same rule as IvFitResult::converged
};

/// Fits the alpha-power-law baseline (paper ref [5]) to the golden model's
/// strong-inversion characteristics.  Only above-threshold bias points
/// enter the residual: the alpha-power law has no subthreshold conduction
/// to fit, which is precisely the limitation the paper's introduction
/// holds against purely empirical ultra-compact models.
[[nodiscard]] AlphaFitResult fitAlphaPowerToGolden(
    const models::AlphaPowerParams& seed, const models::MosfetModel& golden,
    const models::DeviceGeometry& geom, const FitOptions& options = {});

}  // namespace vsstat::extract

#endif  // VSSTAT_EXTRACT_FIT_HPP
