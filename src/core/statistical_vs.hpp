// StatisticalVsKit -- the paper's headline deliverable as a public API.
//
// A kit bundles, per polarity, the *fitted nominal* VS card and the
// *BPV-extracted* Pelgrom alpha coefficients.  From it a user can:
//   * query mismatch sigmas for any geometry (Pelgrom laws, Eq. 7/8),
//   * draw per-instance device cards for Monte Carlo (vxo coupling of
//     Eq. 5 included),
//   * build a DeviceProvider to drop into any benchmark circuit.
//
// StatisticalVsKit::characterize() runs the paper's full flow end-to-end:
// Fig. 1 nominal fit -> golden-kit variance measurement -> BPV solve
// (Eq. 10) -> validated statistical model.
#ifndef VSSTAT_CORE_STATISTICAL_VS_HPP
#define VSSTAT_CORE_STATISTICAL_VS_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "circuits/provider.hpp"
#include "extract/bpv.hpp"
#include "extract/fit.hpp"
#include "extract/golden_meter.hpp"
#include "models/process_variation.hpp"
#include "models/vs_params.hpp"
#include "stats/rng.hpp"

namespace vsstat::core {

struct CharacterizeOptions {
  /// MC samples per geometry when "measuring" the golden kit (paper: >1000).
  int samplesPerGeometry = 1000;
  std::uint64_t seed = 20130318;  // DATE'13 ;-)
  /// Use analytic golden variances instead of MC (noise-free extraction;
  /// useful for tests and the ablation bench).
  bool analyticGoldenVariance = false;
};

class StatisticalVsKit {
 public:
  /// Assembles a kit from already-known cards/alphas.
  StatisticalVsKit(models::VsParams nmos, models::VsParams pmos,
                   models::PelgromAlphas nmosAlphas,
                   models::PelgromAlphas pmosAlphas, double vdd);

  /// The full paper flow against a golden design kit.
  [[nodiscard]] static StatisticalVsKit characterize(
      const extract::GoldenKit& golden, const CharacterizeOptions& options = {});

  [[nodiscard]] const models::VsParams& nominal(models::DeviceType t) const noexcept {
    return t == models::DeviceType::Nmos ? nmos_ : pmos_;
  }
  [[nodiscard]] const models::PelgromAlphas& alphas(models::DeviceType t) const noexcept {
    return t == models::DeviceType::Nmos ? nmosAlphas_ : pmosAlphas_;
  }
  [[nodiscard]] double vdd() const noexcept { return vdd_; }

  /// Mismatch sigmas at a geometry (SI).
  [[nodiscard]] models::ParameterSigmas sigmas(
      models::DeviceType t, const models::DeviceGeometry& geom) const;

  /// One sampled device instance (model card + perturbed geometry).
  [[nodiscard]] circuits::DeviceInstance makeInstance(
      models::DeviceType t, const models::DeviceGeometry& geom,
      stats::Rng& rng) const;

  /// Statistical provider for circuit Monte Carlo; each provider owns an
  /// independent RNG stream.
  [[nodiscard]] std::unique_ptr<circuits::DeviceProvider> makeProvider(
      stats::Rng rng) const;

  /// Nominal (mismatch-free) provider with the fitted cards.
  [[nodiscard]] std::unique_ptr<circuits::DeviceProvider> makeNominalProvider()
      const;

  /// Human-readable report (cards + Table II style alphas).
  [[nodiscard]] std::string summary() const;

 private:
  models::VsParams nmos_;
  models::VsParams pmos_;
  models::PelgromAlphas nmosAlphas_;
  models::PelgromAlphas pmosAlphas_;
  double vdd_ = 0.9;
};

}  // namespace vsstat::core

#endif  // VSSTAT_CORE_STATISTICAL_VS_HPP
