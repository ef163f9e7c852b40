// Statistical DeviceProviders: per-instance mismatch sampling for the two
// kits.  Both draw from *independent Gaussian* parameter distributions with
// Pelgrom geometry scaling; each transistor the circuit builder requests
// consumes one mismatch draw, so circuits built in a fixed order are
// reproducible for a given sample seed.
//
// All three providers share one body (VariedCardProvider): select the
// polarity's card and Pelgrom sigmas, draw a delta, apply it, then make a
// new instance or rebind the element in place.  They differ only in where
// the standardized draws come from (an RNG stream or a fixed z-vector).
#ifndef VSSTAT_MC_PROVIDERS_HPP
#define VSSTAT_MC_PROVIDERS_HPP

#include "circuits/provider.hpp"
#include "models/bsim_params.hpp"
#include "models/process_variation.hpp"
#include "models/vs_params.hpp"
#include "stats/rng.hpp"

namespace vsstat::mc {

/// One sampled VS transistor: `card` varied by `delta`, at the varied
/// geometry -- the providers' make path, for
/// core::StatisticalVsKit::makeInstance.
[[nodiscard]] circuits::DeviceInstance variedInstance(
    const models::VsParams& card, const models::DeviceGeometry& nominal,
    const models::VariationDelta& delta);

/// Shared body of the statistical providers over `Card` (VsParams or
/// BsimParams) on top of `Base` (DeviceProvider or FixedZProvider).
/// resample() builds the varied card on the stack and copies it into the
/// element's existing model object: the per-sample rebind pass of a
/// campaign session performs no heap allocation.
template <class Card, class Base>
class VariedCardProvider : public Base {
 public:
  [[nodiscard]] circuits::DeviceInstance make(
      models::DeviceType type, const std::string& instanceName,
      const models::DeviceGeometry& nominal) final;

  void resample(models::DeviceType type, const std::string& instanceName,
                const models::DeviceGeometry& nominal,
                spice::MosfetElement& element) final;

 protected:
  VariedCardProvider(Card nmos, Card pmos, models::PelgromAlphas nmosAlphas,
                     models::PelgromAlphas pmosAlphas)
      : nmos_(nmos), pmos_(pmos), nmosAlphas_(nmosAlphas),
        pmosAlphas_(pmosAlphas) {}

 private:
  /// Standardized draws scaled by `sigmas`, in models::sampleDelta's
  /// parameter order (Vt0, Leff, Weff, Mu, Cinv).
  [[nodiscard]] virtual models::VariationDelta drawDelta(
      const models::ParameterSigmas& sigmas) = 0;

  [[nodiscard]] models::VariationDelta draw(
      models::DeviceType type, const models::DeviceGeometry& nominal) {
    return drawDelta(models::sigmasFor(
        type == models::DeviceType::Nmos ? nmosAlphas_ : pmosAlphas_,
        nominal));
  }
  [[nodiscard]] const Card& card(models::DeviceType type) const noexcept {
    return type == models::DeviceType::Nmos ? nmos_ : pmos_;
  }

  Card nmos_;
  Card pmos_;
  models::PelgromAlphas nmosAlphas_;
  models::PelgromAlphas pmosAlphas_;
};

/// Statistical VS model provider (the paper's contribution under test).
class VsStatisticalProvider final
    : public VariedCardProvider<models::VsParams, circuits::DeviceProvider> {
 public:
  VsStatisticalProvider(models::VsParams nmos, models::VsParams pmos,
                        models::PelgromAlphas nmosAlphas,
                        models::PelgromAlphas pmosAlphas, stats::Rng rng)
      : VariedCardProvider(nmos, pmos, nmosAlphas, pmosAlphas), rng_(rng) {}

  void reseed(const stats::Rng& rng) override { rng_ = rng; }

 private:
  [[nodiscard]] models::VariationDelta drawDelta(
      const models::ParameterSigmas& sigmas) override {
    return models::sampleDelta(sigmas, rng_);
  }

  stats::Rng rng_;
};

/// VS-kit provider over an externally supplied standardized z-vector
/// (circuits::FixedZProvider): every transistor consumes FIVE coordinates
/// in the sampleDelta order (Vt0, Leff, Weff, Mu, Cinv), scaled by the
/// same Pelgrom sigmas VsStatisticalProvider uses.  This is the seam that
/// lets mc::SamplingPlan generators (LHS/Halton/Sobol) and the yield
/// importance sampler drive the standard campaign machinery.
class VsFixedZProvider final
    : public VariedCardProvider<models::VsParams, circuits::FixedZProvider> {
 public:
  VsFixedZProvider(models::VsParams nmos, models::VsParams pmos,
                   models::PelgromAlphas nmosAlphas,
                   models::PelgromAlphas pmosAlphas)
      : VariedCardProvider(nmos, pmos, nmosAlphas, pmosAlphas) {}

  /// Coordinates consumed per transistor instance.
  static constexpr std::size_t kDimsPerDevice = 5;

 private:
  /// A z-vector of iid normals reproduces the RNG provider's distribution
  /// exactly.
  [[nodiscard]] models::VariationDelta drawDelta(
      const models::ParameterSigmas& sigmas) override;
};

/// Statistical golden-kit provider (the paper's "golden" BSIM reference):
/// the kit's mismatch truth enters as its Pelgrom-alpha equivalent.
class BsimStatisticalProvider final
    : public VariedCardProvider<models::BsimParams, circuits::DeviceProvider> {
 public:
  BsimStatisticalProvider(models::BsimParams nmos, models::BsimParams pmos,
                          models::BsimMismatch nmosMismatch,
                          models::BsimMismatch pmosMismatch, stats::Rng rng)
      : VariedCardProvider(nmos, pmos, models::toPelgromAlphas(nmosMismatch),
                           models::toPelgromAlphas(pmosMismatch)),
        rng_(rng) {}

  void reseed(const stats::Rng& rng) override { rng_ = rng; }

 private:
  [[nodiscard]] models::VariationDelta drawDelta(
      const models::ParameterSigmas& sigmas) override {
    return models::sampleDelta(sigmas, rng_);
  }

  stats::Rng rng_;
};

}  // namespace vsstat::mc

#endif  // VSSTAT_MC_PROVIDERS_HPP
