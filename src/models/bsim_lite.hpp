// BsimLite: drift-diffusion / velocity-saturation baseline model.
//
// Stands in for the paper's industrial BSIM4 kit (see ARCHITECTURE.md,
// "Paper substitutions", S2).  It is intentionally a *different physics
// family* from the VS model: velocity is field-driven and saturates via
// Esat = 2 vsat / mueff, mobility degrades with vertical field, and the
// output characteristic gains slope through explicit channel-length
// modulation.  The cross-model BPV extraction in
// the paper is only meaningful because of this mismatch in formulations.
#ifndef VSSTAT_MODELS_BSIM_LITE_HPP
#define VSSTAT_MODELS_BSIM_LITE_HPP

#include "models/bsim_params.hpp"
#include "models/device.hpp"

namespace vsstat::models {

class BsimLite final : public MosfetModel {
 public:
  explicit BsimLite(BsimParams params);

  [[nodiscard]] DeviceType deviceType() const noexcept override {
    return params_.type;
  }
  [[nodiscard]] std::string name() const override { return "BSIM-lite"; }

  [[nodiscard]] MosfetEvaluation evaluate(const DeviceGeometry& geom,
                                          double vgs,
                                          double vds) const override;

  [[nodiscard]] std::unique_ptr<MosfetModel> clone() const override;
  [[nodiscard]] bool assignFrom(const MosfetModel& other) override;

  [[nodiscard]] const BsimParams& params() const noexcept { return params_; }
  [[nodiscard]] BsimParams& mutableParams() noexcept { return params_; }

 private:
  struct Operating {
    double id = 0.0;          ///< drain current [A]
    double qSrcAreal = 0.0;   ///< source-end inversion charge [C/m^2]
    double qDrnAreal = 0.0;   ///< drain-end inversion charge [C/m^2]
  };
  [[nodiscard]] Operating operatingPoint(const DeviceGeometry& geom,
                                         double vgs, double vds) const;

  BsimParams params_;
};

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_BSIM_LITE_HPP
