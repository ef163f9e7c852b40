// The Virtual Source (VS / MVS) ultra-compact MOSFET model.
//
// DC transport per Khakifirooz/Antoniadis (TED 2009): the saturation drain
// current is Qixo * vxo, where Qixo is the virtual-source inversion charge
// from a unified softplus expression and vxo the ballistic injection
// velocity; the Fsat function blends linear and saturation regions
// (paper Eq. 2/3).  Threshold shifts with DIBL, delta(Leff)*Vds (Eq. 4).
//
// C-V: the same inversion-charge expression evaluated at both channel ends
// (drain end at the smoothed Vdseff) with a trapezoidal Ward-Dutton
// partition plus overlap/fringe capacitance.  This is a documented
// simplification of the MVS 1.0.1 ballistic charge partition -- see
// ARCHITECTURE.md, "Paper substitutions", S1.
//
// Series resistance: Rs/Rd (cards carry R*W) produce an internal-node IR
// drop.  The terminal current solves i = f(vgs - i*Rs, vds - i*(Rs+Rd)),
// and the external derivatives close through the implicit function
// theorem, so the terminal behaviour stays smooth for the circuit solver.
// One series step evaluates the intrinsic chain at the internal bias of a
// current and takes a derivative-aware Newton step on it.  Device-level
// evaluation (evaluate, drainCurrent, evaluateLoad, the bank's
// evaluateLoadBatch) iterates the step from i = 0 to the solution.  A
// circuit load (the bank's circuitLoadBatch) takes ONE step from the
// current the circuit Newton iterate carries for the device, so a load
// costs one intrinsic evaluation and the series equation converges with
// the node voltages (spice/device_bank.hpp).
//
// The model equations themselves live in vs_model.cpp as free functions of
// (params, geometry, bias); the class is a thin card-owning adapter.  Every
// entry point -- evaluate, drainCurrent, evaluateLoad -- and the batched
// device-bank lane loops (makeLoadBank) run that one arithmetic chain, so
// evaluate() == evaluateLoad().at and banked == scalar, both bit for bit:
// the device targets BPV calibrates on (Idsat, Ioff, Cgg) come from the
// same arithmetic the circuit simulator runs.
#ifndef VSSTAT_MODELS_VS_MODEL_HPP
#define VSSTAT_MODELS_VS_MODEL_HPP

#include "models/device.hpp"
#include "models/vs_params.hpp"

namespace vsstat::models {

class VsModel final : public MosfetModel {
 public:
  explicit VsModel(VsParams params);

  [[nodiscard]] DeviceType deviceType() const noexcept override {
    return params_.type;
  }
  [[nodiscard]] std::string name() const override { return "VS"; }

  /// The value part of evaluateLoad(): the same chain, derivatives
  /// discarded.
  [[nodiscard]] MosfetEvaluation evaluate(const DeviceGeometry& geom,
                                          double vgs,
                                          double vds) const override;

  /// Analytic Newton-load evaluation: the full derivative chain of the VS
  /// equations closes in a handful of multiplies with no extra
  /// transcendentals, and the series-resistance fixed point is solved with
  /// a derivative-aware Newton from i = 0 instead of finite-difference
  /// re-solves: ~3 intrinsic evaluations instead of ~12 (a circuit load
  /// through the bank's circuitLoadBatch takes one).  `fdStep` is unused.
  [[nodiscard]] MosfetLoadEvaluation evaluateLoad(const DeviceGeometry& geom,
                                                  double vgs, double vds,
                                                  double fdStep) const override;

  /// Struct-of-arrays device bank: per-lane bias-independent evaluation
  /// cards (derived parameters, pre-divided series resistances, charge
  /// prefactors) cached once per rebind, then one flat lane loop through
  /// the same analytic chain evaluateLoad runs (evaluateLoadBatch), or its
  /// one series step from carried currents (circuitLoadBatch).  In
  /// NumericsMode::reference (default) evaluateLoadBatch is bit-identical
  /// to the scalar path by construction -- both call the same chain
  /// function.  NumericsMode::fast batches the
  /// chain's exp/log1p/pow across all lanes through the vectorized kernels
  /// of util/simd_math_kernels.inc: tolerance-checked against reference
  /// (tests/models/test_fast_numerics.cpp), still deterministic.
  /// (Default for `mode` lives on the base declaration only: defaults on
  /// virtuals bind statically, so repeating it here could drift.)
  [[nodiscard]] std::unique_ptr<MosfetLoadBank> makeLoadBank(
      std::vector<BankLane> lanes, NumericsMode mode) const override;

  [[nodiscard]] std::unique_ptr<MosfetModel> clone() const override;
  [[nodiscard]] bool assignFrom(const MosfetModel& other) override;

  [[nodiscard]] const VsParams& params() const noexcept { return params_; }
  [[nodiscard]] VsParams& mutableParams() noexcept { return params_; }

 private:
  VsParams params_;
};

}  // namespace vsstat::models

#endif  // VSSTAT_MODELS_VS_MODEL_HPP
