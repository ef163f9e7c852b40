// Concrete circuit elements: R, C, I, V, and the MOSFET that carries a
// compact-model card (VS, BsimLite, AlphaPower) into the Newton MNA engine.
// R, C, I and V stamp themselves through LoadContext; MOSFETs are evaluated
// and stamped by the assembler's device bank (spice/device_bank.hpp).
#ifndef VSSTAT_SPICE_ELEMENTS_HPP
#define VSSTAT_SPICE_ELEMENTS_HPP

#include <cstdint>
#include <memory>

#include "models/device.hpp"
#include "spice/element.hpp"
#include "spice/source.hpp"

namespace vsstat::spice {

class ResistorElement final : public Element {
 public:
  ResistorElement(std::string name, NodeId a, NodeId b, double ohms);
  void load(LoadContext& ctx) const override;

 private:
  NodeId a_;
  NodeId b_;
  double conductance_;
};

class CapacitorElement final : public Element {
 public:
  CapacitorElement(std::string name, NodeId a, NodeId b, double farads);
  void load(LoadContext& ctx) const override;
  [[nodiscard]] int chargeSlots() const noexcept override { return 1; }

 private:
  NodeId a_;
  NodeId b_;
  double capacitance_;
};

class CurrentSourceElement final : public Element {
 public:
  CurrentSourceElement(std::string name, NodeId from, NodeId to,
                       SourceWaveform waveform);
  void load(LoadContext& ctx) const override;

  [[nodiscard]] const SourceWaveform& waveform() const noexcept {
    return waveform_;
  }

 private:
  NodeId from_;
  NodeId to_;
  SourceWaveform waveform_;
};

class VoltageSourceElement final : public Element {
 public:
  VoltageSourceElement(std::string name, NodeId pos, NodeId neg,
                       SourceWaveform waveform);
  void load(LoadContext& ctx) const override;
  [[nodiscard]] int branchCount() const noexcept override { return 1; }

  void setWaveform(SourceWaveform w) noexcept { waveform_ = std::move(w); }
  [[nodiscard]] const SourceWaveform& waveform() const noexcept {
    return waveform_;
  }
  /// Convenience for DC sweeps.
  void setDcLevel(double value) { waveform_.setDcLevel(value); }

  [[nodiscard]] NodeId positiveNode() const noexcept { return pos_; }
  [[nodiscard]] NodeId negativeNode() const noexcept { return neg_; }

 private:
  NodeId pos_;
  NodeId neg_;
  SourceWaveform waveform_;
};

/// Restores a voltage source's waveform on scope exit -- also when a solve
/// throws -- so a measurement that retunes a stimulus (a DC sweep level, a
/// leakage bias, a setup trial's edges) never leaves a persistent session
/// fixture clobbered for the next analysis or sample.
class WaveformRestorer {
 public:
  explicit WaveformRestorer(VoltageSourceElement& source)
      : source_(source), original_(source.waveform()) {}
  ~WaveformRestorer() { source_.setWaveform(original_); }
  WaveformRestorer(const WaveformRestorer&) = delete;
  WaveformRestorer& operator=(const WaveformRestorer&) = delete;

 private:
  VoltageSourceElement& source_;
  SourceWaveform original_;
};

/// Finite-difference step the device bank hands compact models without
/// analytic Newton-load chains: above the models' smoothness scale, below
/// circuit resolution.
inline constexpr double kMosfetFdStep = 1e-3;

/// MOSFET element.  Owns the per-instance compact-model card (each Monte
/// Carlo sample clones the nominal model and applies its mismatch deltas).
/// The model works in the N-canonical convention: canonical voltages are
/// sign*(vg - vs) and sign*(vd - vs) with sign = +1 for NMOS and -1 for
/// PMOS, and current/charges map back with the same sign.  The assembler's
/// device bank applies that mapping when it evaluates and stamps the
/// device (Assembler::scatterBankedLane).
class MosfetElement final : public Element {
 public:
  MosfetElement(std::string name, NodeId drain, NodeId gate, NodeId source,
                std::unique_ptr<models::MosfetModel> model,
                const models::DeviceGeometry& geometry);

  /// Declares the 3x3 drain/gate/source Jacobian footprint for the
  /// assembler's pattern capture.  Evaluates no model: the device bank
  /// stamps every MOSFET.
  void load(LoadContext& ctx) const override;

  [[nodiscard]] int chargeSlots() const noexcept override { return 3; }

  [[nodiscard]] NodeId drain() const noexcept { return drain_; }
  [[nodiscard]] NodeId gate() const noexcept { return gate_; }
  [[nodiscard]] NodeId source() const noexcept { return source_; }

  [[nodiscard]] const models::MosfetModel& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const models::DeviceGeometry& geometry() const noexcept {
    return geometry_;
  }
  /// Rebinds the instance card/geometry in place -- the per-sample pass of
  /// a build-once campaign session (sim::CampaignSession).  When `model`
  /// has the same dynamic type as the current card its parameters are
  /// copied into the existing object (no heap allocation); a differing
  /// type falls back to a clone.  The device's polarity must not change:
  /// the MNA stamp pattern captured at session construction stays valid
  /// because element sparsity is parameter-independent by contract.
  void rebind(const models::MosfetModel& model,
              const models::DeviceGeometry& geometry);

  /// Monotone counter bumped whenever rebind changes the instance card or
  /// geometry.  Device banks cache bias-independent per-lane state and
  /// compare this against their last-synced value to know when a lane must
  /// be re-derived -- the card object itself is usually overwritten in
  /// place, so pointer identity cannot tell.
  [[nodiscard]] std::uint32_t cardVersion() const noexcept {
    return cardVersion_;
  }

 private:
  NodeId drain_;
  NodeId gate_;
  NodeId source_;
  std::unique_ptr<models::MosfetModel> model_;
  models::DeviceGeometry geometry_;
  std::uint32_t cardVersion_ = 0;
};

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_ELEMENTS_HPP
