// Circuit element interface and the load-time context.
//
// The engine is residual-based Newton MNA: each iteration every element
// contributes currents-out-of-node to the residual vector F and partial
// derivatives to the Jacobian J, then J dx = -F is solved.  Dynamic
// elements additionally record their charges q(v); the analysis integrates
// dq/dt with companion coefficients exposed through the context, so
// elements never know which integration method (BE/trapezoidal) is active.
#ifndef VSSTAT_SPICE_ELEMENT_HPP
#define VSSTAT_SPICE_ELEMENT_HPP

#include <string>

namespace vsstat::spice {

/// Node identifier; 0 is ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

namespace detail {
class Assembler;  // defined in analysis.cpp
}

/// Per-element view of the assembly state during one Newton load.
/// All indices are element-local (branch 0..branchCount-1,
/// slot 0..chargeSlots-1); the context adds the element's global offsets.
class LoadContext {
 public:
  // --- state of the current iterate -----------------------------------------
  [[nodiscard]] double v(NodeId node) const noexcept;
  [[nodiscard]] double branchCurrent(int localBranch) const noexcept;
  [[nodiscard]] double time() const noexcept;
  /// Source scaling in [0,1] used by the source-stepping homotopy.
  [[nodiscard]] double sourceScale() const noexcept;

  // --- KCL residual / Jacobian stamps ----------------------------------------
  /// Adds `i` amperes *leaving* `node` through this element.
  void addCurrent(NodeId node, double i) noexcept;
  /// Adds d(current leaving `node`)/d(voltage of `other`).
  void addJacobian(NodeId node, NodeId other, double didv) noexcept;
  /// Adds d(current leaving `node`)/d(branch current).
  void addJacobianBranch(NodeId node, int localBranch, double d) noexcept;

  // --- branch (voltage source) equations --------------------------------------
  void addBranchResidual(int localBranch, double f) noexcept;
  void addBranchJacobianV(int localBranch, NodeId node, double d) noexcept;

  // --- charge bookkeeping -------------------------------------------------------
  /// Records the slot's charge at this iterate (required every load).
  void setCharge(int localSlot, double q) noexcept;
  /// Companion-model current for the slot given its present charge:
  /// 0 in DC; c0*(q - qPrev) - c1*iPrev during transient integration.
  [[nodiscard]] double chargeCurrent(int localSlot, double q) const noexcept;
  /// d(chargeCurrent)/dq: 0 in DC, the integrator's c0 during transient.
  [[nodiscard]] double chargeGain() const noexcept;

 private:
  friend class detail::Assembler;
  LoadContext() = default;

  detail::Assembler* assembler_ = nullptr;
  int branchBase_ = 0;
  int chargeBase_ = 0;
};

/// Pure-abstract circuit element.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Contributes residual/Jacobian/charges for the present iterate.
  virtual void load(LoadContext& ctx) const = 0;

  /// Number of extra branch-current unknowns this element introduces.
  [[nodiscard]] virtual int branchCount() const noexcept { return 0; }

  /// Number of charge-state slots this element owns.
  [[nodiscard]] virtual int chargeSlots() const noexcept { return 0; }

  // Global offsets, assigned by Circuit when the element is added.
  void setBases(int branchBase, int chargeBase) noexcept {
    branchBase_ = branchBase;
    chargeBase_ = chargeBase;
  }
  [[nodiscard]] int branchBase() const noexcept { return branchBase_; }
  [[nodiscard]] int chargeBase() const noexcept { return chargeBase_; }

 private:
  std::string name_;
  int branchBase_ = 0;
  int chargeBase_ = 0;
};

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_ELEMENT_HPP
