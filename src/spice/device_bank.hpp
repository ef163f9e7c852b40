// Internal: struct-of-arrays device bank behind the Newton assembler -- the
// only way a MOSFET enters the Newton system.
//
// At Assembler construction every MosfetElement is gathered into a
// homogeneous group per concrete model type; each group carries a
// models::MosfetLoadBank (the model-specific batched evaluator) plus
// struct-of-arrays lane state captured once: polarity sign, residual rows,
// charge-slot base, and the CSR stamp slots of the element's full Jacobian
// footprint.  A Newton assembly then
//
//   gather:   one pass pulls every lane's canonical (vgs, vds) out of the
//             iterate,
//   evaluate: ONE batched call per group replaces one virtual
//             MosfetModel::evaluateLoad per device,
//   scatter:  the assembler writes each lane's currents/charges/Jacobian
//             entries straight into the captured CSR slots, in circuit
//             element order (Assembler::scatterBankedLane).
//
// Carried device currents: the Newton iterate of a solve is the MNA
// unknowns followed by one current slot per MOSFET, in circuit element
// order, holding the device's drain terminal current.  On such an iterate
// a group evaluates MosfetLoadBank::circuitLoadBatch: a VS lane takes one
// series-resistance step from its carried current instead of solving the
// series equation from zero (unless the carried current is far off), and
// stamps the Schur complement of the current unknown, so the LU stays
// MNA-sized.  After the LU solve,
// currentSteps back-substitutes each current's update from the voltage
// step.  An MNA-sized iterate (AC, probes) evaluates evaluateLoadBatch,
// the converged device loads.
//
// Reference contract: the gather reproduces LoadContext::v's voltage
// lookup, and under NumericsMode::reference an MNA-sized evaluation
// reproduces MosfetModel::evaluateLoad lane for lane (models::
// MosfetLoadBank contract, pinned by test_model_contract).  The scatter
// stamps exactly the values built from the evaluation (pinned by
// test_device_bank), at each MOSFET's place in circuit element order --
// so the accumulation order of every sum is fixed by the circuit alone.
//
// Rebinds: lanes cache bias-independent state, so the bank tracks each
// element's cardVersion().  sync() re-derives stale lanes through
// MosfetLoadBank::rebindLane; a card whose dynamic type changed (exotic --
// a cross-family rebind) fails rebindLane and the caller rebuilds the
// groups from scratch.
#ifndef VSSTAT_SPICE_DEVICE_BANK_HPP
#define VSSTAT_SPICE_DEVICE_BANK_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <typeindex>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "models/device.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"

namespace vsstat::spice::detail {

/// Where a banked element's lane lives: group index + lane index within
/// the group.  group < 0 means "not banked" (non-MOSFET elements).
struct BankLaneRef {
  std::int32_t group = -1;
  std::int32_t lane = -1;
};

/// One homogeneous model group, struct-of-arrays over its lanes.
struct DeviceBankGroup {
  std::unique_ptr<models::MosfetLoadBank> bank;
  std::type_index cardType;

  // --- per-lane captured state (SoA) ----------------------------------------
  std::vector<const MosfetElement*> element;
  std::vector<std::uint32_t> version;   ///< last-synced cardVersion()
  std::vector<double> sign;             ///< +1 NMOS / -1 PMOS
  std::vector<std::int32_t> rowD, rowG, rowS;  ///< residual rows, -1 = ground
  std::vector<std::int32_t> chargeBase;        ///< global slot of qg
  std::vector<std::size_t> currentSlot;  ///< iterate index of the current
  // CSR stamp slots of the 3x3 terminal Jacobian block (row x col over
  // drain/gate/source), -1 where a terminal is ground.  Named s<Row><Col>.
  std::vector<std::int32_t> sDG, sDD, sDS;
  std::vector<std::int32_t> sSG, sSD, sSS;
  std::vector<std::int32_t> sGG, sGD, sGS;

  // --- per-assembly lanes (gather inputs / batch outputs) -------------------
  std::vector<double> vgs, vds;
  std::vector<double> id;  ///< carried N-convention drain currents
  std::vector<models::MosfetLoadEvaluation> out;

  explicit DeviceBankGroup(std::type_index type) : cardType(type) {}
};

class DeviceBankSet {
 public:
  /// Captures lane state for every MosfetElement of `circuit`.  `pattern`
  /// is the assembler's captured MNA sparsity (must outlive the bank set,
  /// as must the circuit).  `numerics` selects each group bank's evaluation
  /// contract (models::NumericsMode): reference = bit-identical to the
  /// model's evaluateLoad, fast = vectorized kernels within tolerance.
  /// A MOSFET-free circuit yields an empty set.
  DeviceBankSet(const Circuit& circuit, const linalg::SparsePattern& pattern,
                models::NumericsMode numerics = models::NumericsMode::reference);

  DeviceBankSet(const DeviceBankSet&) = delete;
  DeviceBankSet& operator=(const DeviceBankSet&) = delete;

  /// Re-derives lanes whose element card changed since the last sync.
  /// Returns false when a lane's card switched to a different model class;
  /// the caller must rebuild() before the next evaluation.
  [[nodiscard]] bool sync();

  /// Regroups every element from scratch (cross-family rebind fallback).
  void rebuild();

  /// Switches the evaluation contract and rebuilds the group banks.  Used
  /// by the rescue ladder's fast -> reference fallback; a no-op when the
  /// mode is unchanged.
  void setNumerics(models::NumericsMode numerics) {
    if (numerics == numerics_) return;
    numerics_ = numerics;
    rebuild();
  }
  [[nodiscard]] models::NumericsMode numerics() const noexcept {
    return numerics_;
  }

  /// Gather + batch-evaluate every group at iterate `x` (node voltage of
  /// NodeId n is x[n-1], ground reads 0 -- the LoadContext::v convention).
  /// An iterate of iterateSize() entries carries the device currents; an
  /// MNA-sized one loads the converged device evaluations.
  void evaluate(const linalg::Vector& x);

  /// MNA unknowns plus one carried current per MOSFET.
  [[nodiscard]] std::size_t iterateSize() const noexcept {
    return mnaSize_ + laneCount_;
  }
  /// Whether every lane's internal equation held at the carried currents
  /// of the last evaluation (true after an MNA-sized one).
  [[nodiscard]] bool currentsSettled() const noexcept { return settled_; }

  /// Writes into each carried-current slot of the iterate `x` the device's
  /// converged drain current at x's node voltages (evaluateLoadBatch).
  void seedCurrents(linalg::Vector& x);

  /// Back-substitution after the LU solve of an iterate-sized evaluation:
  /// `dx` holds the MNA step in its first MNA-size entries (the Newton
  /// update is x -= dx); writes each carried current's step into its slot.
  void currentSteps(const linalg::Vector& x, linalg::Vector& dx) const;

  /// Per-circuit-element lane mapping, parallel to circuit.elements().
  [[nodiscard]] const std::vector<BankLaneRef>& elementLanes() const noexcept {
    return elementLanes_;
  }
  [[nodiscard]] const DeviceBankGroup& group(std::int32_t g) const {
    return groups_[static_cast<std::size_t>(g)];
  }

  [[nodiscard]] std::size_t groupCount() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] std::size_t laneCount() const noexcept { return laneCount_; }

  /// Fault-injection seam: overwrites one evaluated lane's drain current
  /// with NaN, modeling a numerics lane gone bad.  Called by the assembler
  /// (after evaluate(), before its finite guard) when a FaultInjector
  /// schedules a nanBankLane fault for the current sample.
  void poisonLaneForTest(std::size_t group, std::size_t lane) noexcept {
    if (group < groups_.size() && lane < groups_[group].out.size())
      groups_[group].out[lane].at.id =
          std::numeric_limits<double>::quiet_NaN();
  }

 private:
  const Circuit* circuit_;
  const linalg::SparsePattern* pattern_;
  models::NumericsMode numerics_;
  std::size_t mnaSize_;
  std::vector<DeviceBankGroup> groups_;
  std::vector<BankLaneRef> elementLanes_;
  std::size_t laneCount_ = 0;
  bool settled_ = true;

  /// Canonical (vgs, vds) of every lane of `grp` at iterate x.
  static void gatherBiases(DeviceBankGroup& grp, const linalg::Vector& x);
};

}  // namespace vsstat::spice::detail

#endif  // VSSTAT_SPICE_DEVICE_BANK_HPP
