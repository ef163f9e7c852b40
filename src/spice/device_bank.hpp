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
//   evaluate: ONE MosfetLoadBank::evaluateLoadBatch call per group replaces
//             one virtual MosfetModel::evaluateLoad per device,
//   scatter:  the assembler writes each lane's currents/charges/Jacobian
//             entries straight into the captured CSR slots, in circuit
//             element order (Assembler::scatterBankedLane).
//
// Reference contract: the gather reproduces LoadContext::v's voltage
// lookup, and under NumericsMode::reference the bank reproduces
// MosfetModel::evaluateLoad lane for lane (models::MosfetLoadBank
// contract, pinned by test_model_contract).  The scatter stamps exactly
// the values built from that evaluation (pinned by test_device_bank), at
// each MOSFET's place in circuit element order -- so the accumulation
// order of every sum is fixed by the circuit alone.
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
  // CSR stamp slots of the 3x3 terminal Jacobian block (row x col over
  // drain/gate/source), -1 where a terminal is ground.  Named s<Row><Col>.
  std::vector<std::int32_t> sDG, sDD, sDS;
  std::vector<std::int32_t> sSG, sSD, sSS;
  std::vector<std::int32_t> sGG, sGD, sGS;

  // --- per-assembly lanes (gather inputs / batch outputs) -------------------
  std::vector<double> vgs, vds;
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
  void evaluate(const linalg::Vector& x);

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
  std::vector<DeviceBankGroup> groups_;
  std::vector<BankLaneRef> elementLanes_;
  std::size_t laneCount_ = 0;
};

}  // namespace vsstat::spice::detail

#endif  // VSSTAT_SPICE_DEVICE_BANK_HPP
