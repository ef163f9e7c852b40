#include "spice/assembler.hpp"

#include <cmath>
#include <string>

#include "spice/element.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::spice::detail {

Assembler::Assembler(const Circuit& circuit, models::NumericsMode numerics,
                     linalg::SolverMode solver)
    : circuit_(circuit),
      numNodes_(circuit.nodeCount() - 1),
      numUnknowns_(circuit.unknownCount()),
      residual_(numUnknowns_, 0.0),
      chargeNow_(static_cast<std::size_t>(circuit.chargeSlotTotal()), 0.0),
      chargePrev_(chargeNow_.size(), 0.0),
      histTerm_(chargeNow_.size(), 0.0) {
  capturePattern();
  workspace_.dx.assign(numUnknowns_, 0.0);
  workspace_.lu.setSolverMode(solver);
  bankSet_ = std::make_unique<DeviceBankSet>(circuit_, pattern_, numerics);
}

void Assembler::checkBankLanesFinite() const {
  for (std::size_t g = 0; g < bankSet_->groupCount(); ++g) {
    const DeviceBankGroup& grp = bankSet_->group(static_cast<std::int32_t>(g));
    for (std::size_t lane = 0; lane < grp.out.size(); ++lane) {
      const models::MosfetLoadEvaluation& ev = grp.out[lane];
      if (std::isfinite(ev.at.id) && std::isfinite(ev.at.qg) &&
          std::isfinite(ev.at.qd) && std::isfinite(ev.at.qs) &&
          std::isfinite(ev.didVgs) && std::isfinite(ev.didVds)) {
        continue;
      }
      throw NonFiniteError(
          "device bank: non-finite evaluation in " +
          std::string(bankSet_->numerics() == models::NumericsMode::fast
                          ? "fast"
                          : "reference") +
          "-numerics group " + std::to_string(g) + ", lane " +
          std::to_string(lane));
    }
  }
}

void Assembler::capturePattern() {
  // Symbolic pass: run every element's load() once in capture mode, where
  // Jacobian stamps record coordinates instead of accumulating values.
  // Element sparsity structure is bias-independent by contract, so one pass
  // at the zero iterate sees every position.  Transient mode (c0 != 0) is
  // forced so charge-derivative stamps are captured too; node diagonals are
  // added explicitly for the gmin homotopy shunts.  A MOSFET's load()
  // only declares its 3x3 terminal footprint here: no device is evaluated.
  capturing_ = true;
  const linalg::Vector zero(numUnknowns_, 0.0);
  x_ = &zero;
  setBackwardEuler(1.0);

  LoadContext ctx;
  ctx.assembler_ = this;
  for (const auto& element : circuit_.elements()) {
    ctx.branchBase_ = element->branchBase();
    ctx.chargeBase_ = element->chargeBase();
    element->load(ctx);
  }
  for (std::size_t n = 0; n < numNodes_; ++n) coords_.emplace_back(n, n);

  pattern_ = linalg::SparsePattern(numUnknowns_, coords_);
  values_ = linalg::SparseMatrix(pattern_);
  gminSlots_.resize(numNodes_);
  for (std::size_t n = 0; n < numNodes_; ++n)
    gminSlots_[n] = pattern_.slot(n, n);

  coords_.clear();
  coords_.shrink_to_fit();
  std::fill(chargeNow_.begin(), chargeNow_.end(), 0.0);
  setDcMode();
  x_ = nullptr;
  capturing_ = false;
}

void Assembler::assemble(const linalg::Vector& x) {
  x_ = &x;
  values_.clear();
  std::fill(residual_.begin(), residual_.end(), 0.0);
  std::fill(chargeNow_.begin(), chargeNow_.end(), 0.0);

  // Refresh any lanes invalidated by a rebind, then gather every device's
  // canonical bias and batch-evaluate all model groups up front.  The
  // element loop below scatters each lane at its MOSFET's place in circuit
  // element order, so the accumulation order of every residual/Jacobian
  // sum is fixed by the circuit alone.
  syncDeviceBank();
  bankSet_->evaluate(x);
  // The NaN-lane fault models a FAST kernel lane gone bad, so it only
  // fires while the bank runs fast numerics: the rescue ladder's
  // reference-numerics rung then genuinely heals it (and the rescued
  // metric is bit-identical to a reference-mode campaign's).
  if (faultArmed_ && bankSet_->numerics() == models::NumericsMode::fast &&
      injector_->nanLaneAt(faultSample_, faultAttempt_))
    bankSet_->poisonLaneForTest(0, 0);
  // Seam guard: garbage must not scatter into the matrix silently.  A bad
  // lane (fast-chain overflow, injected fault) becomes a classified
  // NonFiniteError that the Newton driver and rescue ladder understand.
  checkBankLanesFinite();

  LoadContext ctx;
  ctx.assembler_ = this;
  const auto& elements = circuit_.elements();
  const auto& lanes = bankSet_->elementLanes();
  for (std::size_t idx = 0; idx < elements.size(); ++idx) {
    if (const BankLaneRef ref = lanes[idx]; ref.group >= 0) {
      scatterBankedLane(bankSet_->group(ref.group),
                        static_cast<std::size_t>(ref.lane));
      continue;
    }
    const auto& element = elements[idx];
    ctx.branchBase_ = element->branchBase();
    ctx.chargeBase_ = element->chargeBase();
    element->load(ctx);
  }

  if (gmin_ > 0.0) {
    for (std::size_t n = 0; n < numNodes_; ++n) {
      residual_[n] += gmin_ * x[n];
      values_.addAt(gminSlots_[n], gmin_);
    }
  }

  require(!patternMiss_,
          "Assembler: element stamped outside the captured sparsity pattern "
          "(element structure must be bias-independent)");

  if (faultArmed_ && injector_->singularAt(faultSample_, faultAttempt_)) {
    // Zero the first matrix row AFTER the gmin shunts were added, so the
    // injected breakdown survives every homotopy rung and the factorization
    // hits a hard singular pivot.
    const auto& rowStart = pattern_.rowStart();
    for (std::size_t s = rowStart[0]; s < rowStart[1]; ++s)
      values_.setAt(static_cast<std::int32_t>(s), 0.0);
  }
}

void Assembler::scatterBankedLane(const DeviceBankGroup& grp,
                                  std::size_t lane) noexcept {
  // The one MOSFET stamp.  Canonical (N-convention) current and charges
  // map back to the terminals with the polarity sign; the derivatives need
  // none, because the sign enters twice (sign * di/dvgs * sign).  Rows and
  // slots are the lane's captured ones, -1 where a terminal is ground.
  // Pinned against MosfetModel::evaluateLoad by
  // tests/spice/test_device_bank.cpp.
  const models::MosfetLoadEvaluation& ev = grp.out[lane];
  const double sign = grp.sign[lane];
  const std::int32_t rowD = grp.rowD[lane];
  const std::int32_t rowG = grp.rowG[lane];
  const std::int32_t rowS = grp.rowS[lane];

  const auto addResidual = [&](std::int32_t row, double v) {
    if (row >= 0) residual_[static_cast<std::size_t>(row)] += v;
  };
  const auto addJ = [&](std::int32_t slot, double v) {
    if (slot >= 0) values_.addAt(slot, v);
  };

  const double didvgs = ev.didVgs;
  const double didvds = ev.didVds;

  const double idTerm = sign * ev.at.id;
  addResidual(rowD, idTerm);
  addResidual(rowS, -idTerm);
  addJ(grp.sDG[lane], didvgs);
  addJ(grp.sDD[lane], didvds);
  addJ(grp.sDS[lane], -(didvgs + didvds));
  addJ(grp.sSG[lane], -didvgs);
  addJ(grp.sSD[lane], -didvds);
  addJ(grp.sSS[lane], didvgs + didvds);

  const double qg = sign * ev.at.qg;
  const double qd = sign * ev.at.qd;
  const double qs = sign * ev.at.qs;
  const std::int32_t cb = grp.chargeBase[lane];
  chargeNow_[static_cast<std::size_t>(cb)] = qg;
  chargeNow_[static_cast<std::size_t>(cb) + 1] = qd;
  chargeNow_[static_cast<std::size_t>(cb) + 2] = qs;

  const double c0 = c0_;
  const double ig = companionCurrent(cb, qg);
  const double idq = companionCurrent(cb + 1, qd);
  const double isq = companionCurrent(cb + 2, qs);
  addResidual(rowG, ig);
  addResidual(rowD, idq);
  addResidual(rowS, isq);

  if (c0 != 0.0) {
    addJ(grp.sGG[lane], c0 * ev.dqgVgs);
    addJ(grp.sGD[lane], c0 * ev.dqgVds);
    addJ(grp.sGS[lane], -c0 * (ev.dqgVgs + ev.dqgVds));
    addJ(grp.sDG[lane], c0 * ev.dqdVgs);
    addJ(grp.sDD[lane], c0 * ev.dqdVds);
    addJ(grp.sDS[lane], -c0 * (ev.dqdVgs + ev.dqdVds));
    addJ(grp.sSG[lane], c0 * ev.dqsVgs);
    addJ(grp.sSD[lane], c0 * ev.dqsVds);
    addJ(grp.sSS[lane], -c0 * (ev.dqsVgs + ev.dqsVds));
  }
}

}  // namespace vsstat::spice::detail
