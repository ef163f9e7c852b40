#include "spice/device_bank.hpp"

#include <span>
#include <typeinfo>

#include "util/error.hpp"

namespace vsstat::spice::detail {

namespace {

/// Residual row of a node: unknown index, or -1 for ground (the same
/// mapping LoadContext::v / Assembler::stampCurrent apply per stamp).
inline std::int32_t rowOf(NodeId node) noexcept {
  return node == kGround ? -1 : static_cast<std::int32_t>(node - 1);
}

}  // namespace

DeviceBankSet::DeviceBankSet(const Circuit& circuit,
                             const linalg::SparsePattern& pattern,
                             models::NumericsMode numerics)
    : circuit_(&circuit),
      pattern_(&pattern),
      numerics_(numerics),
      mnaSize_(circuit.unknownCount()) {
  rebuild();
}

void DeviceBankSet::rebuild() {
  groups_.clear();
  laneCount_ = 0;
  const auto& elements = circuit_->elements();
  elementLanes_.assign(elements.size(), BankLaneRef{});

  // Reserve every per-lane SoA vector at the full MOSFET count up front:
  // a bank rebuild then costs one allocation per vector instead of a
  // doubling-growth series per vector (the usual case is one homogeneous
  // group holding every device, where the bound is exact).
  std::size_t mosfetCount = 0;
  for (const auto& e : elements)
    if (dynamic_cast<const MosfetElement*>(e.get()) != nullptr) ++mosfetCount;

  for (std::size_t idx = 0; idx < elements.size(); ++idx) {
    const auto* m = dynamic_cast<const MosfetElement*>(elements[idx].get());
    if (m == nullptr) continue;

    const std::type_index type(typeid(m->model()));
    std::int32_t g = -1;
    for (std::size_t k = 0; k < groups_.size(); ++k) {
      if (groups_[k].cardType == type) {
        g = static_cast<std::int32_t>(k);
        break;
      }
    }
    if (g < 0) {
      g = static_cast<std::int32_t>(groups_.size());
      groups_.emplace_back(type);
      DeviceBankGroup& fresh = groups_.back();
      fresh.element.reserve(mosfetCount);
      fresh.version.reserve(mosfetCount);
      fresh.sign.reserve(mosfetCount);
      for (std::vector<std::int32_t>* v :
           {&fresh.rowD, &fresh.rowG, &fresh.rowS, &fresh.chargeBase,
            &fresh.sDG, &fresh.sDD, &fresh.sDS, &fresh.sSG, &fresh.sSD,
            &fresh.sSS, &fresh.sGG, &fresh.sGD, &fresh.sGS})
        v->reserve(mosfetCount);
      fresh.currentSlot.reserve(mosfetCount);
    }
    DeviceBankGroup& grp = groups_[static_cast<std::size_t>(g)];

    const std::int32_t lane = static_cast<std::int32_t>(grp.element.size());
    grp.element.push_back(m);
    grp.version.push_back(m->cardVersion());
    grp.sign.push_back(
        m->model().deviceType() == models::DeviceType::Nmos ? 1.0 : -1.0);
    const std::int32_t rd = rowOf(m->drain());
    const std::int32_t rg = rowOf(m->gate());
    const std::int32_t rs = rowOf(m->source());
    grp.rowD.push_back(rd);
    grp.rowG.push_back(rg);
    grp.rowS.push_back(rs);
    grp.chargeBase.push_back(m->chargeBase());
    // The slot follows the element, never the group, so a regroup after a
    // cross-family rebind leaves every carried current where it was.
    grp.currentSlot.push_back(mnaSize_ + laneCount_);

    // The element's 3x3 terminal Jacobian block was captured by the
    // assembler's symbolic pass (stamp structure is bias-independent by
    // contract), so every non-ground pair must resolve to a slot.
    const auto slotOf = [&](std::int32_t row, std::int32_t col) {
      if (row < 0 || col < 0) return std::int32_t{-1};
      const std::int32_t s = pattern_->slot(static_cast<std::size_t>(row),
                                            static_cast<std::size_t>(col));
      require(s >= 0,
              "DeviceBankSet: MOSFET stamp position missing from the "
              "captured sparsity pattern");
      return s;
    };
    grp.sDG.push_back(slotOf(rd, rg));
    grp.sDD.push_back(slotOf(rd, rd));
    grp.sDS.push_back(slotOf(rd, rs));
    grp.sSG.push_back(slotOf(rs, rg));
    grp.sSD.push_back(slotOf(rs, rd));
    grp.sSS.push_back(slotOf(rs, rs));
    grp.sGG.push_back(slotOf(rg, rg));
    grp.sGD.push_back(slotOf(rg, rd));
    grp.sGS.push_back(slotOf(rg, rs));

    elementLanes_[idx] = BankLaneRef{g, lane};
    ++laneCount_;
  }

  for (DeviceBankGroup& grp : groups_) {
    std::vector<models::BankLane> lanes;
    lanes.reserve(grp.element.size());
    for (const MosfetElement* e : grp.element)
      lanes.push_back(models::BankLane{&e->model(), &e->geometry()});
    grp.bank =
        grp.element.front()->model().makeLoadBank(std::move(lanes), numerics_);
    grp.vgs.resize(grp.element.size());
    grp.vds.resize(grp.element.size());
    grp.id.resize(grp.element.size());
    grp.out.resize(grp.element.size());
  }
}

bool DeviceBankSet::sync() {
  for (DeviceBankGroup& grp : groups_) {
    for (std::size_t i = 0; i < grp.element.size(); ++i) {
      const MosfetElement* e = grp.element[i];
      if (e->cardVersion() == grp.version[i]) continue;
      // rebind forbids a polarity change, so the lane's sign stays valid.
      if (!grp.bank->rebindLane(i, e->model(), e->geometry()))
        return false;  // dynamic type changed: regroup from scratch
      grp.version[i] = e->cardVersion();
    }
  }
  return true;
}

void DeviceBankSet::gatherBiases(DeviceBankGroup& grp,
                                 const linalg::Vector& x) {
  for (std::size_t i = 0; i < grp.element.size(); ++i) {
    const double vd =
        grp.rowD[i] < 0 ? 0.0 : x[static_cast<std::size_t>(grp.rowD[i])];
    const double vg =
        grp.rowG[i] < 0 ? 0.0 : x[static_cast<std::size_t>(grp.rowG[i])];
    const double vs =
        grp.rowS[i] < 0 ? 0.0 : x[static_cast<std::size_t>(grp.rowS[i])];
    const double sign = grp.sign[i];
    grp.vgs[i] = sign * (vg - vs);
    grp.vds[i] = sign * (vd - vs);
  }
}

void DeviceBankSet::evaluate(const linalg::Vector& x) {
  const bool carried = x.size() == iterateSize();
  settled_ = true;
  for (DeviceBankGroup& grp : groups_) {
    gatherBiases(grp, x);
    const std::span<models::MosfetLoadEvaluation> out(grp.out);
    if (carried) {
      for (std::size_t i = 0; i < grp.element.size(); ++i)
        grp.id[i] = grp.sign[i] * x[grp.currentSlot[i]];
      settled_ = grp.bank->circuitLoadBatch(grp.vgs, grp.vds, grp.id,
                                            kMosfetFdStep, out) &&
                 settled_;
    } else {
      grp.bank->evaluateLoadBatch(grp.vgs, grp.vds, kMosfetFdStep, out);
    }
  }
}

void DeviceBankSet::seedCurrents(linalg::Vector& x) {
  for (DeviceBankGroup& grp : groups_) {
    gatherBiases(grp, x);
    grp.bank->evaluateLoadBatch(grp.vgs, grp.vds, kMosfetFdStep, grp.out);
    for (std::size_t i = 0; i < grp.element.size(); ++i)
      x[grp.currentSlot[i]] = grp.sign[i] * grp.out[i].at.id;
  }
}

void DeviceBankSet::currentSteps(const linalg::Vector& x,
                                 linalg::Vector& dx) const {
  // The eliminated current row reads i_new = i* + di/dvgs * dvgs +
  // di/dvds * dvds, i* being the stamped current: in the x -= dx
  // convention, dx_i = (i - i*) + di/dvgs * dx_vgs + di/dvds * dx_vds.
  // The polarity sign enters the terminal current and the voltage
  // differences alike, so the derivatives need none (as in the scatter).
  const auto step = [&dx](std::int32_t row) {
    return row < 0 ? 0.0 : dx[static_cast<std::size_t>(row)];
  };
  for (const DeviceBankGroup& grp : groups_) {
    for (std::size_t i = 0; i < grp.element.size(); ++i) {
      const models::MosfetLoadEvaluation& ev = grp.out[i];
      const double dvs = step(grp.rowS[i]);
      const std::size_t slot = grp.currentSlot[i];
      dx[slot] = (x[slot] - grp.sign[i] * ev.at.id) +
                 ev.didVgs * (step(grp.rowG[i]) - dvs) +
                 ev.didVds * (step(grp.rowD[i]) - dvs);
    }
  }
}

}  // namespace vsstat::spice::detail
