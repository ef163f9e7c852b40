// Cross-family MosfetModel contract: every compact model in the library
// (VS, BsimLite golden, alpha-power baseline) must satisfy the interface
// invariants the circuit engine relies on, at every geometry class the
// paper uses.  Parameterized over (model family x geometry).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "models/alpha_power.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"

namespace vsstat::models {
namespace {

struct ContractCase {
  std::string label;
  std::function<std::unique_ptr<MosfetModel>()> make;
  double widthNm;
};

class ModelContract : public ::testing::TestWithParam<ContractCase> {
 protected:
  [[nodiscard]] DeviceGeometry geom() const {
    return geometryNm(GetParam().widthNm, 40);
  }
  [[nodiscard]] std::unique_ptr<MosfetModel> model() const {
    return GetParam().make();
  }
};

/// Every field of two Newton loads, compared bit for bit.
void expectLoadBitEqual(const MosfetLoadEvaluation& got,
                        const MosfetLoadEvaluation& want, std::size_t lane) {
  EXPECT_EQ(got.at.id, want.at.id) << "lane " << lane;
  EXPECT_EQ(got.at.qg, want.at.qg) << "lane " << lane;
  EXPECT_EQ(got.at.qd, want.at.qd) << "lane " << lane;
  EXPECT_EQ(got.at.qs, want.at.qs) << "lane " << lane;
  EXPECT_EQ(got.didVgs, want.didVgs) << "lane " << lane;
  EXPECT_EQ(got.didVds, want.didVds) << "lane " << lane;
  EXPECT_EQ(got.dqgVgs, want.dqgVgs) << "lane " << lane;
  EXPECT_EQ(got.dqgVds, want.dqgVds) << "lane " << lane;
  EXPECT_EQ(got.dqdVgs, want.dqdVgs) << "lane " << lane;
  EXPECT_EQ(got.dqdVds, want.dqdVds) << "lane " << lane;
  EXPECT_EQ(got.dqsVgs, want.dqsVgs) << "lane " << lane;
  EXPECT_EQ(got.dqsVds, want.dqsVds) << "lane " << lane;
}

/// A card of the same family with two fitted parameters moved.
std::unique_ptr<MosfetModel> perturbedCard(const MosfetModel& m) {
  std::unique_ptr<MosfetModel> p = m.clone();
  if (auto* vs = dynamic_cast<VsModel*>(p.get())) {
    vs->mutableParams().vt0 += 0.03;
    vs->mutableParams().vxo *= 1.1;
  } else if (auto* bsim = dynamic_cast<BsimLite*>(p.get())) {
    bsim->mutableParams().vth0 += 0.03;
    bsim->mutableParams().u0 *= 1.1;
  } else if (auto* alpha = dynamic_cast<AlphaPowerModel*>(p.get())) {
    alpha->mutableParams().vth0 += 0.03;
    alpha->mutableParams().kSat *= 1.1;
  }
  return p;
}

TEST_P(ModelContract, ZeroVdsCarriesZeroCurrent) {
  const auto m = model();
  for (double vgs : {0.0, 0.3, 0.6, 0.9}) {
    EXPECT_NEAR(m->drainCurrent(geom(), vgs, 0.0), 0.0, 1e-12)
        << "vgs = " << vgs;
  }
}

TEST_P(ModelContract, CurrentNonNegativeForForwardBias) {
  const auto m = model();
  for (double vgs = 0.0; vgs <= 0.91; vgs += 0.1) {
    for (double vds = 0.0; vds <= 0.91; vds += 0.1) {
      EXPECT_GE(m->drainCurrent(geom(), vgs, vds), -1e-15)
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_P(ModelContract, MonotoneInGateBias) {
  const auto m = model();
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 0.901; vgs += 0.02) {
    const double id = m->drainCurrent(geom(), vgs, 0.9);
    EXPECT_GE(id, prev - 1e-15) << "vgs = " << vgs;
    prev = id;
  }
}

TEST_P(ModelContract, MonotoneNonDecreasingInDrainBias) {
  const auto m = model();
  double prev = -1.0;
  for (double vds = 0.0; vds <= 0.901; vds += 0.02) {
    const double id = m->drainCurrent(geom(), 0.9, vds);
    EXPECT_GE(id, prev - 1e-15) << "vds = " << vds;
    prev = id;
  }
}

TEST_P(ModelContract, SourceDrainReversalAntisymmetry) {
  // Id(vgs, vds) == -Id(vgs - vds, -vds) exactly (the engine depends on
  // this to seat pass transistors in either orientation).
  const auto m = model();
  for (double vgs : {0.2, 0.5, 0.9}) {
    for (double vds : {0.1, 0.4, 0.8}) {
      const double fwd = m->drainCurrent(geom(), vgs, vds);
      const double rev = m->drainCurrent(geom(), vgs - vds, -vds);
      EXPECT_NEAR(fwd, -rev, 1e-15 + 1e-10 * std::fabs(fwd))
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_P(ModelContract, ChargesSumToZeroEverywhere) {
  const auto m = model();
  for (double vgs : {0.0, 0.45, 0.9}) {
    for (double vds : {-0.5, 0.0, 0.45, 0.9}) {
      const MosfetEvaluation e = m->evaluate(geom(), vgs, vds);
      const double scale =
          std::max({std::fabs(e.qg), std::fabs(e.qd), std::fabs(e.qs),
                    1e-20});
      EXPECT_NEAR((e.qg + e.qd + e.qs) / scale, 0.0, 1e-9)
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_P(ModelContract, C1SmoothnessOnTheNewtonStepScale) {
  // The engine differentiates the model with 1 mV steps; the model must
  // not jump on that scale anywhere in the bias box.
  const auto m = model();
  constexpr double h = 1e-3;
  for (double vgs = 0.0; vgs <= 0.9; vgs += 0.06) {
    for (double vds = 0.0; vds <= 0.9; vds += 0.06) {
      const double i0 = m->drainCurrent(geom(), vgs, vds);
      const double iG = m->drainCurrent(geom(), vgs + h, vds);
      const double iD = m->drainCurrent(geom(), vgs, vds + h);
      const double ion = m->drainCurrent(geom(), 0.9, 0.9);
      EXPECT_LT(std::fabs(iG - i0), 0.02 * ion + 0.5 * std::fabs(i0));
      EXPECT_LT(std::fabs(iD - i0), 0.02 * ion + 0.5 * std::fabs(i0));
    }
  }
}

TEST_P(ModelContract, CurrentScalesRoughlyWithWidth) {
  // Doubling W should roughly double Idsat (series resistance and
  // narrow-width terms allow modest deviation).
  const auto m = model();
  const DeviceGeometry g1 = geom();
  const DeviceGeometry g2 = geometryNm(2.0 * GetParam().widthNm, 40);
  const double i1 = m->drainCurrent(g1, 0.9, 0.9);
  const double i2 = m->drainCurrent(g2, 0.9, 0.9);
  EXPECT_NEAR(i2 / i1, 2.0, 0.25);
}

TEST_P(ModelContract, EvaluateIsTheLoadValue) {
  // One arithmetic chain per family: a Newton load's values are
  // evaluate()'s own and drainCurrent is evaluate().id, bit for bit, over
  // the bias plane including source/drain reversal and the sub-picoampere
  // leakage corner.
  const auto m = model();
  constexpr double kStep = 1e-3;
  for (double vgs : {-0.2, 0.0, 0.2, 0.45, 0.7, 0.9}) {
    for (double vds : {-0.9, -0.3, -1e-4, 0.0, 1e-5, 0.05, 0.45, 0.9}) {
      const MosfetEvaluation e = m->evaluate(geom(), vgs, vds);
      const MosfetLoadEvaluation load =
          m->evaluateLoad(geom(), vgs, vds, kStep);
      EXPECT_EQ(load.at.id, e.id) << "vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(load.at.qg, e.qg) << "vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(load.at.qd, e.qd) << "vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(load.at.qs, e.qs) << "vgs=" << vgs << " vds=" << vds;
      EXPECT_EQ(m->drainCurrent(geom(), vgs, vds), e.id)
          << "vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_P(ModelContract, BatchLoadBitIdenticalToScalar) {
  // Device-bank contract: makeLoadBank's batched evaluation must equal the
  // scalar evaluateLoad lane-for-lane and BIT-for-bit, across the full
  // bias plane including source/drain reversal (negative vds), for every
  // model family and polarity.  Lanes deliberately differ in geometry so
  // per-lane cached derived state is exercised.
  const auto m = model();
  const std::vector<DeviceGeometry> geoms = {
      geom(), geometryNm(0.6 * GetParam().widthNm, 40),
      geometryNm(1.7 * GetParam().widthNm, 55)};
  std::vector<BankLane> lanes;
  for (const DeviceGeometry& g : geoms) lanes.push_back(BankLane{m.get(), &g});
  const auto bank = m->makeLoadBank(lanes);
  ASSERT_EQ(bank->laneCount(), geoms.size());

  constexpr double kStep = 1e-3;
  std::vector<double> vgs(geoms.size());
  std::vector<double> vds(geoms.size());
  std::vector<MosfetLoadEvaluation> out(geoms.size());
  for (double vg : {-0.2, 0.0, 0.3, 0.45, 0.9}) {
    for (double vd : {-0.9, -0.3, 0.0, 0.001, 0.4, 0.9}) {
      // Offset the lanes so the batch sees distinct biases per lane.
      for (std::size_t i = 0; i < geoms.size(); ++i) {
        vgs[i] = vg + 0.013 * static_cast<double>(i);
        vds[i] = vd - 0.017 * static_cast<double>(i);
      }
      bank->evaluateLoadBatch(vgs, vds, kStep, out);
      for (std::size_t i = 0; i < geoms.size(); ++i) {
        expectLoadBitEqual(out[i],
                           m->evaluateLoad(geoms[i], vgs[i], vds[i], kStep),
                           i);
      }
    }
  }
}

TEST_P(ModelContract, BankRebindLaneTracksNewCard) {
  // After rebindLane the lane must evaluate the NEW card/geometry (cached
  // derived state refreshed), still bit-identical to scalar.
  const auto m = model();
  const DeviceGeometry g0 = geom();
  const DeviceGeometry g1 = geometryNm(1.4 * GetParam().widthNm, 48);
  std::vector<BankLane> lanes = {BankLane{m.get(), &g0}};
  const auto bank = m->makeLoadBank(lanes);

  ASSERT_TRUE(bank->rebindLane(0, *m, g1));
  constexpr double kStep = 1e-3;
  const std::vector<double> vgs = {0.6};
  const std::vector<double> vds = {0.45};
  std::vector<MosfetLoadEvaluation> out(1);
  bank->evaluateLoadBatch(vgs, vds, kStep, out);
  const MosfetLoadEvaluation ref = m->evaluateLoad(g1, 0.6, 0.45, kStep);
  EXPECT_EQ(out[0].at.id, ref.at.id);
  EXPECT_EQ(out[0].didVgs, ref.didVgs);
  EXPECT_EQ(out[0].dqgVds, ref.dqgVds);
}

TEST_P(ModelContract, BankRebindUniformTracksMutatedCard) {
  // The extraction engine's between-iterations pass: every lane of a
  // uniform bank shares one card that is mutated in place (assignFrom here,
  // the family's parameter write in FitCampaign), then rebindUniform
  // re-derives the lanes -- here at a new geometry too.  Reference numerics
  // must then equal scalar evaluateLoad on the mutated card bit for bit;
  // fast numerics must equal the same bank rebound lane by lane.
  const auto perturbed = perturbedCard(*model());
  const DeviceGeometry g0 = geom();
  const DeviceGeometry g1 = geometryNm(1.4 * GetParam().widthNm, 48);
  const std::vector<double> vgs = {0.0, 0.3, 0.6, 0.9, 0.9, 0.45};
  const std::vector<double> vds = {0.9, 0.05, 0.45, 0.9, 0.0, -0.3};
  constexpr double kStep = 1e-3;
  for (const NumericsMode mode :
       {NumericsMode::reference, NumericsMode::fast}) {
    const auto card = model();
    const auto bank = makeUniformLoadBank(*card, g0, vgs.size(), mode);
    std::vector<MosfetLoadEvaluation> before(vgs.size());
    bank->evaluateLoadBatch(vgs, vds, kStep, before);

    ASSERT_TRUE(card->assignFrom(*perturbed));
    ASSERT_TRUE(bank->rebindUniform(*card, g1));
    std::vector<MosfetLoadEvaluation> out(vgs.size());
    bank->evaluateLoadBatch(vgs, vds, kStep, out);
    EXPECT_NE(out[3].at.id, before[3].at.id) << toString(mode);

    std::vector<MosfetLoadEvaluation> want(vgs.size());
    if (mode == NumericsMode::reference) {
      for (std::size_t i = 0; i < vgs.size(); ++i)
        want[i] = card->evaluateLoad(g1, vgs[i], vds[i], kStep);
    } else {
      for (std::size_t i = 0; i < vgs.size(); ++i)
        ASSERT_TRUE(bank->rebindLane(i, *card, g1));
      bank->evaluateLoadBatch(vgs, vds, kStep, want);
    }
    SCOPED_TRACE(toString(mode));
    for (std::size_t i = 0; i < vgs.size(); ++i)
      expectLoadBitEqual(out[i], want[i], i);
  }
}

TEST_P(ModelContract, CloneBehavesIdentically) {
  const auto m = model();
  const auto c = m->clone();
  for (double vgs : {0.2, 0.6, 0.9}) {
    EXPECT_DOUBLE_EQ(m->drainCurrent(geom(), vgs, 0.9),
                     c->drainCurrent(geom(), vgs, 0.9));
  }
  EXPECT_EQ(m->deviceType(), c->deviceType());
}

std::vector<ContractCase> contractCases() {
  std::vector<ContractCase> cases;
  const std::vector<double> widths = {120.0, 300.0, 600.0, 1500.0};
  for (double w : widths) {
    const auto tag = [w](const char* family) {
      return std::string(family) + "_W" + std::to_string(static_cast<int>(w));
    };
    cases.push_back({tag("VsNmos"),
                     [] { return std::make_unique<VsModel>(defaultVsNmos()); },
                     w});
    cases.push_back({tag("VsPmos"),
                     [] { return std::make_unique<VsModel>(defaultVsPmos()); },
                     w});
    cases.push_back(
        {tag("BsimNmos"),
         [] { return std::make_unique<BsimLite>(defaultBsimNmos()); }, w});
    cases.push_back(
        {tag("BsimPmos"),
         [] { return std::make_unique<BsimLite>(defaultBsimPmos()); }, w});
    cases.push_back({tag("AlphaNmos"),
                     [] {
                       return std::make_unique<AlphaPowerModel>(
                           defaultAlphaNmos());
                     },
                     w});
    cases.push_back({tag("AlphaPmos"),
                     [] {
                       return std::make_unique<AlphaPowerModel>(
                           defaultAlphaPmos());
                     },
                     w});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamiliesAllGeometries, ModelContract,
                         ::testing::ValuesIn(contractCases()),
                         [](const ::testing::TestParamInfo<ContractCase>& i) {
                           return i.param.label;
                         });

}  // namespace
}  // namespace vsstat::models
