// Accuracy-accounting harness for NumericsMode::fast on the VS device
// bank: the fast pipeline's outputs must track the reference (scalar,
// libm) chain within tight relative bounds, lane for lane, across the
// full bias plane -- including source/drain reversal, subthreshold,
// series-resistance Newton territory, and rebound lanes.
//
// Bound rationale: the simd_math kernels guarantee ~1e-12 (exp) to 1e-9
// (composed pow) relative accuracy, and the series-resistance Newton's
// quadratic convergence keeps iterate divergence at the same order; the
// measured worst case over this grid is ~2e-10 relative (dominated by the
// softplus log1p in weak inversion).  The asserted 1e-9 keeps headroom
// while still catching any real regression (a dropped term or a swapped
// argument shows up at 1e-2..1).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "models/vs_model.hpp"
#include "models/vs_params.hpp"

namespace vsstat::models {
namespace {

constexpr double kRelTol = 1e-9;
constexpr double kStep = 1e-3;

/// Relative deviation with a floor that keeps denormal-range quantities
/// from manufacturing huge ratios (currents in A, charges in C).
double relDiff(double fast, double ref, double floor) {
  return std::fabs(fast - ref) / (std::fabs(ref) + floor);
}

struct FastBankFixture {
  std::vector<std::unique_ptr<VsModel>> cards;
  std::vector<DeviceGeometry> geoms;
  std::unique_ptr<MosfetLoadBank> bank;

  explicit FastBankFixture(std::size_t lanes) {
    for (std::size_t i = 0; i < lanes; ++i) {
      VsParams p = (i % 2 == 0) ? defaultVsNmos() : defaultVsPmos();
      p.vt0 += 0.004 * static_cast<double>(i);
      p.mu *= 1.0 + 0.02 * static_cast<double>(i);
      cards.push_back(std::make_unique<VsModel>(p));
      geoms.push_back(geometryNm(150.0 + 50.0 * static_cast<double>(i), 40));
    }
    std::vector<BankLane> laneRefs;
    for (std::size_t i = 0; i < lanes; ++i)
      laneRefs.push_back(BankLane{cards[i].get(), &geoms[i]});
    bank = cards.front()->makeLoadBank(laneRefs, NumericsMode::fast);
  }
};

void expectWithinTolerance(const MosfetLoadEvaluation& fast,
                           const MosfetLoadEvaluation& ref,
                           const char* where) {
  EXPECT_LE(relDiff(fast.at.id, ref.at.id, 1e-15), kRelTol) << where;
  EXPECT_LE(relDiff(fast.at.qg, ref.at.qg, 1e-22), kRelTol) << where;
  EXPECT_LE(relDiff(fast.at.qd, ref.at.qd, 1e-22), kRelTol) << where;
  EXPECT_LE(relDiff(fast.at.qs, ref.at.qs, 1e-22), kRelTol) << where;
  EXPECT_LE(relDiff(fast.didVgs, ref.didVgs, 1e-12), kRelTol) << where;
  EXPECT_LE(relDiff(fast.didVds, ref.didVds, 1e-12), kRelTol) << where;
  EXPECT_LE(relDiff(fast.dqgVgs, ref.dqgVgs, 1e-20), kRelTol) << where;
  EXPECT_LE(relDiff(fast.dqgVds, ref.dqgVds, 1e-20), kRelTol) << where;
  EXPECT_LE(relDiff(fast.dqdVgs, ref.dqdVgs, 1e-20), kRelTol) << where;
  EXPECT_LE(relDiff(fast.dqdVds, ref.dqdVds, 1e-20), kRelTol) << where;
  EXPECT_LE(relDiff(fast.dqsVgs, ref.dqsVgs, 1e-20), kRelTol) << where;
  EXPECT_LE(relDiff(fast.dqsVds, ref.dqsVds, 1e-20), kRelTol) << where;
}

TEST(FastNumerics, TracksReferenceAcrossTheBiasPlane) {
  FastBankFixture fx(6);
  const std::size_t n = fx.cards.size();
  std::vector<double> vgs(n), vds(n);
  std::vector<MosfetLoadEvaluation> out(n);

  for (int s = 0; s < 600; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      // Dense pseudo-grid over [-0.3, 1.2] x [-0.9, 0.9]: subthreshold,
      // strong inversion, linear, saturation, and reversed polarity.
      vgs[i] = -0.3 + 1.5 * ((s + static_cast<int>(i) * 7) % 97) / 96.0;
      vds[i] = -0.9 + 1.8 * ((s + static_cast<int>(i) * 13) % 89) / 88.0;
    }
    fx.bank->evaluateLoadBatch(vgs, vds, kStep, out);
    for (std::size_t i = 0; i < n; ++i) {
      const MosfetLoadEvaluation ref =
          fx.cards[i]->evaluateLoad(fx.geoms[i], vgs[i], vds[i], kStep);
      expectWithinTolerance(out[i], ref, "bias-plane lane");
    }
  }
}

TEST(FastNumerics, CircuitStepTracksReference) {
  // The circuit load's series step from a carried current, fast against
  // reference, at the nested solution's current and 10 % either side of
  // it (a step the size of a Newton iteration's).
  FastBankFixture fx(6);
  const std::size_t n = fx.cards.size();
  std::vector<BankLane> lanes;
  for (std::size_t i = 0; i < n; ++i)
    lanes.push_back(BankLane{fx.cards[i].get(), &fx.geoms[i]});
  const auto ref =
      fx.cards.front()->makeLoadBank(lanes, NumericsMode::reference);
  std::vector<double> vgs(n), vds(n), id(n);
  std::vector<MosfetLoadEvaluation> nested(n), fast(n), reference(n);

  for (int s = 0; s < 300; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      vgs[i] = -0.3 + 1.5 * ((s + static_cast<int>(i) * 7) % 97) / 96.0;
      vds[i] = -0.9 + 1.8 * ((s + static_cast<int>(i) * 13) % 89) / 88.0;
    }
    ref->evaluateLoadBatch(vgs, vds, kStep, nested);
    for (const double scale : {0.9, 1.0, 1.1}) {
      for (std::size_t i = 0; i < n; ++i) id[i] = scale * nested[i].at.id;
      (void)fx.bank->circuitLoadBatch(vgs, vds, id, kStep, fast);
      (void)ref->circuitLoadBatch(vgs, vds, id, kStep, reference);
      for (std::size_t i = 0; i < n; ++i)
        expectWithinTolerance(fast[i], reference[i], "circuit step lane");
    }
  }
}

TEST(FastNumerics, DeepSubthresholdStaysRelativelyAccurate) {
  // Subthreshold currents underflow through exp(-30..-10); relative
  // accuracy must hold there, not just absolute smallness.
  FastBankFixture fx(4);
  const std::size_t n = fx.cards.size();
  std::vector<double> vgs(n), vds(n);
  std::vector<MosfetLoadEvaluation> out(n);
  for (double vg : {-0.3, -0.15, -0.05, 0.05}) {
    for (double vd : {0.05, 0.45, 0.9}) {
      for (std::size_t i = 0; i < n; ++i) {
        vgs[i] = vg + 0.01 * static_cast<double>(i);
        vds[i] = vd;
      }
      fx.bank->evaluateLoadBatch(vgs, vds, kStep, out);
      for (std::size_t i = 0; i < n; ++i) {
        const MosfetLoadEvaluation ref =
            fx.cards[i]->evaluateLoad(fx.geoms[i], vgs[i], vds[i], kStep);
        ASSERT_GT(std::fabs(ref.at.id), 0.0);
        EXPECT_LE(relDiff(out[i].at.id, ref.at.id, 0.0), 1e-9)
            << "vgs=" << vgs[i] << " vds=" << vds[i];
      }
    }
  }
}

TEST(FastNumerics, RebindLaneRefreshesFastState) {
  FastBankFixture fx(3);
  VsParams moved = defaultVsNmos();
  moved.vt0 += 0.05;
  moved.rs = 0.0;  // also exercises a no-series-R lane in the batch
  moved.rd = 0.0;
  const VsModel newCard(moved);
  const DeviceGeometry newGeom = geometryNm(420.0, 48);
  ASSERT_TRUE(fx.bank->rebindLane(1, newCard, newGeom));

  const std::size_t n = 3;
  std::vector<double> vgs = {0.6, 0.62, 0.64};
  std::vector<double> vds = {0.45, 0.44, 0.43};
  std::vector<MosfetLoadEvaluation> out(n);
  fx.bank->evaluateLoadBatch(vgs, vds, kStep, out);

  const MosfetLoadEvaluation ref0 =
      fx.cards[0]->evaluateLoad(fx.geoms[0], vgs[0], vds[0], kStep);
  const MosfetLoadEvaluation ref1 =
      newCard.evaluateLoad(newGeom, vgs[1], vds[1], kStep);
  const MosfetLoadEvaluation ref2 =
      fx.cards[2]->evaluateLoad(fx.geoms[2], vgs[2], vds[2], kStep);
  expectWithinTolerance(out[0], ref0, "lane 0 after foreign rebind");
  expectWithinTolerance(out[1], ref1, "rebound lane");
  expectWithinTolerance(out[2], ref2, "lane 2 after foreign rebind");
}

TEST(FastNumerics, DeterministicAcrossRepeatedEvaluation) {
  // Fast mode trades bit-identity WITH the reference path, never run-to-run
  // determinism: the same lanes and biases must give the same bits every
  // time (campaign results depend on it across workers).
  FastBankFixture fx(6);
  const std::size_t n = fx.cards.size();
  std::vector<double> vgs(n), vds(n);
  for (std::size_t i = 0; i < n; ++i) {
    vgs[i] = 0.1 + 0.12 * static_cast<double>(i);
    vds[i] = 0.9 - 0.13 * static_cast<double>(i);
  }
  std::vector<MosfetLoadEvaluation> a(n), b(n);
  fx.bank->evaluateLoadBatch(vgs, vds, kStep, a);
  for (int rep = 0; rep < 10; ++rep) {
    fx.bank->evaluateLoadBatch(vgs, vds, kStep, b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a[i].at.id, b[i].at.id);
      EXPECT_EQ(a[i].didVgs, b[i].didVgs);
      EXPECT_EQ(a[i].dqgVds, b[i].dqgVds);
    }
  }
}

TEST(FastNumerics, ReferenceModeDefaultIsBitIdenticalToScalar) {
  // Guard the other half of the contract: makeLoadBank without a mode (and
  // with an explicit reference mode) must still be bit-identical to the
  // scalar chain -- fast must never leak into the default path.
  FastBankFixture fx(2);
  std::vector<BankLane> lanes;
  for (std::size_t i = 0; i < 2; ++i)
    lanes.push_back(BankLane{fx.cards[i].get(), &fx.geoms[i]});
  // Call through the base type, like the circuit engine does (the mode
  // default lives on the base declaration only).
  const MosfetModel& asBase = *fx.cards.front();
  const auto def = asBase.makeLoadBank(lanes);
  const auto ref =
      fx.cards.front()->makeLoadBank(lanes, NumericsMode::reference);

  const std::vector<double> vgs = {0.55, 0.7};
  const std::vector<double> vds = {0.8, 0.12};
  std::vector<MosfetLoadEvaluation> a(2), b(2);
  def->evaluateLoadBatch(vgs, vds, kStep, a);
  ref->evaluateLoadBatch(vgs, vds, kStep, b);
  for (std::size_t i = 0; i < 2; ++i) {
    const MosfetLoadEvaluation s =
        fx.cards[i]->evaluateLoad(fx.geoms[i], vgs[i], vds[i], kStep);
    EXPECT_EQ(a[i].at.id, s.at.id);
    EXPECT_EQ(b[i].at.id, s.at.id);
    EXPECT_EQ(a[i].dqsVds, s.dqsVds);
    EXPECT_EQ(b[i].dqsVds, s.dqsVds);
  }
}

}  // namespace
}  // namespace vsstat::models
