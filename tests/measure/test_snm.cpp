#include "measure/snm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "mc/providers.hpp"
#include "models/vs_model.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::measure {
namespace {

using circuits::NominalProvider;
using circuits::SramButterflyBench;
using circuits::SramMode;
using circuits::SramSizing;
using models::VsModel;
using spice::NodeId;
using spice::SourceWaveform;

NominalProvider vsProvider() {
  return NominalProvider(VsModel(models::defaultVsNmos()),
                         VsModel(models::defaultVsPmos()));
}

/// Ideal analytic "inverter": a step VTC, SNM of the symmetric butterfly
/// equals half the step width... exact value computed by construction.
VtcCurve stepVtc(double vdd, double threshold, int points = 201) {
  VtcCurve c;
  for (int i = 0; i < points; ++i) {
    const double x = vdd * i / (points - 1);
    c.x.push_back(x);
    // steep but continuous transition
    const double y = vdd / (1.0 + std::exp((x - threshold) / 0.002));
    c.y.push_back(y);
  }
  return c;
}

TEST(Snm, IdealSymmetricButterflyGivesKnownSquare) {
  // Two ideal step inverters at threshold vdd/2: lobes are squares of side
  // ~vdd/2, so the embedded square side approaches vdd/2.
  const double vdd = 1.0;
  ButterflyCurves curves;
  curves.curve1 = stepVtc(vdd, 0.5);
  const VtcCurve v2 = stepVtc(vdd, 0.5);
  curves.curve2.x = v2.y;  // mirrored
  curves.curve2.y = v2.x;
  const SnmResult r = staticNoiseMargin(curves, vdd);
  EXPECT_NEAR(r.lobe1, 0.5, 0.03);
  EXPECT_NEAR(r.lobe2, 0.5, 0.03);
  EXPECT_NEAR(r.cellSnm(), std::min(r.lobe1, r.lobe2), 1e-15);
}

TEST(Snm, AsymmetricThresholdsShrinkOneLobe) {
  const double vdd = 1.0;
  ButterflyCurves curves;
  curves.curve1 = stepVtc(vdd, 0.35);  // early switch
  const VtcCurve v2 = stepVtc(vdd, 0.50);
  curves.curve2.x = v2.y;
  curves.curve2.y = v2.x;
  const SnmResult r = staticNoiseMargin(curves, vdd);
  EXPECT_GT(std::fabs(r.lobe1 - r.lobe2), 0.1);
}

TEST(Snm, MonostableCurvesReportZero) {
  // Two identical non-inverting lines never form a butterfly.
  ButterflyCurves curves;
  curves.curve1 = VtcCurve{{0.0, 1.0}, {0.9, 0.95}};
  curves.curve2 = VtcCurve{{0.0, 1.0}, {0.0, 0.05}};
  const SnmResult r = staticNoiseMargin(curves, 1.0);
  EXPECT_DOUBLE_EQ(r.cellSnm(), 0.0);
}

TEST(Snm, SramHoldButterflyInExpectedRange) {
  auto p = vsProvider();
  SramButterflyBench b =
      circuits::buildSramButterfly(p, 0.9, SramMode::Hold, SramSizing{});
  spice::SimSession session(b.circuit);
  const SnmResult r = measureSnm(b, session);
  // Paper Fig. 9(e): HOLD SNM ~ 0.30 V at 0.9 V supply.
  EXPECT_GT(r.cellSnm(), 0.15);
  EXPECT_LT(r.cellSnm(), 0.45);
}

TEST(Snm, ReadSnmSmallerThanHoldSnm) {
  auto p1 = vsProvider();
  auto hold = circuits::buildSramButterfly(p1, 0.9, SramMode::Hold, SramSizing{});
  auto p2 = vsProvider();
  auto read = circuits::buildSramButterfly(p2, 0.9, SramMode::Read, SramSizing{});
  spice::SimSession holdSession(hold.circuit);
  spice::SimSession readSession(read.circuit);
  const double snmHold = measureSnm(hold, holdSession).cellSnm();
  const double snmRead = measureSnm(read, readSession).cellSnm();
  // Paper Fig. 9(b)/(e): READ ~0.1 V << HOLD ~0.3 V.
  EXPECT_LT(snmRead, 0.7 * snmHold);
  EXPECT_GT(snmRead, 0.0);
}

TEST(Snm, ButterflyCurvesSpanSupply) {
  auto p = vsProvider();
  SramButterflyBench b =
      circuits::buildSramButterfly(p, 0.9, SramMode::Hold, SramSizing{});
  const ButterflyCurves curves = measureButterfly(b, 41);
  EXPECT_EQ(curves.curve1.x.size(), 41u);
  EXPECT_NEAR(curves.curve1.x.front(), 0.0, 1e-12);
  EXPECT_NEAR(curves.curve1.x.back(), 0.9, 1e-12);
  // Curve 2 is mirrored: y spans the sweep.
  EXPECT_NEAR(curves.curve2.y.front(), 0.0, 1e-12);
  EXPECT_NEAR(curves.curve2.y.back(), 0.9, 1e-12);
}

TEST(Snm, RejectsDegenerateCurves) {
  ButterflyCurves curves;
  curves.curve1 = VtcCurve{{0.0}, {1.0}};
  curves.curve2 = VtcCurve{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_THROW((void)staticNoiseMargin(curves, 1.0), InvalidArgumentError);
}

TEST(Snm, RejectsCurvesNotMonotoneInTheRotatedFrame) {
  // Rising from (0.5, 0.2) to (1.0, 0.9) is a gain of +1.4: x - y falls.
  ButterflyCurves curves;
  curves.curve1 = VtcCurve{{0.0, 0.5, 1.0}, {1.0, 0.2, 0.9}};
  curves.curve2 = VtcCurve{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_THROW((void)staticNoiseMargin(curves, 1.0), InvalidArgumentError);
}

// --- brute-force oracle ------------------------------------------------------
// Shares no code with staticNoiseMargin's rotated-frame walk: crossings are
// segment intersections in the original frame, and each lobe's square is
// found by trying every vertex of either curve as the square's binding
// corner and bisecting along the 45-degree diagonal to the other curve.

/// value(key) on a polyline with ascending keys, clamped at the ends.
double valueAt(const std::vector<double>& keys,
               const std::vector<double>& values, double key) {
  if (key <= keys.front()) return values.front();
  if (key >= keys.back()) return values.back();
  std::size_t hi = 1;
  while (keys[hi] < key) ++hi;
  const double f = (key - keys[hi - 1]) / (keys[hi] - keys[hi - 1]);
  return values[hi - 1] + f * (values[hi] - values[hi - 1]);
}

struct Point {
  double x;
  double y;
};

/// Distinct intersection points of the two polylines (merged within
/// `tolerance` in both coordinates, as the SNM's three-crossing rule does).
std::vector<Point> segmentCrossings(const VtcCurve& a, const VtcCurve& b,
                                    double tolerance) {
  std::vector<Point> hits;
  for (std::size_t i = 1; i < a.x.size(); ++i) {
    for (std::size_t j = 1; j < b.x.size(); ++j) {
      const double rx = a.x[i] - a.x[i - 1];
      const double ry = a.y[i] - a.y[i - 1];
      const double qx = b.x[j] - b.x[j - 1];
      const double qy = b.y[j] - b.y[j - 1];
      const double den = rx * qy - ry * qx;
      if (den == 0.0) continue;
      const double dx = b.x[j - 1] - a.x[i - 1];
      const double dy = b.y[j - 1] - a.y[i - 1];
      const double u = (dx * qy - dy * qx) / den;
      const double v = (dx * ry - dy * rx) / den;
      if (u < 0.0 || u > 1.0 || v < 0.0 || v > 1.0) continue;
      const Point p{a.x[i - 1] + u * rx, a.y[i - 1] + u * ry};
      const bool seen = std::any_of(hits.begin(), hits.end(), [&](Point h) {
        return std::fabs(h.x - p.x) < tolerance &&
               std::fabs(h.y - p.y) < tolerance;
      });
      if (!seen) hits.push_back(p);
    }
  }
  return hits;
}

/// Largest a in [0, vdd] with stillInside(a), for a predicate that holds
/// on an initial interval; bisected to 1e-12 V.
double largestSide(const std::function<bool(double)>& stillInside,
                   double vdd) {
  if (!stillInside(0.0)) return 0.0;
  double lo = 0.0;
  double hi = vdd;
  if (stillInside(hi)) return hi;
  while (hi - lo > 1e-12) {
    const double mid = 0.5 * (lo + hi);
    (stillInside(mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

SnmResult oracleSnm(const ButterflyCurves& c, double vdd) {
  const std::vector<Point> hits =
      segmentCrossings(c.curve1, c.curve2, vdd * 2e-3);
  if (hits.size() < 3) return SnmResult{};
  std::size_t iA = 0;
  std::size_t iB = 0;
  for (std::size_t i = 1; i < hits.size(); ++i) {
    if (hits[i].y > hits[iA].y) iA = i;
    if (hits[i].x > hits[iB].x) iB = i;
  }
  std::size_t iM = hits.size();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i == iA || i == iB) continue;
    const auto mid = [&](std::size_t k) {
      return std::fabs(hits[k].x - 0.5 * vdd) +
             std::fabs(hits[k].y - 0.5 * vdd);
    };
    if (iM == hits.size() || mid(i) < mid(iM)) iM = i;
  }
  const auto diagonal = [](Point p) { return p.x - p.y; };
  const double sA = diagonal(hits[iA]);
  const double sM = diagonal(hits[iM]);
  const double sB = diagonal(hits[iB]);
  // Curve 1 is y = f1(x); curve 2 (mirrored) is x = f2(y).
  const auto f1 = [&](double x) {
    return valueAt(c.curve1.x, c.curve1.y, x);
  };
  const auto f2 = [&](double y) {
    return valueAt(c.curve2.y, c.curve2.x, y);
  };

  SnmResult r;
  for (std::size_t k = 0; k < c.curve1.x.size(); ++k) {
    const Point p{c.curve1.x[k], c.curve1.y[k]};
    const double s = diagonal(p);
    if (s >= sA && s <= sM) {  // upper-left eye: p is the top-right corner
      r.lobe1 = std::max(r.lobe1, largestSide([&](double a) {
        return p.x - a > f2(p.y - a);
      }, vdd));
    }
    if (s >= sM && s <= sB) {  // lower-right eye: p is the bottom-left one
      r.lobe2 = std::max(r.lobe2, largestSide([&](double a) {
        return p.x + a < f2(p.y + a);
      }, vdd));
    }
  }
  for (std::size_t k = 0; k < c.curve2.x.size(); ++k) {
    const Point p{c.curve2.x[k], c.curve2.y[k]};
    const double s = diagonal(p);
    if (s >= sA && s <= sM) {  // upper-left eye: p is the bottom-left corner
      r.lobe1 = std::max(r.lobe1, largestSide([&](double a) {
        return p.y + a < f1(p.x + a);
      }, vdd));
    }
    if (s >= sM && s <= sB) {  // lower-right eye: p is the top-right one
      r.lobe2 = std::max(r.lobe2, largestSide([&](double a) {
        return p.y - a > f1(p.x - a);
      }, vdd));
    }
  }
  return r;
}

/// A random VTC of `n` vertices: inputs sorted at random over [0, vdd],
/// outputs on a logistic between random rails plus a ripple whose slope
/// stays below +0.8, so the gain stays below +1.  A `critical` curve
/// switches near mid-rail with a gain near -1: two of them run close
/// together, and their ripples make them cross more than three times.
VtcCurve randomVtc(std::mt19937_64& gen, int n, double vdd, bool critical) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  VtcCurve c;
  c.x = {0.0, vdd};
  while (static_cast<int>(c.x.size()) < n) {
    const double x = vdd * unit(gen);
    if (std::find(c.x.begin(), c.x.end(), x) == c.x.end()) c.x.push_back(x);
  }
  std::sort(c.x.begin(), c.x.end());
  const double low = (critical ? 0.05 : 0.25) * vdd * unit(gen);
  const double high = vdd * (critical ? 0.95 + 0.05 * unit(gen)
                                      : 0.75 + 0.25 * unit(gen));
  const double threshold =
      vdd * (critical ? 0.47 + 0.06 * unit(gen) : 0.3 + 0.4 * unit(gen));
  // Logistic slope at the threshold: (high - low) / (4 width).
  const double width = critical
                           ? (high - low) / (4.0 * (0.7 + 0.9 * unit(gen)))
                           : vdd * (0.005 + 0.15 * unit(gen));
  const double ripple = 0.02 * vdd * unit(gen);
  const double frequency = 0.8 / (0.02 * vdd) * (0.3 + 0.7 * unit(gen));
  const double phase = 6.283 * unit(gen);
  for (const double x : c.x) {
    c.y.push_back(low +
                  (high - low) / (1.0 + std::exp((x - threshold) / width)) +
                  ripple * std::sin(frequency * x + phase));
  }
  return c;
}

TEST(Snm, RotatedWalkMatchesBruteForceOracle) {
  const double vdd = 0.9;
  std::mt19937_64 gen(20261018);
  std::uniform_int_distribution<int> vertices(3, 60);
  int bistable = 0;
  int monostable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool critical = trial % 2 == 1;
    ButterflyCurves curves;
    curves.curve1 = randomVtc(gen, vertices(gen), vdd, critical);
    const VtcCurve mirrored = randomVtc(gen, vertices(gen), vdd, critical);
    curves.curve2.x = mirrored.y;
    curves.curve2.y = mirrored.x;

    const SnmResult walk = staticNoiseMargin(curves, vdd);
    const SnmResult oracle = oracleSnm(curves, vdd);
    EXPECT_NEAR(walk.lobe1, oracle.lobe1, 1e-9) << "trial " << trial;
    EXPECT_NEAR(walk.lobe2, oracle.lobe2, 1e-9) << "trial " << trial;
    EXPECT_EQ(walk.cellSnm() == 0.0, oracle.cellSnm() == 0.0)
        << "trial " << trial;
    ++(oracle.cellSnm() > 0.0 ? bistable : monostable);
  }
  // Both verdicts are exercised.
  EXPECT_GE(bistable, 40);
  EXPECT_GE(monostable, 40);
}

/// A mirrored curve 2 whose gap to curve 1 = the line y = 1 - x (t = 1)
/// is `gap` at each listed s, in falling s (rising sweep level y).
VtcCurve mirroredFromGap(
    const std::vector<std::pair<double, double>>& sAndGap) {
  VtcCurve c;
  for (const auto& [s, gap] : sAndGap) {
    const double t = 1.0 - gap;
    c.x.push_back(0.5 * (s + t));
    c.y.push_back(0.5 * (t - s));
  }
  return c;
}

TEST(Snm, AnEyeNarrowerThanTheMergeToleranceIsClosed) {
  // Curve 2 crosses the line at A (s = -0.87), then dips below it: the
  // lower-right eye lies between M and B.  At vdd = 1 the merge tolerance
  // is 2 mV.
  ButterflyCurves curves;
  curves.curve1 = VtcCurve{{0.0, 1.0}, {1.0, 0.0}};
  // M and B 0.5 mV apart in x and y: one crossing, so no butterfly.
  curves.curve2 = mirroredFromGap({{1.0, 0.2}, {0.6235, 0.0005},
                                   {0.6225, -0.0005}, {0.6, 0.02},
                                   {0.4, 0.2}, {-0.6, 0.2}, {-1.0, -0.1}});
  EXPECT_EQ(staticNoiseMargin(curves, 1.0).cellSnm(), 0.0);
  EXPECT_EQ(oracleSnm(curves, 1.0).cellSnm(), 0.0);
  // M and B 5.5 mV apart: a 2.5 mV eye.
  curves.curve2 = mirroredFromGap({{1.0, 0.2}, {0.64, 0.005},
                                   {0.63, -0.005}, {0.6, 0.02},
                                   {0.4, 0.2}, {-0.6, 0.2}, {-1.0, -0.1}});
  const SnmResult open = staticNoiseMargin(curves, 1.0);
  EXPECT_NEAR(open.lobe1, 0.1, 1e-12);
  EXPECT_NEAR(open.lobe2, 0.0025, 1e-12);
  EXPECT_NEAR(oracleSnm(curves, 1.0).lobe2, 0.0025, 1e-9);
}

// --- paired sweep ------------------------------------------------------------

/// One half of `bench` on its own: its three cards copied, its input swept
/// by source "U", and the fixture's VDD/VBL/VWL levels.
struct HalfCell {
  spice::Circuit circuit;
  NodeId out = 0;
};

HalfCell isolatedHalf(SramButterflyBench& bench, int half, SramMode mode) {
  HalfCell h;
  spice::Circuit& c = h.circuit;
  const NodeId vdd = c.node("vdd");
  const NodeId wl = c.node("wl");
  const NodeId bl = c.node("bl");
  const NodeId in = c.node("u");
  h.out = c.node("y");
  const auto copy = [&](const std::string& name, NodeId drain, NodeId gate,
                        NodeId source) {
    const std::string instance = name + std::to_string(half);
    const spice::MosfetElement& m = bench.circuit.mosfet(instance);
    c.addMosfet(instance, drain, gate, source, m.model().clone(),
                m.geometry());
  };
  copy("MPU", h.out, in, vdd);
  copy("MPD", h.out, in, c.ground());
  copy("MPG", bl, wl, h.out);
  const double supply = bench.supply;
  c.addVoltageSource("VDD", vdd, c.ground(), SourceWaveform::dc(supply));
  c.addVoltageSource("VBL", bl, c.ground(), SourceWaveform::dc(supply));
  c.addVoltageSource(
      "VWL", wl, c.ground(),
      SourceWaveform::dc(mode == SramMode::Read ? supply : 0.0));
  c.addVoltageSource("U", in, c.ground(), SourceWaveform::dc(0.0));
  return h;
}

/// Each VTC of the one paired sweep equals its half swept on its own.
void expectHalvesMatchPairedSweep(SramButterflyBench& bench, SramMode mode) {
  const ButterflyCurves curves = measureButterfly(bench, 45);
  for (const int half : {1, 2}) {
    HalfCell alone = isolatedHalf(bench, half, mode);
    std::vector<double> response;
    spice::SimSession(alone.circuit)
        .dcSweepNode("U", curves.curve1.x, alone.out, response);
    const std::vector<double>& paired =
        half == 1 ? curves.curve1.y : curves.curve2.x;
    ASSERT_EQ(paired.size(), response.size());
    for (std::size_t k = 0; k < paired.size(); ++k) {
      EXPECT_NEAR(paired[k], response[k], 1e-6)
          << "half " << half << ", level " << k;
    }
  }
}

TEST(Snm, PairedSweepTracesEachHalfAsIfSweptAlone) {
  for (const SramMode mode : {SramMode::Read, SramMode::Hold}) {
    auto p = vsProvider();
    SramButterflyBench b = circuits::buildSramButterfly(p, 0.9, mode,
                                                        SramSizing{});
    expectHalvesMatchPairedSweep(b, mode);
  }
}

TEST(Snm, PairedSweepKeepsMismatchedHalvesApart) {
  // With mismatch drawn, the halves differ, so each curve must be its own
  // half's VTC rather than the other's.
  models::PelgromAlphas alphas;
  alphas.aVt0 = 2.3;
  alphas.aLeff = 3.7;
  alphas.aWeff = 3.7;
  alphas.aMu = 900.0;
  alphas.aCinv = 0.3;
  for (const SramMode mode : {SramMode::Read, SramMode::Hold}) {
    mc::VsStatisticalProvider p(models::defaultVsNmos(),
                                models::defaultVsPmos(), alphas, alphas,
                                stats::Rng(mode == SramMode::Read ? 7 : 8));
    SramButterflyBench b = circuits::buildSramButterfly(p, 0.9, mode,
                                                        SramSizing{});
    expectHalvesMatchPairedSweep(b, mode);
  }
}

}  // namespace
}  // namespace vsstat::measure
