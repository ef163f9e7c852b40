#include "measure/snm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace vsstat::measure {

namespace {

void sweepLevelsInto(double supply, int points, std::vector<double>& levels) {
  require(points >= 3, "measureButterfly: need >= 3 sweep points");
  levels.resize(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    levels[static_cast<std::size_t>(i)] =
        supply * static_cast<double>(i) / static_cast<double>(points - 1);
  }
}

/// Session butterfly into caller-owned storage: the campaign inner loop
/// reuses one curve/level buffer set across samples (see measureSnm).
void butterflyInto(circuits::SramButterflyBench& bench,
                   spice::SimSession& session, int points,
                   std::vector<double>& levels, ButterflyCurves& curves) {
  require(&session.circuit() == &bench.circuit,
          "measureButterfly: session is bound to a different circuit");
  sweepLevelsInto(bench.supply, points, levels);
  // One lean sweep of the shared input records both halves' responses
  // (and nothing else) per level.
  curves.curve1.x.assign(levels.begin(), levels.end());
  curves.curve2.y.assign(levels.begin(), levels.end());
  const spice::SweepProbe probes[] = {{bench.out1, &curves.curve1.y},
                                      {bench.out2, &curves.curve2.x}};
  session.dcSweepNodes(bench.sweep1, levels, probes);
  // Seam guard: a swept response that went NaN/Inf is a non-finite solve
  // failure and must be counted as one, not reach the SNM geometry (which
  // would reject the curve as a malformed argument instead).
  for (const std::vector<double>* response : {&curves.curve1.y,
                                               &curves.curve2.x}) {
    for (const double v : *response) {
      if (!std::isfinite(v))
        throw NonFiniteError("measureButterfly: non-finite VTC response");
    }
  }
}

}  // namespace

ButterflyCurves measureButterfly(circuits::SramButterflyBench& bench,
                                 int points) {
  spice::SimSession session(bench.circuit);
  std::vector<double> levels;
  ButterflyCurves curves;
  butterflyInto(bench, session, points, levels, curves);
  return curves;
}

namespace {

/// A VTC polyline in the rotated frame s = x - y, t = x + y, read in
/// ascending s (curve 2 is stored mirrored, so it reads back to front):
/// t is then a piecewise-linear function of s.
struct RotatedCurve {
  explicit RotatedCurve(const VtcCurve& c)
      : curve(c),
        reversed(c.x.back() - c.y.back() < c.x.front() - c.y.front()) {
    for (std::size_t k = 1; k < size(); ++k) {
      require(s(k) > s(k - 1),
              "staticNoiseMargin: a VTC is not monotone in x - y "
              "(gain of +1 or more)");
    }
  }

  [[nodiscard]] std::size_t size() const { return curve.x.size(); }
  [[nodiscard]] std::size_t at(std::size_t k) const {
    return reversed ? size() - 1 - k : k;
  }
  [[nodiscard]] double s(std::size_t k) const {
    return curve.x[at(k)] - curve.y[at(k)];
  }
  [[nodiscard]] double t(std::size_t k) const {
    return curve.x[at(k)] + curve.y[at(k)];
  }
  /// t at `sv` on the segment that ends at vertex k.
  [[nodiscard]] double tOn(std::size_t k, double sv) const {
    return t(k - 1) +
           (sv - s(k - 1)) / (s(k) - s(k - 1)) * (t(k) - t(k - 1));
  }

  const VtcCurve& curve;
  bool reversed;
};

/// The gap g = t1(s) - t2(s) between the rotated curves at one vertex.
struct GapVertex {
  double s = 0.0;
  double t1 = 0.0;
  double g = 0.0;
};

/// Visits every vertex of either curve inside the curves' common s range,
/// in ascending s, with the gap there: a merge walk over both vertex
/// lists.  Between two visited vertices both curves are straight, so the
/// gap is linear there and its extremes sit on visited vertices.
template <typename Visit>
void walkGap(const RotatedCurve& c1, const RotatedCurve& c2, Visit&& visit) {
  const double lo = std::max(c1.s(0), c2.s(0));
  const double hi = std::min(c1.s(c1.size() - 1), c2.s(c2.size() - 1));
  if (lo > hi) return;
  std::size_t i = 0;
  std::size_t j = 0;
  while (c1.s(i) < lo) ++i;
  while (c2.s(j) < lo) ++j;
  while (i < c1.size() && j < c2.size()) {
    const double s = std::min(c1.s(i), c2.s(j));
    if (s > hi) return;
    const double t1 = c1.s(i) == s ? c1.t(i++) : c1.tOn(i, s);
    const double t2 = c2.s(j) == s ? c2.t(j++) : c2.tOn(j, s);
    visit(GapVertex{s, t1, t1 - t2});
  }
}

/// A crossing of the two curves, in both frames.
struct Crossing {
  double x = 0.0;
  double y = 0.0;
  double s = 0.0;
};

/// Calls `onCrossing` for every distinct crossing of the curves -- every
/// zero of the gap -- in ascending s.  A zero within `mergeTolerance` of
/// the previous crossing in both x and y is the same crossing found twice
/// (a zero on a vertex, or the two zeros of a closing eye) and is skipped.
template <typename OnCrossing>
void forEachCrossing(const RotatedCurve& c1, const RotatedCurve& c2,
                     double mergeTolerance, OnCrossing&& onCrossing) {
  bool any = false;
  Crossing last;
  const auto emit = [&](double s, double t) {
    const Crossing c{0.5 * (s + t), 0.5 * (t - s), s};
    if (any && std::fabs(c.x - last.x) < mergeTolerance &&
        std::fabs(c.y - last.y) < mergeTolerance)
      return;
    any = true;
    last = c;
    onCrossing(c);
  };
  GapVertex prev;  // g = 0: no sign change before the first vertex
  walkGap(c1, c2, [&](const GapVertex& v) {
    if (v.g == 0.0) {
      emit(v.s, v.t1);
    } else if (prev.g != 0.0 && (prev.g < 0.0) != (v.g < 0.0)) {
      const double f = prev.g / (prev.g - v.g);
      emit(prev.s + f * (v.s - prev.s), prev.t1 + f * (v.t1 - prev.t1));
    }
    prev = v;
  });
}

}  // namespace

SnmResult staticNoiseMargin(const ButterflyCurves& curves, double vdd) {
  require(curves.curve1.x.size() >= 2 && curves.curve2.x.size() >= 2 &&
              curves.curve1.y.size() == curves.curve1.x.size() &&
              curves.curve2.y.size() == curves.curve2.x.size(),
          "staticNoiseMargin: degenerate curves");
  const RotatedCurve c1(curves.curve1);
  const RotatedCurve c2(curves.curve2);
  const double mergeTolerance = vdd * 2e-3;

  // A butterfly exists only when the two VTCs cross three times (two
  // stable states + the metastable point).  A monostable (flipped) cell
  // has no eyes and zero noise margin.  The stable corners are A =
  // upper-left (highest crossing) and B = lower-right (rightmost), the
  // first found on ties.
  std::size_t count = 0;
  std::size_t iA = 0;
  std::size_t iB = 0;
  Crossing a;
  Crossing b;
  forEachCrossing(c1, c2, mergeTolerance, [&](const Crossing& c) {
    if (count == 0 || c.y > a.y) {
      a = c;
      iA = count;
    }
    if (count == 0 || c.x > b.x) {
      b = c;
      iB = count;
    }
    ++count;
  });
  if (count < 3) return SnmResult{};

  // The metastable point M: the remaining crossing nearest the middle.
  std::size_t index = 0;
  double bestMid = std::numeric_limits<double>::infinity();
  Crossing m;
  forEachCrossing(c1, c2, mergeTolerance, [&](const Crossing& c) {
    const std::size_t i = index++;
    if (i == iA || i == iB) return;
    const double mid =
        std::fabs(c.x - 0.5 * vdd) + std::fabs(c.y - 0.5 * vdd);
    if (mid < bestMid) {
      bestMid = mid;
      m = c;
    }
  });

  // The eyes live between the stable points and M; bounding each lobe's
  // search there keeps the saturated VTC tails beyond the butterfly from
  // faking a square (a READ cell's elevated "low" floor would otherwise do
  // exactly that).  A square with axis-parallel sides and its diagonal
  // corners on the two curves has both corners at one s and side g / 2.
  // In the upper-left eye curve 1 runs above curve 2 (top-right corner on
  // curve 1, g > 0); in the lower-right eye below it (g < 0).
  SnmResult r;
  walkGap(c1, c2, [&](const GapVertex& v) {
    if (v.s >= a.s && v.s <= m.s) r.lobe1 = std::max(r.lobe1, 0.5 * v.g);
    if (v.s >= m.s && v.s <= b.s) r.lobe2 = std::max(r.lobe2, -0.5 * v.g);
  });
  return r;
}

SnmResult measureSnm(circuits::SramButterflyBench& bench,
                     spice::SimSession& session, int points) {
  // Campaign inner loop: sweep into per-thread curve buffers whose
  // capacity survives across samples (fully rewritten per call), instead
  // of materializing a fresh ButterflyCurves per sample.
  static thread_local std::vector<double> levels;
  static thread_local ButterflyCurves curves;
  butterflyInto(bench, session, points, levels, curves);
  return staticNoiseMargin(curves, bench.supply);
}

}  // namespace vsstat::measure
