#include "measure/snm.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

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
  // Lean sweeps: only the probed response node is recorded per level (the
  // solver trajectory -- hence every voltage -- matches dcSweep exactly).
  curves.curve1.x.assign(levels.begin(), levels.end());
  session.dcSweepNode(bench.sweep1, levels, bench.out1, curves.curve1.y);
  curves.curve2.y.assign(levels.begin(), levels.end());
  session.dcSweepNode(bench.sweep2, levels, bench.out2, curves.curve2.x);
  // Seam guard: a swept response that went NaN/Inf must not feed the SNM
  // geometry silently (segment intersection on NaN quietly yields a
  // monostable verdict -- i.e. SNM 0 -- which would bias yield instead of
  // being counted as a non-finite failure).
  for (const double v : curves.curve1.y) {
    if (!std::isfinite(v))
      throw NonFiniteError("measureButterfly: non-finite VTC response");
  }
  for (const double v : curves.curve2.x) {
    if (!std::isfinite(v))
      throw NonFiniteError("measureButterfly: non-finite VTC response");
  }
}

}  // namespace

ButterflyCurves measureButterfly(circuits::SramButterflyBench& bench,
                                 spice::SimSession& session, int points) {
  std::vector<double> levels;
  ButterflyCurves curves;
  butterflyInto(bench, session, points, levels, curves);
  return curves;
}

ButterflyCurves measureButterfly(circuits::SramButterflyBench& bench,
                                 int points) {
  spice::SimSession session(bench.circuit);
  return measureButterfly(bench, session, points);
}

namespace {

/// Intersection point of two segments, if any (parametric clipping).
std::optional<std::pair<double, double>> segmentIntersection(
    double ax, double ay, double bx, double by, double cx, double cy,
    double dx, double dy) {
  const double rX = bx - ax;
  const double rY = by - ay;
  const double sX = dx - cx;
  const double sY = dy - cy;
  const double denom = rX * sY - rY * sX;
  const double qpX = cx - ax;
  const double qpY = cy - ay;
  if (std::fabs(denom) < 1e-18) return std::nullopt;  // parallel
  const double t = (qpX * sY - qpY * sX) / denom;
  const double u = (qpX * rY - qpY * rX) / denom;
  if (t < -1e-12 || t > 1.0 + 1e-12 || u < -1e-12 || u > 1.0 + 1e-12)
    return std::nullopt;
  return std::make_pair(ax + t * rX, ay + t * rY);
}

/// Geometrically distinct intersection points of two polylines, written
/// into the caller's buffer (cleared first, capacity reused).
void intersectionPointsInto(const VtcCurve& a, const VtcCurve& b,
                            double mergeTolerance,
                            std::vector<std::pair<double, double>>& hits) {
  hits.clear();
  for (std::size_t i = 1; i < a.x.size(); ++i) {
    for (std::size_t j = 1; j < b.x.size(); ++j) {
      const auto hit =
          segmentIntersection(a.x[i - 1], a.y[i - 1], a.x[i], a.y[i],
                              b.x[j - 1], b.y[j - 1], b.x[j], b.y[j]);
      if (!hit) continue;
      bool duplicate = false;
      for (const auto& h : hits) {
        if (std::fabs(h.first - hit->first) < mergeTolerance &&
            std::fabs(h.second - hit->second) < mergeTolerance) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) hits.push_back(*hit);
    }
  }
}

/// Linear interpolation of value(key) on a polyline with ascending keys;
/// clamps beyond the swept range (VTC rails saturate).
double interpolate(const std::vector<double>& keys,
                   const std::vector<double>& values, double key) {
  if (key <= keys.front()) return values.front();
  if (key >= keys.back()) return values.back();
  const auto it = std::upper_bound(keys.begin(), keys.end(), key);
  const std::size_t hi = static_cast<std::size_t>(it - keys.begin());
  const std::size_t lo = hi - 1;
  const double span = keys[hi] - keys[lo];
  if (span <= 0.0) return values[hi];
  const double f = (key - keys[lo]) / span;
  return values[lo] * (1.0 - f) + values[hi] * f;
}

}  // namespace

bool polylinesIntersect(const VtcCurve& a, const VtcCurve& b) {
  std::vector<std::pair<double, double>> hits;
  intersectionPointsInto(a, b, 1e-12, hits);
  return !hits.empty();
}

SnmResult staticNoiseMargin(const ButterflyCurves& curves, double vdd) {
  require(curves.curve1.x.size() >= 2 && curves.curve2.x.size() >= 2,
          "staticNoiseMargin: degenerate curves");

  // A butterfly exists only when the two VTCs cross three times (two
  // stable states + the metastable point).  A monostable (flipped) cell
  // has no eyes and zero noise margin.  The crossing list and the lobe
  // grids below live in per-thread buffers reused across calls: this
  // routine runs once per Monte Carlo sample, and its scratch was most of
  // the campaign's remaining measurement-side allocations.
  static thread_local std::vector<std::pair<double, double>> crossings;
  intersectionPointsInto(curves.curve1, curves.curve2, vdd * 2e-3, crossings);
  if (crossings.size() < 3) return SnmResult{};

  // Identify the stable corners and the metastable point: A = upper-left,
  // B = lower-right, M = the remaining crossing nearest the middle.  The
  // eyes live strictly between the stable points and M; the square scans
  // below are restricted to those ranges so the saturated VTC tails beyond
  // the butterfly cannot fake a square (a READ cell's elevated "low" floor
  // would otherwise do exactly that).
  std::size_t iA = 0, iB = 0;
  for (std::size_t i = 1; i < crossings.size(); ++i) {
    if (crossings[i].second > crossings[iA].second) iA = i;
    if (crossings[i].first > crossings[iB].first) iB = i;
  }
  std::size_t iM = crossings.size();
  double bestMid = 0.0;
  for (std::size_t i = 0; i < crossings.size(); ++i) {
    if (i == iA || i == iB) continue;
    const double mid = std::fabs(crossings[i].first - 0.5 * vdd) +
                       std::fabs(crossings[i].second - 0.5 * vdd);
    if (iM == crossings.size() || mid < bestMid) {
      bestMid = mid;
      iM = i;
    }
  }
  if (iM == crossings.size()) return SnmResult{};  // degenerate butterfly
  const double yA = crossings[iA].second;
  const double xB = crossings[iB].first;
  const double xM = crossings[iM].first;
  const double yM = crossings[iM].second;

  // Express both curves as functions: f1(x) = curve 1 output, and
  // f2(u) = curve 2's x at sweep level u (curve 2 is stored mirrored, so
  // its sweep variable is y).  Both are monotone-decreasing inverter VTCs;
  // interpolation clamps to the rails outside the swept range.
  const auto f1 = [&](double x) {
    return interpolate(curves.curve1.x, curves.curve1.y, x);
  };
  const auto f2 = [&](double u) {
    return interpolate(curves.curve2.y, curves.curve2.x, u);
  };

  // Largest axis-aligned square of side t inside the upper-left eye:
  // corners (xl, yb)..(xl+t, yb+t).  The square must stay below curve 1
  // (f1 decreasing: binding at the top-right corner, yb + t <= f1(xl + t))
  // and right of curve 2 (f2 decreasing in its sweep variable: binding at
  // the bottom-left corner, xl >= f2(yb)).  Substituting the tightest
  // xl = f2(yb):
  //   fits(t)  <=>  exists yb : f1(f2(yb) + t) - t >= yb.
  // The inner anchor interpolation (f2(yb) resp. f1(xl)) does not depend
  // on the square side t, so it is hoisted out of the bisection: one grid
  // evaluation per lobe instead of one per (bisection iteration x grid
  // point).  The surviving arithmetic is unchanged, so SNM values are
  // bit-identical to the unhoisted form.
  const int gridPoints = 360;
  static thread_local std::vector<double> upperYb;
  static thread_local std::vector<double> upperAnchor;
  upperYb.resize(gridPoints + 1);
  upperAnchor.resize(gridPoints + 1);
  for (int i = 0; i <= gridPoints; ++i) {
    upperYb[i] = yM + (yA - yM) * static_cast<double>(i) / gridPoints;
    upperAnchor[i] = f2(upperYb[i]);
  }
  const auto fitsUpper = [&](double t) {
    for (int i = 0; i <= gridPoints; ++i) {
      if (f1(upperAnchor[i] + t) - t >= upperYb[i]) return true;
    }
    return false;
  };
  // Lower-right eye by symmetry (square above curve 1, binding at the
  // bottom-left corner yb >= f1(xl); left of curve 2, binding at the
  // top-right corner xl + t <= f2(yb + t)).  With the tightest yb = f1(xl):
  //   fits(t)  <=>  exists xl : f2(f1(xl) + t) - t >= xl.
  static thread_local std::vector<double> lowerXl;
  static thread_local std::vector<double> lowerAnchor;
  lowerXl.resize(gridPoints + 1);
  lowerAnchor.resize(gridPoints + 1);
  for (int i = 0; i <= gridPoints; ++i) {
    lowerXl[i] = xM + (xB - xM) * static_cast<double>(i) / gridPoints;
    lowerAnchor[i] = f1(lowerXl[i]);
  }
  const auto fitsLower = [&](double t) {
    for (int i = 0; i <= gridPoints; ++i) {
      if (f2(lowerAnchor[i] + t) - t >= lowerXl[i]) return true;
    }
    return false;
  };

  // Generic lambda: no std::function wrapper (whose capture allocation per
  // call was measurable in campaign profiles).
  const auto largestSide = [&](const auto& fits) {
    if (!fits(0.0)) return 0.0;
    double lo = 0.0;
    double hi = vdd;
    if (fits(hi)) return hi;
    for (int iter = 0; iter < 30; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (fits(mid) ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  };

  SnmResult r;
  r.lobe1 = largestSide(fitsUpper);
  r.lobe2 = largestSide(fitsLower);
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

SnmResult measureSnm(circuits::SramButterflyBench& bench, int points) {
  spice::SimSession session(bench.circuit);
  return measureSnm(bench, session, points);
}

}  // namespace vsstat::measure
