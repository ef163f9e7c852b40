#include "extract/bpv2.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/levmar.hpp"
#include "measure/device_metrics.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::extract {

namespace {

void setDelta(models::VariationDelta& d, Parameter p, double value) noexcept {
  switch (p) {
    case Parameter::Vt0:
      d.dVt0 = value;
      break;
    case Parameter::Leff:
      d.dLeff = value;
      break;
    case Parameter::Weff:
      d.dWeff = value;
      break;
    case Parameter::Mu:
      d.dMu = value;
      break;
    case Parameter::Cinv:
      d.dCinv = value;
      break;
  }
}

std::array<double, kTargetCount> evalTargets(
    const models::VsParams& card, const models::DeviceGeometry& geom,
    double vdd, const models::VariationDelta& delta) {
  const models::VsParams varied = models::applyToVs(card, delta);
  const models::DeviceGeometry g = models::applyGeometry(geom, delta);
  const models::VsModel model(varied);
  const measure::ElectricalTargets t = measure::measureTargets(model, g, vdd);
  return {t.idsat, t.log10Ioff, t.cgg};
}

std::array<double, kParameterCount> sigmaArray(
    const models::PelgromAlphas& alphas, const models::DeviceGeometry& geom) {
  const models::ParameterSigmas s = models::sigmasFor(alphas, geom);
  return {s.sVt0, s.sLeff, s.sWeff, s.sMu, s.sCinv};
}

}  // namespace

std::array<linalg::Matrix, kTargetCount> targetHessians(
    const models::VsParams& card, const models::DeviceGeometry& geom,
    double vdd) {
  require(vdd > 0.0, "targetHessians: vdd must be positive");
  const auto steps = sensitivitySteps(card, geom);

  const auto at = [&](double hj, Parameter pj, double hk, Parameter pk) {
    models::VariationDelta d{};
    setDelta(d, pj, hj);
    if (pk != pj) {
      setDelta(d, pk, hk);
    } else {
      setDelta(d, pj, hj + hk);
    }
    return evalTargets(card, geom, vdd, d);
  };

  std::array<linalg::Matrix, kTargetCount> h;
  for (auto& m : h) m = linalg::Matrix(kParameterCount, kParameterCount);

  const auto base = evalTargets(card, geom, vdd, models::VariationDelta{});
  for (std::size_t j = 0; j < kParameterCount; ++j) {
    const Parameter pj = static_cast<Parameter>(j);
    const double hj = steps[j];

    // Diagonal: (f(+h) - 2 f(0) + f(-h)) / h^2.
    const auto up = at(hj, pj, 0.0, pj);
    const auto dn = at(-hj, pj, 0.0, pj);
    for (std::size_t i = 0; i < kTargetCount; ++i)
      h[i](j, j) = (up[i] - 2.0 * base[i] + dn[i]) / (hj * hj);

    // Off-diagonal: four-point cross stencil, mirrored by symmetry.
    for (std::size_t k = j + 1; k < kParameterCount; ++k) {
      const Parameter pk = static_cast<Parameter>(k);
      const double hk = steps[k];
      const auto pp = at(hj, pj, hk, pk);
      const auto pm = at(hj, pj, -hk, pk);
      const auto mp = at(-hj, pj, hk, pk);
      const auto mm = at(-hj, pj, -hk, pk);
      for (std::size_t i = 0; i < kTargetCount; ++i) {
        const double d2 = (pp[i] - pm[i] - mp[i] + mm[i]) / (4.0 * hj * hk);
        h[i](j, k) = d2;
        h[i](k, j) = d2;
      }
    }
  }
  return h;
}

linalg::Matrix independentCorrelation() {
  return linalg::Matrix::identity(kParameterCount);
}

void validateCorrelation(const linalg::Matrix& r) {
  require(r.rows() == kParameterCount && r.cols() == kParameterCount,
          "correlation matrix must be kParameterCount square");
  for (std::size_t j = 0; j < kParameterCount; ++j) {
    require(std::fabs(r(j, j) - 1.0) < 1e-12,
            "correlation matrix must have unit diagonal");
    for (std::size_t k = 0; k < kParameterCount; ++k) {
      require(std::fabs(r(j, k) - r(k, j)) < 1e-12,
              "correlation matrix must be symmetric");
      require(r(j, k) >= -1.0 - 1e-12 && r(j, k) <= 1.0 + 1e-12,
              "correlation entries must lie in [-1, 1]");
    }
  }
}

std::array<SecondOrderVariance, kTargetCount> propagateVarianceSecondOrder(
    const models::VsParams& card, const models::DeviceGeometry& geom,
    const models::PelgromAlphas& alphas, const linalg::Matrix& correlation,
    double vdd) {
  validateCorrelation(correlation);
  const linalg::Matrix sens = targetSensitivities(card, geom, vdd);
  const auto hessians = targetHessians(card, geom, vdd);
  const auto sigma = sigmaArray(alphas, geom);

  // Covariance S = D R D.
  linalg::Matrix cov(kParameterCount, kParameterCount);
  for (std::size_t j = 0; j < kParameterCount; ++j)
    for (std::size_t k = 0; k < kParameterCount; ++k)
      cov(j, k) = correlation(j, k) * sigma[j] * sigma[k];

  std::array<SecondOrderVariance, kTargetCount> result;
  for (std::size_t i = 0; i < kTargetCount; ++i) {
    // First order: g' S g.
    double first = 0.0;
    for (std::size_t j = 0; j < kParameterCount; ++j)
      for (std::size_t k = 0; k < kParameterCount; ++k)
        first += sens(i, j) * cov(j, k) * sens(i, k);

    // Second order: 0.5 tr((H S)^2) and mean shift 0.5 tr(H S).
    const linalg::Matrix hs = hessians[i] * cov;
    double trHs = 0.0;
    double trHsSq = 0.0;
    for (std::size_t j = 0; j < kParameterCount; ++j) {
      trHs += hs(j, j);
      for (std::size_t k = 0; k < kParameterCount; ++k)
        trHsSq += hs(j, k) * hs(k, j);
    }

    result[i].firstOrder = first;
    result[i].secondOrder = 0.5 * trHsSq;
    result[i].meanShift = 0.5 * trHs;
  }
  return result;
}

CorrelatedBpvResult solveBpvCorrelated(
    const models::VsParams& card,
    const std::vector<GeometryMeasurement>& meas,
    const linalg::Matrix& correlation) {
  require(!meas.empty(), "solveBpvCorrelated: no measurements");
  validateCorrelation(correlation);
  const BpvOptions base;  // alpha2 == alpha3, Cinv measured directly

  // Sensitivities are alpha-independent: compute once per geometry.
  std::vector<linalg::Matrix> sens;
  sens.reserve(meas.size());
  for (const GeometryMeasurement& m : meas)
    sens.push_back(targetSensitivities(card, m.geom, base.vdd));

  // Init from the independence assumption.
  const BpvResult inner = solveBpv(card, meas, base);

  // A naive fixed-point iteration (subtract the cross terms evaluated at
  // the current alpha estimate, re-solve, repeat) is unstable here: with a
  // strong planted correlation the independent solve starts on the NNLS
  // zero boundary, where the correction vanishes and the iteration
  // freezes; away from the boundary its gain can exceed one.  Instead the
  // full Eq. (8) forward model -- diagonal plus bilinear cross terms -- is
  // fitted directly in alpha space with bounded Levenberg-Marquardt.
  //
  // Unknown layout mirrors bpv.cpp: [aVt0, aLeff == aWeff, aMu]; Cinv is
  // not an unknown.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  constexpr std::array<std::size_t, kParameterCount> kColumnOf = {0, 1, 1, 2,
                                                                  kNone};
  constexpr std::size_t kUnknowns = 3;
  constexpr int kMaxIterations = 60;

  // Per-geometry conversion factors k_j with sigma_j = k_j * alpha_j.
  std::vector<std::array<double, kParameterCount>> unitSigma(meas.size());
  models::PelgromAlphas unit;
  unit.aVt0 = unit.aLeff = unit.aWeff = unit.aMu = unit.aCinv = 1.0;
  for (std::size_t g = 0; g < meas.size(); ++g)
    unitSigma[g] = sigmaArray(unit, meas[g].geom);

  const auto alphaAt = [&](const linalg::Vector& x, std::size_t param) {
    const std::size_t col = kColumnOf[param];
    if (col != kNone) return x[col];
    // Cinv in the direct-measurement flow.
    return base.aCinvDirect;
  };

  const std::size_t residualSize = meas.size() * kTargetCount;
  const auto residualFn = [&](const linalg::Vector& x, linalg::Vector& r) {
    std::size_t row = 0;
    for (std::size_t g = 0; g < meas.size(); ++g) {
      std::array<double, kParameterCount> sigma{};
      for (std::size_t j = 0; j < kParameterCount; ++j)
        sigma[j] = alphaAt(x, j) * unitSigma[g][j];

      const std::array<double, kTargetCount> measured = {
          meas[g].varIdsat, meas[g].varLog10Ioff, meas[g].varCgg};
      for (std::size_t i = 0; i < kTargetCount; ++i) {
        double predicted = 0.0;
        for (std::size_t j = 0; j < kParameterCount; ++j)
          for (std::size_t k = 0; k < kParameterCount; ++k)
            predicted += correlation(j, k) * sens[g](i, j) * sens[g](i, k) *
                         sigma[j] * sigma[k];
        // Relative residual: targets span many orders of magnitude.
        r[row++] = predicted / std::max(measured[i], 1e-300) - 1.0;
      }
    }
  };

  // Start from the independent solve, but re-seed any coefficient it
  // pinned at zero with the alpha that parameter would need to explain a
  // share of the measured Idsat variance on its own.  That keeps the start
  // at the right order of magnitude, which bounded LM needs for a usable
  // finite-difference gradient.
  const auto singleParameterSeed = [&](std::size_t param) {
    double sumSq = 0.0;
    for (std::size_t g = 0; g < meas.size(); ++g) {
      const double gk = sens[g](0, param) * unitSigma[g][param];
      if (gk != 0.0) sumSq += meas[g].varIdsat / (gk * gk);
    }
    return std::sqrt(sumSq / static_cast<double>(meas.size()) /
                     static_cast<double>(kParameterCount));
  };

  linalg::Vector x0(kUnknowns, 0.0);
  const auto initial = [&](Parameter p, double fromIndependent) {
    const std::size_t param = static_cast<std::size_t>(p);
    x0[kColumnOf[param]] = fromIndependent > 0.0 ? fromIndependent
                                                 : singleParameterSeed(param);
  };
  initial(Parameter::Vt0, inner.alphas.aVt0);
  initial(Parameter::Leff, inner.alphas.aLeff);
  initial(Parameter::Mu, inner.alphas.aMu);

  linalg::LevMarOptions lm;
  lm.maxIterations = kMaxIterations;
  lm.lowerBounds.assign(kUnknowns, 0.0);
  const linalg::LevMarResult fit =
      linalg::levenbergMarquardt(residualFn, x0, residualSize, lm);

  CorrelatedBpvResult result;
  result.outerIterations = fit.iterations;
  result.converged = fit.converged || fit.cost < 1e-10 * residualSize;
  result.alphas.aVt0 = alphaAt(fit.x, static_cast<std::size_t>(Parameter::Vt0));
  result.alphas.aLeff =
      alphaAt(fit.x, static_cast<std::size_t>(Parameter::Leff));
  result.alphas.aWeff =
      alphaAt(fit.x, static_cast<std::size_t>(Parameter::Weff));
  result.alphas.aMu = alphaAt(fit.x, static_cast<std::size_t>(Parameter::Mu));
  result.alphas.aCinv =
      alphaAt(fit.x, static_cast<std::size_t>(Parameter::Cinv));
  result.residualNorm = std::sqrt(2.0 * fit.cost);
  if (!result.converged) {
    throw ConvergenceError("solveBpvCorrelated: LM did not converge",
                           result.outerIterations);
  }
  return result;
}

}  // namespace vsstat::extract
