#include "extract/bpv.hpp"

#include <cmath>

#include "extract/sensitivity.hpp"
#include "linalg/nnls.hpp"
#include "util/error.hpp"

namespace vsstat::extract {

namespace {

constexpr std::size_t kVt0 = static_cast<std::size_t>(Parameter::Vt0);
constexpr std::size_t kLeff = static_cast<std::size_t>(Parameter::Leff);
constexpr std::size_t kWeff = static_cast<std::size_t>(Parameter::Weff);
constexpr std::size_t kMu = static_cast<std::size_t>(Parameter::Mu);
constexpr std::size_t kCinv = static_cast<std::size_t>(Parameter::Cinv);

/// SI sigma per unit alpha for each parameter at this geometry, i.e. the
/// conversion * geometry factor k_j with sigma_j = k_j * alpha_j.
std::array<double, kParameterCount> perUnitAlphaSigmas(
    const models::DeviceGeometry& geom) {
  models::PelgromAlphas unit;
  unit.aVt0 = unit.aLeff = unit.aWeff = unit.aMu = unit.aCinv = 1.0;
  const models::ParameterSigmas s = models::sigmasFor(unit, geom);
  return {s.sVt0, s.sLeff, s.sWeff, s.sMu, s.sCinv};
}

/// Unknown layout of the NNLS system.
struct UnknownLayout {
  // Index of each alpha^2 unknown in the solution vector; SIZE_MAX when the
  // parameter is not an unknown (Cinv in the default flow).
  std::array<std::size_t, kParameterCount> column{};
  std::size_t count = 0;
};

UnknownLayout makeLayout(const BpvOptions& opt) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  UnknownLayout layout;
  layout.column.fill(kNone);
  std::size_t next = 0;
  layout.column[kVt0] = next++;
  layout.column[kLeff] = next++;
  layout.column[kWeff] = opt.tieLengthWidth ? layout.column[kLeff] : next++;
  layout.column[kMu] = next++;
  if (opt.solveCinvByBpv) layout.column[kCinv] = next++;
  layout.count = next;
  return layout;
}

struct StackedSystem {
  linalg::Matrix a;
  linalg::Vector b;
  int dropped = 0;
};

StackedSystem buildSystem(const models::VsParams& card,
                          const std::vector<GeometryMeasurement>& meas,
                          const BpvOptions& opt, const UnknownLayout& layout) {
  std::vector<std::array<double, 8>> rows;  // coefficients (<=5) + rhs
  int dropped = 0;

  for (const GeometryMeasurement& m : meas) {
    const linalg::Matrix sens = targetSensitivities(card, m.geom, opt.vdd);
    const auto k = perUnitAlphaSigmas(m.geom);
    // Directly-measured Cinv sigma at this geometry (SI): k[kCinv] is the
    // per-unit-alpha conversion, so multiply by the measured coefficient.
    const double sigmaCinv = opt.aCinvDirect * k[kCinv];

    const std::array<double, kTargetCount> measuredVar = {
        m.varIdsat, m.varLog10Ioff, m.varCgg};

    for (std::size_t i = 0; i < kTargetCount; ++i) {
      double rhs = measuredVar[i];
      if (!opt.solveCinvByBpv) {
        const double cinvTerm = sens(i, kCinv) * sigmaCinv;
        rhs -= cinvTerm * cinvTerm;
      }
      if (rhs <= 0.0) {
        ++dropped;  // degenerate: no variance left to explain
        continue;
      }

      std::array<double, 8> row{};
      for (std::size_t j = 0; j < kParameterCount; ++j) {
        const std::size_t col = layout.column[j];
        if (col == static_cast<std::size_t>(-1)) continue;
        const double coeff = sens(i, j) * k[j];
        row[col] += coeff * coeff;
      }
      // Normalize the row by its RHS: targets have wildly different scales
      // (A^2 vs decades^2 vs F^2); after scaling every equation reads
      // "predicted relative variance == 1" with comparable weight.
      const double scale = 1.0 / rhs;
      for (std::size_t c = 0; c < layout.count; ++c) row[c] *= scale;
      row[layout.count] = 1.0;
      rows.push_back(row);
    }
  }

  StackedSystem sys;
  sys.dropped = dropped;
  if (rows.empty()) return sys;
  sys.a = linalg::Matrix(rows.size(), layout.count);
  sys.b.assign(rows.size(), 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < layout.count; ++c) sys.a(r, c) = rows[r][c];
    sys.b[r] = rows[r][layout.count];
  }
  return sys;
}

BpvResult solveFromSystem(const StackedSystem& sys, const BpvOptions& opt,
                          const UnknownLayout& layout) {
  if (sys.b.empty()) {
    throw ExtractionError("BPV: no usable equations after degeneracy filter");
  }
  require(sys.b.size() >= layout.count,
          "BPV: fewer equations than unknowns; add geometries");

  const linalg::NnlsResult nnls = linalg::nnls(sys.a, sys.b);

  BpvResult result;
  const auto alphaOf = [&](std::size_t param) {
    const std::size_t col = layout.column[param];
    if (col == static_cast<std::size_t>(-1)) return -1.0;
    return std::sqrt(std::max(nnls.x[col], 0.0));
  };
  result.alphas.aVt0 = alphaOf(kVt0);
  result.alphas.aLeff = alphaOf(kLeff);
  result.alphas.aWeff = alphaOf(kWeff);
  result.alphas.aMu = alphaOf(kMu);
  if (opt.solveCinvByBpv) {
    result.alphas.aCinv = alphaOf(kCinv);
  } else {
    // Cinv is measured directly (oxide thickness), not extracted: report
    // the measured coefficient alongside the BPV-extracted ones, exactly
    // as the paper's Table II lists alpha5 next to alpha1-4.
    result.alphas.aCinv = opt.aCinvDirect;
  }
  result.residualNorm = nnls.residualNorm;
  result.rowsUsed = static_cast<int>(sys.b.size());
  result.rowsDropped = sys.dropped;
  return result;
}

}  // namespace

BpvResult solveBpv(const models::VsParams& card,
                   const std::vector<GeometryMeasurement>& meas,
                   const BpvOptions& options) {
  require(!meas.empty(), "solveBpv: no measurements");
  const UnknownLayout layout = makeLayout(options);
  const StackedSystem sys = buildSystem(card, meas, options, layout);
  return solveFromSystem(sys, options, layout);
}

BpvResult solveBpvIndividual(const models::VsParams& card,
                             const GeometryMeasurement& meas,
                             const BpvOptions& options) {
  return solveBpv(card, {meas}, options);
}

double VarianceBreakdown::totalFor(std::size_t targetRow) const {
  double s = 0.0;
  for (std::size_t j = 0; j < contributions.cols(); ++j)
    s += contributions(targetRow, j);
  return s;
}

VarianceBreakdown propagateVariance(const models::VsParams& card,
                                    const models::DeviceGeometry& geom,
                                    const models::PelgromAlphas& alphas,
                                    double vdd) {
  const linalg::Matrix sens = targetSensitivities(card, geom, vdd);
  const models::ParameterSigmas sig = models::sigmasFor(alphas, geom);
  const std::array<double, kParameterCount> sigmas = {
      sig.sVt0, sig.sLeff, sig.sWeff, sig.sMu, sig.sCinv};

  VarianceBreakdown vb;
  for (std::size_t i = 0; i < kTargetCount; ++i) {
    for (std::size_t j = 0; j < kParameterCount; ++j) {
      const double term = sens(i, j) * sigmas[j];
      vb.contributions(i, j) = term * term;
    }
  }
  return vb;
}

}  // namespace vsstat::extract
