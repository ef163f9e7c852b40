#include "timing/ssta.hpp"

#include <cmath>
#include <numbers>

#include "stats/qq.hpp"
#include "util/error.hpp"

namespace vsstat::timing {

namespace {

double normalPdf(double x) noexcept {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * std::numbers::pi);
}

void requireSameSources(const CanonicalDelay& a, const CanonicalDelay& b) {
  require(a.global.size() == b.global.size(),
          "CanonicalDelay: mismatched global source counts");
}

}  // namespace

double CanonicalDelay::variance() const noexcept {
  double v = local * local;
  for (double g : global) v += g * g;
  return v;
}

double CanonicalDelay::sigma() const noexcept { return std::sqrt(variance()); }

double CanonicalDelay::quantileSigma(double n) const noexcept {
  return mean + n * sigma();
}

CanonicalDelay addSeries(const CanonicalDelay& a, const CanonicalDelay& b) {
  requireSameSources(a, b);
  CanonicalDelay out;
  out.mean = a.mean + b.mean;
  out.global.resize(a.global.size());
  for (std::size_t k = 0; k < a.global.size(); ++k)
    out.global[k] = a.global[k] + b.global[k];
  out.local = std::hypot(a.local, b.local);
  return out;
}

CanonicalDelay statisticalMax(const CanonicalDelay& a,
                              const CanonicalDelay& b) {
  requireSameSources(a, b);
  const double va = a.variance();
  const double vb = b.variance();
  double cov = 0.0;
  for (std::size_t k = 0; k < a.global.size(); ++k)
    cov += a.global[k] * b.global[k];

  // theta = sigma of (a - b).
  const double theta2 = va + vb - 2.0 * cov;
  if (theta2 <= 1e-30) {
    // Perfectly correlated with equal spread: max is just the larger mean.
    return a.mean >= b.mean ? a : b;
  }
  const double theta = std::sqrt(theta2);
  const double alpha = (a.mean - b.mean) / theta;
  const double phiA = stats::normalCdf(alpha);      // tightness P[a > b]
  const double pdfA = normalPdf(alpha);

  // Clark's first and second moments of max(a, b).
  const double m1 =
      a.mean * phiA + b.mean * (1.0 - phiA) + theta * pdfA;
  const double m2 = (va + a.mean * a.mean) * phiA +
                    (vb + b.mean * b.mean) * (1.0 - phiA) +
                    (a.mean + b.mean) * theta * pdfA;
  const double variance = std::max(m2 - m1 * m1, 0.0);

  // Tightness-weighted canonical form, variance-corrected via the local
  // term (the standard Clark-based SSTA propagation).
  CanonicalDelay out;
  out.mean = m1;
  out.global.resize(a.global.size());
  double globalVar = 0.0;
  for (std::size_t k = 0; k < a.global.size(); ++k) {
    out.global[k] = phiA * a.global[k] + (1.0 - phiA) * b.global[k];
    globalVar += out.global[k] * out.global[k];
  }
  if (globalVar > variance) {
    // The weighted globals overshoot the matched variance (possible when
    // the inputs anti-correlate): rescale them and drop the local term.
    const double s = std::sqrt(variance / globalVar);
    for (double& g : out.global) g *= s;
    out.local = 0.0;
  } else {
    out.local = std::sqrt(variance - globalVar);
  }
  return out;
}

double exceedanceProbability(const CanonicalDelay& a,
                             const CanonicalDelay& b) {
  requireSameSources(a, b);
  double cov = 0.0;
  for (std::size_t k = 0; k < a.global.size(); ++k)
    cov += a.global[k] * b.global[k];
  const double theta2 = a.variance() + b.variance() - 2.0 * cov;
  if (theta2 <= 1e-30) return a.mean > b.mean ? 1.0 : 0.0;
  return stats::normalCdf((a.mean - b.mean) / std::sqrt(theta2));
}

}  // namespace vsstat::timing
