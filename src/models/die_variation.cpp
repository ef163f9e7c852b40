#include "models/die_variation.hpp"

#include <cmath>

#include "util/error.hpp"

namespace vsstat::models {

DieSampler::DieSampler(DieVariationSpec spec, std::size_t deviceCount)
    : spec_(std::move(spec)), deviceCount_(deviceCount) {
  require(deviceCount_ > 0, "DieSampler: no devices");
}

void DieSampler::newDie(stats::Rng& rng) {
  const GlobalSigmas& g = spec_.global;
  globalDelta_.dVt0 = g.sVt0 > 0.0 ? rng.normal(0.0, g.sVt0) : 0.0;
  globalDelta_.dLeff = g.sLeff > 0.0 ? rng.normal(0.0, g.sLeff) : 0.0;
  globalDelta_.dWeff = g.sWeff > 0.0 ? rng.normal(0.0, g.sWeff) : 0.0;
  globalDelta_.dMu = g.sMu > 0.0 ? rng.normal(0.0, g.sMu) : 0.0;
  globalDelta_.dCinv = g.sCinv > 0.0 ? rng.normal(0.0, g.sCinv) : 0.0;
}

VariationDelta DieSampler::deltaFor(std::size_t deviceIndex,
                                    const DeviceGeometry& geom,
                                    stats::Rng& rng) const {
  require(deviceIndex < deviceCount_,
          "DieSampler::deltaFor: device index out of range");

  // Local Pelgrom mismatch: fresh independent draw per instance.
  const ParameterSigmas localSigmas = sigmasFor(spec_.local, geom);
  VariationDelta delta = sampleDelta(localSigmas, rng);

  // Die-shared global shift.
  delta.dVt0 += globalDelta_.dVt0;
  delta.dLeff += globalDelta_.dLeff;
  delta.dWeff += globalDelta_.dWeff;
  delta.dMu += globalDelta_.dMu;
  delta.dCinv += globalDelta_.dCinv;
  return delta;
}

VarianceDecomposition decomposeVariance(
    const std::vector<std::vector<double>>& perDieSamples) {
  require(perDieSamples.size() >= 2, "decomposeVariance: need >= 2 dies");

  // Grand mean and per-die means.
  double grandSum = 0.0;
  std::size_t n = 0;
  std::vector<double> dieMeans;
  dieMeans.reserve(perDieSamples.size());
  for (const auto& die : perDieSamples) {
    require(die.size() >= 2, "decomposeVariance: need >= 2 devices per die");
    double s = 0.0;
    for (double v : die) s += v;
    dieMeans.push_back(s / static_cast<double>(die.size()));
    grandSum += s;
    n += die.size();
  }
  const double grandMean = grandSum / static_cast<double>(n);

  // Pooled within-die variance (around each die's own mean) and total
  // variance (around the grand mean).
  double within = 0.0;
  double total = 0.0;
  for (std::size_t d = 0; d < perDieSamples.size(); ++d) {
    for (double v : perDieSamples[d]) {
      const double dw = v - dieMeans[d];
      within += dw * dw;
      const double dt = v - grandMean;
      total += dt * dt;
    }
  }
  within /= static_cast<double>(n - perDieSamples.size());
  total /= static_cast<double>(n - 1);

  VarianceDecomposition out;
  out.total = total;
  out.withinDie = within;
  out.interDie = std::max(total - within, 0.0);  // Eq. (1)
  return out;
}

}  // namespace vsstat::models
