#include "yield/importance.hpp"

#include <cmath>

#include "mc/runner.hpp"
#include "mc/samplers.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::yield {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

ImportanceResult importanceSample(const FailureIndicator& fails,
                                  const std::vector<double>& shift,
                                  const ImportanceOptions& options) {
  require(static_cast<bool>(fails), "importanceSample: empty indicator");
  require(!shift.empty(), "importanceSample: empty shift vector");
  require(options.samples > 1, "importanceSample: need > 1 samples");
  if (options.generator != nullptr) {
    require(options.generator->dimension() == shift.size(),
            "importanceSample: generator dimension != shift dimension");
    require(options.generator->samples() >=
                static_cast<std::size_t>(options.samples),
            "importanceSample: generator holds fewer points than samples");
  }

  const double shiftNormSq = dot(shift, shift);

  // One campaign sample per draw: metric 0 flags a failing draw, metric 1
  // holds its likelihood ratio phi(z)/phi(z - shift).
  mc::McOptions campaign;
  campaign.samples = options.samples;
  campaign.seed = options.seed;
  campaign.threads = options.threads;
  const mc::McResult draws = mc::runCampaign(
      campaign, 2,
      [&](std::size_t s, stats::Rng& rng, std::vector<double>& out) {
        // Per-call buffer: an indicator may itself run a nested campaign
        // on this thread (nested parallelFor degrades to serial), so a
        // thread_local scratch would be overwritten under the caller.
        std::vector<double> z;
        if (options.generator != nullptr) {
          z = options.generator->standardNormals(s);
          for (std::size_t i = 0; i < z.size(); ++i) z[i] += shift[i];
        } else {
          z.resize(shift.size());
          for (std::size_t i = 0; i < z.size(); ++i)
            z[i] = shift[i] + rng.normal();
        }
        if (!fails(z)) return;
        out[0] = 1.0;
        out[1] = std::exp(-dot(shift, z) + 0.5 * shiftNormSq);
      });
  if (draws.failures > 0)
    throw SampleFailure(draws.firstFailure.message,
                        draws.firstFailure.failureClass);

  double sumW = 0.0;
  double sumW2 = 0.0;
  int hits = 0;
  for (std::size_t s = 0; s < draws.sampleCount(); ++s) {
    if (draws.metrics[0][s] == 0.0) continue;
    const double w = draws.metrics[1][s];
    sumW += w;
    sumW2 += w * w;
    ++hits;
  }

  const double count = static_cast<double>(options.samples);
  ImportanceResult r;
  r.probability = sumW / count;
  r.failingDraws = hits;
  r.effectiveSamples = sumW2 > 0.0 ? sumW * sumW / sumW2 : 0.0;
  if (r.probability > 0.0) {
    // Var[P_hat] = (E[w^2 1_fail] - P^2) / n, estimated from the samples.
    const double var =
        (sumW2 / count - r.probability * r.probability) / (count - 1.0);
    r.relStdError = std::sqrt(std::max(var, 0.0)) / r.probability;
  }
  return r;
}

ImportanceResult bruteForceProbability(const FailureIndicator& fails,
                                       std::size_t dim,
                                       const ImportanceOptions& options) {
  require(dim > 0, "bruteForceProbability: dim must be positive");
  return importanceSample(fails, std::vector<double>(dim, 0.0), options);
}

std::vector<double> findFailureShift(
    const FailureIndicator& fails, std::size_t dim,
    const std::vector<std::vector<double>>& extraDirections) {
  constexpr double kMaxRadius = 8.0;   // search limit [sigma]
  constexpr double kTolerance = 0.05;  // bisection width on the radius
  constexpr double kBackoff = 0.9;     // shift = backoff * boundary radius
  require(dim > 0, "findFailureShift: dim must be positive");

  // Direction set: +/- coordinate axes plus normalized extras.
  std::vector<std::vector<double>> directions;
  for (std::size_t i = 0; i < dim; ++i) {
    for (const double sign : {1.0, -1.0}) {
      std::vector<double> d(dim, 0.0);
      d[i] = sign;
      directions.push_back(std::move(d));
    }
  }
  for (const auto& extra : extraDirections) {
    require(extra.size() == dim, "findFailureShift: direction dim mismatch");
    const double norm = std::sqrt(dot(extra, extra));
    require(norm > 0.0, "findFailureShift: zero extra direction");
    std::vector<double> d(dim);
    for (std::size_t i = 0; i < dim; ++i) d[i] = extra[i] / norm;
    directions.push_back(std::move(d));
  }

  const auto failsAt = [&](const std::vector<double>& dir, double radius) {
    std::vector<double> z(dim);
    for (std::size_t i = 0; i < dim; ++i) z[i] = radius * dir[i];
    return fails(z);
  };

  double bestRadius = kMaxRadius + 1.0;
  std::vector<double> bestDir;
  for (const auto& dir : directions) {
    if (!failsAt(dir, kMaxRadius)) continue;  // never fails this way
    double lo = 0.0;
    double hi = kMaxRadius;
    while (hi - lo > kTolerance) {
      const double mid = 0.5 * (lo + hi);
      (failsAt(dir, mid) ? hi : lo) = mid;
    }
    if (hi < bestRadius) {
      bestRadius = hi;
      bestDir = dir;
    }
  }
  if (bestDir.empty()) {
    throw ConvergenceError(
        "findFailureShift: no failing direction within maxRadius",
        static_cast<int>(directions.size()));
  }

  std::vector<double> shift(dim);
  for (std::size_t i = 0; i < dim; ++i)
    shift[i] = kBackoff * bestRadius * bestDir[i];
  return shift;
}

}  // namespace vsstat::yield
