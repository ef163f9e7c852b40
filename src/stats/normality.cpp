#include "stats/normality.hpp"

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace vsstat::stats {

JarqueBera jarqueBera(const std::vector<double>& samples) {
  require(samples.size() >= 8, "jarqueBera: need >= 8 samples");
  MomentAccumulator acc;
  for (double v : samples) acc.add(v);
  const auto n = static_cast<double>(samples.size());
  const double s = acc.skewness();
  const double k = acc.excessKurtosis();

  JarqueBera jb;
  jb.statistic = n / 6.0 * (s * s + 0.25 * k * k);
  jb.rejectAt5Percent = jb.statistic > 5.991;  // chi2(2) 95%
  return jb;
}

}  // namespace vsstat::stats
