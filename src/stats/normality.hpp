// Normality diagnostic.  The paper's BPV derivation assumes Gaussian
// electrical targets (Sec. III), and its low-Vdd results hinge on detecting
// when delay distributions *stop* being Gaussian; the Jarque-Bera test
// quantifies both.
#ifndef VSSTAT_STATS_NORMALITY_HPP
#define VSSTAT_STATS_NORMALITY_HPP

#include <vector>

namespace vsstat::stats {

/// Jarque–Bera statistic: n/6 * (skew^2 + kurt^2/4).  Under normality it is
/// asymptotically chi-square with 2 dof (95% critical value ~ 5.99).
struct JarqueBera {
  double statistic = 0.0;
  bool rejectAt5Percent = false;
};

[[nodiscard]] JarqueBera jarqueBera(const std::vector<double>& samples);

}  // namespace vsstat::stats

#endif  // VSSTAT_STATS_NORMALITY_HPP
