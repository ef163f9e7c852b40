#include "stats/normality.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::stats {
namespace {

std::vector<double> gaussian(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(3.0, 2.0);
  return v;
}

std::vector<double> lognormal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = std::exp(rng.normal(0.0, 0.8));
  return v;
}

TEST(JarqueBera, AcceptsGaussian) {
  const JarqueBera jb = jarqueBera(gaussian(5000, 3));
  EXPECT_FALSE(jb.rejectAt5Percent) << "statistic = " << jb.statistic;
}

TEST(JarqueBera, RejectsLognormal) {
  const JarqueBera jb = jarqueBera(lognormal(5000, 5));
  EXPECT_TRUE(jb.rejectAt5Percent);
  EXPECT_GT(jb.statistic, 100.0);
}

TEST(JarqueBera, RejectsTinySample) {
  EXPECT_THROW((void)jarqueBera({1.0, 2.0, 3.0}), InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::stats
