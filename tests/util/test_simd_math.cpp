// Kernel-vs-libm accuracy sweeps for util/simd_math_kernels.inc, the exp
// and log kernels the fused VS chain runs in NumericsMode::fast, and the
// chain's pow composition kexp4(y * klog4(x)).
//
// Every bound asserted here is the documented contract of the kernels (the
// measured worst cases carry 2-4x headroom).  The sweeps cover the full VS
// argument ranges: logistic/softplus arguments from deep subthreshold (exp
// underflow, |x| far past the +-34 reference clamp) to strong inversion,
// and the Fsat pow corners (ratio spanning 1e-12..50, beta and 1/beta
// exponents).
//
// The kernels are included here the way models/vs_fast_chain.cpp includes
// them, once with the default flags and, on x86, once more under the
// AVX2+FMA target of vs_fast_chain_avx2.cpp; the AVX2 copy runs only where
// the host supports it, the same condition the chain dispatches on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

namespace vsstat {
namespace {

// One compilation of the kernels behind pointer-based entry points over 4
// lanes, so no vector type crosses a target-flag boundary.
#define VSSTAT_KERNEL_ENTRY_POINTS                                        \
  V4d load4(const double* p) {                                           \
    V4d v;                                                               \
    __builtin_memcpy(&v, p, sizeof v);                                   \
    return v;                                                            \
  }                                                                      \
  void store4(double* p, V4d v) { __builtin_memcpy(p, &v, sizeof v); }   \
  void exp4(const double* x, double* out) { store4(out, kexp4(load4(x))); } \
  void log4(const double* x, double* out) { store4(out, klog4(load4(x))); } \
  void pow4(const double* x, const double* y, double* out) {             \
    store4(out, kexp4(load4(y) * klog4(load4(x))));                      \
  }

namespace baseline {
namespace {
#include "util/simd_math_kernels.inc"
VSSTAT_KERNEL_ENTRY_POINTS
}  // namespace
}  // namespace baseline

#if defined(__x86_64__) || defined(__i386__)
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
namespace {
#include "util/simd_math_kernels.inc"
VSSTAT_KERNEL_ENTRY_POINTS
}  // namespace
}  // namespace avx2
#pragma GCC pop_options
#endif

#undef VSSTAT_KERNEL_ENTRY_POINTS

struct KernelPath {
  const char* name;
  bool needsAvx2;
  void (*exp4)(const double*, double*);
  void (*log4)(const double*, double*);
  void (*pow4)(const double*, const double*, double*);
};

bool hostHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// Relative deviation from the libm reference; exact matches are 0, any
/// non-finite mismatch is pushed far beyond every bound.
double relErr(double got, double ref) {
  if (got == ref) return 0.0;
  if (!std::isfinite(got) || !std::isfinite(ref)) return 1e30;
  return std::fabs(got - ref) / std::fabs(ref);
}

class KernelContract : public ::testing::TestWithParam<KernelPath> {
 protected:
  static constexpr std::size_t kN = 4096;  // multiple of the 4-lane width
  std::mt19937_64 rng{20260726};
  std::vector<double> x = std::vector<double>(kN);
  std::vector<double> out = std::vector<double>(kN);

  void SetUp() override {
    if (GetParam().needsAvx2 && !hostHasAvx2())
      GTEST_SKIP() << "host lacks AVX2+FMA";
  }

  void runUnary(void (*kernel)(const double*, double*)) {
    for (std::size_t i = 0; i < kN; i += 4) kernel(&x[i], &out[i]);
  }

  /// Worst relative error of exp over `reps` uniform draws in [lo, hi].
  double worstExp(double lo, double hi, int reps) {
    std::uniform_real_distribution<double> d(lo, hi);
    double worst = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      for (double& v : x) v = d(rng);
      runUnary(GetParam().exp4);
      for (std::size_t i = 0; i < kN; ++i)
        worst = std::max(worst, relErr(out[i], std::exp(x[i])));
    }
    return worst;
  }
};

TEST_P(KernelContract, ExpFullRange) {
  EXPECT_LE(worstExp(-708.0, 708.0, 50), 1e-12);
}

TEST_P(KernelContract, ExpVsChainRangeIncludingSubthresholdUnderflow) {
  // The VS chain's logistic/softplus arguments: the reference tails clamp
  // at +-34, so the kernel must agree with libm through the whole band
  // around it (subthreshold currents live in exp(-34..0)).
  EXPECT_LE(worstExp(-60.0, 60.0, 50), 1e-12);
}

TEST_P(KernelContract, ExpSaturatesOutsideClampRange) {
  const double xs[4] = {-800.0, -709.0, 709.0, 800.0};
  double o[4];
  GetParam().exp4(xs, o);
  // Documented clamp: inputs fold to [-708, 708]; no infinities, no zeros.
  for (double v : o) EXPECT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(o[0], o[1]);
  EXPECT_DOUBLE_EQ(o[2], o[3]);
  EXPECT_GT(o[0], 0.0);
}

TEST_P(KernelContract, LogNormalPositives) {
  // Absolute bound: near x == 1 the result crosses 0, where a relative
  // bound is meaningless; away from the crossing |log| >= ~0.3 makes the
  // documented 4e-12 absolute bound a ~1e-11 relative one.
  std::uniform_real_distribution<double> mag(-300.0, 300.0);
  double worst = 0.0;
  for (int rep = 0; rep < 50; ++rep) {
    for (double& v : x) v = std::exp2(0.5 * mag(rng));
    runUnary(GetParam().log4);
    for (std::size_t i = 0; i < kN; ++i) {
      const double ref = std::log(x[i]);
      worst = std::max(worst, std::fabs(out[i] - ref) /
                                  std::max(1.0, std::fabs(ref)));
    }
  }
  EXPECT_LE(worst, 4e-12);
}

TEST_P(KernelContract, LogNearOneCancellation) {
  std::uniform_real_distribution<double> d(-0.3, 0.3);
  double worst = 0.0;
  for (int rep = 0; rep < 50; ++rep) {
    for (double& v : x) v = 1.0 + d(rng);
    runUnary(GetParam().log4);
    for (std::size_t i = 0; i < kN; ++i)
      worst = std::max(worst, std::fabs(out[i] - std::log(x[i])));
  }
  EXPECT_LE(worst, 4e-12);
}

TEST_P(KernelContract, LogOfZeroIsTheDocumentedFloor) {
  // The Fsat stage feeds ratio == 0 straight into klog4: the zero bit
  // pattern reads as 2^-1023, so the result is -1023 ln2, not -inf.
  const double xs[4] = {0.0, 0.0, 0.0, 0.0};
  double o[4];
  GetParam().log4(xs, o);
  for (double v : o) EXPECT_NEAR(v, -1023.0 * std::log(2.0), 1e-9);
}

TEST_P(KernelContract, PowVsFsatDomain) {
  // Fsat corners: t = ratio^beta with ratio in [1e-12, 50] (deep linear
  // region through hard saturation) and both beta and 1/beta exponents.
  std::uniform_real_distribution<double> mb(-12.0, std::log10(50.0));
  std::uniform_real_distribution<double> dy(1.2, 2.5);
  std::vector<double> y(kN);
  double worst = 0.0;
  for (int rep = 0; rep < 50; ++rep) {
    for (std::size_t i = 0; i < kN; ++i) {
      x[i] = std::pow(10.0, mb(rng));
      y[i] = (i % 2 != 0) ? dy(rng) : 1.0 / dy(rng);
    }
    for (std::size_t i = 0; i < kN; i += 4)
      GetParam().pow4(&x[i], &y[i], &out[i]);
    for (std::size_t i = 0; i < kN; ++i)
      worst = std::max(worst, relErr(out[i], std::pow(x[i], y[i])));
  }
  EXPECT_LE(worst, 1e-9);
}

const KernelPath kBaseline{"baseline", false, baseline::exp4, baseline::log4,
                           baseline::pow4};
#if defined(__x86_64__) || defined(__i386__)
const KernelPath kAvx2{"avx2_fma", true, avx2::exp4, avx2::log4, avx2::pow4};
INSTANTIATE_TEST_SUITE_P(Paths, KernelContract,
                         ::testing::Values(kBaseline, kAvx2),
                         [](const ::testing::TestParamInfo<KernelPath>& i) {
                           return std::string(i.param.name);
                         });
#else
INSTANTIATE_TEST_SUITE_P(Paths, KernelContract, ::testing::Values(kBaseline),
                         [](const ::testing::TestParamInfo<KernelPath>& i) {
                           return std::string(i.param.name);
                         });
#endif

}  // namespace
}  // namespace vsstat
