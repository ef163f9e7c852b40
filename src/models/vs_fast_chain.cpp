// Baseline compilation of the fused VS-chain kernels plus the per-process
// dispatch; the AVX2+FMA clones live in vs_fast_chain_avx2.cpp (same kernel
// bodies, different flags), and __builtin_cpu_supports picks the path once,
// so the same binary runs on any x86-64 and uses the wide units where they
// exist.  Within one host the selected path is fixed: fast-mode results are
// deterministic per machine (bit-identical across runs and thread counts),
// but may differ across CPU generations -- which is why fast mode is
// tolerance-checked, never golden-bit-checked.
#include "models/vs_fast_chain.hpp"

namespace vsstat::models::fastchain {

namespace {
#include "util/simd_math_kernels.inc"
#include "models/vs_fast_chain_kernels.inc"

bool detectAvx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const bool kUseAvx2 = detectAvx2();
}  // namespace

namespace avx2 {
void currentBatch(const CurrentIo& io) noexcept;
void chargeBatch(const ChargeIo& io) noexcept;
}  // namespace avx2

void currentBatch(const CurrentIo& io) noexcept {
  if (kUseAvx2) return avx2::currentBatch(io);
  kcurrentBatch(io);
}

void chargeBatch(const ChargeIo& io) noexcept {
  if (kUseAvx2) return avx2::chargeBatch(io);
  kchargeBatch(io);
}

}  // namespace vsstat::models::fastchain
