// Fused vectorized VS equation chain for NumericsMode::fast.
//
// A staged form (one array kernel call per transcendental site)
// loses most of its gain at real bank sizes (6-10 lanes) to per-stage
// staging: every stage re-reads the lane arrays, and seven kernel-call
// round trips per currentPart dominate the saved libm time.  These two
// entry points instead evaluate the ENTIRE currentPart / chargePart of
// vs_model.cpp in vector registers, four lanes at a time: card parameters
// arrive as struct-of-arrays (pre-inverted where the scalar chain
// divides), all intermediate arithmetic stays in V4d, and only the final
// states are stored.
//
// The bodies compile twice -- baseline flags and an AVX2+FMA clone --
// sharing one source (vs_fast_chain_kernels.inc, which itself builds on
// util/simd_math_kernels.inc), dispatched once per process.  Numerics:
// same tolerance contract as the simd_math kernels (the chain is their
// composition); bit-different from the reference chain, deterministic per
// host.
//
// Layout contract: `n` is the PADDED lane count, a multiple of 4.  The
// caller (VsLoadBank's fast scratch) pads trailing lanes with benign card
// values -- the kernels evaluate them like any lane, so pad values must
// keep every operation finite (see makeBenignPad in vs_model.cpp).  All
// arrays hold >= n elements; none may alias.
#ifndef VSSTAT_MODELS_VS_FAST_CHAIN_HPP
#define VSSTAT_MODELS_VS_FAST_CHAIN_HPP

#include <cstddef>

namespace vsstat::models::fastchain {

/// SoA views for one batched currentPart evaluation (see the scalar
/// currentPart in vs_model.cpp for the meaning of every field).
struct CurrentIo {
  std::size_t n = 0;  ///< padded lane count, multiple of 4

  // Card parameters (refreshed per rebind).
  const double* vt0 = nullptr;
  const double* delta = nullptr;
  const double* alphaPhit = nullptr;
  const double* invAlphaPhit = nullptr;
  const double* invNphit = nullptr;
  const double* qref = nullptr;
  const double* vxo = nullptr;
  const double* vdsatStrong = nullptr;
  const double* phit = nullptr;
  const double* beta = nullptr;
  const double* invBeta = nullptr;
  const double* width = nullptr;

  // Internal bias inputs.
  const double* vgs = nullptr;
  const double* vds = nullptr;

  // CurrentState outputs.
  double* vt = nullptr;
  double* vdsat = nullptr;
  double* dvdsatg = nullptr;
  double* dvdsatd = nullptr;
  double* fsat = nullptr;
  double* dfsatdr = nullptr;
  double* drg = nullptr;
  double* drd = nullptr;
  double* idW = nullptr;
  double* gm = nullptr;
  double* gd = nullptr;
  double* qS = nullptr;
  double* dqSvg = nullptr;
  double* dqSvd = nullptr;
};

/// SoA views for one batched chargePart evaluation; reads the
/// currentPart outputs of the accepted internal solution.
struct ChargeIo {
  std::size_t n = 0;  ///< padded lane count, multiple of 4

  const double* delta = nullptr;
  const double* alphaPhit = nullptr;
  const double* invAlphaPhit = nullptr;
  const double* invNphit = nullptr;
  const double* qref = nullptr;

  const double* vgs = nullptr;  ///< internal vgs of the accepted solution
  const double* vt = nullptr;
  const double* vdsat = nullptr;
  const double* dvdsatg = nullptr;
  const double* dvdsatd = nullptr;
  const double* fsat = nullptr;
  const double* dfsatdr = nullptr;
  const double* drg = nullptr;
  const double* drd = nullptr;

  // ChargeState outputs.
  double* qD = nullptr;
  double* dqDvg = nullptr;
  double* dqDvd = nullptr;
};

void currentBatch(const CurrentIo& io) noexcept;
void chargeBatch(const ChargeIo& io) noexcept;

}  // namespace vsstat::models::fastchain

#endif  // VSSTAT_MODELS_VS_FAST_CHAIN_HPP
