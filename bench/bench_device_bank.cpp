// Device-bank micro benchmark: raw Newton-load evaluation of a 6-lane VS
// bank (the 6T SRAM device population) -- per-device virtual evaluateLoad
// vs one evaluateLoadBatch with per-lane cached derived parameters, in
// both numerics modes (NumericsMode::fast = the SIMD transcendental
// kernels).
//
// The banked row verifies bit-identity with the per-device calls in-run;
// the fast row verifies the tolerance contract instead (max relative
// deviation from the per-device calls, reported as "max_rel_delta" and
// asserted under "within_tolerance").  "allocs" counts heap allocations
// per evaluation in steady state.  Campaign throughput of every session
// configuration (reference, fast, reusePivot, their composition, the
// statistical tier) is measured once, in bench_campaign.
//
// Output is machine-readable JSON, one object per line on stdout;
// BENCH_device_bank.json records a reference run and CI gates regressions
// against it (scripts/check_bench_regression.py).
//
// Usage: bench_device_bank [--quick]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"

namespace vsstat {
namespace {

using Clock = std::chrono::steady_clock;

// --- micro: 6-lane VS bank ---------------------------------------------------

void benchMicro(int sweeps) {
  // Six mismatched VS instances in SRAM-like geometries: the device
  // population one banked SNM assembly evaluates.
  std::vector<std::unique_ptr<models::VsModel>> cards;
  std::vector<models::DeviceGeometry> geoms;
  for (int i = 0; i < 6; ++i) {
    models::VsParams p =
        (i % 2 == 0) ? models::defaultVsNmos() : models::defaultVsPmos();
    p.vt0 += 0.004 * i;
    p.mu *= 1.0 + 0.02 * i;
    cards.push_back(std::make_unique<models::VsModel>(p));
    geoms.push_back(models::geometryNm(150.0 + 50.0 * i, 40));
  }
  std::vector<models::BankLane> lanes;
  for (std::size_t i = 0; i < cards.size(); ++i)
    lanes.push_back(models::BankLane{cards[i].get(), &geoms[i]});
  const models::MosfetModel& frontCard = *cards.front();
  const auto bank = frontCard.makeLoadBank(lanes);
  const auto fastBank =
      frontCard.makeLoadBank(lanes, models::NumericsMode::fast);

  const std::size_t n = cards.size();
  std::vector<double> vgs(n), vds(n);
  std::vector<models::MosfetLoadEvaluation> scalarOut(n), batchOut(n),
      fastOut(n);
  constexpr double kStep = 1e-3;

  const auto biasAt = [&](int s) {
    for (std::size_t i = 0; i < n; ++i) {
      vgs[i] = 0.05 + 0.85 * ((s + static_cast<int>(i) * 7) % 97) / 96.0;
      vds[i] = 0.9 * ((s + static_cast<int>(i) * 13) % 89) / 88.0;
    }
  };

  double checksum = 0.0;
  bool identical = true;
  double fastMaxRel = 0.0;

  // Warmup + bit-identity (reference bank) and tolerance (fast bank)
  // accounting over the full sweep.
  for (int s = 0; s < 200; ++s) {
    biasAt(s);
    for (std::size_t i = 0; i < n; ++i)
      scalarOut[i] = cards[i]->evaluateLoad(geoms[i], vgs[i], vds[i], kStep);
    bank->evaluateLoadBatch(vgs, vds, kStep, batchOut);
    fastBank->evaluateLoadBatch(vgs, vds, kStep, fastOut);
    for (std::size_t i = 0; i < n; ++i) {
      identical = identical && scalarOut[i].at.id == batchOut[i].at.id &&
                  scalarOut[i].didVgs == batchOut[i].didVgs &&
                  scalarOut[i].dqgVds == batchOut[i].dqgVds &&
                  scalarOut[i].dqsVgs == batchOut[i].dqsVgs;
      fastMaxRel = std::max(
          fastMaxRel, std::fabs(fastOut[i].at.id - scalarOut[i].at.id) /
                          (std::fabs(scalarOut[i].at.id) + 1e-15));
    }
  }

  const std::uint64_t a0 = bench::heapAllocations();
  const auto t0 = Clock::now();
  for (int s = 0; s < sweeps; ++s) {
    biasAt(s);
    for (std::size_t i = 0; i < n; ++i) {
      scalarOut[i] = cards[i]->evaluateLoad(geoms[i], vgs[i], vds[i], kStep);
      checksum += scalarOut[i].at.id;
    }
  }
  const auto t1 = Clock::now();
  for (int s = 0; s < sweeps; ++s) {
    biasAt(s);
    bank->evaluateLoadBatch(vgs, vds, kStep, batchOut);
    for (std::size_t i = 0; i < n; ++i) checksum += batchOut[i].at.id;
  }
  const auto t2 = Clock::now();
  const std::uint64_t a1 = bench::heapAllocations();
  for (int s = 0; s < sweeps; ++s) {
    biasAt(s);
    fastBank->evaluateLoadBatch(vgs, vds, kStep, fastOut);
    for (std::size_t i = 0; i < n; ++i) checksum += fastOut[i].at.id;
  }
  const auto t3 = Clock::now();
  const std::uint64_t a2 = bench::heapAllocations();

  const double evals = static_cast<double>(sweeps) * static_cast<double>(n);
  const double nsScalar =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
      evals;
  const double nsBatch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count() /
      evals;
  const double nsFast =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2).count() /
      evals;
  std::printf("{\"name\": \"micro_vs_load_scalar\", \"lanes\": 6, "
              "\"ns_per_device_eval\": %.1f}\n",
              nsScalar);
  std::printf("{\"name\": \"micro_vs_load_banked\", \"lanes\": 6, "
              "\"ns_per_device_eval\": %.1f, \"speedup_vs_scalar\": %.2f, "
              "\"allocs\": %.2f, \"bit_identical\": %s}\n",
              nsBatch, nsScalar / nsBatch,
              static_cast<double>(a1 - a0) / (2.0 * evals),
              identical ? "true" : "false");
  std::printf("{\"name\": \"micro_vs_load_fast\", \"lanes\": 6, "
              "\"ns_per_device_eval\": %.1f, \"speedup_vs_scalar\": %.2f, "
              "\"speedup_vs_banked\": %.2f, \"allocs\": %.2f, "
              "\"max_rel_delta\": %.2e, \"within_tolerance\": %s}\n",
              nsFast, nsScalar / nsFast, nsBatch / nsFast,
              static_cast<double>(a2 - a1) / evals, fastMaxRel,
              fastMaxRel <= 1e-9 ? "true" : "false");
  if (checksum == 12345.0) std::printf("# impossible\n");  // defeat DCE
}

}  // namespace
}  // namespace vsstat

int main(int argc, char** argv) {
  int micro = 200000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) micro = 20000;
  }
  try {
    vsstat::benchMicro(micro);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_device_bank: %s\n", e.what());
    return 1;
  }
}
