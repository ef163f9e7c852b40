// Campaign-engine benchmark: build-once/rebind sessions
// (sim::CampaignSession, through mc::runCampaign<Fixture>) on the paper's
// two statistical workloads and a grid-scale fixture ladder:
//
//   sram_snm -- READ SNM of the 6T butterfly via 45-point DC sweeps
//               (the Fig. 9 Monte Carlo inner loop);
//   inv_fo3  -- INV FO3 delay via transient analysis (the Fig. 5 inner
//               loop);
//   grid_ir  -- worst-case IR drop of a 10x10 power-grid mesh (101 MNA
//               unknowns, one statistically varied leakage FET per node)
//               via supply sweeps: the post-layout-scale workload where
//               per-solve LU costs rival device evaluation.
//   grid_ladder_{10,32,64,128} -- the grid-scale fixture ladder: one row
//               per mesh rung combining session-campaign throughput with a
//               direct factor probe (ordering us, fresh-factor us, their
//               ratio "ordering_vs_factor", fill ratio, marginal allocs per
//               factor, factor memory).  Rungs up to 32x32 also time the
//               retained dense-pivot baseline (DensePivotLu) and carry the
//               CI-gated "speedup_vs_dense_lu"; the 64x64 rung instead
//               records its factor probe's heap peak, the near-linear-memory
//               evidence at ~4k unknowns; the 128x128 rung (16385 unknowns)
//               is a factor probe only, with no campaign.
//
// Every row runs the identical statistical VS sampling (same seed, same
// draws), single-threaded by default, so samples/sec compares per-sample
// cost.  "allocs" counts heap allocations per sample in steady state (a
// session rebind pass is zero for the VS provider).  Rebind-vs-rebuild
// bit-identity is a test contract (tests/sim/test_campaign_session.cpp),
// not a bench row.
//
// Each workload measures every session configuration once, against the
// reference-numerics fresh-pivot `_session` row of the same run:
//   _session_reuse      -- SolverMode::reusePivot: one canonical LU pivot
//                          order amortized across every solve instead of a
//                          re-pivot + symbolic pass per solve
//                          ("speedup_vs_fresh");
//   _session_fast       -- NumericsMode::fast: the SIMD device kernels
//                          ("speedup_vs_session");
//   _session_fast_reuse -- both axes composed ("speedup_vs_session"), the
//                          per-sample baseline of the statistical tier;
//   _statistical_tier   -- ToleranceTier::statistical on fast+reuse.
// The reuse and fast rows change the Newton trajectory or its last ulps,
// statistically equivalently: they carry "max_rel_delta" (largest
// per-sample metric deviation from the `_session` run, same seeds) and
// "within_tolerance" (the campaign tolerance contract's 1e-8 per-sample
// bound).
//
// Output is machine-readable JSON, one object per line on stdout:
//   {"name": ..., "samples": N, "threads": T, "us_per_sample": ...,
//    "samples_per_sec": ..., "allocs_per_sample": ...,
//    "metrics_fnv1a": "0x..."}
// BENCH_campaign.json records a reference run; CI gates regressions
// against it (scripts/check_bench_regression.py).
//
// "metrics_fnv1a" hashes every metric double's bit pattern plus the
// failure count, so two rows with equal hashes ran bit-identical
// campaigns -- the CI parallel-scaling smoke compares it across worker
// counts (scripts/check_scaling.py).
//
// Usage: bench_campaign [--quick] [--threads N] [--scaling]
//   --threads N   run the campaigns with N workers (default 1)
//   --scaling     emit only session rows, one per session-mode combination
//                 (NumericsMode x SolverMode: _session, _session_fast,
//                 _session_reuse, _session_fast_reuse, plus
//                 _session_statistical): the mode the CI scaling smoke
//                 and the scaling-audit job run across worker counts,
//                 comparing metrics_fnv1a per row name across runs
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "circuits/benchmarks.hpp"
#include "common.hpp"
#include "linalg/dense_pivot_lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "models/vs_params.hpp"
#include "spice/assembler.hpp"
#include "stats/descriptive.hpp"
#include "util/fnv1a.hpp"

namespace vsstat {
namespace {

using Clock = std::chrono::steady_clock;

models::PelgromAlphas benchAlphas() {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return a;
}

std::unique_ptr<circuits::DeviceProvider> makeProvider(stats::Rng rng) {
  return std::make_unique<mc::VsStatisticalProvider>(
      models::defaultVsNmos(), models::defaultVsPmos(), benchAlphas(),
      benchAlphas(), rng);
}

struct CampaignTiming {
  mc::McResult result;
  double usPerSample = 0.0;
  double allocsPerSample = 0.0;
};

/// Times a whole campaign (after a small warmup campaign that brings the
/// thread pool and allocator to steady state).
///
/// allocs_per_sample is MARGINAL: every campaign run pays a fixed
/// construction cost (sessions, assembler pattern capture, device-bank
/// SoA state) that has nothing to do with per-sample work, so a small
/// reference campaign is measured first and differenced out -- what
/// remains is the steady-state allocation cost of adding one more sample,
/// which the campaign engine contract keeps at zero.
constexpr int kWarmSamples = 4;

CampaignTiming timeCampaign(int samples,
                            const std::function<mc::McResult(int)>& run) {
  (void)run(kWarmSamples);  // warmup
  const std::uint64_t base0 = bench::heapAllocations();
  (void)run(kWarmSamples);  // fixed campaign cost + kWarmSamples marginals
  const std::uint64_t base1 = bench::heapAllocations();

  const std::uint64_t allocs0 = bench::heapAllocations();
  const auto t0 = Clock::now();
  CampaignTiming t;
  t.result = run(samples);
  const auto t1 = Clock::now();
  const std::uint64_t allocs1 = bench::heapAllocations();

  const double us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  t.usPerSample = us / samples;
  t.allocsPerSample =
      (static_cast<double>(allocs1 - allocs0) -
       static_cast<double>(base1 - base0)) /
      static_cast<double>(samples - kWarmSamples);
  return t;
}

bool bitIdentical(const mc::McResult& a, const mc::McResult& b) {
  if (a.failures != b.failures || a.metrics.size() != b.metrics.size())
    return false;
  for (std::size_t m = 0; m < a.metrics.size(); ++m)
    if (a.metrics[m] != b.metrics[m]) return false;
  return true;
}

/// FNV-1a over every metric double's bit pattern plus the failure count:
/// equal hashes across runs mean bit-identical campaign results.  Uses the
/// shared util::Fnv1a accumulator (same byte order as before), so these
/// hashes stay comparable with historical BENCH_campaign.json rows.
std::uint64_t metricsHash(const mc::McResult& r) {
  util::Fnv1a h;
  h.mix(static_cast<std::uint64_t>(r.failures));
  for (const std::vector<double>& row : r.metrics) {
    h.mix(row.size());
    for (double v : row) h.mixDouble(v);
  }
  return h.value();
}

unsigned gThreads = 1;
bool gScalingOnly = false;

/// Tolerance-contract row (pivot reuse, fast numerics, or both): compared
/// against the reference/fresh `_session` run (same seeds) through the
/// tolerance contract, not bit-identity.  `speedupField` names the ratio.
void emitTolerance(const std::string& name, int samples,
                   const CampaignTiming& t, const char* speedupField,
                   const CampaignTiming& session) {
  const double relDelta = bench::maxRelMetricDelta(t.result, session.result);
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"%s\": %.2f, "
      "\"max_rel_delta\": %.2e, \"within_tolerance\": %s, "
      "\"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, t.usPerSample, 1e6 / t.usPerSample,
      t.allocsPerSample, speedupField, session.usPerSample / t.usPerSample,
      relDelta,
      // Same per-sample bound the campaign tolerance tests assert
      // (tests/sim/test_reuse_pivot_campaign.cpp,
      // tests/sim/test_fast_campaign.cpp).
      relDelta <= 1e-8 ? "true" : "false",
      static_cast<unsigned long long>(metricsHash(t.result)));
}

/// Plain session row (also every --scaling row): throughput, allocations,
/// Newton iterations per sample, and the metrics hash that
/// cross-thread-count identity is checked on.
void emitSession(const std::string& name, int samples,
                 const CampaignTiming& t) {
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"mean_iters_per_sample\": %.1f, "
      "\"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, t.usPerSample, 1e6 / t.usPerSample,
      t.allocsPerSample, t.result.meanIterationsPerSample(),
      static_cast<unsigned long long>(metricsHash(t.result)));
}

/// Rescue-overhead row: the same campaign with the rescue ladder disabled
/// vs enabled (the default).  A zero-failure campaign never enters the
/// ladder -- attempt 0 runs at baseline modes and identity effort -- so
/// the contract is ~0% overhead and bit-identical metrics; this row is the
/// committed evidence (speedup_vs_norescue ~= 1.0, gated by CI).
void emitRescueOverhead(const std::string& name, int samples,
                        const CampaignTiming& rescued,
                        double noRescueUsPerSample, bool identical) {
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"speedup_vs_norescue\": %.2f, "
      "\"failures\": %d, \"rescued\": %d, "
      "\"bit_identical\": %s, \"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, rescued.usPerSample,
      1e6 / rescued.usPerSample, rescued.allocsPerSample,
      noRescueUsPerSample / rescued.usPerSample, rescued.result.failures,
      rescued.result.rescued, identical ? "true" : "false",
      static_cast<unsigned long long>(metricsHash(rescued.result)));
}

spice::SessionOptions reusePivotOptions() {
  spice::SessionOptions o;
  o.solver = linalg::SolverMode::reusePivot;
  return o;
}

spice::SessionOptions fastOptions() {
  spice::SessionOptions o;
  o.numerics = models::NumericsMode::fast;
  return o;
}

/// The "current best" per-sample throughput configuration: SIMD device
/// kernels + amortized pivot order.  The statistical tier is benchmarked on
/// top of exactly this baseline.
spice::SessionOptions fastReuseOptions() {
  spice::SessionOptions o = fastOptions();
  o.solver = linalg::SolverMode::reusePivot;
  return o;
}

spice::SessionOptions statisticalOptions() {
  spice::SessionOptions o = fastReuseOptions();
  o.tier = spice::ToleranceTier::statistical;
  return o;
}

/// Largest estimator shift between the statistical-tier run and its
/// per-sample baseline, in units of the baseline's Monte Carlo standard
/// error: max over metrics of |mean_s - mean_b| / (sigma_b / sqrt(n)) and
/// |sigma_s - sigma_b| / (sigma_b / sqrt(2n)).  The tier's accuracy
/// contract is estimator-level, so this -- not per-sample deltas -- is the
/// number the CI gate holds.
double maxSigmaDelta(const mc::McResult& stat, const mc::McResult& base) {
  double worst = 0.0;
  for (std::size_t m = 0; m < base.metrics.size(); ++m) {
    const auto b = stats::summarize(base.metrics[m]);
    const auto s = stats::summarize(stat.metrics[m]);
    const double n = static_cast<double>(base.metrics[m].size());
    if (b.stddev <= 0.0 || n < 2.0) continue;
    const double meanSe = b.stddev / std::sqrt(n);
    const double sigmaSe = b.stddev / std::sqrt(2.0 * n);
    worst = std::max(worst, std::fabs(s.mean - b.mean) / meanSe);
    worst = std::max(worst, std::fabs(s.stddev - b.stddev) / sigmaSe);
  }
  return worst;
}

/// Statistical-tier row: fast+reuse+statistical vs the fast+reuse
/// per-sample baseline (same seeds).  speedup_vs_per_sample is the
/// issue's headline number; within_sigma_contract holds the estimator
/// agreement at 3 baseline standard errors.
void emitStatisticalTier(const std::string& name, int samples,
                         const CampaignTiming& stat,
                         const CampaignTiming& base) {
  const double sigmaDelta = maxSigmaDelta(stat.result, base.result);
  std::printf(
      "{\"name\": \"%s\", \"samples\": %d, \"threads\": %u, "
      "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
      "\"allocs_per_sample\": %.1f, \"speedup_vs_per_sample\": %.2f, "
      "\"mean_iters_per_sample\": %.1f, \"warm_start_hit_rate\": %.2f, "
      "\"estimator_max_sigma_delta\": %.3f, \"within_sigma_contract\": %s, "
      "\"metrics_fnv1a\": \"0x%016llx\"}\n",
      name.c_str(), samples, gThreads, stat.usPerSample,
      1e6 / stat.usPerSample, stat.allocsPerSample,
      base.usPerSample / stat.usPerSample,
      stat.result.meanIterationsPerSample(), stat.result.warmStartHitRate(),
      sigmaDelta, sigmaDelta <= 3.0 ? "true" : "false",
      static_cast<unsigned long long>(metricsHash(stat.result)));
}

/// --scaling body shared by every workload: one row per session-mode
/// combination (NumericsMode x SolverMode), so the scaling smoke/audit
/// checks cross-thread-count bit-identity of every cell of the matrix.
void runScalingCombos(
    const std::string& name, int samples,
    const std::function<mc::McResult(int, spice::SessionOptions)>& session) {
  const struct {
    const char* suffix;
    spice::SessionOptions options;
  } combos[] = {{"_session", spice::SessionOptions{}},
                {"_session_fast", fastOptions()},
                {"_session_reuse", reusePivotOptions()},
                {"_session_fast_reuse", fastReuseOptions()},
                // Statistical tier on the fast+reuse baseline: block
                // geometry depends only on McOptions::sampleBlock, so the
                // warm-chain results must hash identically across 1/2/4
                // workers like every other combo.
                {"_session_statistical", statisticalOptions()}};
  for (const auto& combo : combos) {
    const CampaignTiming s = timeCampaign(
        samples, [&](int n) { return session(n, combo.options); });
    emitSession(name + combo.suffix, samples, s);
  }
}

/// One workload: measures the fresh session path, the pivot-reuse,
/// fast-numerics and composed session paths (tolerance contract), and the
/// statistical tier; emits one JSONL line each.  In --scaling mode every
/// session-mode combination runs instead (cross-thread-count identity is
/// checked by comparing metrics_fnv1a across whole runs, not in-process).
void benchWorkload(
    const std::string& name, int samples,
    const std::function<mc::McResult(int, spice::SessionOptions)>& session) {
  if (gScalingOnly) {
    runScalingCombos(name, samples, session);
    return;
  }
  const CampaignTiming s = timeCampaign(
      samples, [&](int n) { return session(n, spice::SessionOptions{}); });
  const CampaignTiming u = timeCampaign(
      samples, [&](int n) { return session(n, reusePivotOptions()); });
  emitSession(name + "_session", samples, s);
  emitTolerance(name + "_session_reuse", samples, u, "speedup_vs_fresh", s);
  const CampaignTiming f = timeCampaign(
      samples, [&](int n) { return session(n, fastOptions()); });
  const CampaignTiming b = timeCampaign(
      samples, [&](int n) { return session(n, fastReuseOptions()); });
  emitTolerance(name + "_session_fast", samples, f, "speedup_vs_session", s);
  emitTolerance(name + "_session_fast_reuse", samples, b,
                "speedup_vs_session", s);
  const CampaignTiming st = timeCampaign(
      samples, [&](int n) { return session(n, statisticalOptions()); });
  emitStatisticalTier(name + "_statistical_tier", samples, st, b);
}

constexpr int kSnmPoints = 45;
constexpr int kGridPoints = 45;
constexpr std::uint64_t kSeed = 901;

mc::McOptions options(int samples) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = kSeed;
  // Default 1: per-sample cost comparison.  --threads N turns the same
  // campaigns into a parallel-scaling measurement (results bit-identical
  // by the runner's contract, asserted across runs via metrics_fnv1a).
  opt.threads = gThreads;
  return opt;
}

mc::McResult snmCampaign(int n, spice::SessionOptions sessionOptions,
                         const sim::RescuePolicy& rescue = {}) {
  return mc::runCampaign<circuits::SramButterflyBench>(
      options(n), 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildSramButterfly(provider, 0.9,
                                            circuits::SramMode::Read,
                                            circuits::SramSizing{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t,
         sim::CampaignSession<circuits::SramButterflyBench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] = measure::measureSnm(session.fixture(), session.spice(),
                                     kSnmPoints)
                     .cellSnm();
      },
      sessionOptions, rescue);
}

mc::McResult invCampaign(int n, spice::SessionOptions sessionOptions) {
  return mc::runCampaign<circuits::GateFo3Bench>(
      options(n), 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildInvFo3(provider, circuits::CellSizing{},
                                     circuits::StimulusSpec{});
      },
      [] { return makeProvider(stats::Rng(0)); },
      [](std::size_t, sim::CampaignSession<circuits::GateFo3Bench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] =
            measure::measureGateDelays(session.fixture(), session.spice())
                .average();
      },
      sessionOptions);
}

int run(int snmSamples, int invSamples) {
  benchWorkload("sram_snm", snmSamples,
                [](int n, spice::SessionOptions sessionOptions) {
                  return snmCampaign(n, sessionOptions);
                });

  if (!gScalingOnly) {
    sim::RescuePolicy noRescue;
    noRescue.enabled = false;
    const CampaignTiming off = timeCampaign(snmSamples, [&](int n) {
      return snmCampaign(n, spice::SessionOptions{}, noRescue);
    });
    const CampaignTiming on = timeCampaign(snmSamples, [](int n) {
      return snmCampaign(n, spice::SessionOptions{});
    });
    emitRescueOverhead("sram_snm_rescue_overhead", snmSamples, on,
                       off.usPerSample,
                       bitIdentical(on.result, off.result));
  }

  benchWorkload("inv_fo3", invSamples, invCampaign);
  return 0;
}

/// Session campaign over an edge x edge mesh rung, sweeping `points`
/// supply levels per sample.  The 10x10 rung keeps the historical 45-point
/// sweep (the committed grid_ir rows); bigger rungs sweep fewer levels so
/// the ladder stays benchable -- per-solve factor cost is what the ladder
/// rows measure, and the factor probe times it exactly anyway.
std::function<mc::McResult(int, spice::SessionOptions)> gridSession(
    int edge, int points) {
  return [edge, points](int n, spice::SessionOptions sessionOptions) {
    return mc::runCampaign<circuits::PowerGridBench>(
        options(n), 1,
        [edge](circuits::DeviceProvider& provider) {
          return circuits::buildPowerGridIrDrop(provider, edge, edge, 0.9);
        },
        [] { return makeProvider(stats::Rng(0)); },
        [points](std::size_t,
                 sim::CampaignSession<circuits::PowerGridBench>& session,
                 stats::Rng&, std::vector<double>& out) {
          static thread_local std::vector<double> levels;
          static thread_local std::vector<double> farVolts;
          circuits::PowerGridBench& fx = session.fixture();
          if (levels.size() != static_cast<std::size_t>(points)) {
            levels.clear();
            for (int i = 0; i < points; ++i)
              levels.push_back(fx.supply * i / (points - 1));
          }
          session.spice().dcSweepNode(fx.feedSource, levels, fx.farNode,
                                      farVolts);
          out[0] = fx.supply - farVolts.back();  // worst-case IR drop [V]
        },
        sessionOptions);
  };
}

/// Direct factorization measurements on one ladder rung's assembled MNA
/// Jacobian -- the numbers the campaign rows can only show indirectly.
struct FactorProbe {
  std::size_t unknowns = 0;
  std::size_t patternNnz = 0;
  std::size_t factorNnz = 0;
  double fillRatio = 0.0;
  double orderingUs = 0.0;      ///< one-time fill-reducing ordering
  double freshFactorUs = 0.0;   ///< steady-state fresh full factor
  double allocsPerFactor = 0.0; ///< marginal heap allocs per fresh factor
  double factorMemMiB = 0.0;    ///< factor storage (values + indices)
  double denseFactorUs = -1.0;  ///< DensePivotLu baseline (-1: not run)
};

/// Builds the rung's Jacobian the way the equivalence tests do: real
/// device stamps at a spread of node biases, homotopy-level gmin so every
/// node diagonal is present.
FactorProbe probeFactor(int edge, int factorReps, bool withDense) {
  auto provider = makeProvider(stats::Rng(0));
  circuits::PowerGridBench bench =
      circuits::buildPowerGridIrDrop(*provider, edge, edge, 0.9);
  spice::detail::Assembler assembler(bench.circuit);
  const std::size_t n = bench.circuit.unknownCount();
  linalg::Vector x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.2 + 0.5 * static_cast<double>((i * 37u) % 101u) / 101.0;
  assembler.setGmin(1e-3);
  assembler.assemble(x);
  const linalg::SparseMatrix& m = assembler.jacobian();

  FactorProbe p;
  p.unknowns = n;

  linalg::SparseLu lu;
  lu.refactor(m);  // pays the one-time ordering; cached across reset()
  lu.reset();
  lu.refactor(m);  // warm: every work array at capacity
  const std::uint64_t allocs0 = bench::heapAllocations();
  const auto t0 = Clock::now();
  for (int i = 0; i < factorReps; ++i) {
    lu.reset();
    lu.refactor(m);
  }
  const auto t1 = Clock::now();
  const std::uint64_t allocs1 = bench::heapAllocations();
  p.freshFactorUs =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()) /
      factorReps;
  p.allocsPerFactor =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(factorReps);
  p.patternNnz = lu.patternNonZeroCount();
  p.factorNnz = lu.factorNonZeroCount();
  p.fillRatio = lu.fillRatio();
  p.orderingUs = static_cast<double>(lu.orderingMicros());
  p.factorMemMiB =
      static_cast<double>(lu.factorMemoryBytes()) / (1024.0 * 1024.0);

  if (withDense) {
    linalg::DensePivotLu dense;
    dense.refactor(m);  // warm
    const int denseReps = std::max(2, factorReps / 16);
    const auto d0 = Clock::now();
    for (int i = 0; i < denseReps; ++i) {
      dense.reset();
      dense.refactor(m);
    }
    const auto d1 = Clock::now();
    p.denseFactorUs =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(d1 - d0)
                .count()) /
        denseReps;
  }
  return p;
}

/// Ladder row: session-campaign throughput (absent on a probe-only rung,
/// `t` null) + the factor probe, one JSONL object.  speedup_vs_dense_lu
/// (CI-gated, higher-better) appears only where the dense baseline actually
/// ran -- at 64x64 it would be ~5e10 flops per factor, so that rung records
/// the sparse side alone plus its probe's heap peak (the near-linear-memory
/// evidence).  ordering_vs_factor puts the once-per-pattern ordering in
/// units of the fresh factor it prepares.
void emitLadder(const std::string& name, int samples, const CampaignTiming* t,
                const FactorProbe& p, double peakHeapMiB) {
  std::string row = "{\"name\": \"" + name + "\"";
  char buf[512];
  if (t != nullptr) {
    std::snprintf(buf, sizeof buf,
                  ", \"samples\": %d, \"threads\": %u, "
                  "\"us_per_sample\": %.1f, \"samples_per_sec\": %.1f, "
                  "\"allocs_per_sample\": %.1f, "
                  "\"metrics_fnv1a\": \"0x%016llx\"",
                  samples, gThreads, t->usPerSample, 1e6 / t->usPerSample,
                  t->allocsPerSample,
                  static_cast<unsigned long long>(metricsHash(t->result)));
    row += buf;
  }
  std::snprintf(
      buf, sizeof buf,
      ", \"unknowns\": %zu, \"pattern_nnz\": %zu, \"factor_nnz\": %zu, "
      "\"fill_ratio\": %.2f, \"ordering_us\": %.0f, "
      "\"fresh_factor_us\": %.1f, \"ordering_vs_factor\": %.2f, "
      "\"allocs_per_factor\": %.1f, \"factor_mem_mib\": %.3f",
      p.unknowns, p.patternNnz, p.factorNnz, p.fillRatio, p.orderingUs,
      p.freshFactorUs, p.orderingUs / p.freshFactorUs, p.allocsPerFactor,
      p.factorMemMiB);
  row += buf;
  if (p.denseFactorUs >= 0.0) {
    std::snprintf(buf, sizeof buf,
                  ", \"dense_factor_us\": %.1f, "
                  "\"speedup_vs_dense_lu\": %.1f",
                  p.denseFactorUs, p.denseFactorUs / p.freshFactorUs);
    row += buf;
  }
  if (peakHeapMiB >= 0.0) {
    std::snprintf(buf, sizeof buf, ", \"peak_heap_mib\": %.1f", peakHeapMiB);
    row += buf;
  }
  row += "}\n";
  std::fputs(row.c_str(), stdout);
}

int runGrid(int gridSamples, bool quick) {
  benchWorkload("grid_ir", gridSamples, gridSession(10, kGridPoints));

  // Grid-scale fixture ladder.  Sweep points shrink as the rung grows (the
  // campaign row is a throughput smoke; the factor probe carries the
  // rung's precise factor cost), and the dense baseline runs only where
  // O(n^3) is affordable.  The 128x128 rung runs no campaign (samples 0):
  // its row is the factor probe alone.
  struct Rung {
    int edge;
    int points;
    int samples;
    int factorReps;
    bool dense;
  };
  const Rung rungs[] = {{10, kGridPoints, gridSamples, 256, true},
                        {32, 21, quick ? 6 : 10, 48, true},
                        {64, 11, quick ? 5 : 8, 12, false},
                        {128, 0, 0, quick ? 3 : 8, false}};
  if (gScalingOnly) {
    // The scaling smoke/audit covers one beyond-paper-scale rung across
    // every session-mode combination; the 10x10 grid_ir combos above
    // already cover the small rung.
    runScalingCombos("grid_ladder_32", quick ? 6 : 10, gridSession(32, 21));
    return 0;
  }
  for (const Rung& rung : rungs) {
    std::optional<CampaignTiming> t;
    if (rung.samples > 0) {
      const auto session = gridSession(rung.edge, rung.points);
      t = timeCampaign(rung.samples, [&](int n) {
        return session(n, spice::SessionOptions{});
      });
    }
    // Heap high-water of building + factoring the rung: on 64x64 the
    // committed proof that factor memory stays near-linear (a dense
    // 4k x 4k scratch alone would be ~128 MiB).
    bench::resetHeapPeak();
    const FactorProbe p = probeFactor(rung.edge, rung.factorReps, rung.dense);
    const double peakHeapMiB =
        rung.edge == 64
            ? static_cast<double>(bench::heapPeakBytes()) / (1024.0 * 1024.0)
            : -1.0;
    emitLadder("grid_ladder_" + std::to_string(rung.edge), rung.samples,
               t ? &*t : nullptr, p, peakHeapMiB);
  }
  return 0;
}

}  // namespace
}  // namespace vsstat

int main(int argc, char** argv) {
  int snmSamples = 160;
  int invSamples = 48;
  int gridSamples = 24;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      snmSamples = 32;
      invSamples = 12;
      gridSamples = 8;
    } else if (std::strcmp(argv[i], "--scaling") == 0) {
      vsstat::gScalingOnly = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int t = std::atoi(argv[++i]);
      if (t < 1) {
        std::fprintf(stderr, "bench_campaign: --threads wants >= 1\n");
        return 2;
      }
      vsstat::gThreads = static_cast<unsigned>(t);
    } else {
      std::fprintf(stderr, "bench_campaign: unknown argument '%s' (usage: "
                   "bench_campaign [--quick] [--threads N] [--scaling])\n",
                   argv[i]);
      return 2;
    }
  }
  try {
    const int rc = vsstat::run(snmSamples, invSamples);
    if (rc != 0) return rc;
    return vsstat::runGrid(gridSamples, quick);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_campaign: %s\n", e.what());
    return 1;
  }
}
