// SRAM read-stability yield under within-die variation -- the use case the
// paper's Fig. 9 motivates.  Two stages:
//
//   1. plain Monte Carlo of the 6T cell's READ/HOLD SNM with the
//      statistical VS kit (distribution, moderate-floor yield);
//   2. the deep tail, where plain MC sees no failures at all: mean-shift
//      importance sampling over the standardized 30-dimensional mismatch
//      space (6 transistors x 5 VS parameters) resolves the failure
//      probability with a tight relative error.
//
// Everything runs on the build-once / rebind-per-sample campaign engine:
// stage 1 is two mc::runCampaign<Fixture> campaigns on one seed, READ and
// HOLD butterflies of the same dies, and stage 2's failure indicator
// leases a session per evaluation -- which also makes it safe for the
// importance sampler, whose draws are the samples of an mc::runCampaign.
//
// An optional variance-reduction stage demonstrates the first-class
// mc::SamplingPlan schemes: with `lhs` (Latin hypercube), `halton`, or
// `sobol` (randomized low-discrepancy), the READ-SNM yield is re-estimated
// at HALF the sample budget through the plan-driven campaign path and
// checked against the brute-force Monte Carlo estimate -- stratified
// designs buy back the budget on smooth responses like SNM.  With `sobol`
// the deep-tail stage also drives the importance sampler's base points
// from the Sobol generator.
//
// Usage: example_sram_yield [mc_samples] [is_samples] [scheme]
//                           [--fast] [--reuse-pivot] [--statistical]
//        (defaults 800/400 iid; scheme in {iid, lhs, halton, sobol};
//        --fast selects NumericsMode::fast -- SIMD kernels in the
//        device-bank lanes; --reuse-pivot selects SolverMode::reusePivot
//        -- one canonical LU pivot order amortized across every solve of
//        a session, breakdown-monitored; --statistical selects
//        ToleranceTier::statistical -- warm-started solves in fixed-size
//        sample blocks under the estimator-level accuracy contract.  All
//        flags compose; SNM/yield results stay within the documented
//        contract of the reference/fresh/per-sample configuration)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "core/statistical_vs.hpp"
#include "measure/snm.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/samplers.hpp"
#include "models/process_variation.hpp"
#include "models/vs_model.hpp"
#include "sim/session.hpp"
#include "stats/descriptive.hpp"
#include "stats/qq.hpp"
#include "util/error.hpp"
#include "yield/importance.hpp"
#include "yield/parametric.hpp"

using namespace vsstat;

namespace {

/// Fixed-z provider over the kit's cards and Pelgrom alphas: entry 5*i+j
/// of the armed z-vector scales parameter j of the i-th requested
/// transistor by its sigma (circuits::FixedZProvider contract).  This is
/// the bridge between the importance sampler's / sampling plans' z-space
/// and circuit instances.
std::unique_ptr<circuits::DeviceProvider> makeFixedZProvider(
    const core::StatisticalVsKit& kit) {
  return std::make_unique<mc::VsFixedZProvider>(
      kit.nominal(models::DeviceType::Nmos),
      kit.nominal(models::DeviceType::Pmos),
      kit.alphas(models::DeviceType::Nmos),
      kit.alphas(models::DeviceType::Pmos));
}

using ButterflyPool = sim::SessionPool<circuits::SramButterflyBench>;
using ButterflySession = sim::CampaignSession<circuits::SramButterflyBench>;

/// Campaign sample function: the rebound cell's SNM from a 45-level sweep.
void measureCellSnm(std::size_t, ButterflySession& session, stats::Rng&,
                    std::vector<double>& out) {
  out[0] = measure::measureSnm(session.fixture(), session.spice(), 45)
               .cellSnm();
}

/// Per-class failure/rescue accounting of a campaign (mc::McResult
/// taxonomy).  Unattended flows read this instead of diffing sample
/// counts: every dropped corner is named, classed, and exemplified by the
/// lowest-indexed failure.
void printCampaignBreakdown(const char* name, const mc::McResult& r) {
  const int total = static_cast<int>(r.sampleCount()) + r.failures;
  std::printf("\n%s campaign: %d samples, %d dropped, %d rescued\n", name,
              total, r.failures, r.rescued);
  for (int c = 0; c < kFailureClassCount; ++c) {
    const auto cls = static_cast<FailureClass>(c);
    if (r.failuresOf(cls) > 0)
      std::printf("  %-15s %d\n", toString(cls), r.failuresOf(cls));
  }
  if (r.firstFailure.valid)
    std::printf("  first failure: sample %zu [%s] %s\n",
                r.firstFailure.sampleIndex,
                toString(r.firstFailure.failureClass),
                r.firstFailure.message.c_str());
}

ButterflyPool makePool(const core::StatisticalVsKit& kit,
                       circuits::SramMode mode,
                       spice::SessionOptions sessionOptions) {
  return ButterflyPool(
      [&kit, mode](circuits::DeviceProvider& provider) {
        return circuits::buildSramButterfly(provider, kit.vdd(), mode,
                                            circuits::SramSizing{});
      },
      [&kit] { return kit.makeProvider(stats::Rng(0)); }, sessionOptions);
}

}  // namespace

namespace {

/// READ-SNM yield driven by a first-class mc::SamplingPlan: the campaign
/// evaluates the plan's generator at each sample index and arms the
/// session's fixed-z provider before the rebind -- deterministic in
/// (plan, index), with the rescue ladder and (under --statistical) the
/// warm-chain blocks of the standard circuit-campaign path.
yield::YieldEstimate generatorYield(const core::StatisticalVsKit& kit,
                                    const mc::SamplingPlan& plan,
                                    std::size_t budget, double snmFloor,
                                    spice::SessionOptions sessionOptions) {
  mc::McOptions opt;
  opt.samples = static_cast<int>(budget);
  opt.seed = 7;
  const mc::McResult r = mc::runCampaign<circuits::SramButterflyBench>(
      opt, 1,
      [&kit](circuits::DeviceProvider& provider) {
        return circuits::buildSramButterfly(provider, kit.vdd(),
                                            circuits::SramMode::Read,
                                            circuits::SramSizing{});
      },
      [&kit] { return makeFixedZProvider(kit); }, measureCellSnm,
      sessionOptions, sim::RescuePolicy{}, plan);
  return yield::yieldOfSamples(r.metrics[0], {snmFloor, std::nullopt});
}

}  // namespace

int main(int argc, char** argv) {
  core::CharacterizeOptions opt;
  opt.analyticGoldenVariance = true;  // fast, noise-free characterization
  const core::StatisticalVsKit kit = core::StatisticalVsKit::characterize(
      extract::GoldenKit::default40nm(), opt);

  spice::SessionOptions sessionOptions;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      sessionOptions.numerics = models::NumericsMode::fast;
    } else if (std::strcmp(argv[i], "--reuse-pivot") == 0) {
      sessionOptions.solver = linalg::SolverMode::reusePivot;
    } else if (std::strcmp(argv[i], "--statistical") == 0) {
      sessionOptions.tier = spice::ToleranceTier::statistical;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "example_sram_yield: unknown flag '%s' (usage: "
                   "example_sram_yield [mc_samples] [is_samples] [scheme] "
                   "[--fast] [--reuse-pivot] [--statistical])\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int kSamples =
      positional.size() > 0 ? std::max(std::atoi(positional[0]), 20) : 800;
  const int kIsSamples =
      positional.size() > 1 ? std::max(std::atoi(positional[1]), 20) : 400;
  const std::string scheme = positional.size() > 2 ? positional[2] : "iid";
  require(scheme == "iid" || scheme == "lhs" || scheme == "halton" ||
              scheme == "sobol",
          "scheme must be one of: iid, lhs, halton, sobol");
  constexpr double kSnmFloor = 0.04;  // V; stability criterion

  // Stage 1: READ and HOLD SNM of the same dies.  The two campaigns share
  // a seed and both fixtures request the cell's transistors in one order,
  // so sample k of either campaign rebinds die k's draws.  Under
  // --statistical each campaign runs in warm-chain blocks.
  mc::McOptions mcOpt;
  mcOpt.samples = kSamples;
  mcOpt.seed = 2026;
  ButterflyPool readPool =
      makePool(kit, circuits::SramMode::Read, sessionOptions);
  ButterflyPool holdPool =
      makePool(kit, circuits::SramMode::Hold, sessionOptions);
  const mc::McResult r = mc::runCampaign<circuits::SramButterflyBench>(
      mcOpt, 1, readPool, measureCellSnm);
  const mc::McResult h = mc::runCampaign<circuits::SramButterflyBench>(
      mcOpt, 1, holdPool, measureCellSnm);

  const auto read = stats::summarize(r.metrics[0]);
  const auto hold = stats::summarize(h.metrics[0]);
  std::printf("6T SRAM (N/P 150/40 nm, pass 100 nm) at Vdd = %.2f V, %d MC "
              "samples, %s numerics, %s solver, %s tier\n\n", kit.vdd(),
              kSamples, models::toString(sessionOptions.numerics),
              linalg::toString(sessionOptions.solver),
              spice::toString(sessionOptions.tier));
  std::printf("READ SNM: mean = %.1f mV  sigma = %.1f mV  min = %.1f mV\n",
              read.mean * 1e3, read.stddev * 1e3, read.min * 1e3);
  std::printf("HOLD SNM: mean = %.1f mV  sigma = %.1f mV  min = %.1f mV\n",
              hold.mean * 1e3, hold.stddev * 1e3, hold.min * 1e3);

  // Yield under an EXPLICIT dropped-sample policy: dropped corners are the
  // extreme draws, so they count as spec failures (conservative), and an
  // unattended run aborts loudly -- exit 3 -- rather than report a number
  // biased by a silently degraded campaign.
  // Both campaigns answer to the drop budget; the yield is READ's.
  printCampaignBreakdown("READ SNM", r);
  printCampaignBreakdown("HOLD SNM", h);
  yield::DropPolicy dropPolicy;
  dropPolicy.mode = yield::DroppedSamplePolicy::errorAboveThreshold;
  dropPolicy.maxDropFraction = 0.01;
  yield::YieldEstimate moderate;
  try {
    moderate = yield::yieldOfCampaign(r, 0, {kSnmFloor, std::nullopt},
                                      dropPolicy);
    (void)yield::yieldOfCampaign(h, 0, {kSnmFloor, std::nullopt},
                                 dropPolicy);
  } catch (const yield::DroppedSamplesError& e) {
    std::printf("campaign health: DEGRADED -- %s\n", e.what());
    return 3;
  }
  std::printf("campaign health: OK (drop fraction within %.0f %% budget)\n",
              100.0 * dropPolicy.maxDropFraction);
  std::printf("newton: %.1f + %.1f iterations/sample (READ + HOLD), "
              "warm-start hit rate %.0f/%.0f %% (%s tier)\n",
              r.meanIterationsPerSample(), h.meanIterationsPerSample(),
              100.0 * r.warmStartHitRate(), 100.0 * h.warmStartHitRate(),
              spice::toString(sessionOptions.tier));

  std::printf("solver factor: %llu + %llu full factors, %llu + %llu fast "
              "refactors, %llu + %llu pivot fallbacks (READ + HOLD)\n",
              static_cast<unsigned long long>(r.fullFactors),
              static_cast<unsigned long long>(h.fullFactors),
              static_cast<unsigned long long>(r.fastRefactors),
              static_cast<unsigned long long>(h.fastRefactors),
              static_cast<unsigned long long>(r.pivotFallbacks),
              static_cast<unsigned long long>(h.pivotFallbacks));
  std::printf("\nRead-stability yield (SNM >= %.0f mV): %.2f %%  "
              "[95%% CI %.2f..%.2f]  (%ld/%ld failing)\n",
              kSnmFloor * 1e3, 100.0 * moderate.yield, 100.0 * moderate.lower,
              100.0 * moderate.upper, moderate.total - moderate.passed,
              moderate.total);

  const auto qq = stats::qqAgainstNormal(h.metrics[0]);
  std::printf("HOLD SNM QQ linearity r^2 = %.4f (slightly non-Gaussian, as "
              "in the paper's Fig. 9f)\n", qq.linearity);

  // --- Optional: variance-reduced yield via LHS / Halton / Sobol plans ----
  if (scheme != "iid") {
    const std::size_t dims = 6 * 5;  // transistors x VS parameters
    const std::size_t budget =
        static_cast<std::size_t>(std::max(kSamples / 2, 20));
    mc::SamplingPlan plan;
    plan.scheme = mc::parseScheme(scheme);
    plan.dimension = dims;
    plan.seed = 314;
    const yield::YieldEstimate stratified =
        generatorYield(kit, plan, budget, kSnmFloor, sessionOptions);
    std::printf("\n%s read-stability yield at HALF budget (%zu samples): "
                "%.2f %%  [95%% CI %.2f..%.2f]\n", scheme.c_str(), budget,
                100.0 * stratified.yield, 100.0 * stratified.lower,
                100.0 * stratified.upper);
    // Smoke contract: the stratified design must agree with brute-force MC
    // within a generous tolerance even at the reduced-count smoke budget
    // (both estimate the same smooth-response yield; the design only
    // shrinks the estimator variance).
    const double gap = std::fabs(stratified.yield - moderate.yield);
    std::printf("  |yield(%s) - yield(mc)| = %.3f\n", scheme.c_str(), gap);
    require(gap <= 0.15,
            "stratified yield diverged from brute-force Monte Carlo");
  }

  // --- Stage 2: the deep tail via importance sampling ---------------------
  constexpr double kTailFloor = 0.015;  // V; plain MC sees ~no failures here
  constexpr std::size_t kDims = 6 * 5;  // transistors x VS parameters

  // Session-backed indicator: lease a READ fixture, arm its fixed-z
  // provider, rebind, measure.  Thread-safe (one session per concurrent
  // evaluation), so the parallel sampler can hammer it.  The indicator
  // path pins ToleranceTier::perSample regardless of --statistical: its
  // leases are per-EVALUATION, so a warm chain here would depend on which
  // session served which z -- schedule-dependent, breaking the sampler's
  // bit-identity across thread counts.
  spice::SessionOptions tailOptions = sessionOptions;
  tailOptions.tier = spice::ToleranceTier::perSample;
  ButterflyPool tailPool(
      [&kit](circuits::DeviceProvider& provider) {
        return circuits::buildSramButterfly(provider, kit.vdd(),
                                            circuits::SramMode::Read,
                                            circuits::SramSizing{});
      },
      [&kit] { return makeFixedZProvider(kit); }, tailOptions);

  const yield::FailureIndicator cellFails =
      [&](const std::vector<double>& z) {
        auto lease = tailPool.acquire();
        static_cast<circuits::FixedZProvider&>(lease->provider()).setZ(z);
        lease->rebind();
        return measure::measureSnm(lease->fixture(), lease->spice(), 45)
                   .cellSnm() < kTailFloor;
      };

  // Physics-guided extra directions: READ failures are driven by opposing
  // VT0 shifts of the cross-coupled pair (PD1 vs PD2) and the pass gates.
  std::vector<double> skewPulldowns(kDims, 0.0);
  skewPulldowns[1 * 5 + 0] = 1.0;   // PD1 VT0 up
  skewPulldowns[4 * 5 + 0] = -1.0;  // PD2 VT0 down
  std::vector<double> skewWithPass = skewPulldowns;
  skewWithPass[2 * 5 + 0] = -1.0;   // PG1 VT0 down: stronger read disturb

  std::printf("\nDeep-tail failure probability (READ SNM < %.0f mV):\n",
              kTailFloor * 1e3);
  const std::vector<double> shift = yield::findFailureShift(
      cellFails, kDims, {skewPulldowns, skewWithPass});
  double shiftNorm = 0.0;
  for (double s : shift) shiftNorm += s * s;
  std::printf("  shift found at |z| = %.2f sigma\n", std::sqrt(shiftNorm));

  yield::ImportanceOptions isOpt;
  isOpt.samples = kIsSamples;
  isOpt.seed = 99;
  // With the sobol scheme, the importance sampler's base points come from
  // the randomized Sobol generator instead of iid draws -- variance
  // reduction composed with the mean shift.
  std::unique_ptr<mc::SampleGenerator> isGen;
  if (scheme == "sobol") {
    isGen = std::make_unique<mc::SobolSampler>(
        kDims, static_cast<std::size_t>(kIsSamples), 424);
    isOpt.generator = isGen.get();
    std::printf("  base points: randomized Sobol (%zu dims)\n", kDims);
  }
  const yield::ImportanceResult is =
      yield::importanceSample(cellFails, shift, isOpt);
  const yield::ImportanceResult bf =
      yield::bruteForceProbability(cellFails, kDims, isOpt);

  std::printf("  importance sampling: P = %.3e  (rel. std. err. %.1f %%, "
              "%d/%d hits)\n", is.probability, 100.0 * is.relStdError,
              is.failingDraws, isOpt.samples);
  std::printf("  brute force, same budget: %d hits -> no usable estimate\n",
              bf.failingDraws);
  std::printf("  equivalent bit-level yield: %.6f %%\n",
              100.0 * (1.0 - is.probability));
  return 0;
}
