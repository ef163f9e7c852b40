// End-to-end contract of the fault-injection seam + rescue ladder +
// failure taxonomy (spice/fault_injection.hpp, sim/rescue.hpp,
// mc/runner.hpp):
//
//   (a) an injected-fault campaign completes with every failure classified,
//       transient faults rescued, and persistent faults dropped under the
//       right FailureClass with first-failure diagnostics;
//   (b) determinism: injected-fault campaigns are bit-identical across
//       thread counts -- faults are keyed by sample index and every rescue
//       attempt replays the sample's RNG, so scheduling cannot matter;
//   (c) rung semantics: a reusePivot pivot breakdown is healed by the
//       fresh-pivot rung, a fast-numerics NaN lane by the reference rung
//       (whose rescued metric matches a reference campaign within 1e-8),
//       and SimSession::endSample restores the baseline after every
//       sample: the next sample on a rescued session runs exactly as on a
//       fresh one;
//   (d) clean samples pay nothing: with rescue armed but no faults firing,
//       metrics are bit-identical to a no-injector campaign.
#include "spice/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "measure/snm.hpp"
#include "models/vs_params.hpp"
#include "sim/rescue.hpp"
#include "sim/session.hpp"
#include "util/error.hpp"

namespace vsstat::sim {
namespace {

using circuits::SramButterflyBench;
using spice::FaultInjector;
using spice::FaultKind;
using spice::FaultSite;

models::PelgromAlphas someAlphas() {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return a;
}

std::unique_ptr<circuits::DeviceProvider> makeProvider() {
  return std::make_unique<mc::VsStatisticalProvider>(
      models::defaultVsNmos(), models::defaultVsPmos(), someAlphas(),
      someAlphas(), stats::Rng(0));
}

constexpr int kSnmPoints = 21;
constexpr int kSamples = 12;

SramButterflyBench buildCell(circuits::DeviceProvider& provider) {
  return circuits::buildSramButterfly(provider, 0.9, circuits::SramMode::Read,
                                      circuits::SramSizing{});
}

/// SNM campaign with an optional fault schedule.  The metric fn honors the
/// metricThrow advisory exactly as real measurement code would.
mc::McResult snmCampaign(unsigned threads,
                         std::shared_ptr<const FaultInjector> injector,
                         spice::SessionOptions base = {}) {
  mc::McOptions opt;
  opt.samples = kSamples;
  opt.seed = 424242;
  opt.threads = threads;
  base.faultInjector = injector;
  return mc::runCampaign<SramButterflyBench>(
      opt, 1, buildCell, makeProvider,
      [injector](std::size_t i, CampaignSession<SramButterflyBench>& session,
                 stats::Rng&, std::vector<double>& out) {
        if (injector != nullptr &&
            injector->metricThrowAt(i, session.spice().sampleAttempt())) {
          throw MetricDomainError("injected: degenerate butterfly curve");
        }
        out[0] =
            measure::measureSnm(session.fixture(), session.spice(), kSnmPoints)
                .cellSnm();
      },
      base);
}

void expectSameResults(const mc::McResult& lhs, const mc::McResult& rhs) {
  ASSERT_EQ(lhs.metrics.size(), rhs.metrics.size());
  EXPECT_EQ(lhs.failures, rhs.failures);
  EXPECT_EQ(lhs.failuresByClass, rhs.failuresByClass);
  EXPECT_EQ(lhs.rescued, rhs.rescued);
  EXPECT_EQ(lhs.firstFailure.valid, rhs.firstFailure.valid);
  if (lhs.firstFailure.valid && rhs.firstFailure.valid) {
    EXPECT_EQ(lhs.firstFailure.sampleIndex, rhs.firstFailure.sampleIndex);
    EXPECT_EQ(lhs.firstFailure.failureClass, rhs.firstFailure.failureClass);
  }
  for (std::size_t m = 0; m < lhs.metrics.size(); ++m)
    EXPECT_EQ(lhs.metrics[m], rhs.metrics[m]) << "metric " << m;  // bit-equal
}

TEST(FaultInjection, TransientSingularJacobianIsRescued) {
  const auto injector = std::make_shared<FaultInjector>(std::vector<FaultSite>{
      {FaultKind::singularJacobian, 5, /*persistent=*/false}});
  const mc::McResult r = snmCampaign(1, injector);
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.rescued, 1);
  EXPECT_FALSE(r.firstFailure.valid);
  EXPECT_EQ(r.sampleCount(), static_cast<std::size_t>(kSamples));

  // Clean samples never enter the ladder: every metric except the rescued
  // sample's is bit-identical to the uninjected campaign (the rescued one
  // re-solved under hardened effort, so only tolerance holds there).
  const mc::McResult clean = snmCampaign(1, nullptr);
  ASSERT_EQ(clean.sampleCount(), r.sampleCount());
  for (std::size_t i = 0; i < r.metrics[0].size(); ++i) {
    if (i == 5u) {
      EXPECT_NEAR(r.metrics[0][i], clean.metrics[0][i],
                  1e-8 * std::fabs(clean.metrics[0][i]));
    } else {
      EXPECT_EQ(r.metrics[0][i], clean.metrics[0][i]) << "sample " << i;
    }
  }
}

TEST(FaultInjection, PersistentSingularJacobianExhaustsTheLadder) {
  const auto injector = std::make_shared<FaultInjector>(std::vector<FaultSite>{
      {FaultKind::singularJacobian, 2, /*persistent=*/true}});
  const mc::McResult r = snmCampaign(1, injector);
  EXPECT_EQ(r.failures, 1);
  EXPECT_EQ(r.rescued, 0);
  EXPECT_EQ(r.failuresOf(FailureClass::singular), 1);
  ASSERT_TRUE(r.firstFailure.valid);
  EXPECT_EQ(r.firstFailure.sampleIndex, 2u);
  EXPECT_EQ(r.firstFailure.failureClass, FailureClass::singular);
  EXPECT_EQ(r.sampleCount(), static_cast<std::size_t>(kSamples - 1));
}

TEST(FaultInjection, MetricThrowFollowsTheSameTaxonomy) {
  // Transient metric throw: the advisory stops firing on attempt 1, so the
  // hardened rung recovers the sample.  Persistent: classified metricDomain.
  const auto transient =
      std::make_shared<FaultInjector>(std::vector<FaultSite>{
          {FaultKind::metricThrow, 7, /*persistent=*/false}});
  const mc::McResult rescued = snmCampaign(1, transient);
  EXPECT_EQ(rescued.failures, 0);
  EXPECT_EQ(rescued.rescued, 1);

  const auto persistent =
      std::make_shared<FaultInjector>(std::vector<FaultSite>{
          {FaultKind::metricThrow, 7, /*persistent=*/true}});
  const mc::McResult dropped = snmCampaign(1, persistent);
  EXPECT_EQ(dropped.failures, 1);
  EXPECT_EQ(dropped.failuresOf(FailureClass::metricDomain), 1);
  ASSERT_TRUE(dropped.firstFailure.valid);
  EXPECT_EQ(dropped.firstFailure.sampleIndex, 7u);
  EXPECT_NE(dropped.firstFailure.message.find("degenerate butterfly"),
            std::string::npos);
}

TEST(FaultInjection, InjectedCampaignsAreBitIdenticalAcrossThreadCounts) {
  // The acceptance determinism check: a mixed fault schedule (one rescue,
  // one hard drop, one metric throw) must not make results depend on
  // scheduling in any way -- metrics, taxonomy, or first-failure identity.
  const auto injector = std::make_shared<FaultInjector>(std::vector<FaultSite>{
      {FaultKind::singularJacobian, 3, /*persistent=*/false},
      {FaultKind::singularJacobian, 8, /*persistent=*/true},
      {FaultKind::metricThrow, 10, /*persistent=*/false}});
  const mc::McResult t1 = snmCampaign(1, injector);
  const mc::McResult t2 = snmCampaign(2, injector);
  const mc::McResult t4 = snmCampaign(4, injector);
  EXPECT_EQ(t1.failures, 1);
  EXPECT_EQ(t1.rescued, 2);
  EXPECT_EQ(t1.failuresOf(FailureClass::singular), 1);
  expectSameResults(t1, t2);
  expectSameResults(t1, t4);
}

TEST(FaultInjection, FastNanLaneFallsBackToReferenceNumericsWithin1e8) {
  // A persistent NaN lane only poisons FAST bank evaluation, so the ladder
  // walks harden (still fast, fails) -> reference (heals).  The reference
  // rung runs at identity effort, so the rescued sample's metric is the
  // reference campaign's bits; every other sample stays on fast bits.
  spice::SessionOptions fast;
  fast.numerics = models::NumericsMode::fast;
  const auto injector = std::make_shared<FaultInjector>(std::vector<FaultSite>{
      {FaultKind::nanBankLane, 4, /*persistent=*/true}});
  const mc::McResult r = snmCampaign(1, injector, fast);
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.rescued, 1);

  const mc::McResult reference = snmCampaign(1, nullptr);
  ASSERT_EQ(r.sampleCount(), reference.sampleCount());
  for (std::size_t i = 0; i < r.metrics[0].size(); ++i) {
    EXPECT_NEAR(r.metrics[0][i], reference.metrics[0][i],
                1e-8 * std::fabs(reference.metrics[0][i]))
        << "sample " << i;
  }
  EXPECT_EQ(r.metrics[0][4], reference.metrics[0][4]);  // healed = ref bits

  // Determinism holds for the fast-mode injected campaign too.
  expectSameResults(r, snmCampaign(4, injector, fast));
}

TEST(FaultInjection, DisabledRescueDropsButStillClassifies) {
  mc::McOptions opt;
  opt.samples = kSamples;
  opt.seed = 424242;
  const auto injector = std::make_shared<FaultInjector>(std::vector<FaultSite>{
      {FaultKind::singularJacobian, 5, /*persistent=*/false}});
  spice::SessionOptions base;
  base.faultInjector = injector;
  RescuePolicy noRescue;
  noRescue.enabled = false;
  const mc::McResult r = mc::runCampaign<SramButterflyBench>(
      opt, 1, buildCell, makeProvider,
      [](std::size_t, CampaignSession<SramButterflyBench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] =
            measure::measureSnm(session.fixture(), session.spice(), kSnmPoints)
                .cellSnm();
      },
      base, noRescue);
  EXPECT_EQ(r.failures, 1);
  EXPECT_EQ(r.rescued, 0);
  EXPECT_EQ(r.failuresOf(FailureClass::singular), 1);
}

TEST(FaultInjection, PowerGridPivotBreakdownIsHealedByTheFreshPivotRung) {
  // The reusePivot workload class: a pivot-order breakdown that persists
  // under hardened effort (it is a property of the reused order, not of
  // Newton damping) must be healed by the fresh-pivot rung, and the
  // session must leave the sample back in reusePivot mode.
  spice::SessionOptions options;
  options.solver = linalg::SolverMode::reusePivot;
  CampaignSession<circuits::PowerGridBench> session(
      [](circuits::DeviceProvider& provider) {
        return circuits::buildPowerGridIrDrop(provider, 4, 4, 0.9);
      },
      makeProvider(), options);

  std::vector<double> out(1, 0.0);
  std::vector<double> farVolts;
  const std::vector<double> levels{0.0, 0.45, 0.9};
  mc::SampleContext ctx;
  int attemptsSeen = 0;
  runSampleWithRescue(
      /*index=*/0, session, stats::Rng(99), out, ctx,
      [&](std::size_t, CampaignSession<circuits::PowerGridBench>& s,
          stats::Rng&, std::vector<double>& metrics) {
        ++attemptsSeen;
        if (s.spice().solverMode() == linalg::SolverMode::reusePivot) {
          throw SingularMatrixError("grid_ir: reused pivot order broke down",
                                    0);
        }
        circuits::PowerGridBench& fx = s.fixture();
        s.spice().dcSweepNode(fx.feedSource, levels, fx.farNode, farVolts);
        metrics[0] = 0.9 - farVolts.back();
      });

  // Attempt 0 (reuse) and the hardened rung (still reuse) fail; the
  // fresh-pivot rung at attempt 2 succeeds.
  EXPECT_EQ(ctx.rescueAttempts, 2);
  EXPECT_EQ(attemptsSeen, 3);
  EXPECT_GT(out[0], 0.0);
  // Baseline pivot policy restored for the next sample.
  EXPECT_EQ(session.spice().solverMode(), linalg::SolverMode::reusePivot);
  EXPECT_EQ(session.spice().sampleAttempt(), 0);
}

TEST(FaultInjection, RescuedSessionRunsTheNextSampleLikeAFreshOne) {
  // The restore contract of SimSession::endSample.  Sample 0 hits an
  // injected singular row on attempt 0, and its metric rejects every
  // later attempt but the ladder's last, so it is rescued on the rung
  // that departs from the baseline on every axis (hardened Newton, fresh
  // pivoting and reference numerics where the baseline has them, the
  // perSample tier).  Sample 1 then runs on the same session outside any
  // attempt -- on exactly the state endSample left -- and must match
  // sample 1 on a fresh session bit for bit: metric, Newton iterations,
  // warm starts and factorization counts.
  const auto injector = std::make_shared<FaultInjector>(std::vector<FaultSite>{
      {FaultKind::singularJacobian, 0, /*persistent=*/false}});
  const stats::Rng campaign(424242);
  struct SampleRun {
    double snm = 0.0;
    std::vector<std::uint64_t> counts;
  };
  // Sample 1, bound and measured directly on the session's current state.
  const auto runSampleOne = [&](CampaignSession<SramButterflyBench>& s) {
    spice::SimSession& solver = s.spice();
    const auto it0 = solver.iterationTelemetry();
    const auto lu0 = solver.solverTelemetry();
    s.bindSample(campaign.fork(1));
    SampleRun run;
    run.snm = measure::measureSnm(s.fixture(), solver, kSnmPoints).cellSnm();
    const auto it1 = solver.iterationTelemetry();
    const auto lu1 = solver.solverTelemetry();
    run.counts = {it1.newtonIterations - it0.newtonIterations,
                  it1.warmStartHits - it0.warmStartHits,
                  it1.warmStartOpportunities - it0.warmStartOpportunities,
                  lu1.fullFactors - lu0.fullFactors,
                  lu1.fastRefactors - lu0.fastRefactors,
                  lu1.pivotFallbacks - lu0.pivotFallbacks};
    return run;
  };
  for (const auto numerics :
       {models::NumericsMode::reference, models::NumericsMode::fast}) {
    for (const auto solver :
         {linalg::SolverMode::fresh, linalg::SolverMode::reusePivot}) {
      for (const auto tier : {spice::ToleranceTier::perSample,
                              spice::ToleranceTier::statistical}) {
        SCOPED_TRACE(std::string(models::toString(numerics)) + "/" +
                     linalg::toString(solver) + "/" + spice::toString(tier));
        spice::SessionOptions options;
        options.numerics = numerics;
        options.solver = solver;
        options.tier = tier;
        options.faultInjector = injector;
        const bool reuse = solver == linalg::SolverMode::reusePivot;
        const bool fast = numerics == models::NumericsMode::fast;
        const int lastRung = 1 + int{reuse} + int{fast} + int{reuse || fast};

        CampaignSession<SramButterflyBench> rescued(buildCell, makeProvider(),
                                                    options);
        std::vector<double> out(1, 0.0);
        mc::SampleContext ctx;
        runSampleWithRescue(
            0, rescued, campaign.fork(0), out, ctx,
            [&](std::size_t, CampaignSession<SramButterflyBench>& s,
                stats::Rng&, std::vector<double>& metrics) {
              const int attempt = s.spice().sampleAttempt();
              if (attempt > 0 && attempt < lastRung)
                throw MetricDomainError("sample 0 waits for the last rung");
              metrics[0] =
                  measure::measureSnm(s.fixture(), s.spice(), kSnmPoints)
                      .cellSnm();
            });
        EXPECT_EQ(ctx.rescueAttempts, lastRung);
        EXPECT_EQ(rescued.spice().solverMode(), solver);
        EXPECT_EQ(rescued.spice().sampleAttempt(), 0);

        CampaignSession<SramButterflyBench> fresh(buildCell, makeProvider(),
                                                  options);
        const SampleRun afterRescue = runSampleOne(rescued);
        const SampleRun onFresh = runSampleOne(fresh);
        EXPECT_EQ(afterRescue.snm, onFresh.snm);  // bit-equal
        EXPECT_EQ(afterRescue.counts, onFresh.counts)
            << "iterations, warm hits, warm opportunities, full factors, "
               "fast refactors, pivot fallbacks";
      }
    }
  }
}

TEST(FaultInjection, SolveReportTelemetrySurfacesTheLastSolve) {
  // A plain session (no campaign, no injector) records per-solve
  // diagnostics: a clean DC point reports ok with a tiny residual.
  auto provider = makeProvider();
  circuits::RecordingProvider recorder(*provider);
  SramButterflyBench cell = buildCell(recorder);
  spice::SimSession session(cell.circuit);
  (void)session.dcOperatingPoint();
  const spice::SolveReport report = session.solverTelemetry().lastSolve;
  EXPECT_EQ(report.outcome, spice::SolveOutcome::ok);
  EXPECT_GT(report.iterations, 0);
  EXPECT_EQ(report.homotopyRung, spice::kRungPlainNewton);
  EXPECT_FALSE(report.sawSingular);
  EXPECT_FALSE(report.sawNonFinite);
  EXPECT_LT(report.finalResidual, 1e-6);
}

}  // namespace
}  // namespace vsstat::sim
