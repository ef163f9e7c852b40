// Campaign contracts on the grid-scale fixture ladder (power-grid mesh,
// H-tree clock, SRAM column):
//
//   (a) worker-count bit-identity: every ladder rung produces the same
//       metric bits -- same FNV-1a over the metric doubles -- under 1, 2,
//       and 4 workers, in ALL FOUR NumericsMode x SolverMode combinations.
//       This is the acceptance determinism check of the sparse LU: the
//       fill-reducing ordering and the Gilbert-Peierls factor are pure
//       functions of the pattern, so scheduling cannot leak into results.
//       The campaign's summed Newton iterations, full factors, fast
//       refactors and pivot fallbacks are equal at every worker count too;
//   (b) fault-injection rescue at grid scale: an injected singular row on
//       the 32x32 mesh (~1k unknowns) walks the same rescue ladder as the
//       paper-scale cells -- transient faults rescued, persistent faults
//       classified and dropped -- and the injected campaign is itself
//       bit-identical across worker counts.
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "models/vs_params.hpp"
#include "spice/fault_injection.hpp"

namespace vsstat::sim {
namespace {

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

/// FNV-1a over every metric double's bit pattern plus the failure count --
/// the same identity the bench rows carry as "metrics_fnv1a".
std::uint64_t metricsFnv1a(const mc::McResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& metric : r.metrics) {
    for (const double d : metric) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      mix(bits);
    }
  }
  mix(static_cast<std::uint64_t>(r.failures));
  return h;
}

void expectBitIdentical(const mc::McResult& lhs, const mc::McResult& rhs,
                        const char* what) {
  EXPECT_EQ(metricsFnv1a(lhs), metricsFnv1a(rhs)) << what;
  ASSERT_EQ(lhs.metrics.size(), rhs.metrics.size()) << what;
  for (std::size_t m = 0; m < lhs.metrics.size(); ++m)
    EXPECT_EQ(lhs.metrics[m], rhs.metrics[m]) << what << " metric " << m;
  EXPECT_EQ(lhs.failures, rhs.failures) << what;
  EXPECT_EQ(lhs.rescued, rhs.rescued) << what;
  EXPECT_EQ(lhs.newtonIterations, rhs.newtonIterations) << what;
  EXPECT_EQ(lhs.fullFactors, rhs.fullFactors) << what;
  EXPECT_EQ(lhs.fastRefactors, rhs.fastRefactors) << what;
  EXPECT_EQ(lhs.pivotFallbacks, rhs.pivotFallbacks) << what;
}

/// The four session-mode combinations of the bit-identity acceptance check.
const spice::SessionOptions kModeCombos[] = {
    {.numerics = models::NumericsMode::reference,
     .solver = linalg::SolverMode::fresh},
    {.numerics = models::NumericsMode::fast,
     .solver = linalg::SolverMode::fresh},
    {.numerics = models::NumericsMode::reference,
     .solver = linalg::SolverMode::reusePivot},
    {.numerics = models::NumericsMode::fast,
     .solver = linalg::SolverMode::reusePivot},
};

const char* comboName(const spice::SessionOptions& o) {
  const bool fast = o.numerics == models::NumericsMode::fast;
  const bool reuse = o.solver == linalg::SolverMode::reusePivot;
  return fast ? (reuse ? "fast+reuse" : "fast+fresh")
              : (reuse ? "ref+reuse" : "ref+fresh");
}

constexpr int kSamples = 6;
constexpr int kSweepLevels = 5;

/// Far-corner IR-drop campaign on an edge x edge mesh rung.
mc::McResult meshCampaign(int edge, unsigned threads,
                          spice::SessionOptions options,
                          std::shared_ptr<const FaultInjector> injector =
                              nullptr) {
  mc::McOptions opt;
  opt.samples = kSamples;
  opt.seed = 7171;
  opt.threads = threads;
  options.faultInjector = std::move(injector);
  return mc::runCampaign<circuits::PowerGridBench>(
      opt, 1,
      [edge](circuits::DeviceProvider& provider) {
        return circuits::buildPowerGridIrDrop(provider, edge, edge, 0.9);
      },
      makeProvider,
      [](std::size_t, CampaignSession<circuits::PowerGridBench>& session,
         stats::Rng&, std::vector<double>& out) {
        circuits::PowerGridBench& fx = session.fixture();
        std::vector<double> levels;
        for (int i = 0; i < kSweepLevels; ++i)
          levels.push_back(fx.supply * i / (kSweepLevels - 1));
        std::vector<double> farVolts;
        session.spice().dcSweepNode(fx.feedSource, levels, fx.farNode,
                                    farVolts);
        out[0] = fx.supply - farVolts.back();
      },
      options);
}

/// Far-leaf delivery campaign on an H-tree rung.
mc::McResult hTreeCampaign(unsigned threads, spice::SessionOptions options) {
  mc::McOptions opt;
  opt.samples = kSamples;
  opt.seed = 7272;
  opt.threads = threads;
  return mc::runCampaign<circuits::HTreeClockBench>(
      opt, 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildHTreeClock(provider, 5, 0.9);
      },
      makeProvider,
      [](std::size_t, CampaignSession<circuits::HTreeClockBench>& session,
         stats::Rng&, std::vector<double>& out) {
        circuits::HTreeClockBench& fx = session.fixture();
        std::vector<double> levels;
        for (int i = 0; i < kSweepLevels; ++i)
          levels.push_back(fx.supply * i / (kSweepLevels - 1));
        std::vector<double> leafVolts;
        session.spice().dcSweepNode(fx.rootSource, levels, fx.leaves.back(),
                                    leafVolts);
        out[0] = fx.supply - leafVolts.back();
      },
      options);
}

/// Retained-state campaign on an SRAM-column rung (shared-bitline hubs).
mc::McResult sramColumnCampaign(unsigned threads,
                                spice::SessionOptions options) {
  mc::McOptions opt;
  opt.samples = kSamples;
  opt.seed = 7373;
  opt.threads = threads;
  return mc::runCampaign<circuits::SramColumnBench>(
      opt, 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildSramColumn(provider, 4, 0.9,
                                         circuits::SramSizing{});
      },
      makeProvider,
      [](std::size_t, CampaignSession<circuits::SramColumnBench>& session,
         stats::Rng&, std::vector<double>& out) {
        circuits::SramColumnBench& fx = session.fixture();
        const spice::OperatingPoint op =
            session.spice().dcOperatingPoint(fx.stateGuess());
        // Retained-state margin of the selected (read-disturbed) cell.
        out[0] = op.v(fx.q[static_cast<std::size_t>(fx.selected)]) -
                 op.v(fx.qb[static_cast<std::size_t>(fx.selected)]);
      },
      options);
}

TEST(GridLadder, MeshRungBitIdenticalAcrossWorkersInAllModeCombos) {
  for (const spice::SessionOptions& combo : kModeCombos) {
    const mc::McResult t1 = meshCampaign(10, 1, combo);
    const mc::McResult t2 = meshCampaign(10, 2, combo);
    const mc::McResult t4 = meshCampaign(10, 4, combo);
    EXPECT_EQ(t1.failures, 0) << comboName(combo);
    // Every sweep level factors at least once, so the sums cannot tie at 0.
    EXPECT_GE(t1.fullFactors + t1.fastRefactors,
              static_cast<std::uint64_t>(kSamples * kSweepLevels))
        << comboName(combo);
    expectBitIdentical(t1, t2, comboName(combo));
    expectBitIdentical(t1, t4, comboName(combo));
  }
}

TEST(GridLadder, HTreeRungBitIdenticalAcrossWorkersInAllModeCombos) {
  for (const spice::SessionOptions& combo : kModeCombos) {
    const mc::McResult t1 = hTreeCampaign(1, combo);
    const mc::McResult t4 = hTreeCampaign(4, combo);
    EXPECT_EQ(t1.failures, 0) << comboName(combo);
    expectBitIdentical(t1, t4, comboName(combo));
  }
}

TEST(GridLadder, SramColumnRungBitIdenticalAcrossWorkersInAllModeCombos) {
  for (const spice::SessionOptions& combo : kModeCombos) {
    const mc::McResult t1 = sramColumnCampaign(1, combo);
    const mc::McResult t4 = sramColumnCampaign(4, combo);
    EXPECT_EQ(t1.failures, 0) << comboName(combo);
    expectBitIdentical(t1, t4, comboName(combo));
    // The retained state is a real margin, not a degenerate solve.
    for (const double margin : t1.metrics[0]) EXPECT_GT(margin, 0.5);
  }
}

TEST(GridLadder, Mesh32SingularRowFaultWalksTheRescueLadder) {
  // Transient singular row at sample 1: the fresh-pivot rung re-solves and
  // recovers it.  Persistent singular row at sample 3: the ladder exhausts
  // and the sample drops under FailureClass::singular.
  const auto injector = std::make_shared<FaultInjector>(std::vector<FaultSite>{
      {FaultKind::singularJacobian, 1, /*persistent=*/false},
      {FaultKind::singularJacobian, 3, /*persistent=*/true}});
  const mc::McResult r = meshCampaign(32, 1, {}, injector);
  EXPECT_EQ(r.rescued, 1);
  EXPECT_EQ(r.failures, 1);
  EXPECT_EQ(r.failuresOf(FailureClass::singular), 1);
  ASSERT_TRUE(r.firstFailure.valid);
  EXPECT_EQ(r.firstFailure.sampleIndex, 3u);
  EXPECT_EQ(r.sampleCount(), static_cast<std::size_t>(kSamples - 1));

  // Clean samples are untouched by the armed injector: sample 3 is gone
  // from the injected run's (sample-ordered) metrics, sample 1 re-solved
  // under hardened rescue effort (tolerance only), everything else is
  // bit-identical to the uninjected campaign.
  const mc::McResult clean = meshCampaign(32, 1, {});
  EXPECT_EQ(clean.failures, 0);
  ASSERT_EQ(clean.metrics[0].size(), static_cast<std::size_t>(kSamples));
  ASSERT_EQ(r.metrics[0].size(), static_cast<std::size_t>(kSamples - 1));
  EXPECT_EQ(r.metrics[0][0], clean.metrics[0][0]);
  EXPECT_EQ(r.metrics[0][2], clean.metrics[0][2]);
  EXPECT_EQ(r.metrics[0][3], clean.metrics[0][4]);
  EXPECT_EQ(r.metrics[0][4], clean.metrics[0][5]);
  EXPECT_NEAR(r.metrics[0][1], clean.metrics[0][1],
              1e-8 * std::fabs(clean.metrics[0][1]));
  expectBitIdentical(r, meshCampaign(32, 2, {}, injector), "mesh32 injected");
  expectBitIdentical(r, meshCampaign(32, 4, {}, injector), "mesh32 injected");
}

}  // namespace
}  // namespace vsstat::sim
