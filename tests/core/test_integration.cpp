// End-to-end integration: the full paper flow feeding circuit Monte Carlo.
#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "core/statistical_vs.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "stats/descriptive.hpp"
#include "stats/normality.hpp"

namespace vsstat::core {
namespace {

using circuits::CellSizing;
using circuits::StimulusSpec;
using models::DeviceType;

const StatisticalVsKit& sharedKit() {
  static const StatisticalVsKit k = [] {
    CharacterizeOptions opt;
    opt.analyticGoldenVariance = true;
    return StatisticalVsKit::characterize(extract::GoldenKit::default40nm(),
                                          opt);
  }();
  return k;
}

TEST(Integration, InverterDelayMonteCarloIsGaussianAtNominalVdd) {
  // Fig. 5 behaviour: at Vdd = 0.9 V the FO3 delay distribution is
  // Gaussian with a few-percent sigma.
  mc::McOptions opt;
  opt.samples = 120;
  opt.seed = 7;
  const mc::McResult r = mc::runCampaign(
      opt, 1, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        auto provider = sharedKit().makeProvider(rng);
        auto bench =
            circuits::buildInvFo3(*provider, CellSizing{}, StimulusSpec{});
        out[0] = measure::measureGateDelays(bench, 0.4e-12).average();
      });
  ASSERT_GT(r.sampleCount(), 100u);
  const auto s = stats::summarize(r.metrics[0]);
  EXPECT_GT(s.mean, 1e-12);
  EXPECT_LT(s.mean, 30e-12);
  const double rel = s.stddev / s.mean;
  EXPECT_GT(rel, 0.005);
  EXPECT_LT(rel, 0.15);
}

TEST(Integration, SramSnmMonteCarloShowsVariation) {
  // Fig. 9 behaviour: READ SNM spreads visibly under mismatch.
  mc::McOptions opt;
  opt.samples = 60;
  opt.seed = 11;
  const mc::McResult r = mc::runCampaign(
      opt, 1, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        auto provider = sharedKit().makeProvider(rng);
        auto bench = circuits::buildSramButterfly(
            *provider, 0.9, circuits::SramMode::Read, circuits::SramSizing{});
        spice::SimSession session(bench.circuit);
        out[0] = measure::measureSnm(bench, session, 41).cellSnm();
      });
  ASSERT_GT(r.sampleCount(), 50u);
  const auto s = stats::summarize(r.metrics[0]);
  EXPECT_GT(s.mean, 0.03);
  EXPECT_LT(s.mean, 0.35);
  EXPECT_GT(s.stddev, 0.002);
}

TEST(Integration, GoldenAndVsProvidersProduceComparableDelaySigma) {
  // The headline claim: the statistical VS kit reproduces the golden
  // kit's circuit-level variability.  Compare FO3 delay sigma/mean.
  const extract::GoldenKit golden = extract::GoldenKit::default40nm();

  const auto campaign = [&](bool useVs) {
    mc::McOptions opt;
    opt.samples = 100;
    opt.seed = 13;
    const mc::McResult r = mc::runCampaign(
        opt, 1, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
          std::unique_ptr<circuits::DeviceProvider> provider;
          if (useVs) {
            provider = sharedKit().makeProvider(rng);
          } else {
            provider = std::make_unique<mc::BsimStatisticalProvider>(
                golden.nmos, golden.pmos, golden.nmosMismatch,
                golden.pmosMismatch, rng);
          }
          auto bench =
              circuits::buildInvFo3(*provider, CellSizing{}, StimulusSpec{});
          out[0] = measure::measureGateDelays(bench, 0.4e-12).average();
        });
    return stats::summarize(r.metrics[0]);
  };

  const auto vs = campaign(true);
  const auto bsim = campaign(false);
  const double relVs = vs.stddev / vs.mean;
  const double relBsim = bsim.stddev / bsim.mean;
  EXPECT_NEAR(relVs, relBsim, 0.5 * relBsim);
  EXPECT_NEAR(vs.mean, bsim.mean, 0.30 * bsim.mean);
}

}  // namespace
}  // namespace vsstat::core
