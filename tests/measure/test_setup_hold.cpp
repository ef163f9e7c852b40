#include "measure/setup_hold.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "extract/golden_meter.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::measure {
namespace {

using circuits::CellSizing;
using circuits::DffBench;
using circuits::NominalProvider;
using models::VsModel;

NominalProvider vsProvider() {
  return NominalProvider(VsModel(models::defaultVsNmos()),
                         VsModel(models::defaultVsPmos()));
}

CellSizing dffSizing() { return CellSizing{600.0, 300.0, 40.0}; }

TEST(SetupTime, NominalIsPositivePicoseconds) {
  auto p = vsProvider();
  DffBench b = circuits::buildDff(p, 0.9, dffSizing());
  const double tSetup = measureSetupTime(b);
  // Master-slave pass-gate register: setup in the tens of ps at most.
  EXPECT_GT(tSetup, -10e-12);
  EXPECT_LT(tSetup, 45e-12);
}

TEST(SetupTime, BisectionIsDeterministic) {
  auto p1 = vsProvider();
  DffBench b1 = circuits::buildDff(p1, 0.9, dffSizing());
  auto p2 = vsProvider();
  DffBench b2 = circuits::buildDff(p2, 0.9, dffSizing());
  EXPECT_DOUBLE_EQ(measureSetupTime(b1), measureSetupTime(b2));
}

/// D and CLK hold their as-built DC 0 V waveform: no corner, 0 V anywhere.
void expectStimulusRestored(DffBench& b) {
  for (const std::string& name : {b.dSource, b.clkSource}) {
    const spice::SourceWaveform& w = b.circuit.voltageSource(name).waveform();
    std::vector<double> corners;
    w.appendBreakpoints(200e-12, corners);
    EXPECT_TRUE(corners.empty()) << name;
    EXPECT_EQ(w.valueAt(100e-12), 0.0) << name;
  }
}

TEST(SetupTime, SearchRestoresTheStimulusAlsoWhenItThrows) {
  auto p = vsProvider();
  DffBench b = circuits::buildDff(p, 0.9, dffSizing());
  spice::SimSession session(b.circuit);
  (void)measureSetupTime(b, session);
  expectStimulusRestored(b);

  // An unpowered register never captures: the search throws.
  b.circuit.voltageSource("VDD").setDcLevel(0.0);
  EXPECT_THROW((void)measureSetupTime(b, session), ConvergenceError);
  expectStimulusRestored(b);
}

// --- the Fig. 8 campaign: build once, rebind per sample --------------------

models::PelgromAlphas someAlphas() {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return a;
}

std::unique_ptr<circuits::DeviceProvider> statProvider(bool useVs,
                                                       stats::Rng rng) {
  if (useVs)
    return std::make_unique<mc::VsStatisticalProvider>(
        models::defaultVsNmos(), models::defaultVsPmos(), someAlphas(),
        someAlphas(), rng);
  const extract::GoldenKit g = extract::GoldenKit::default40nm();
  return std::make_unique<mc::BsimStatisticalProvider>(
      g.nmos, g.pmos, g.nmosMismatch, g.pmosMismatch, rng);
}

mc::McOptions setupOptions(bool useVs) {
  mc::McOptions opt;
  opt.samples = 6;
  opt.seed = useVs ? 81 : 82;  // Fig. 8's seeds
  return opt;
}

mc::McResult sessionCampaign(bool useVs) {
  return mc::runCampaign<DffBench>(
      setupOptions(useVs), 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildDff(provider, 0.9, dffSizing());
      },
      [useVs] { return statProvider(useVs, stats::Rng(0)); },
      [](std::size_t, sim::CampaignSession<DffBench>& session, stats::Rng&,
         std::vector<double>& out) {
        out[0] = measureSetupTime(session.fixture(), session.spice());
      });
}

mc::McResult rebuildCampaign(bool useVs) {
  return mc::runCampaign(
      setupOptions(useVs), 1,
      [useVs](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        auto provider = statProvider(useVs, rng);
        DffBench b = circuits::buildDff(*provider, 0.9, dffSizing());
        out[0] = measureSetupTime(b);
      });
}

TEST(SetupTimeCampaign, SessionCampaignEqualsRebuildPerSample) {
  for (const bool useVs : {false, true}) {
    const mc::McResult session = sessionCampaign(useVs);
    const mc::McResult rebuild = rebuildCampaign(useVs);
    EXPECT_EQ(session.failures, 0) << (useVs ? "VS" : "golden");
    EXPECT_EQ(rebuild.failures, 0) << (useVs ? "VS" : "golden");
    EXPECT_EQ(session.metrics[0], rebuild.metrics[0])
        << (useVs ? "VS" : "golden");
  }
}

TEST(SetupTimeCampaign, MatchesRecordedSearches) {
  // Recorded with a rebuild-per-sample campaign whose search built a fresh
  // session for every capture trial.
  const std::vector<double> golden = {
      -0x1.80d43de9cc604p-41, -0x1.9c511dc3a41ep-40, -0x1.b7cdfd9d7bdbbp-44,
      0x1.0c01868bf779ep-38,  -0x1.9c511dc3a41ep-40, 0x1.a33055ba1a0d7p-38};
  const std::vector<double> vs = {
      -0x1.c58c6d8a67ba8p-39, -0x1.05224e95818a7p-39, -0x1.3c1c0e493105ep-39,
      -0x1.e1094d643f784p-39, -0x1.5798ee2308c3ap-39, -0x1.5798ee2308c3ap-39};
  EXPECT_EQ(sessionCampaign(false).metrics[0], golden);
  EXPECT_EQ(sessionCampaign(true).metrics[0], vs);
}

}  // namespace
}  // namespace vsstat::measure
