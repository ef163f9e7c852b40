#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "measure/delay.hpp"
#include "measure/setup_hold.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "mc/runner.hpp"

namespace vsstat::bench {

double mcScale() {
  // Default below 1.0 keeps the full bench suite to ~10 minutes on a
  // laptop-class core; VSSTAT_MC_SCALE=1.0 reproduces the paper's exact
  // sample counts (2500/5000 MC runs etc.).
  static const double scale = [] {
    const char* env = std::getenv("VSSTAT_MC_SCALE");
    if (env == nullptr) return 0.35;
    const double v = std::atof(env);
    return v > 0.0 ? v : 0.35;
  }();
  return scale;
}

int scaledSamples(int paperCount, int minimum) {
  const int scaled = static_cast<int>(paperCount * mcScale() + 0.5);
  return std::max(scaled, minimum);
}

const extract::GoldenKit& goldenKit() {
  static const extract::GoldenKit kit = extract::GoldenKit::default40nm();
  return kit;
}

const core::StatisticalVsKit& calibratedKit() {
  static const core::StatisticalVsKit kit = [] {
    core::CharacterizeOptions opt;
    opt.samplesPerGeometry = scaledSamples(1000, 200);
    return core::StatisticalVsKit::characterize(goldenKit(), opt);
  }();
  return kit;
}

std::string outPath(const std::string& file) { return "out/" + file; }

std::unique_ptr<circuits::DeviceProvider> makeStatProvider(bool useVs,
                                                           stats::Rng rng) {
  if (useVs) return calibratedKit().makeProvider(rng);
  const extract::GoldenKit& g = goldenKit();
  return std::make_unique<mc::BsimStatisticalProvider>(
      g.nmos, g.pmos, g.nmosMismatch, g.pmosMismatch, rng);
}

DelayCampaignResult runGateDelayCampaign(bool useVs, bool nand2,
                                         const circuits::CellSizing& sizing,
                                         const circuits::StimulusSpec& stimulus,
                                         int samples, std::uint64_t seed,
                                         bool withLeakage, double dt) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = seed;
  // Build-once / rebind-per-sample session campaign: each worker builds
  // the fixture once and rebinds device cards per sample (bit-identical to
  // the historical rebuild-per-sample flow, just faster).
  const mc::McResult r = mc::runCampaign<circuits::GateFo3Bench>(
      opt, 2,
      [&](circuits::DeviceProvider& provider) {
        return nand2 ? circuits::buildNand2Fo3(provider, sizing, stimulus)
                     : circuits::buildInvFo3(provider, sizing, stimulus);
      },
      [&] { return makeStatProvider(useVs, stats::Rng(0)); },
      [&](std::size_t, sim::CampaignSession<circuits::GateFo3Bench>& session,
          stats::Rng&, std::vector<double>& out) {
        out[0] = measure::measureGateDelays(session.fixture(), session.spice(),
                                            dt)
                     .average();
        out[1] = withLeakage
                     ? measure::measureLeakage(session.fixture(),
                                               session.spice())
                     : 0.0;
      });
  DelayCampaignResult result;
  result.delays = r.metrics[0];
  result.leakage = r.metrics[1];
  result.failures = r.failures;
  return result;
}

mc::McResult runSetupTimeCampaign(bool useVs, int samples,
                                  std::uint64_t seed) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = seed;
  return mc::runCampaign<circuits::DffBench>(
      opt, 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildDff(provider, 0.9, {600.0, 300.0, 40.0});
      },
      [useVs] { return makeStatProvider(useVs, stats::Rng(0)); },
      [](std::size_t, sim::CampaignSession<circuits::DffBench>& session,
         stats::Rng&, std::vector<double>& out) {
        out[0] = measure::measureSetupTime(session.fixture(), session.spice());
      });
}

double maxRelMetricDelta(const mc::McResult& a, const mc::McResult& b) {
  if (a.failures != b.failures || a.metrics.size() != b.metrics.size())
    return 1e30;
  double worst = 0.0;
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    if (a.metrics[m].size() != b.metrics[m].size()) return 1e30;
    for (std::size_t k = 0; k < a.metrics[m].size(); ++k)
      worst = std::max(worst,
                       std::fabs(a.metrics[m][k] - b.metrics[m][k]) /
                           (std::fabs(b.metrics[m][k]) + 1e-18));
  }
  return worst;
}

void printHeader(const std::string& benchName, const std::string& paperRef) {
  std::cout << "==================================================================\n"
            << benchName << "\n"
            << "Reproduces: " << paperRef << "\n"
            << "MC scale factor: " << mcScale()
            << "  (set VSSTAT_MC_SCALE=1.0 for paper-exact sample counts)\n"
            << "==================================================================\n";
}

}  // namespace vsstat::bench
