// Ring-oscillator frequency distribution under within-die variation.
//
// The paper's Fig. 6 plots "frequency (1/delay)" against leakage; a ring
// oscillator is the canonical silicon structure behind that frequency
// axis.  This example Monte Carlos a 3-stage ring with the statistical VS
// kit and reports the frequency distribution, plus the nominal and
// per-supply behaviour.
// Usage: example_ring_oscillator [samples]   (default 120)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "core/statistical_vs.hpp"
#include "measure/delay.hpp"
#include "mc/circuit_campaign.hpp"
#include "stats/descriptive.hpp"

using namespace vsstat;

int main(int argc, char** argv) {
  core::CharacterizeOptions opt;
  opt.analyticGoldenVariance = true;
  const core::StatisticalVsKit kit = core::StatisticalVsKit::characterize(
      extract::GoldenKit::default40nm(), opt);

  // Nominal frequency vs supply: the DVS operating curve.
  std::printf("3-stage ring oscillator, P/N = 600/300 nm\n\n");
  std::printf("nominal frequency vs supply:\n");
  for (const double vdd : {0.9, 0.8, 0.7, 0.6}) {
    auto provider = kit.makeNominalProvider();
    circuits::RingOscillatorBench ro = circuits::buildRingOscillator(
        *provider, 3, circuits::CellSizing{}, vdd);
    const measure::OscillationResult r = measure::measureOscillation(ro);
    std::printf("  Vdd = %.2f V: f = %6.2f GHz (swing %.2f V)\n", vdd,
                r.frequency / 1e9, r.swing);
  }

  // Mismatch Monte Carlo at the nominal supply.
  const int kSamples = argc > 1 ? std::max(std::atoi(argv[1]), 10) : 120;
  mc::McOptions mcOpt;
  mcOpt.samples = kSamples;
  mcOpt.seed = 808;
  const mc::McResult mc = mc::runCampaign<circuits::RingOscillatorBench>(
      mcOpt, 1,
      [&kit](circuits::DeviceProvider& provider) {
        return circuits::buildRingOscillator(provider, 3,
                                             circuits::CellSizing{}, kit.vdd());
      },
      [&kit] { return kit.makeProvider(stats::Rng(0)); },
      [](std::size_t, sim::CampaignSession<circuits::RingOscillatorBench>& s,
         stats::Rng&, std::vector<double>& out) {
        out[0] = measure::measureOscillation(s.fixture(), s.spice()).frequency;
      });

  const stats::Summary s = stats::summarize(mc.metrics[0]);
  std::printf("\nmismatch Monte Carlo (%d samples) at %.2f V:\n", kSamples,
              kit.vdd());
  std::printf("  f = %.2f GHz +/- %.2f GHz (sigma/mean = %.2f %%)\n",
              s.mean / 1e9, s.stddev / 1e9, 100.0 * s.stddev / s.mean);
  std::printf("  spread: [%.2f, %.2f] GHz over the population\n",
              s.min / 1e9, s.max / 1e9);
  std::printf("\nThe 1/delay 'frequency' axis of the paper's Fig. 6 is\n"
              "exactly this quantity; the within-die sigma here is smaller\n"
              "than Fig. 6's total spread because a ring averages mismatch\n"
              "over 2N uncorrelated switching events per period.\n");
  return 0;
}
