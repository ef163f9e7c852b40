// Transient step control (spice/analysis.hpp): accuracy against a
// fine-step reference, landing on every source corner, and the step count.
//
// The references are the same fixtures run by the same code with a
// 0.01 ps largest step, recorded in the tables below.  After a model
// change, reprint them (about 40 s) with
//   spice_test_transient_steps --gtest_also_run_disabled_tests
//   --gtest_filter='*PrintReferences'
// Each accuracy bound is the worst relative error the fixed-step stepper
// this control replaced had against the same references, on the same
// samples, at its own steps (0.25 ps for the gates, 0.3 ps for the ring).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "extract/golden_meter.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "measure/delay.hpp"
#include "measure/setup_hold.hpp"
#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/session.hpp"

namespace vsstat::spice {
namespace {

using circuits::GateFo3Bench;

constexpr double kReferenceDt = 0.01e-12;
constexpr int kGateSamples = 24;
constexpr std::uint64_t kGateSeed = 5;
constexpr int kSeeds = 4;  ///< DFF and ring draws: seeds 1..kSeeds
/// Golden-kit DFF samples: the first ones of Fig. 8's campaign (seed 82).
constexpr int kGoldenDffSamples = 8;

models::PelgromAlphas alphas() {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return a;
}

std::unique_ptr<circuits::DeviceProvider> statisticalProvider(stats::Rng rng) {
  return std::make_unique<mc::VsStatisticalProvider>(
      models::defaultVsNmos(), models::defaultVsPmos(), alphas(), alphas(),
      rng);
}

GateFo3Bench buildGate(bool nand2, circuits::DeviceProvider& provider) {
  return nand2 ? circuits::buildNand2Fo3(provider, circuits::CellSizing{},
                                         circuits::StimulusSpec{})
               : circuits::buildInvFo3(provider, circuits::CellSizing{},
                                       circuits::StimulusSpec{});
}

/// {tpHL, tpLH} of the nominal gate, then of the kGateSamples campaign
/// samples, each at largest step `dt` (measureGateDelays' default at 0).
std::vector<std::array<double, 2>> gateDelays(bool nand2, double dt = 0.0) {
  circuits::NominalProvider nominal(models::VsModel(models::defaultVsNmos()),
                                    models::VsModel(models::defaultVsPmos()));
  GateFo3Bench bench = buildGate(nand2, nominal);
  const measure::GateDelays d = dt > 0.0
                                    ? measure::measureGateDelays(bench, dt)
                                    : measure::measureGateDelays(bench);
  std::vector<std::array<double, 2>> out{{d.tphl, d.tplh}};

  mc::McOptions opt;
  opt.samples = kGateSamples;
  opt.seed = kGateSeed;
  opt.threads = 1;
  const mc::McResult r = mc::runCampaign<GateFo3Bench>(
      opt, 2,
      [nand2](circuits::DeviceProvider& p) { return buildGate(nand2, p); },
      [] { return statisticalProvider(stats::Rng(0)); },
      [dt](std::size_t, sim::CampaignSession<GateFo3Bench>& session,
           stats::Rng&, std::vector<double>& metrics) {
        const measure::GateDelays s =
            dt > 0.0 ? measure::measureGateDelays(session.fixture(),
                                                  session.spice(), dt)
                     : measure::measureGateDelays(session.fixture(),
                                                  session.spice());
        metrics[0] = s.tphl;
        metrics[1] = s.tplh;
      });
  EXPECT_EQ(r.failures, 0);
  for (std::size_t k = 0; k < r.sampleCount(); ++k)
    out.push_back({r.metrics[0][k], r.metrics[1][k]});
  return out;
}

double setupTime(circuits::DeviceProvider& provider, double dt) {
  circuits::DffBench bench =
      circuits::buildDff(provider, 0.9, {600.0, 300.0, 40.0});
  return dt > 0.0 ? measure::measureSetupTime(bench, dt)
                  : measure::measureSetupTime(bench);
}

/// Setup times of VS seeds 1..kSeeds, then of the golden samples.
std::vector<double> setupTimes(double dt = 0.0) {
  std::vector<double> out;
  for (int s = 1; s <= kSeeds; ++s) {
    const auto provider =
        statisticalProvider(stats::Rng(static_cast<std::uint64_t>(s)));
    out.push_back(setupTime(*provider, dt));
  }
  static const extract::GoldenKit kit = extract::GoldenKit::default40nm();
  mc::McOptions opt;
  opt.samples = kGoldenDffSamples;
  opt.seed = 82;
  opt.threads = 1;
  const mc::McResult r = mc::runCampaign(
      opt, 1, [dt](std::size_t, stats::Rng& rng, std::vector<double>& m) {
        mc::BsimStatisticalProvider provider(kit.nmos, kit.pmos,
                                             kit.nmosMismatch,
                                             kit.pmosMismatch, rng);
        m[0] = setupTime(provider, dt);
      });
  EXPECT_EQ(r.failures, 0);
  out.insert(out.end(), r.metrics[0].begin(), r.metrics[0].end());
  return out;
}

double ringPeriod(std::uint64_t seed, double dt = 0.0) {
  const auto provider = statisticalProvider(stats::Rng(seed));
  circuits::RingOscillatorBench bench = circuits::buildRingOscillator(
      *provider, 5, circuits::CellSizing{}, 0.9);
  if (dt > 0.0) bench.suggestedDt = dt;
  return measure::measureOscillation(bench).period;
}

// --- references: the 0.01 ps largest-step runs ------------------------------

// {tpHL, tpLH} [s]: the nominal gate, then samples 0..23.
constexpr std::array<std::array<double, 2>, kGateSamples + 1> kInvReference{{
    {6.3425616714e-12, 5.6173577859e-12},
    {6.2307279789e-12, 5.7130752892e-12},
    {6.6074162379e-12, 5.6283667791e-12},
    {6.6086365958e-12, 6.0710564153e-12},
    {6.3910103355e-12, 5.6764568740e-12},
    {6.0508822239e-12, 5.8084973384e-12},
    {6.3938912311e-12, 5.5990059147e-12},
    {5.9819350492e-12, 5.5377709546e-12},
    {6.5775012193e-12, 5.5054192355e-12},
    {6.7289852641e-12, 5.9513140119e-12},
    {6.4072430274e-12, 5.9386637718e-12},
    {5.9069258856e-12, 5.1242088057e-12},
    {6.4514086179e-12, 6.3002401914e-12},
    {7.0192400948e-12, 5.3084747106e-12},
    {7.2229085719e-12, 5.6910700628e-12},
    {6.5009328670e-12, 6.0687361388e-12},
    {6.8202919773e-12, 5.2559844108e-12},
    {6.2755954412e-12, 5.5501347216e-12},
    {5.7795599086e-12, 5.4547898004e-12},
    {6.2186982060e-12, 5.7552428172e-12},
    {6.4347571403e-12, 5.5696550240e-12},
    {5.4676556671e-12, 5.3477961346e-12},
    {6.4746266530e-12, 5.6475098777e-12},
    {6.5976943317e-12, 5.5984549543e-12},
    {6.1322968018e-12, 5.4194071087e-12},
}};
constexpr std::array<std::array<double, 2>, kGateSamples + 1> kNand2Reference{{
    {1.0090958146e-11, 5.5398435556e-12},
    {9.9080188836e-12, 5.6434325744e-12},
    {1.1031912801e-11, 5.5250911057e-12},
    {9.7957022347e-12, 6.0037794067e-12},
    {1.0126058645e-11, 5.5759101266e-12},
    {9.8782669968e-12, 5.6526865908e-12},
    {1.1662276444e-11, 5.6067730656e-12},
    {1.0410744447e-11, 5.3432385597e-12},
    {9.0888306808e-12, 5.5014261876e-12},
    {1.0162121208e-11, 5.9942484992e-12},
    {9.8854200302e-12, 5.7959927991e-12},
    {1.0073831565e-11, 4.9619260879e-12},
    {9.8144486234e-12, 6.1353882604e-12},
    {9.7596136912e-12, 5.2485680263e-12},
    {9.3265698567e-12, 5.5905296305e-12},
    {9.0744650241e-12, 6.0644191792e-12},
    {1.1820697768e-11, 5.2640521358e-12},
    {9.5088967574e-12, 5.3780410572e-12},
    {9.7681929410e-12, 5.3437152776e-12},
    {1.0660588572e-11, 5.6607155602e-12},
    {1.0655392381e-11, 5.4896363396e-12},
    {9.8102143425e-12, 5.1258185970e-12},
    {1.0585364792e-11, 5.6050281181e-12},
    {1.0817034144e-11, 5.5307071159e-12},
    {9.7205344507e-12, 5.2838921619e-12},
}};
// Setup times [s] of VS seeds 1..4, then of the golden samples.
constexpr std::array<double, kSeeds + kGoldenDffSamples> kSetupReference{
    -3.61328125e-12,          -2.8320312500000003e-12,
    -3.0273437500000005e-12,  -4.0039062500000003e-12,
    -6.8359375000000006e-13,  -1.4648437500000002e-12,
    -9.7656250000000004e-14,  3.8085937500000002e-12,
    -1.4648437500000002e-12,  5.9570312500000008e-12,
    9.7656250000000004e-14,   -4.8828125000000003e-13};
// Ring periods [s] of seeds 1..4.
constexpr std::array<double, kSeeds> kRingReference{
    2.4185404690e-11, 2.5038809046e-11, 2.5285931846e-11, 2.5224575313e-11};

// The fixed 0.25 ps / 0.3 ps stepper's worst relative errors.
constexpr double kInvBound = 7.44e-4;
constexpr double kNand2Bound = 2.83e-4;
constexpr double kRingBound = 1.21e-3;

void expectWithin(const std::vector<std::array<double, 2>>& delays,
                  const std::array<std::array<double, 2>, kGateSamples + 1>&
                      reference,
                  double bound) {
  ASSERT_EQ(delays.size(), reference.size());
  for (std::size_t k = 0; k < delays.size(); ++k) {
    for (std::size_t e = 0; e < 2; ++e) {
      const double rel =
          std::fabs(delays[k][e] - reference[k][e]) / reference[k][e];
      EXPECT_LE(rel, bound) << (k == 0 ? "nominal" : "sample ")
                            << (k == 0 ? "" : std::to_string(k - 1))
                            << (e == 0 ? " tpHL" : " tpLH");
    }
  }
}

TEST(TransientSteps, InvFo3DelaysMatchFineStepReference) {
  expectWithin(gateDelays(false), kInvReference, kInvBound);
}

TEST(TransientSteps, Nand2Fo3DelaysMatchFineStepReference) {
  expectWithin(gateDelays(true), kNand2Reference, kNand2Bound);
}

TEST(TransientSteps, DffSetupTimeEqualsFineStepReference) {
  // Equal, not close: the bisection's cells are 0.2 ps wide, and a capture
  // verdict that flips moves the result by at least one cell.
  const std::vector<double> setups = setupTimes();
  ASSERT_EQ(setups.size(), kSetupReference.size());
  for (std::size_t k = 0; k < setups.size(); ++k)
    EXPECT_EQ(setups[k], kSetupReference[k])
        << (k < kSeeds ? "VS seed " : "golden sample ")
        << (k < kSeeds ? k + 1 : k - kSeeds);
}

TEST(TransientSteps, RingPeriodMatchesFineStepReference) {
  for (int s = 0; s < kSeeds; ++s) {
    const double ref = kRingReference[static_cast<std::size_t>(s)];
    EXPECT_LE(
        std::fabs(ringPeriod(static_cast<std::uint64_t>(s + 1)) - ref) / ref,
        kRingBound)
        << "seed " << s + 1;
  }
}

TEST(TransientSteps, NominalInvFo3TakesFewSteps) {
  // The fixed 0.25 ps stepper took 696 steps; a fall-back to fine fixed
  // steps fails here.
  circuits::NominalProvider nominal(models::VsModel(models::defaultVsNmos()),
                                    models::VsModel(models::defaultVsPmos()));
  GateFo3Bench bench = buildGate(false, nominal);
  TransientOptions opt;
  opt.tStop = bench.tStop;
  opt.dt = 5e-12;
  const Waveform wave = transient(bench.circuit, opt);
  EXPECT_LE(wave.sampleCount() - 1, 250u);
}

TEST(TransientSteps, LandsOnEverySourceCornerAndEndsAtTStop) {
  // A periodic PULSE voltage source and a PWL current source drive an RC
  // node; every corner in (0, tStop) must be an accepted time point.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.addVoltageSource(
      "V1", in, c.ground(),
      SourceWaveform::pulse(0.0, 1.0, 3e-12, 2e-12, 1.5e-12, 4e-12, 20e-12));
  c.addResistor("R1", in, out, 1000.0);
  c.addCapacitor("C1", out, c.ground(), 5e-15);
  c.addCurrentSource("I1", c.ground(), out,
                     SourceWaveform::pwl({{0.0, 0.0},
                                          {7.25e-12, 0.0},
                                          {9e-12, 20e-6},
                                          {31e-12, 20e-6},
                                          {33e-12, 0.0},
                                          {90e-12, 0.0}}));
  TransientOptions opt;
  opt.tStop = 50e-12;
  opt.dt = 5e-12;
  const Waveform wave = transient(c, opt);

  const std::vector<double> corners = {
      3e-12,  5e-12,  9e-12,  10.5e-12,  // first period
      23e-12, 25e-12, 29e-12, 30.5e-12,  // second
      43e-12, 45e-12, 49e-12,            // third, up to tStop
      7.25e-12, 9e-12, 31e-12, 33e-12};  // PWL points
  const std::vector<double>& times = wave.times();
  for (const double corner : corners) {
    SCOPED_TRACE(corner);
    // Pulse corners are delay + k * period + offset in double arithmetic.
    const auto it = std::lower_bound(times.begin(), times.end(),
                                     corner * (1.0 - 1e-12));
    ASSERT_NE(it, times.end());
    EXPECT_NEAR(*it, corner, 1e-12 * corner);
  }
  EXPECT_EQ(times.back(), opt.tStop);
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_LE(times[i] - times[i - 1], opt.dt * (1.0 + 1e-12));
}

TEST(TransientSteps, DISABLED_PrintReferences) {
  const auto printGate = [](const char* name, bool nand2) {
    std::printf("%s:\n", name);
    for (const auto& d : gateDelays(nand2, kReferenceDt))
      std::printf("    {%.10e, %.10e},\n", d[0], d[1]);
  };
  printGate("kInvReference", false);
  printGate("kNand2Reference", true);
  std::printf("kSetupReference:");
  for (const double setup : setupTimes(kReferenceDt))
    std::printf(" %.17g,", setup);
  std::printf("\nkRingReference:");
  for (int s = 1; s <= kSeeds; ++s)
    std::printf(" %.10e,", ringPeriod(static_cast<std::uint64_t>(s),
                                      kReferenceDt));
  std::printf("\n");
}

}  // namespace
}  // namespace vsstat::spice
