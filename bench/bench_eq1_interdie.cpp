// Eq. (1): inter-die variance recovery -- the paper's Sec. I extension.
//
// The paper extracts the within-die (mismatch) component and notes that
// inter-die variation follows from sigma^2_inter = sigma^2_total -
// sigma^2_within.  This bench exercises that workflow end to end on the
// calibrated statistical VS kit:
//
//   1. plant a known inter-die VT0/mu shift on top of the BPV-extracted
//      within-die mismatch (DieSampler),
//   2. simulate Idsat for many dies x devices,
//   3. decompose the population per Eq. (1),
//   4. compare the recovered within/inter sigmas against (a) the planted
//      global component propagated through the device sensitivities and
//      (b) the paper-flow forward propagation of the extracted alphas.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "extract/bpv.hpp"
#include "extract/sensitivity.hpp"
#include "mc/runner.hpp"
#include "models/die_variation.hpp"
#include "models/vs_model.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

int main() {
  bench::printHeader("bench_eq1_interdie",
                     "Eq. (1) - inter-die / within-die decomposition");

  const core::StatisticalVsKit& kit = bench::calibratedKit();
  const models::VsParams card = kit.nominal(models::DeviceType::Nmos);
  const models::DeviceGeometry geom = models::geometryNm(600, 40);
  constexpr double kVdd = 0.9;

  // Planted inter-die component: global VT0 and mobility shifts.
  models::DieVariationSpec spec;
  spec.local = kit.alphas(models::DeviceType::Nmos);
  spec.global.sVt0 = 0.012;                 // 12 mV die-to-die
  spec.global.sMu = 0.02 * card.mu;         // 2% die-to-die mobility

  // One campaign sample per die: its child stream draws the die's global
  // shift, then its 24 devices.
  constexpr std::size_t kDevicesPerDie = 24;
  const models::DieSampler sampler(spec, kDevicesPerDie);
  const int dies = bench::scaledSamples(600, 120);
  mc::McOptions opt;
  opt.samples = dies;
  opt.seed = 20130318;  // DATE 2013 :-)
  const mc::McResult r = mc::runCampaign(
      opt, kDevicesPerDie,
      [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        models::DieSampler die = sampler;
        die.newDie(rng);
        for (std::size_t dev = 0; dev < kDevicesPerDie; ++dev) {
          const models::VariationDelta delta = die.deltaFor(dev, geom, rng);
          const models::VsModel m(models::applyToVs(card, delta));
          out[dev] =
              m.drainCurrent(models::applyGeometry(geom, delta), kVdd, kVdd);
        }
      });
  std::vector<std::vector<double>> idsatPerDie(
      r.sampleCount(), std::vector<double>(kDevicesPerDie));
  for (std::size_t d = 0; d < r.sampleCount(); ++d)
    for (std::size_t dev = 0; dev < kDevicesPerDie; ++dev)
      idsatPerDie[d][dev] = r.metrics[dev][d];

  const models::VarianceDecomposition v =
      models::decomposeVariance(idsatPerDie);

  // Reference within-die sigma: the paper-flow forward propagation of the
  // extracted alphas.  Reference inter-die sigma: first-order propagation
  // of the planted global shifts through the Idsat sensitivities.
  const extract::VarianceBreakdown fwd =
      extract::propagateVariance(card, geom, spec.local, kVdd);
  const double sigmaWithinRef = std::sqrt(
      fwd.totalFor(static_cast<std::size_t>(extract::Target::Idsat)));

  const linalg::Matrix sens = extract::targetSensitivities(card, geom, kVdd);
  const auto gIdsat = [&](extract::Parameter p) {
    return sens(static_cast<std::size_t>(extract::Target::Idsat),
                static_cast<std::size_t>(p));
  };
  const double sigmaInterRef = std::hypot(
      gIdsat(extract::Parameter::Vt0) * spec.global.sVt0,
      gIdsat(extract::Parameter::Mu) * spec.global.sMu);

  util::Table t({"component", "recovered sigma [uA]", "reference [uA]",
                 "ratio"});
  const auto uA = [](double varA2) { return std::sqrt(varA2) * 1e6; };
  t.addRow({"within-die", util::formatValue(uA(v.withinDie), 3),
            util::formatValue(sigmaWithinRef * 1e6, 3),
            util::formatValue(uA(v.withinDie) / (sigmaWithinRef * 1e6), 3)});
  t.addRow({"inter-die (Eq. 1)", util::formatValue(uA(v.interDie), 3),
            util::formatValue(sigmaInterRef * 1e6, 3),
            util::formatValue(uA(v.interDie) / (sigmaInterRef * 1e6), 3)});
  t.addRow({"total", util::formatValue(uA(v.total), 3),
            util::formatValue(std::hypot(sigmaWithinRef, sigmaInterRef) * 1e6,
                              3),
            util::formatValue(uA(v.total) /
                                  (std::hypot(sigmaWithinRef, sigmaInterRef) *
                                   1e6),
                              3)});
  t.print(std::cout);

  util::writeCsv(
      bench::outPath("eq1_interdie.csv"),
      {"component", "recovered_uA", "reference_uA"},
      {{1.0, 2.0, 3.0},
       {uA(v.withinDie), uA(v.interDie), uA(v.total)},
       {sigmaWithinRef * 1e6, sigmaInterRef * 1e6,
        std::hypot(sigmaWithinRef, sigmaInterRef) * 1e6}});

  std::cout << "\nAcceptance shape: both recovered components land near\n"
               "their references (ratios ~1), demonstrating the Eq. (1)\n"
               "workflow the paper sketches for extending BPV beyond the\n"
               "within-die component.  (" << dies << " dies x "
            << kDevicesPerDie << " devices)\n";
  return 0;
}
