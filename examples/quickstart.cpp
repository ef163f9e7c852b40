// Quickstart: evaluate the Virtual Source compact model, run a SPICE-level
// inverter simulation, and draw a statistical device sample.
//
//   $ ./quickstart
//
// Walks through the three layers of the library bottom-up.
#include <cstdio>
#include <memory>

#include "mc/runner.hpp"
#include "models/process_variation.hpp"
#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "stats/rng.hpp"

using namespace vsstat;

int main() {
  // --- 1. The compact model ---------------------------------------------------
  const models::VsModel nmos(models::defaultVsNmos());
  const models::DeviceGeometry geom = models::geometryNm(600, 40);  // W/L nm

  std::printf("VS NMOS, W/L = 600/40 nm, Vdd = 0.9 V\n");
  std::printf("  Idsat = %.1f uA   Ioff = %.2f nA\n",
              nmos.drainCurrent(geom, 0.9, 0.9) * 1e6,
              nmos.drainCurrent(geom, 0.0, 0.9) * 1e9);
  std::printf("  Id-Vg at Vds = 0.9 V:\n");
  for (double vgs = 0.0; vgs <= 0.91; vgs += 0.15) {
    std::printf("    vgs = %.2f V -> Id = %10.3e A\n", vgs,
                nmos.drainCurrent(geom, vgs, 0.9));
  }

  // --- 2. Circuit simulation ----------------------------------------------------
  spice::Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.addVoltageSource("VDD", vdd, c.ground(), spice::SourceWaveform::dc(0.9));
  c.addVoltageSource("VIN", in, c.ground(),
                     spice::SourceWaveform::pulse(0.0, 0.9, 10e-12, 10e-12,
                                                  10e-12, 60e-12));
  c.addMosfet("MP", out, in, vdd,
              std::make_unique<models::VsModel>(models::defaultVsPmos()),
              models::geometryNm(600, 40));
  c.addMosfet("MN", out, in, c.ground(),
              std::make_unique<models::VsModel>(models::defaultVsNmos()),
              models::geometryNm(300, 40));
  c.addCapacitor("CL", out, c.ground(), 1e-15);

  spice::TransientOptions topt;
  topt.tStop = 140e-12;
  topt.dt = 0.2e-12;
  const spice::Waveform wave = spice::transient(c, topt);

  const auto inRise = wave.crossing(in, 0.45, true);
  const auto outFall = wave.crossing(out, 0.45, false, inRise.value_or(0.0));
  if (inRise && outFall) {
    std::printf("\nInverter propagation delay (tpHL): %.2f ps\n",
                (*outFall - *inRise) * 1e12);
  }

  // --- 3. Statistical sampling --------------------------------------------------
  // Paper Table II NMOS coefficients; sigma_VT0 = a1/sqrt(WL) etc.
  models::PelgromAlphas alphas;
  alphas.aVt0 = 2.3;
  alphas.aLeff = 3.71;
  alphas.aWeff = 3.71;
  alphas.aMu = 944.0;
  alphas.aCinv = 0.29;

  const auto sigmas = models::sigmasFor(alphas, geom);
  std::printf("\nMismatch sigmas at 600/40 nm: sigma(VT0) = %.1f mV, "
              "sigma(Leff) = %.2f nm\n",
              sigmas.sVt0 * 1e3, sigmas.sLeff * 1e9);
  // A Monte Carlo campaign: sample k draws from the seed's k-th child
  // stream, whatever thread runs it.
  mc::McOptions mcOpt;
  mcOpt.samples = 5;
  mcOpt.seed = 1;
  const mc::McResult r = mc::runCampaign(
      mcOpt, 1, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        const auto delta = models::sampleDelta(sigmas, rng);
        const models::VsModel instance(
            models::applyToVs(models::defaultVsNmos(), delta));
        out[0] = instance.drainCurrent(models::applyGeometry(geom, delta),
                                       0.9, 0.9);
      });
  std::printf("Five statistical instances (Idsat):\n");
  for (std::size_t i = 0; i < r.sampleCount(); ++i)
    std::printf("  sample %zu: Idsat = %.1f uA\n", i, r.metrics[0][i] * 1e6);
  return 0;
}
