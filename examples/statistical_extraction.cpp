// The paper's headline flow, end to end:
//   1. fit a nominal VS card to a golden design kit (Fig. 1),
//   2. measure target variances across geometries on the golden kit,
//   3. run Backward Propagation of Variance (Eq. 10) -> Table II alphas,
//   4. validate: device-level MC sigma, VS vs golden (Table III).
#include <cstdio>

#include "core/statistical_vs.hpp"
#include "mc/runner.hpp"
#include "measure/device_metrics.hpp"
#include "models/bsim_lite.hpp"
#include "stats/descriptive.hpp"

using namespace vsstat;

int main() {
  const extract::GoldenKit golden = extract::GoldenKit::default40nm();

  std::printf("Characterizing the statistical VS kit against the golden "
              "40-nm kit...\n");
  core::CharacterizeOptions opt;
  opt.samplesPerGeometry = 800;
  const core::StatisticalVsKit kit =
      core::StatisticalVsKit::characterize(golden, opt);
  std::printf("%s\n", kit.summary().c_str());

  // Validation at the paper's Table III geometries.
  std::printf("Validation (device-level MC, 1500 samples each):\n");
  std::printf("%-18s %-6s %-14s %-14s\n", "geometry", "type",
              "sigma(Idsat) uA", "sigma(logIoff)");
  for (const auto type : {models::DeviceType::Nmos, models::DeviceType::Pmos}) {
    for (const double widthNm : {1500.0, 600.0, 120.0}) {
      const auto geom = models::geometryNm(widthNm, 40.0);
      mc::McOptions mcOpt;
      mcOpt.samples = 1500;
      mcOpt.seed = 7;
      const mc::McResult r = mc::runCampaign(
          mcOpt, 2,
          [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
            const auto inst = kit.makeInstance(type, geom, rng);
            out[0] = measure::idsat(*inst.model, inst.geometry, kit.vdd());
            out[1] =
                measure::log10Ioff(*inst.model, inst.geometry, kit.vdd());
          });
      std::printf("W/L = %4.0f/40 nm   %-6s %-14.2f %-14.3f\n", widthNm,
                  models::toString(type),
                  stats::summarize(r.metrics[0]).stddev * 1e6,
                  stats::summarize(r.metrics[1]).stddev);
    }
  }
  std::printf("\nCompare with the paper's Table III: sigma(Idsat) ~ 33/20/9 uA\n"
              "for wide/medium/short NMOS in their 40-nm process.\n");
  return 0;
}
