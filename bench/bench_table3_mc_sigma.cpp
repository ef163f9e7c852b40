// Table III: standard deviation of Idsat and log10(Ioff) from Monte Carlo
// for wide/medium/short devices, statistical VS model vs the golden kit.
//
// Exits 1, naming the check, when a campaign reports failed samples or
// when the table's shape breaks: for either model and polarity the
// log10(Ioff) sigma must fall from the 120/40 device to the 600/40 device
// to the 1500/40 device (Pelgrom: larger devices average out mismatch).
#include <iostream>

#include "common.hpp"
#include "measure/device_metrics.hpp"
#include "mc/runner.hpp"
#include "models/bsim_lite.hpp"
#include "models/process_variation.hpp"
#include "stats/descriptive.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

namespace {

struct SigmaPair {
  double idsatSigma = 0.0;
  double ioffSigma = 0.0;
  int failures = 0;
};

SigmaPair runDeviceMc(models::DeviceType type,
                      const models::DeviceGeometry& geom, bool useVs,
                      int samples, std::uint64_t seed) {
  const auto& kit = bench::calibratedKit();
  const auto& golden = bench::goldenKit();

  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = seed;
  const mc::McResult r = mc::runCampaign(
      opt, 2, [&](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        if (useVs) {
          const auto inst = kit.makeInstance(type, geom, rng);
          out[0] = measure::idsat(*inst.model, inst.geometry, kit.vdd());
          out[1] = measure::log10Ioff(*inst.model, inst.geometry, kit.vdd());
        } else {
          const bool isN = type == models::DeviceType::Nmos;
          const auto alphas = models::toPelgromAlphas(
              isN ? golden.nmosMismatch : golden.pmosMismatch);
          const auto delta =
              models::sampleDelta(models::sigmasFor(alphas, geom), rng);
          const models::BsimLite model(models::applyToBsim(
              isN ? golden.nmos : golden.pmos, delta));
          const auto g = models::applyGeometry(geom, delta);
          out[0] = measure::idsat(model, g, golden.vdd);
          out[1] = measure::log10Ioff(model, g, golden.vdd);
        }
      });
  SigmaPair s;
  s.idsatSigma = stats::stddev(r.metrics[0]);
  s.ioffSigma = stats::stddev(r.metrics[1]);
  s.failures = r.failures;
  return s;
}

}  // namespace

int main() {
  bench::printHeader("bench_table3_mc_sigma",
                     "Table III - MC sigma of Idsat / log10(Ioff), VS vs golden");

  const int samples = bench::scaledSamples(2000, 400);
  std::cout << "samples per cell: " << samples << "\n\n";

  struct Row {
    const char* label;
    double w, l;
  };
  const Row rows[] = {{"Wide  (1500/40)", 1500.0, 40.0},
                      {"Medium (600/40)", 600.0, 40.0},
                      {"Short  (120/40)", 120.0, 40.0}};

  util::Table table({"Device", "type", "e_i", "golden sigma", "VS sigma",
                     "ratio"});
  util::CsvWriter csv(bench::outPath("table3_mc_sigma.csv"),
                      {"device", "type", "metric", "golden", "vs"});

  int failedSamples = 0;
  double ioffSigma[3][2][2] = {};  // [row][polarity][useVs]
  for (std::size_t r = 0; r < 3; ++r) {
    const Row& row = rows[r];
    for (const auto type : {models::DeviceType::Nmos, models::DeviceType::Pmos}) {
      const auto geom = models::geometryNm(row.w, row.l);
      const SigmaPair golden = runDeviceMc(type, geom, false, samples, 101);
      const SigmaPair vs = runDeviceMc(type, geom, true, samples, 202);
      const std::size_t p = type == models::DeviceType::Nmos ? 0 : 1;
      failedSamples += golden.failures + vs.failures;
      ioffSigma[r][p][0] = golden.ioffSigma;
      ioffSigma[r][p][1] = vs.ioffSigma;

      table.addRow({row.label, models::toString(type), "Idsat [uA]",
                    util::formatValue(golden.idsatSigma * 1e6, 2),
                    util::formatValue(vs.idsatSigma * 1e6, 2),
                    util::formatValue(vs.idsatSigma / golden.idsatSigma, 3)});
      table.addRow({row.label, models::toString(type), "log10 Ioff",
                    util::formatValue(golden.ioffSigma, 3),
                    util::formatValue(vs.ioffSigma, 3),
                    util::formatValue(vs.ioffSigma / golden.ioffSigma, 3)});
      csv.writeRow(std::vector<std::string>{
          row.label, models::toString(type), "idsat_uA",
          util::formatValue(golden.idsatSigma * 1e6, 4),
          util::formatValue(vs.idsatSigma * 1e6, 4)});
      csv.writeRow(std::vector<std::string>{
          row.label, models::toString(type), "log10_ioff",
          util::formatValue(golden.ioffSigma, 4),
          util::formatValue(vs.ioffSigma, 4)});
    }
    table.addSeparator();
  }
  table.print(std::cout);

  std::cout << "\nPaper Table III acceptance: VS/golden sigma ratios near 1\n"
               "(paper matches within ~1-4%; this reproduction within ~10%,\n"
               "the residual being the documented cross-model sensitivity gap).\n";

  bool ok = true;
  if (failedSamples != 0) {
    std::cout << "CHECK FAILED: no failed samples (" << failedSamples
              << " failed)\n";
    ok = false;
  }
  // Rows run wide to short, so the sigma must grow down the table.
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t useVs = 0; useVs < 2; ++useVs) {
      for (std::size_t r = 1; r < 3; ++r) {
        if (!(ioffSigma[r][p][useVs] > ioffSigma[r - 1][p][useVs])) {
          std::cout << "CHECK FAILED: log10 Ioff sigma falls from "
                    << util::formatValue(rows[r].w, 0) << "/40 to "
                    << util::formatValue(rows[r - 1].w, 0) << "/40 ("
                    << (p == 0 ? "NMOS" : "PMOS") << ", "
                    << (useVs ? "VS" : "golden") << ")\n";
          ok = false;
        }
      }
    }
  }
  std::cout << (ok ? "checks: OK\n" : "checks: FAILED\n");
  return ok ? 0 : 1;
}
