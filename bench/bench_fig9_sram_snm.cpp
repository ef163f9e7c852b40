// Fig. 9: 6T SRAM cell -- READ/HOLD butterfly curves, SNM probability
// densities for both models, and the QQ plot of the HOLD SNM showing its
// slightly non-Gaussian tail.
//
// Exits 1, naming the check, when a campaign reports failed samples or
// when the figure's shape breaks: the READ mean SNM must sit below the
// HOLD mean SNM for both models.
#include <iostream>

#include "common.hpp"
#include "measure/snm.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/runner.hpp"
#include "stats/descriptive.hpp"
#include "stats/kde.hpp"
#include "stats/qq.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

int main() {
  bench::printHeader("bench_fig9_sram_snm",
                     "Fig. 9 - 6T SRAM butterfly + READ/HOLD SNM (N/P 150/40)");

  // Nominal butterfly curves from the VS kit (paper Fig. 9 a/d).
  for (const auto mode : {circuits::SramMode::Read, circuits::SramMode::Hold}) {
    const bool read = mode == circuits::SramMode::Read;
    auto provider = bench::calibratedKit().makeNominalProvider();
    auto fixture = circuits::buildSramButterfly(*provider, 0.9, mode,
                                                circuits::SramSizing{});
    const auto curves = measure::measureButterfly(fixture, 61);
    util::writeCsv(bench::outPath(std::string("fig9_butterfly_") +
                                  (read ? "read" : "hold") + ".csv"),
                   {"c1_x", "c1_y", "c2_x", "c2_y"},
                   {curves.curve1.x, curves.curve1.y, curves.curve2.x,
                    curves.curve2.y});
    util::Series s1{curves.curve1.x, curves.curve1.y, '*'};
    util::Series s2{curves.curve2.x, curves.curve2.y, 'o'};
    std::cout << "\n" << (read ? "READ" : "HOLD")
              << " butterfly (VS nominal):\n"
              << util::asciiScatter({s1, s2}, 48, 20, "V", "V");
  }

  const int samples = bench::scaledSamples(2500, 250);
  std::cout << "MC samples per mode and model: " << samples << "\n";

  util::Table table({"mode", "model", "mean SNM [mV]", "sigma [mV]",
                     "min [mV]", "QQ r^2"});
  int failedSamples = 0;
  double meanSnm[2][2] = {};  // [read][useVs]
  for (const auto mode : {circuits::SramMode::Read, circuits::SramMode::Hold}) {
    const bool read = mode == circuits::SramMode::Read;
    for (const bool useVs : {false, true}) {
      mc::McOptions opt;
      opt.samples = samples;
      opt.seed = (read ? 900 : 910) + (useVs ? 1 : 2);
      // Session campaign: the butterfly fixture is built once per worker
      // and rebound per sample (bit-identical to rebuilding it).
      const mc::McResult r = mc::runCampaign<circuits::SramButterflyBench>(
          opt, 1,
          [&](circuits::DeviceProvider& provider) {
            return circuits::buildSramButterfly(provider, 0.9, mode,
                                                circuits::SramSizing{});
          },
          [&] { return bench::makeStatProvider(useVs, stats::Rng(0)); },
          [&](std::size_t,
              sim::CampaignSession<circuits::SramButterflyBench>& session,
              stats::Rng&, std::vector<double>& out) {
            out[0] = measure::measureSnm(session.fixture(), session.spice(), 45)
                         .cellSnm();
          });
      failedSamples += r.failures;
      const auto s = stats::summarize(r.metrics[0]);
      meanSnm[read][useVs] = s.mean;
      const auto qq = stats::qqAgainstNormal(r.metrics[0]);
      table.addRow({read ? "READ" : "HOLD", useVs ? "VS" : "golden",
                    util::formatValue(s.mean * 1e3, 1),
                    util::formatValue(s.stddev * 1e3, 1),
                    util::formatValue(s.min * 1e3, 1),
                    util::formatValue(qq.linearity, 4)});

      const std::string tag = std::string(read ? "read" : "hold") +
                              (useVs ? "_vs" : "_golden");
      const auto curve = stats::kde(r.metrics[0], 140);
      util::writeCsv(bench::outPath("fig9_snm_pdf_" + tag + ".csv"),
                     {"snm_V", "density"}, {curve.x, curve.density});
      util::writeCsv(bench::outPath("fig9_snm_qq_" + tag + ".csv"),
                     {"normal_quantile", "snm_V"},
                     {qq.theoretical, qq.sample});
      if (useVs) {
        std::cout << (read ? "READ" : "HOLD") << " SNM histogram (VS):\n"
                  << util::asciiHistogram(r.metrics[0], 16, 40, "SNM [V]");
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nPaper Fig. 9 shape: READ SNM much smaller than HOLD SNM;\n"
               "VS matches the golden model on both PDFs; the HOLD SNM QQ\n"
               "plot bends slightly away from the Gaussian line (min-of-two-\n"
               "lobes statistics).\n";

  bool ok = true;
  if (failedSamples != 0) {
    std::cout << "CHECK FAILED: no failed samples (" << failedSamples
              << " failed)\n";
    ok = false;
  }
  for (const bool useVs : {false, true}) {
    if (!(meanSnm[1][useVs] < meanSnm[0][useVs])) {
      std::cout << "CHECK FAILED: READ mean SNM below HOLD mean SNM ("
                << (useVs ? "VS" : "golden") << ")\n";
      ok = false;
    }
  }
  std::cout << (ok ? "checks: OK\n" : "checks: FAILED\n");
  return ok ? 0 : 1;
}
