// Fig. 5: delay probability density of a fanout-of-3 inverter at three
// sizes (P/N = 300/150, 600/300, 1200/600 nm), BSIM (golden) vs VS.
//
// Exits 1, naming the check, when a campaign reports failed samples or
// when the figure's shape breaks: sigma/mean must fall at each doubling
// of size for both models (Pelgrom: larger devices average out mismatch).
#include <iostream>

#include "common.hpp"
#include "stats/descriptive.hpp"
#include "stats/kde.hpp"
#include "stats/normality.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

int main() {
  bench::printHeader("bench_fig5_inv_delay_pdf",
                     "Fig. 5 - INV FO3 delay PDFs at 1x/2x/4x sizes");

  const int samples = bench::scaledSamples(2500, 250);
  std::cout << "MC samples per size and model: " << samples << "\n";

  util::Table table({"P/N size [nm]", "model", "mean [ps]", "sigma [ps]",
                     "sigma/mean [%]", "JB normal?"});

  const circuits::CellSizing sizes[] = {{300.0, 150.0, 40.0},
                                        {600.0, 300.0, 40.0},
                                        {1200.0, 600.0, 40.0}};
  int failedSamples = 0;
  double spread[3][2] = {};  // sigma/mean per [size][useVs]
  for (std::size_t size = 0; size < 3; ++size) {
    const circuits::CellSizing& sizing = sizes[size];
    const std::string label = util::formatValue(sizing.wPmosNm, 0) + "/" +
                              util::formatValue(sizing.wNmosNm, 0);
    std::vector<std::vector<double>> both;
    for (const bool useVs : {false, true}) {
      const auto r = bench::runGateDelayCampaign(
          useVs, /*nand2=*/false, sizing, circuits::StimulusSpec{}, samples,
          useVs ? 51 : 52);
      const auto s = stats::summarize(r.delays);
      const auto jb = stats::jarqueBera(r.delays);
      failedSamples += r.failures;
      spread[size][useVs] = s.stddev / s.mean;
      table.addRow({label, useVs ? "VS" : "golden",
                    util::formatValue(s.mean * 1e12, 3),
                    util::formatValue(s.stddev * 1e12, 3),
                    util::formatValue(100.0 * s.stddev / s.mean, 2),
                    jb.rejectAt5Percent ? "no" : "yes"});
      both.push_back(r.delays);

      const auto curve = stats::kde(r.delays, 160);
      util::writeCsv(bench::outPath(
                         "fig5_inv_pdf_" + label + (useVs ? "_vs" : "_golden") +
                         ".csv"),
                     {"delay_s", "density"}, {curve.x, curve.density});
    }
    std::cout << "\nDelay histogram, P/N = " << label
              << " nm (top: golden, bottom: VS):\n"
              << util::asciiHistogram(both[0], 18, 40, "delay [s]")
              << util::asciiHistogram(both[1], 18, 40, "delay [s]");
  }
  table.print(std::cout);

  std::cout << "\nPaper Fig. 5 shape: Gaussian PDFs, near-identical between\n"
               "models across all three sizes.\n";

  bool ok = true;
  if (failedSamples != 0) {
    std::cout << "CHECK FAILED: no failed samples (" << failedSamples
              << " failed)\n";
    ok = false;
  }
  for (const bool useVs : {false, true}) {
    for (std::size_t size = 1; size < 3; ++size) {
      if (!(spread[size][useVs] < spread[size - 1][useVs])) {
        std::cout << "CHECK FAILED: sigma/mean falls from "
                  << util::formatValue(sizes[size - 1].wPmosNm, 0) << " to "
                  << util::formatValue(sizes[size].wPmosNm, 0) << " nm ("
                  << (useVs ? "VS" : "golden") << ")\n";
        ok = false;
      }
    }
  }
  std::cout << (ok ? "checks: OK\n" : "checks: FAILED\n");
  return ok ? 0 : 1;
}
