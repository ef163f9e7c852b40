// Fig. 7: NAND2 FO3 delay PDFs and QQ plots at Vdd = 0.9/0.7/0.55 V.
// At nominal supply the delay is Gaussian; at low supply it becomes
// strongly right-skewed even though every VS variation parameter is an
// independent Gaussian -- the paper's key low-power result.
#include <iostream>

#include "common.hpp"
#include "stats/descriptive.hpp"
#include "stats/kde.hpp"
#include "stats/normality.hpp"
#include "stats/qq.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

int main() {
  bench::printHeader("bench_fig7_nand2_vdd",
                     "Fig. 7 - NAND2 FO3 delay PDFs + QQ under Vdd scaling");

  const int samples = bench::scaledSamples(2500, 250);
  std::cout << "MC samples per Vdd and model: " << samples << "\n";

  util::Table table({"Vdd [V]", "model", "mean [ps]", "sigma/mean [%]",
                     "skewness", "QQ linearity r^2", "JB stat"});

  for (const double vdd : {0.9, 0.7, 0.55}) {
    circuits::StimulusSpec stim;
    stim.vdd = vdd;
    // Slower inputs and a wider window at low supply.
    stim.slew = vdd >= 0.9 ? 12e-12 : (vdd >= 0.7 ? 18e-12 : 30e-12);
    stim.width = vdd >= 0.9 ? 80e-12 : (vdd >= 0.7 ? 140e-12 : 280e-12);
    const double dt = vdd >= 0.7 ? 5e-12 : 1e-12;  // largest step

    for (const bool useVs : {false, true}) {
      const auto r = bench::runGateDelayCampaign(
          useVs, /*nand2=*/true, circuits::CellSizing{}, stim, samples,
          useVs ? 71 : 72, false, dt);
      const auto s = stats::summarize(r.delays);
      const auto qq = stats::qqAgainstNormal(r.delays);
      const auto jb = stats::jarqueBera(r.delays);
      table.addRow({util::formatValue(vdd, 2), useVs ? "VS" : "golden",
                    util::formatValue(s.mean * 1e12, 2),
                    util::formatValue(100.0 * s.stddev / s.mean, 2),
                    util::formatValue(s.skewness, 3),
                    util::formatValue(qq.linearity, 4),
                    util::formatValue(jb.statistic, 1)});

      const std::string tag = util::formatValue(vdd, 2) +
                              (useVs ? "_vs" : "_golden");
      const auto curve = stats::kde(r.delays, 160);
      util::writeCsv(bench::outPath("fig7_nand2_pdf_" + tag + ".csv"),
                     {"delay_s", "density"}, {curve.x, curve.density});
      util::writeCsv(bench::outPath("fig7_nand2_qq_" + tag + ".csv"),
                     {"normal_quantile", "delay_s"},
                     {qq.theoretical, qq.sample});

      if (useVs) {
        std::cout << "\nVS delay histogram at Vdd = " << vdd << " V:\n"
                  << util::asciiHistogram(r.delays, 18, 40, "delay [s]");
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nPaper Fig. 7 shape: near-Gaussian at 0.9 V (QQ r^2 ~ 1),\n"
               "right-skew growing as Vdd drops; pronounced non-linearity of\n"
               "the QQ plot at 0.55 V, captured identically by both models.\n";
  return 0;
}
