// Fig. 8: setup-time distribution of the master-slave NMOS-pass-transistor
// register (250 MC runs in the paper).  Each sample needs a full bisection
// of transient simulations -- the workload class where the paper argues
// the ultra-compact VS model pays off most.  Each worker builds the
// register once and rebinds its cards per sample; the bench exits 1 when
// either model's campaign reports failed samples.
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
  bench::printHeader("bench_fig8_dff_setup",
                     "Fig. 8 - D flip-flop setup time PDF (master-slave, "
                     "NMOS-only pass transistors)");

  const int samples = bench::scaledSamples(250, 60);
  std::cout << "MC samples per model: " << samples
            << " (each = full setup bisection of ~10 transients)\n";

  util::Table table({"model", "mean [ps]", "sigma [ps]", "min [ps]",
                     "max [ps]", "JB normal?"});

  int failedSamples = 0;
  for (const bool useVs : {false, true}) {
    const mc::McResult r =
        bench::runSetupTimeCampaign(useVs, samples, useVs ? 81 : 82);
    failedSamples += r.failures;
    const auto s = stats::summarize(r.metrics[0]);
    const auto jb = stats::jarqueBera(r.metrics[0]);
    table.addRow({useVs ? "VS" : "golden", util::formatValue(s.mean * 1e12, 2),
                  util::formatValue(s.stddev * 1e12, 2),
                  util::formatValue(s.min * 1e12, 2),
                  util::formatValue(s.max * 1e12, 2),
                  jb.rejectAt5Percent ? "no" : "yes"});

    const auto curve = stats::kde(r.metrics[0], 140);
    util::writeCsv(bench::outPath(std::string("fig8_dff_setup_") +
                                  (useVs ? "vs" : "golden") + ".csv"),
                   {"setup_s", "density"}, {curve.x, curve.density});
    std::cout << "\n" << (useVs ? "VS" : "golden")
              << " setup-time histogram:\n"
              << util::asciiHistogram(r.metrics[0], 16, 40, "setup [s]");
    if (r.failures > 0) {
      std::cout << "(" << r.failures << " samples failed to capture)\n";
    }
  }
  table.print(std::cout);

  std::cout << "\nPaper Fig. 8(c) shape: unimodal setup-time PDF around\n"
               "20-30 ps with both models overlapping.\n";

  if (failedSamples != 0) {
    std::cout << "CHECK FAILED: no failed samples (" << failedSamples
              << " failed)\n"
              << "checks: FAILED\n";
    return 1;
  }
  std::cout << "checks: OK\n";
  return 0;
}
