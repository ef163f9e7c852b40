// Table II: extracted standard-deviation coefficients alpha_1..alpha_5
// from the BPV method, NMOS and PMOS.
#include <iostream>

#include "common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace vsstat;

int main() {
  bench::printHeader("bench_table2_alpha",
                     "Table II - extracted Pelgrom coefficients (BPV)");

  const auto& kit = bench::calibratedKit();
  const auto& n = kit.alphas(models::DeviceType::Nmos);
  const auto& p = kit.alphas(models::DeviceType::Pmos);

  util::Table table({"coefficient", "NMOS", "PMOS", "paper NMOS",
                     "paper PMOS", "unit"});
  table.addRow({"alpha1 (VT0)", util::formatValue(n.aVt0, 2),
                util::formatValue(p.aVt0, 2), "2.3", "2.86", "V nm"});
  table.addRow({"alpha2 (Leff)", util::formatValue(n.aLeff, 2),
                util::formatValue(p.aLeff, 2), "3.71", "3.66", "nm"});
  table.addRow({"alpha3 (Weff)", util::formatValue(n.aWeff, 2),
                util::formatValue(p.aWeff, 2), "3.71", "3.66", "nm"});
  table.addRow({"alpha4 (mu)", util::formatValue(n.aMu, 0),
                util::formatValue(p.aMu, 0), "944", "781",
                "nm cm^2/(V s)"});
  table.addRow({"alpha5 (Cinv)", util::formatValue(n.aCinv, 2),
                util::formatValue(p.aCinv, 2), "0.29", "0.81",
                "nm uF/cm^2"});
  table.print(std::cout);

  std::cout << "\nNotes: alpha2 == alpha3 by the LER tie (paper Sec. III);\n"
               "alpha5 is measured directly from the oxide, not BPV-solved.\n"
               "Absolute values depend on the synthetic golden kit's mismatch\n"
               "truth (see ARCHITECTURE.md, \"Paper substitutions\", S2); the\n"
               "paper-shape checks are the same order of magnitude and\n"
               "NMOS-vs-PMOS ordering.\n\n"
            << kit.summary();

  util::CsvWriter csv(bench::outPath("table2_alpha.csv"),
                      {"coefficient", "nmos", "pmos"});
  csv.writeRow(std::vector<std::string>{"aVt0", util::formatValue(n.aVt0, 4),
                                        util::formatValue(p.aVt0, 4)});
  csv.writeRow(std::vector<std::string>{"aLeff", util::formatValue(n.aLeff, 4),
                                        util::formatValue(p.aLeff, 4)});
  csv.writeRow(std::vector<std::string>{"aWeff", util::formatValue(n.aWeff, 4),
                                        util::formatValue(p.aWeff, 4)});
  csv.writeRow(std::vector<std::string>{"aMu", util::formatValue(n.aMu, 2),
                                        util::formatValue(p.aMu, 2)});
  csv.writeRow(std::vector<std::string>{"aCinv", util::formatValue(n.aCinv, 4),
                                        util::formatValue(p.aCinv, 4)});
  return 0;
}
