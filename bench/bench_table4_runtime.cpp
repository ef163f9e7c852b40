// Table IV: runtime & memory of Monte Carlo campaigns, VS vs the golden
// BSIM-class model.  Each campaign is measured in process: wall time, the
// process CPU time across every pool worker (the speedup is a CPU-time
// ratio), and the campaign's heap high-water above the live heap at its
// start (bench/alloc_counter).  Beside the table, each model's cost per
// device load on the NAND2 fixture explains the speedups.
//
// Shape check: exits 1 when VS CPU time is not below golden's on the
// NAND2 and DFF rows, the transient rows whose time is device loads.  The
// SRAM-AC row's time is its complex small-signal solves, the same for both
// models, so it is printed as measured.
//
// Substitution note (ARCHITECTURE.md, "Paper substitutions", S1): the
// paper compares a Verilog-A VS against a C-coded BSIM4 inside Spectre and
// reports 4.2x runtime / 8.7x memory in VS's favour, most of which is
// Verilog-A interpretation overhead.  Here both models run compiled inside
// the same engine, so the expected shape is "VS faster and lighter, by a
// smaller factor".
#include <chrono>
#include <iostream>
#include <memory>
#include <span>
#include <vector>

#include "alloc_counter.hpp"
#include "common.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "mc/circuit_campaign.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "spice/ac.hpp"
#include "spice/elements.hpp"
#include "util/rusage.hpp"
#include "util/table.hpp"

using namespace vsstat;

namespace {

void runNandCampaign(bool useVs, int samples) {
  (void)bench::runGateDelayCampaign(useVs, /*nand2=*/true,
                                    circuits::CellSizing{},
                                    circuits::StimulusSpec{}, samples, 401);
}

void runDffCampaign(bool useVs, int samples) {
  (void)bench::runSetupTimeCampaign(useVs, samples, 402);
}

void runSramCampaign(bool useVs, int samples) {
  // Paper row "SRAM AC": per sample, bias the closed cell in HOLD, then
  // sweep the small-signal supply-noise transfer |V(q)/V(vdd)| and keep
  // its worst-case magnitude.
  const std::vector<double> freqs = spice::logFrequencyGrid(1e6, 1e11, 8);
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 403;
  (void)mc::runCampaign<circuits::SramCellBench>(
      opt, 1,
      [](circuits::DeviceProvider& provider) {
        return circuits::buildSramCell(provider, 0.9, /*wordlineOn=*/false,
                                       circuits::SramSizing{});
      },
      [useVs] { return bench::makeStatProvider(useVs, stats::Rng(0)); },
      [&freqs](std::size_t,
               sim::CampaignSession<circuits::SramCellBench>& session,
               stats::Rng&, std::vector<double>& out) {
        circuits::SramCellBench& fixture = session.fixture();
        const spice::OperatingPoint op =
            session.spice().dcOperatingPoint(fixture.stateGuess());
        const spice::SmallSignalSystem system(fixture.circuit, op);
        const linalg::ComplexVector excitation = system.voltageExcitation(
            fixture.circuit, fixture.vddSource);
        double worst = 0.0;
        for (double f : freqs) {
          const linalg::ComplexVector x = system.solve(f, excitation);
          const std::size_t row = static_cast<std::size_t>(fixture.q - 1);
          worst = std::max(worst, std::abs(x[row]));
        }
        out[0] = worst;
      });
}

/// Cost of one device load per lane [ns] on the NAND2 FO3 fixture with one
/// kit's nominal cards, at the DC point with the input low: the device
/// level evaluateLoadBatch and the circuit Newton's circuitLoadBatch (at
/// the currents the former settles on).  The golden model has no internal
/// equation, so its two costs are the same call.
struct LoadCost {
  double deviceNs = 0.0;
  double circuitNs = 0.0;
};

LoadCost measureLoadCost(const models::MosfetModel& nmos,
                         const models::MosfetModel& pmos) {
  circuits::NominalProvider provider(nmos, pmos);
  circuits::GateFo3Bench bench = circuits::buildNand2Fo3(
      provider, circuits::CellSizing{}, circuits::StimulusSpec{});
  bench.circuit.voltageSource(bench.inSource).setDcLevel(0.0);
  const spice::OperatingPoint op = spice::dcOperatingPoint(bench.circuit);

  std::vector<models::BankLane> lanes;
  std::vector<double> vgs, vds;
  for (const auto& element : bench.circuit.elements()) {
    const auto* m = dynamic_cast<const spice::MosfetElement*>(element.get());
    if (m == nullptr) continue;
    lanes.push_back(models::BankLane{&m->model(), &m->geometry()});
    const double sign =
        m->model().deviceType() == models::DeviceType::Nmos ? 1.0 : -1.0;
    vgs.push_back(sign * (op.v(m->gate()) - op.v(m->source())));
    vds.push_back(sign * (op.v(m->drain()) - op.v(m->source())));
  }
  // One bank over every lane: a kit's NMOS and PMOS cards share one model
  // class, as a bank's lanes must.
  const std::unique_ptr<models::MosfetLoadBank> bank =
      lanes.front().card->makeLoadBank(lanes);
  std::vector<models::MosfetLoadEvaluation> out(lanes.size());
  bank->evaluateLoadBatch(vgs, vds, spice::kMosfetFdStep, out);
  std::vector<double> id(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) id[i] = out[i].at.id;

  const auto nsPerLane = [&](auto&& call) {
    constexpr int kReps = 20000;
    for (int r = 0; r < 200; ++r) call();
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) call();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return ns / (static_cast<double>(kReps) * static_cast<double>(lanes.size()));
  };
  LoadCost cost;
  cost.deviceNs = nsPerLane(
      [&] { bank->evaluateLoadBatch(vgs, vds, spice::kMosfetFdStep, out); });
  cost.circuitNs = nsPerLane([&] {
    (void)bank->circuitLoadBatch(vgs, vds, id, spice::kMosfetFdStep, out);
  });
  return cost;
}

}  // namespace

int main() {
  bench::printHeader("bench_table4_runtime",
                     "Table IV - MC runtime & memory, VS vs golden model");

  struct Workload {
    const char* cell;
    const char* analysis;
    int paperSamples;
    void (*run)(bool, int);
  };
  const Workload workloads[] = {
      {"NAND2", "Tran (FO3 delay)", 2000, runNandCampaign},
      {"DFF", "Tran (setup search)", 250, runDffCampaign},
      {"SRAM", "AC (supply gain)", 2000, runSramCampaign},
  };

  // Touch the cached kits BEFORE measuring so characterization cost is not
  // attributed to the campaigns.
  (void)bench::calibratedKit();

  struct Measured {
    util::CampaignUsage usage;
    double heapPeakMiB = 0.0;
  };
  const auto measure = [](const Workload& w, bool useVs, int samples) {
    Measured m;
    bench::resetHeapPeak();
    m.usage = util::runInProcess([&] { w.run(useVs, samples); });
    m.heapPeakMiB =
        static_cast<double>(bench::heapPeakBytes()) / (1024.0 * 1024.0);
    return m;
  };

  util::Table table({"Cell", "Analysis", "Samples", "VS CPU [s]",
                     "golden CPU [s]", "speedup", "VS wall [s]",
                     "golden wall [s]", "VS heap HW [MiB]",
                     "golden heap HW [MiB]"});
  bool shapeHolds = true;
  for (const auto& w : workloads) {
    const int samples = bench::scaledSamples(w.paperSamples, 40);
    const Measured vs = measure(w, true, samples);
    const Measured golden = measure(w, false, samples);
    // The transient rows' time is device loads; the AC row's is its
    // complex solves, the same for both models.
    const bool gated = w.run != runSramCampaign;
    if (gated && vs.usage.cpuSeconds >= golden.usage.cpuSeconds) {
      shapeHolds = false;
      std::cout << "SHAPE FAIL: " << w.cell
                << " VS CPU time is not below golden's\n";
    }
    table.addRow({w.cell, w.analysis, std::to_string(samples),
                  util::formatValue(vs.usage.cpuSeconds, 2),
                  util::formatValue(golden.usage.cpuSeconds, 2),
                  util::formatValue(golden.usage.cpuSeconds /
                                        std::max(vs.usage.cpuSeconds, 1e-9),
                                    2) +
                      "x",
                  util::formatValue(vs.usage.wallSeconds, 2),
                  util::formatValue(golden.usage.wallSeconds, 2),
                  util::formatValue(vs.heapPeakMiB, 2),
                  util::formatValue(golden.heapPeakMiB, 2)});
    if (vs.usage.exitCode != 0 || golden.usage.exitCode != 0) {
      std::cout << "WARNING: campaign threw (" << vs.usage.exitCode << "/"
                << golden.usage.exitCode << ")\n";
    }
  }
  table.print(std::cout);
  std::cout << "Heap HW: the campaign's heap high-water above the live heap at\n"
               "its start.  Pool workers interleave as the scheduler runs\n"
               "them, so it varies between identical runs.\n";

  const core::StatisticalVsKit& kit = bench::calibratedKit();
  const LoadCost vsCost =
      measureLoadCost(models::VsModel(kit.nominal(models::DeviceType::Nmos)),
                      models::VsModel(kit.nominal(models::DeviceType::Pmos)));
  const extract::GoldenKit& golden = bench::goldenKit();
  const LoadCost goldenCost = measureLoadCost(models::BsimLite(golden.nmos),
                                              models::BsimLite(golden.pmos));
  std::cout << "\nCost per device load, ns per lane (NAND2 FO3, nominal "
               "cards,\ninput low):\n"
            << "  VS circuit load (one series step from the carried current)  "
            << util::formatValue(vsCost.circuitNs, 0) << "\n"
            << "  VS device-level evaluateLoad (series solve from i = 0)      "
            << util::formatValue(vsCost.deviceNs, 0) << "\n"
            << "  golden BsimLite evaluateLoad (forward differences)          "
            << util::formatValue(goldenCost.deviceNs, 0) << "\n";

  std::cout
      << "\nInterpretation (see ARCHITECTURE.md, paper substitution S1): the\n"
         "paper's 4.2x/8.7x VS win is mostly Verilog-A interpretation\n"
         "overhead.  Here both models run compiled in one engine, so the\n"
         "expected shape is \"VS faster and lighter, by a smaller factor\".\n"
         "The transient rows (NAND2, DFF) spend their time in device loads.\n"
         "A VS circuit load evaluates the intrinsic chain once: the Newton\n"
         "iterate carries each device's series-resistance current, so the\n"
         "series equation converges with the node voltages instead of in a\n"
         "nested solve per load.  That load is cheaper than BsimLite's three\n"
         "forward-difference evaluations, so VS runs faster on those rows.\n"
         "The SRAM-AC row spends its time in complex small-signal solves,\n"
         "the same for both models, and reads about 1x.  The absolute\n"
         "numbers support the paper's claim that compact-model MC campaigns\n"
         "of this size are routine.\n";
  if (!shapeHolds) {
    std::cout << "\nSHAPE FAIL: VS must be faster than golden on the NAND2 and "
                 "DFF rows.\n";
    return 1;
  }
  return 0;
}
