#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <typeinfo>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "circuits/cells.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_lu.hpp"
#include "mc/providers.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "models/vs_model.hpp"
#include "serve/request.hpp"
#include "spice/assembler.hpp"
#include "spice/elements.hpp"
#include "spice/waveform.hpp"

namespace perfbench {

using namespace vsstat;

double timeUs(const std::function<void()>& fn, double minMs) {
  fn();  // warm: caches, lazily sized buffers
  int calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (calls < 3 || elapsed < minMs) {
    fn();
    ++calls;
    elapsed = msSince(start);
  }
  return elapsed * 1000.0 / calls;
}

CircuitProbe probeCircuit(spice::Circuit& circuit) {
  CircuitProbe p;
  p.unknowns = circuit.unknownCount();

  // Every probe runs at the circuit's nominal operating point, where a
  // campaign's Newton iterations spend their time.
  spice::SimSession session(circuit);
  const spice::OperatingPoint op = session.dcOperatingPoint();
  p.dcOpUs = timeUs([&] { (void)session.dcOperatingPoint(); });

  // Assembly and factorization of the MNA Jacobian at that point (node
  // voltages, then branch currents), with a homotopy-level gmin so every
  // node diagonal is present, as in bench_campaign's factor probe.
  spice::detail::Assembler assembler(circuit);
  linalg::Vector x(p.unknowns);
  const std::size_t nodes = circuit.nodeCount();
  for (std::size_t k = 1; k < nodes; ++k) x[k - 1] = op.nodeVoltages[k];
  for (std::size_t b = 0; b < op.branchCurrents.size(); ++b)
    x[nodes - 1 + b] = op.branchCurrents[b];
  assembler.setGmin(1e-3);
  p.assembleUs = timeUs([&] { assembler.assemble(x); });
  const linalg::SparseMatrix& jacobian = assembler.jacobian();

  p.orderUs = timeUs(
      [&] { (void)linalg::minDegreeOrder(assembler.pattern()); });

  linalg::SparseLu lu;
  lu.refactor(jacobian);  // pays the one-time ordering
  p.factorUs = timeUs([&] {
    lu.reset();
    lu.refactor(jacobian);
  });
  p.refactorUs = timeUs([&] { lu.refactorReusingPivots(jacobian); });
  const linalg::Vector rhs = assembler.residual();
  linalg::Vector b = rhs;
  p.solveUs = timeUs([&] {
    b = rhs;
    lu.solveInPlace(b);
  });
  p.fillRatio = lu.fillRatio();
  p.factorMiB =
      static_cast<double>(lu.factorMemoryBytes()) / (1024.0 * 1024.0);

  // Device evaluation: one bank over the circuit's MOSFET lanes of the
  // first model class (the VS model for every deck and fixture here), at
  // the operating point's biases formed as the assembler forms them.
  std::vector<models::BankLane> lanes;
  std::vector<double> vgs, vds;
  const std::type_info* type = nullptr;
  for (const auto& element : circuit.elements()) {
    const auto* m = dynamic_cast<const spice::MosfetElement*>(element.get());
    if (m == nullptr) continue;
    if (type == nullptr) type = &typeid(m->model());
    if (typeid(m->model()) != *type) continue;
    lanes.push_back(models::BankLane{&m->model(), &m->geometry()});
    const double sign =
        m->model().deviceType() == models::DeviceType::Pmos ? -1.0 : 1.0;
    vgs.push_back(sign * (op.v(m->gate()) - op.v(m->source())));
    vds.push_back(sign * (op.v(m->drain()) - op.v(m->source())));
  }
  p.devices = lanes.size();
  if (!lanes.empty()) {
    std::vector<models::MosfetLoadEvaluation> out(lanes.size());
    for (const models::NumericsMode mode :
         {models::NumericsMode::reference, models::NumericsMode::fast}) {
      const std::unique_ptr<models::MosfetLoadBank> bank =
          lanes.front().card->makeLoadBank(lanes, mode);
      const double us = timeUs(
          [&] { bank->evaluateLoadBatch(vgs, vds, 1e-3, out); });
      (mode == models::NumericsMode::reference ? p.evalNsReference
                                               : p.evalNsFast) =
          us * 1000.0 / static_cast<double>(lanes.size());
    }
  }
  return p;
}

LayerTime attribute(const CircuitProbe& probe, const CampaignCounts& counts,
                    double rebindUs) {
  LayerTime t;
  const double iters = static_cast<double>(counts.newtonIterations);
  const double devices = static_cast<double>(probe.devices);
  const double evalUs =
      (counts.fastNumerics ? probe.evalNsFast : probe.evalNsReference) /
      1000.0;
  t.models = iters * devices * evalUs;
  t.spice = iters * std::max(0.0, probe.assembleUs -
                                      devices * probe.evalNsReference / 1000.0);
  t.linalg = static_cast<double>(counts.fullFactors) * probe.factorUs +
             static_cast<double>(counts.fastRefactors) * probe.refactorUs +
             iters * probe.solveUs;
  t.sim = static_cast<double>(counts.samples) * rebindUs;
  return t;
}

PaperProbe probePaper(std::uint64_t seed) {
  PaperProbe p;
  mc::VsStatisticalProvider provider(models::defaultVsNmos(),
                                     models::defaultVsPmos(),
                                     serve::defaultAlphas(),
                                     serve::defaultAlphas(),
                                     stats::Rng(mixSeed(seed, 71)));

  circuits::SramButterflyBench sram = circuits::buildSramButterfly(
      provider, 0.9, circuits::SramMode::Read, circuits::SramSizing{});
  spice::SimSession sramSession(sram.circuit);
  std::vector<double> levels;
  for (int i = 0; i < 45; ++i) levels.push_back(sram.supply * i / 44.0);
  std::vector<double> curve;
  p.sweepUs = timeUs([&] {
    sramSession.dcSweepNode(sram.sweep1, levels, sram.out1, curve);
  });
  p.snmUs =
      timeUs([&] { (void)measure::measureSnm(sram, sramSession, 45); });

  circuits::GateFo3Bench inv = circuits::buildInvFo3(
      provider, circuits::CellSizing{}, circuits::StimulusSpec{});
  spice::SimSession invSession(inv.circuit);
  spice::TransientOptions topt;
  topt.tStop = inv.tStop;
  topt.dt = 0.25e-12;
  spice::Waveform wave(1);
  p.transientUs = timeUs([&] { invSession.transient(topt, wave); });
  p.delayUs =
      timeUs([&] { (void)measure::measureGateDelays(inv, invSession); });

  constexpr std::size_t kLanes = 48;
  const std::unique_ptr<extract::FitCampaign> fits = fastFitCampaign(1);
  extract::FitCampaignResult fitResult;
  p.usPerFit = timeUs([&] {
                 fitResult = fits->run(kLanes, mixSeed(seed, 72),
                                       fitPopulation(*fits));
               }) /
               static_cast<double>(kLanes);
  p.lmItersPerFit = fitResult.meanIterationsPerFit();
  p.convergedShare = fitResult.convergedFraction();
  return p;
}

extract::FitCampaign::DatasetFn fitPopulation(
    const extract::FitCampaign& fits) {
  return [&fits](std::size_t, stats::Rng& rng, extract::FitDataset& d) {
    models::VsParams truth;
    truth.vt0 += kFitVtSigma * rng.normal();
    fits.synthesizeDataset(models::VsModel(truth), kFitNoiseRel, rng, d);
  };
}

std::unique_ptr<extract::FitCampaign> fastFitCampaign(unsigned threads) {
  extract::FitCampaignOptions options;
  options.threads = threads;
  options.numerics = models::NumericsMode::fast;
  return std::make_unique<extract::FitCampaign>(
      models::VsParams{}, models::DeviceGeometry{80e-9, 40e-9},
      extract::vsMeasurementGrid(), options);
}

std::vector<Probed> fitBatchMs(std::uint64_t seed, int first, int batches,
                               std::size_t lanes, SpeedProbe& probe) {
  // The batches run inline on this thread and visit every CPU it may run
  // on in turn, so their median describes the machine rather than the one
  // CPU the thread happened to land on.
  const std::vector<int>& cpus = allowedCpus();
  const std::unique_ptr<extract::FitCampaign> fits = fastFitCampaign(1);
  std::vector<Probed> times;
  for (int batch = first; batch < first + batches; ++batch) {
    const int cpu = cpus[static_cast<std::size_t>(batch) % cpus.size()];
    const double before = probe.run(cpu, cpu);
    const double cpu0 = cpuMs(CLOCK_THREAD_CPUTIME_ID);
    (void)fits->run(lanes, mixSeed(seed, static_cast<std::uint64_t>(batch)),
                    fitPopulation(*fits));
    const double ms = cpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    times.push_back(Probed{ms, before, probe.run(cpu, cpu)});
  }
  pinThread(0, -1);
  return times;
}

CircuitProbe weightedProbe(
    const std::vector<std::pair<CircuitProbe, double>>& probes) {
  CircuitProbe w;
  double total = 0.0;
  for (const auto& [p, weight] : probes) total += weight;
  if (total <= 0.0) return probes.empty() ? w : probes.front().first;
  double unknowns = 0.0, devices = 0.0;
  for (const auto& [p, weight] : probes) {
    const double f = weight / total;
    unknowns += f * static_cast<double>(p.unknowns);
    devices += f * static_cast<double>(p.devices);
    w.orderUs += f * p.orderUs;
    w.assembleUs += f * p.assembleUs;
    w.factorUs += f * p.factorUs;
    w.refactorUs += f * p.refactorUs;
    w.solveUs += f * p.solveUs;
    w.fillRatio += f * p.fillRatio;
    w.factorMiB += f * p.factorMiB;
    w.evalNsReference += f * p.evalNsReference;
    w.evalNsFast += f * p.evalNsFast;
    w.dcOpUs += f * p.dcOpUs;
  }
  w.unknowns = static_cast<std::size_t>(unknowns + 0.5);
  w.devices = static_cast<std::size_t>(devices + 0.5);
  return w;
}

void emitCircuitMetrics(Result& result, const CircuitProbe& p) {
  result.metric("spice.dc_op_us", p.dcOpUs, "us");
  result.metric("spice.assemble_us", p.assembleUs, "us");
  result.metric("linalg.order_us", p.orderUs, "us");
  result.metric("linalg.factor_us", p.factorUs, "us");
  result.metric("linalg.refactor_us", p.refactorUs, "us");
  result.metric("linalg.solve_us", p.solveUs, "us");
  result.metric("linalg.fill_ratio", p.fillRatio, "ratio");
  result.metric("linalg.factor_mib", p.factorMiB, "MiB");
  result.metric("models.eval_ns.reference", p.evalNsReference, "ns");
  result.metric("models.eval_ns.fast", p.evalNsFast, "ns");
}

void emitPaperMetrics(Result& result, const PaperProbe& p) {
  result.metric("spice.sweep_us", p.sweepUs, "us");
  result.metric("spice.transient_us", p.transientUs, "us");
  result.metric("measure.snm_us", p.snmUs, "us");
  result.metric("measure.delay_us", p.delayUs, "us");
  result.metric("extract.us_per_fit", p.usPerFit, "us");
  result.metric("extract.lm_iters_per_fit", p.lmItersPerFit, "count");
  result.metric("extract.converged_share", p.convergedShare, "ratio");
}

}  // namespace perfbench
