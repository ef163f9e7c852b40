// Micro-benchmark of the Newton hot path on the paper's benchmark circuits
// (NAND2 Fo3 and the closed 6T SRAM cell), for DC and transient assembler
// settings.  One Newton iteration is timed at a converged operating point
// (*_workspace rows): assemble into the captured CSR pattern and reuse the
// per-assembler NewtonWorkspace (pattern-reusing SparseLu refactor +
// preallocated dx).  The pre-workspace origin of this number lives in
// BENCH_newton_hotpath_baseline.json (bench/measure_seed_baseline.sh).
//
// Output is machine-readable JSON, one object per line on stdout:
//   {"name": "...", "ns_per_iter": ..., "allocs": ...}
// where "allocs" is heap allocations per iteration in steady state (must
// be 0).  BENCH_newton_hotpath.json records a reference run.
//
// Usage: bench_newton_hotpath [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "alloc_counter.hpp"
#include "circuits/benchmarks.hpp"
#include "circuits/provider.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"
#include "spice/analysis.hpp"
#include "spice/assembler.hpp"
#include "spice/elements.hpp"

namespace vsstat {
namespace {

using Clock = std::chrono::steady_clock;

linalg::Vector flatten(const spice::Circuit& circuit,
                       const spice::OperatingPoint& op) {
  linalg::Vector x(circuit.unknownCount(), 0.0);
  const std::size_t numNodes = circuit.nodeCount() - 1;
  for (std::size_t n = 0; n < numNodes; ++n) x[n] = op.nodeVoltages[n + 1];
  for (std::size_t b = 0; b < op.branchCurrents.size(); ++b)
    x[numNodes + b] = op.branchCurrents[b];
  return x;
}

struct IterResult {
  double nsPerIter = 0.0;
  double allocsPerIter = 0.0;
};

/// Times `iters` repetitions of one Newton iteration's linear-algebra work
/// at a fixed iterate (assemble + factor + solve), after a warmup that puts
/// every buffer in steady state.
template <typename IterFn>
IterResult timeIterations(IterFn&& iteration, int iters) {
  for (int i = 0; i < 16; ++i) iteration();  // warmup: reach steady state

  const std::uint64_t allocs0 = bench::heapAllocations();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) iteration();
  const auto t1 = Clock::now();
  const std::uint64_t allocs1 = bench::heapAllocations();

  IterResult r;
  r.nsPerIter =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      iters;
  r.allocsPerIter = static_cast<double>(allocs1 - allocs0) / iters;
  return r;
}

void emit(const std::string& name, const IterResult& r) {
  std::printf("{\"name\": \"%s\", \"ns_per_iter\": %.1f, \"allocs\": %.2f}\n",
              name.c_str(), r.nsPerIter, r.allocsPerIter);
}

/// Times one assembler configuration's Newton iteration (CSR assembly +
/// pattern-reusing refactor, zero allocs) and emits its line.
void benchConfiguration(const std::string& name,
                        spice::detail::Assembler& assembler,
                        const linalg::Vector& x, int iters) {
  spice::detail::NewtonWorkspace& ws = assembler.workspace();
  const auto workspace = [&] {
    assembler.assemble(x);
    std::copy(assembler.residual().begin(), assembler.residual().end(),
              ws.dx.begin());
    ws.lu.refactor(assembler.jacobian());
    ws.lu.solveInPlace(ws.dx);
  };
  emit(name + "_workspace", timeIterations(workspace, iters));
}

/// DC + transient benches on one circuit, converged at `op`.
void benchCircuit(const std::string& name, const spice::Circuit& circuit,
                  const spice::OperatingPoint& op, int iters) {
  const linalg::Vector x = flatten(circuit, op);
  spice::detail::Assembler assembler(circuit);

  assembler.setDcMode();
  assembler.setTime(0.0);
  assembler.setSourceScale(1.0);
  assembler.setGmin(1e-12);
  benchConfiguration(name + "_dc", assembler, x, iters);

  // Transient setting: commit the DC charges, then iterate with the
  // trapezoidal companion model at a representative 1 ps step (this also
  // activates the charge-derivative Jacobian stamps).
  assembler.assemble(x);
  assembler.commitCharges();
  std::vector<double> slotCurrents;
  assembler.slotCurrents(slotCurrents);
  assembler.setTime(1e-12);
  assembler.setTrapezoidal(1e-12, slotCurrents);
  benchConfiguration(name + "_tran", assembler, x, iters);
}

int run(int iters) {
  using circuits::NominalProvider;
  using models::VsModel;

  // NAND2 fanout-of-3 (paper Fig. 7 fixture).
  {
    NominalProvider provider(VsModel(models::defaultVsNmos()),
                             VsModel(models::defaultVsPmos()));
    circuits::GateFo3Bench bench = circuits::buildNand2Fo3(
        provider, circuits::CellSizing{}, circuits::StimulusSpec{});
    bench.circuit.voltageSource(bench.inSource).setDcLevel(0.0);
    const spice::OperatingPoint op = spice::dcOperatingPoint(bench.circuit);
    benchCircuit("nand2_fo3", bench.circuit, op, iters);
  }

  // Closed 6T SRAM cell (paper Fig. 9 / Table IV fixture).
  {
    NominalProvider provider(VsModel(models::defaultVsNmos()),
                             VsModel(models::defaultVsPmos()));
    circuits::SramCellBench bench = circuits::buildSramCell(
        provider, 0.9, /*wordlineOn=*/true, circuits::SramSizing{});
    const spice::OperatingPoint op =
        spice::dcOperatingPoint(bench.circuit, bench.stateGuess(true), {});
    benchCircuit("sram6t", bench.circuit, op, iters);
  }
  return 0;
}

}  // namespace
}  // namespace vsstat

int main(int argc, char** argv) {
  int iters = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) iters = 500;
  }
  try {
    return vsstat::run(iters);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_newton_hotpath: %s\n", e.what());
    return 1;
  }
}
