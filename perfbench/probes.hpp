// Layer probes of the traced run: each times one public call of an inner
// module from outside (parse, order, assemble, factor, solve, device
// evaluation, DC solve, sweep, transient, SNM, delay, extraction), and the
// attribution that turns probe costs times per-sample counts into layer
// shares of a workload's traced time.
#ifndef VSSTAT_PERFBENCH_PROBES_HPP
#define VSSTAT_PERFBENCH_PROBES_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "extract/fit_campaign.hpp"
#include "spice/circuit.hpp"
#include "spice/session.hpp"

namespace perfbench {

/// Mean cost of `fn` [us] over enough calls to fill `minMs` (>= 3 calls).
[[nodiscard]] double timeUs(const std::function<void()>& fn,
                            double minMs = 10.0);

/// Inner-layer costs of one circuit topology.
struct CircuitProbe {
  std::size_t unknowns = 0;
  std::size_t devices = 0;
  double orderUs = 0.0;     ///< linalg::minDegreeOrder on the MNA pattern
  double assembleUs = 0.0;  ///< spice::detail::Assembler::assemble
  double factorUs = 0.0;    ///< SparseLu::refactor after reset
  double refactorUs = 0.0;  ///< SparseLu::refactorReusingPivots
  double solveUs = 0.0;     ///< SparseLu::solveInPlace
  double fillRatio = 0.0;
  double factorMiB = 0.0;
  double evalNsReference = 0.0;  ///< per device, evaluateLoadBatch
  double evalNsFast = 0.0;
  double dcOpUs = 0.0;  ///< SimSession::dcOperatingPoint, reference session
};

[[nodiscard]] CircuitProbe probeCircuit(vsstat::spice::Circuit& circuit);

/// Per-campaign counts the attribution multiplies probe costs by.
struct CampaignCounts {
  long samples = 0;
  std::uint64_t newtonIterations = 0;
  std::uint64_t fullFactors = 0;
  std::uint64_t fastRefactors = 0;
  bool fastNumerics = false;
};

/// Estimated time [us] a campaign spent in each inner layer.
struct LayerTime {
  double sim = 0.0;
  double spice = 0.0;
  double linalg = 0.0;
  double models = 0.0;
  double measure = 0.0;
  void add(const LayerTime& o) {
    sim += o.sim;
    spice += o.spice;
    linalg += o.linalg;
    models += o.models;
    measure += o.measure;
  }
};

/// Probe cost x count: models = assemblies x devices x eval, spice =
/// assemblies x (assemble - reference device eval), linalg = full
/// factors x factor + fast refactors x refactor + iterations x solve, sim =
/// samples x rebind.
[[nodiscard]] LayerTime attribute(const CircuitProbe& probe,
                                  const CampaignCounts& counts,
                                  double rebindUs);

/// bench_extract's extraction population: per-lane truth cards with a
/// perturbed vt0 (the lane's first normal draw, sigma kFitVtSigma) and
/// multiplicative measurement noise kFitNoiseRel.
inline constexpr double kFitVtSigma = 0.015;
inline constexpr double kFitNoiseRel = 0.004;
[[nodiscard]] vsstat::extract::FitCampaign::DatasetFn fitPopulation(
    const vsstat::extract::FitCampaign& fits);

/// A fast-numerics VS-card FitCampaign on `threads` pool threads.
[[nodiscard]] std::unique_ptr<vsstat::extract::FitCampaign> fastFitCampaign(
    unsigned threads);

/// CPU times of the one-thread batches [first, first + batches) of `lanes`
/// lanes each [ms], one probed entry per batch.  Batch b draws its
/// population from (seed, b) and runs pinned to CPU b mod n of the n
/// allowed CPUs; the calling thread ends unpinned.
[[nodiscard]] std::vector<Probed> fitBatchMs(std::uint64_t seed, int first,
                                             int batches, std::size_t lanes,
                                             SpeedProbe& probe);

/// Costs of the paper-flow layers, measured on the paper fixtures (the
/// SRAM read butterfly and the INV FO3) and a small fast FitCampaign.
struct PaperProbe {
  double sweepUs = 0.0;      ///< SimSession::dcSweepNode, 45 points
  double transientUs = 0.0;  ///< SimSession::transient, INV FO3 window
  double snmUs = 0.0;        ///< measure::measureSnm, 45-point sweeps
  double delayUs = 0.0;      ///< measure::measureGateDelays
  double usPerFit = 0.0;     ///< FitCampaign::run per lane, 1 thread
  double lmItersPerFit = 0.0;
  double convergedShare = 0.0;
};

[[nodiscard]] PaperProbe probePaper(std::uint64_t seed);

/// Emits the per-layer metrics every traced run shares.
void emitCircuitMetrics(Result& result, const CircuitProbe& weighted);
void emitPaperMetrics(Result& result, const PaperProbe& paper);

/// Sample-weighted mean of several circuit probes.
[[nodiscard]] CircuitProbe weightedProbe(
    const std::vector<std::pair<CircuitProbe, double>>& probes);

}  // namespace perfbench

#endif  // VSSTAT_PERFBENCH_PROBES_HPP
