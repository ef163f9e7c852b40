// Shared infrastructure for the paper-reproduction bench binaries.
//
// Every bench prints the paper-style table/series to stdout, writes the
// raw data as CSV under out/, and uses fixed seeds so runs are
// reproducible.  Monte Carlo sample counts follow the paper but can be
// scaled with the VSSTAT_MC_SCALE environment variable (e.g. 0.2 for a
// quick pass, 1.0 for paper-exact counts).
#ifndef VSSTAT_BENCH_COMMON_HPP
#define VSSTAT_BENCH_COMMON_HPP

#include <memory>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "core/statistical_vs.hpp"
#include "extract/golden_meter.hpp"
#include "mc/runner.hpp"
#include "stats/rng.hpp"

namespace vsstat::bench {

/// Monte Carlo scale factor from VSSTAT_MC_SCALE (default 0.35;
/// use 1.0 for the paper's exact sample counts).
[[nodiscard]] double mcScale();

/// max(minimum, round(samples * mcScale())).
[[nodiscard]] int scaledSamples(int paperCount, int minimum = 50);

/// The golden 40-nm kit (the "industrial design kit" stand-in).
[[nodiscard]] const extract::GoldenKit& goldenKit();

/// The calibrated statistical VS kit: Fig. 1 fit + BPV extraction against
/// goldenKit(), computed once per process (cached).
[[nodiscard]] const core::StatisticalVsKit& calibratedKit();

/// Output path under out/ for CSV dumps.
[[nodiscard]] std::string outPath(const std::string& file);

/// Prints the standard bench header (name, seed policy, scale).
void printHeader(const std::string& benchName, const std::string& paperRef);

/// Statistical device provider for either kit ("VS" or golden "BSIM").
[[nodiscard]] std::unique_ptr<circuits::DeviceProvider> makeStatProvider(
    bool useVs, stats::Rng rng);

/// Monte Carlo of fanout-of-3 gate delays (average of tpHL/tpLH).
struct DelayCampaignResult {
  std::vector<double> delays;   ///< seconds, one per successful sample
  std::vector<double> leakage;  ///< amperes (only if withLeakage)
  int failures = 0;
};

[[nodiscard]] DelayCampaignResult runGateDelayCampaign(
    bool useVs, bool nand2, const circuits::CellSizing& sizing,
    const circuits::StimulusSpec& stimulus, int samples, std::uint64_t seed,
    bool withLeakage = false, double dt = 5e-12);

/// Monte Carlo of the Fig. 8 register's setup time (DffBench at 0.9 V,
/// inverters P/N = 600/300 nm, L = 40 nm): one metric, seconds.
[[nodiscard]] mc::McResult runSetupTimeCampaign(bool useVs, int samples,
                                                std::uint64_t seed);

/// Largest relative per-sample metric deviation between two campaign runs
/// with the same seed -- the tolerance accounting behind the mode-comparison
/// bench rows (fast / reuse-pivot vs their baseline configuration).
/// Returns 1e30 on any shape mismatch (failure count, metric or sample
/// counts) so a structural divergence can never read as "within tolerance".
[[nodiscard]] double maxRelMetricDelta(const mc::McResult& a,
                                       const mc::McResult& b);

}  // namespace vsstat::bench

#endif  // VSSTAT_BENCH_COMMON_HPP
