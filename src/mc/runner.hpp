// Generic Monte Carlo campaign runner.
//
// A campaign evaluates a user function once per sample; each sample gets a
// decorrelated child RNG derived from (campaign seed, sample index), so
// results are bit-identical regardless of thread count.  Samples that fail
// (non-convergent circuits under extreme mismatch) are dropped and counted
// PER FAILURE CLASS: only exceptions deriving from vsstat::SampleFailure
// are treated as dropped corners -- anything else is a programming error
// and propagates out of runCampaign on the calling thread.
#ifndef VSSTAT_MC_RUNNER_HPP
#define VSSTAT_MC_RUNNER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::mc {

struct McOptions {
  int samples = 1000;
  std::uint64_t seed = 42;
  unsigned threads = 0;  ///< 0 == hardware concurrency
  /// When > 0, samples are dispatched to workers as contiguous fixed-size
  /// index blocks, each processed serially in index order on one worker
  /// (the statistical-tier warm-chain unit: sample k seeds from sample
  /// k-1 within a block, and blocks start cold).  Because the block
  /// geometry depends only on this value -- never on the thread count or
  /// the schedule -- blocked campaigns stay bit-identical across 1/2/4/...
  /// workers, exactly like the default per-sample dispatch (0).
  int sampleBlock = 0;
};

struct McResult {
  /// metrics[m][k]: metric m of the k-th *successful* sample.
  ///
  /// Failure-drop contract: a sample whose function throws a SampleFailure
  /// (or underfills its output) is dropped from EVERY metric row and
  /// counted once in `failures` -- rows are filled in lockstep, so all rows
  /// always share one length, and row index k refers to the same surviving
  /// sample in every metric.  `sampleCount() + failures == McOptions::
  /// samples` for a result produced by runCampaign.
  std::vector<std::vector<double>> metrics;
  int failures = 0;

  /// Dropped samples per FailureClass, indexed by static_cast<int>(class).
  /// Sums to `failures`.  Yield estimators consume this instead of
  /// silently renormalizing over survivors (yield::yieldOfCampaign).
  std::array<int, kFailureClassCount> failuresByClass{};
  [[nodiscard]] int failuresOf(FailureClass c) const noexcept {
    return failuresByClass[static_cast<std::size_t>(c)];
  }

  /// Successful samples that needed at least one rescue-ladder retry
  /// (mc::runCampaign<Fixture>); 0 for plain sample functions.
  int rescued = 0;

  /// Newton-iteration telemetry summed over SUCCESSFUL samples (filled by
  /// sample functions that report it through SampleContext -- the circuit
  /// campaign's rescue wrapper does; plain functions leave it 0).  Makes
  /// statistical-tier iteration savings observable: mean iters/sample and
  /// the fraction of warm-start opportunities that actually seeded.
  std::uint64_t newtonIterations = 0;
  std::uint64_t warmStartHits = 0;
  std::uint64_t warmStartOpportunities = 0;
  /// Workspace-factorization counters summed the same way: full factors,
  /// structure-reusing refactors and reuse-monitor pivot fallbacks.  As
  /// sums in index order they do not depend on which worker session
  /// served which sample.
  std::uint64_t fullFactors = 0;
  std::uint64_t fastRefactors = 0;
  std::uint64_t pivotFallbacks = 0;
  [[nodiscard]] double meanIterationsPerSample() const {
    const std::size_t n = sampleCount();
    return n == 0 ? 0.0
                  : static_cast<double>(newtonIterations) /
                        static_cast<double>(n);
  }
  [[nodiscard]] double warmStartHitRate() const noexcept {
    return warmStartOpportunities == 0
               ? 0.0
               : static_cast<double>(warmStartHits) /
                     static_cast<double>(warmStartOpportunities);
  }

  /// Diagnostics of the LOWEST-INDEXED failed sample -- deterministic by
  /// construction (reduction runs in index order, never schedule order).
  struct FirstFailure {
    bool valid = false;
    std::size_t sampleIndex = 0;
    FailureClass failureClass = FailureClass::unclassified;
    std::string message;
  };
  FirstFailure firstFailure;

  /// Number of successful samples (the shared row length).  Throws
  /// InvalidArgumentError if the rows have been tampered into raggedness.
  [[nodiscard]] std::size_t sampleCount() const;
};

/// Out-parameter a sample function may fill to report how its evaluation
/// went (beyond success/failure).  Campaign-level wrappers (the rescue
/// ladder) use it to flag rescued samples in the result taxonomy.
struct SampleContext {
  int rescueAttempts = 0;  ///< rescue-ladder retries consumed (0 = clean)
  // Per-sample solver telemetry (sim::runSampleWithRescue fills these by
  // diffing SimSession's iteration and factorization counters around the
  // sample; reduced into the 64-bit McResult aggregates in index order).
  // One sample's counts fit 32 bits, and the runner keeps one context per
  // sample.
  std::uint32_t newtonIterations = 0;
  std::uint32_t warmStartHits = 0;
  std::uint32_t warmStartOpportunities = 0;
  std::uint32_t fullFactors = 0;
  std::uint32_t fastRefactors = 0;
  std::uint32_t pivotFallbacks = 0;
};

/// Sample function: fills `out` (size metricCount) for the given sample.
using SampleFn =
    std::function<void(std::size_t index, stats::Rng& rng, std::vector<double>& out)>;

/// Extended sample function: also reports per-sample context.
using SampleFnEx = std::function<void(
    std::size_t index, stats::Rng& rng, std::vector<double>& out,
    SampleContext& ctx)>;

/// Block-scoped resource hook for blocked campaigns (McOptions::
/// sampleBlock > 0): invoked on the executing worker before a block's
/// first sample; the returned owner lives until the block's last sample
/// finished.  The circuit campaign uses it to hold ONE session lease
/// across the whole warm chain.  May be null.
using BlockResourceFn =
    std::function<std::shared_ptr<void>(std::size_t blockIndex)>;

/// Read-only view of one completed chunk of a chunked campaign: the
/// per-sample storage for sample indices [first, end), in index order.
/// Pointers are borrowed from the runner's flat buffers and are valid only
/// for the duration of the callback.
struct McChunkView {
  std::size_t first = 0;  ///< chunk's first sample index
  std::size_t end = 0;    ///< one past the chunk's last sample index
  std::size_t total = 0;  ///< campaign sample budget
  std::size_t metricCount = 0;
  /// Sample-major metric rows: metrics[(i - first) * metricCount + m] is
  /// metric m of sample i -- meaningful only where ok[i - first] != 0.
  const double* metrics = nullptr;
  const char* ok = nullptr;
  /// Failure class per sample (-1 = none recorded); see FailureClass.
  const signed char* failureClass = nullptr;
  const int* rescues = nullptr;  ///< rescue-ladder retries per sample
};

/// Invoked on the CALLING thread after each chunk's workers drain, in chunk
/// order.  Streaming estimators (serve/stream.hpp) fold each view into
/// running statistics so long campaigns report progress incrementally.
using ChunkFn = std::function<void(const McChunkView&)>;

/// Chunked submission: samples are dispatched to the persistent thread pool
/// in contiguous index chunks of ~`chunkSamples` (rounded up to a whole
/// number of McOptions::sampleBlock blocks so statistical-tier warm chains
/// never straddle a chunk), with `onChunk` invoked between chunks.
///
/// Because util::ThreadPool runs one index sweep at a time, a monolithic
/// campaign holds the pool until its last sample; chunking bounds each
/// hold to one chunk, so concurrent campaigns (the campaign server's
/// simultaneous requests) interleave at chunk granularity instead of
/// serializing end-to-end.  Results are bit-identical to the monolithic
/// path: chunk geometry affects scheduling only, never RNG streams, warm
/// chains, or reduction order.  chunkSamples <= 0 means one chunk.
[[nodiscard]] McResult runCampaignChunked(const McOptions& options,
                                          std::size_t metricCount,
                                          const SampleFnEx& fn,
                                          const BlockResourceFn& blockResource,
                                          int chunkSamples,
                                          const ChunkFn& onChunk);

/// Device-level and explicit-card campaigns: one chunk, no block resource.
/// Circuit campaigns use mc::runCampaign<Fixture> (mc/circuit_campaign.hpp).
[[nodiscard]] McResult runCampaign(const McOptions& options,
                                   std::size_t metricCount,
                                   const SampleFn& fn);

}  // namespace vsstat::mc

#endif  // VSSTAT_MC_RUNNER_HPP
