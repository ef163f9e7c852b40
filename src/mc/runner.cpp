#include "mc/runner.hpp"

#include <algorithm>
#include <deque>

#include "util/thread_pool.hpp"

namespace vsstat::mc {

std::size_t McResult::sampleCount() const {
  const std::size_t n = metrics.empty() ? 0 : metrics.front().size();
  for (const std::vector<double>& row : metrics)
    require(row.size() == n,
            "McResult: ragged metric rows (every row must hold one entry "
            "per successful sample)");
  return n;
}

McResult runCampaignChunked(const McOptions& options, std::size_t metricCount,
                            const SampleFnEx& fn,
                            const BlockResourceFn& blockResource,
                            int chunkSamples, const ChunkFn& onChunk) {
  require(options.samples > 0, "runCampaign: samples must be > 0");
  require(metricCount > 0, "runCampaign: metricCount must be > 0");

  const auto n = static_cast<std::size_t>(options.samples);
  // Flat sample-major storage: one allocation for the whole campaign
  // instead of one vector per sample.
  std::vector<double> flat(n * metricCount, 0.0);
  std::vector<char> ok(n, 0);
  // Per-sample failure class (-1 = no classified failure recorded) and
  // rescue count; the what() of each failure is kept so the index-ordered
  // reduction below can pick the first one deterministically.  All of it
  // is written by at most one worker per slot, then reduced single-threaded.
  std::vector<signed char> failClass(n, -1);
  std::vector<int> rescues(n, 0);
  std::vector<SampleContext> contexts(n);
  std::vector<std::string> failMessage(n);
  const stats::Rng campaign(options.seed);

  const auto runOne = [&](std::size_t i) {
    stats::Rng rng = campaign.fork(i);
    // Per-worker scratch, reused across every sample this thread runs
    // (and across campaigns -- pool workers are persistent).  assign()
    // keeps the capacity, so steady-state samples allocate nothing
    // here.  One scratch per nesting depth keeps a sample fn that runs
    // an inner campaign from clobbering its caller's buffer; a deque,
    // because growing it for an inner campaign must not move the
    // caller's buffer out from under its reference.
    thread_local std::deque<std::vector<double>> scratchStack;
    thread_local std::size_t depth = 0;
    if (scratchStack.size() <= depth) scratchStack.resize(depth + 1);
    std::vector<double>& out = scratchStack[depth];
    out.assign(metricCount, 0.0);
    ++depth;
    struct DepthGuard {
      std::size_t& d;
      ~DepthGuard() { --d; }
    } guard{depth};
    SampleContext ctx;
    try {
      fn(i, rng, out, ctx);
      if (out.size() < metricCount) return;  // malformed sample: dropped
      std::copy_n(out.begin(), metricCount, flat.begin() + i * metricCount);
      ok[i] = 1;
      rescues[i] = ctx.rescueAttempts;
      contexts[i] = ctx;
    } catch (const SampleFailure& e) {
      // A classified dropped corner (non-convergence, singular
      // Jacobian, NaN seam, undefined metric).  Anything not derived
      // from SampleFailure is a programming error, not an extreme
      // sample, and propagates out of the sweep (util::parallelFor
      // rethrows the first such exception on the calling thread).
      ok[i] = 0;
      failClass[i] = static_cast<signed char>(e.failureClass());
      failMessage[i] = e.what();
    }
  };

  // Chunk geometry: a chunk is a contiguous index range dispatched as one
  // thread-pool sweep.  Rounded up to a whole number of sampleBlock blocks
  // so a statistical-tier warm chain is never split across two sweeps --
  // which keeps chunked results bit-identical to the monolithic dispatch
  // (chunking changes WHEN samples run, never what any sample computes).
  std::size_t chunk = chunkSamples > 0 ? static_cast<std::size_t>(chunkSamples)
                                       : n;
  if (options.sampleBlock > 0) {
    const auto block = static_cast<std::size_t>(options.sampleBlock);
    chunk = (chunk + block - 1) / block * block;
  }

  for (std::size_t start = 0; start < n; start += chunk) {
    const std::size_t end = std::min(n, start + chunk);
    if (options.sampleBlock > 0) {
      // Blocked dispatch: work items are fixed-size contiguous index blocks
      // run serially in order.  Block geometry depends only on sampleBlock,
      // so results stay bit-identical across thread counts; the dynamic
      // claiming of whole blocks keeps workers load-balanced.  Block
      // indices are GLOBAL (start / block is exact: chunks are whole
      // blocks), so block resources see the same indices chunked or not.
      const auto block = static_cast<std::size_t>(options.sampleBlock);
      const std::size_t firstBlock = start / block;
      const std::size_t blocks = (end - start + block - 1) / block;
      util::parallelFor(
          blocks,
          [&](std::size_t bi) {
            const std::size_t b = firstBlock + bi;
            const std::shared_ptr<void> resource =
                blockResource ? blockResource(b) : nullptr;
            const std::size_t blockEnd = std::min(end, (b + 1) * block);
            for (std::size_t i = b * block; i < blockEnd; ++i) runOne(i);
          },
          options.threads);
    } else {
      util::parallelFor(
          end - start, [&](std::size_t k) { runOne(start + k); },
          options.threads);
    }
    if (onChunk) {
      McChunkView view;
      view.first = start;
      view.end = end;
      view.total = n;
      view.metricCount = metricCount;
      view.metrics = flat.data() + start * metricCount;
      view.ok = ok.data() + start;
      view.failureClass = failClass.data() + start;
      view.rescues = rescues.data() + start;
      onChunk(view);
    }
  }

  // Single-threaded reduction in sample-index order: metric rows, failure
  // taxonomy, and the first-failure diagnostic are all deterministic
  // regardless of which worker ran which sample.
  McResult result;
  result.metrics.assign(metricCount, {});
  for (auto& m : result.metrics) m.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      ++result.failures;
      const FailureClass cls = failClass[i] < 0
                                   ? FailureClass::unclassified
                                   : static_cast<FailureClass>(failClass[i]);
      ++result.failuresByClass[static_cast<std::size_t>(cls)];
      if (!result.firstFailure.valid) {
        result.firstFailure.valid = true;
        result.firstFailure.sampleIndex = i;
        result.firstFailure.failureClass = cls;
        result.firstFailure.message = failMessage[i];
      }
      continue;
    }
    if (rescues[i] > 0) ++result.rescued;
    result.newtonIterations += contexts[i].newtonIterations;
    result.warmStartHits += contexts[i].warmStartHits;
    result.warmStartOpportunities += contexts[i].warmStartOpportunities;
    result.fullFactors += contexts[i].fullFactors;
    result.fastRefactors += contexts[i].fastRefactors;
    result.pivotFallbacks += contexts[i].pivotFallbacks;
    for (std::size_t m = 0; m < metricCount; ++m)
      result.metrics[m].push_back(flat[i * metricCount + m]);
  }
  return result;
}

McResult runCampaign(const McOptions& options, std::size_t metricCount,
                     const SampleFn& fn) {
  return runCampaignChunked(
      options, metricCount,
      SampleFnEx([&fn](std::size_t i, stats::Rng& rng, std::vector<double>& out,
                       SampleContext&) { fn(i, rng, out); }),
      BlockResourceFn{}, /*chunkSamples=*/0, ChunkFn{});
}

}  // namespace vsstat::mc
