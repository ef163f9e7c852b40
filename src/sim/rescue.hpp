// Deterministic solve-rescue replay for campaign samples.
//
// When a sample's evaluation throws a SampleFailure, the campaign does not
// have to drop it outright: many failures are artifacts of the session's
// throughput configuration (a reused pivot order gone degenerate for this
// draw, a fast-numerics lane overflowing, a Newton clamp too generous for a
// stiff corner) rather than genuinely unsolvable circuits.  The sample is
// replayed through the session's rescue rungs -- hardened Newton, fresh
// pivoting, reference numerics, all combined -- which spice::SimSession
// owns and applies (SimSession::beginAttempt); this file holds only the
// replay loop and the campaign's on/off switch.
//
// Determinism contract: the replay is indexed by SAMPLE, never by thread or
// schedule.  Every attempt rebinds from a copy of the sample's original RNG
// state (DeviceProvider draws replay exactly), the rungs depend only on the
// session's baseline configuration, and SimSession::endSample restores that
// baseline before the sample returns -- so campaign results stay
// bit-identical across thread counts and session assignments, with or
// without rescues.  Rescued samples report the rung that succeeded through
// mc::SampleContext::rescueAttempts; exhausted ladders rethrow the LAST
// failure (the most-escalated rung's classification).
#ifndef VSSTAT_SIM_RESCUE_HPP
#define VSSTAT_SIM_RESCUE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "mc/runner.hpp"
#include "sim/session.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"

namespace vsstat::sim {

/// Campaign-level rescue configuration.
struct RescuePolicy {
  /// Master switch.  Off reproduces the pre-ladder behavior exactly: the
  /// first SampleFailure drops the sample (still classified).
  bool enabled = true;
};

/// Evaluates one campaign sample with rescue: binds the sample, runs `fn`,
/// and on SampleFailure walks the session's rescue rungs, replaying the
/// sample's draws from `rngStart` on every attempt.  On success
/// `ctx.rescueAttempts` holds the number of retries consumed (0 = clean
/// first attempt); on exhaustion the last rung's failure is rethrown for
/// the campaign runner to classify.  A sample that succeeds reports in
/// `ctx` the Newton and factorization counters of every attempt it took.
template <class Fixture, class Fn>
void runSampleWithRescue(std::size_t index, CampaignSession<Fixture>& session,
                         const stats::Rng& rngStart, std::vector<double>& out,
                         mc::SampleContext& ctx, const Fn& fn,
                         const RescuePolicy& policy = {}) {
  spice::SimSession& solver = session.spice();
  // Per-sample telemetry: diffed across every attempt the sample consumed
  // (failed rungs included -- that is the sample's true cost), and
  // aggregated into McResult by mc::runCampaign.
  const spice::SimSession::IterationTelemetry itersAtEntry =
      solver.iterationTelemetry();
  const spice::SimSession::SolverTelemetry factorsAtEntry =
      solver.solverTelemetry();
  struct EndSample {
    spice::SimSession& solver;
    ~EndSample() { solver.endSample(); }
  } const restore{solver};
  const auto captureTelemetry = [&]() {
    const auto since = [](std::uint64_t now, std::uint64_t then) {
      return static_cast<std::uint32_t>(now - then);
    };
    const spice::SimSession::IterationTelemetry& it =
        solver.iterationTelemetry();
    ctx.newtonIterations =
        since(it.newtonIterations, itersAtEntry.newtonIterations);
    ctx.warmStartHits = since(it.warmStartHits, itersAtEntry.warmStartHits);
    ctx.warmStartOpportunities = since(it.warmStartOpportunities,
                                       itersAtEntry.warmStartOpportunities);
    const spice::SimSession::SolverTelemetry lu = solver.solverTelemetry();
    ctx.fullFactors = since(lu.fullFactors, factorsAtEntry.fullFactors);
    ctx.fastRefactors = since(lu.fastRefactors, factorsAtEntry.fastRefactors);
    ctx.pivotFallbacks =
        since(lu.pivotFallbacks, factorsAtEntry.pivotFallbacks);
  };

  std::exception_ptr lastFailure;
  for (int attempt = 0; solver.beginAttempt(index, attempt); ++attempt) {
    if (attempt > 0) std::fill(out.begin(), out.end(), 0.0);
    try {
      // Every attempt replays the whole sample: same RNG state, same
      // provider draws, same bind order -- only the rung differs.
      stats::Rng rng = rngStart;
      session.bindSample(rng);
      fn(index, session, rng, out);
      ctx.rescueAttempts = attempt;
      captureTelemetry();
      return;  // a clean sample never leaves the baseline
    } catch (const SampleFailure&) {
      lastFailure = std::current_exception();
      // Statistical-tier state is sample-scoped: a failure voids the warm
      // chain (the next sample on this session cold-starts,
      // deterministically -- the rule depends only on the sample index
      // sequence).
      if (attempt == 0) solver.clearWarmStarts();
      if (!policy.enabled) break;
    }
  }
  std::rethrow_exception(lastFailure);
}

}  // namespace vsstat::sim

#endif  // VSSTAT_SIM_RESCUE_HPP
