// paper_batch: the paper's flows in-process on a fixed number of pool
// threads -- Fig. 9 SRAM READ SNM Monte Carlo (45-point butterfly sweeps)
// in anchor mode and the statistical tier, Fig. 5 INV FO3 delay Monte Carlo
// (transient) in anchor and fast numerics, and a fast-numerics FitCampaign
// re-extracting VS cards.
//
// Every campaign goes through the paper flows' own entry point,
// mc::runCampaign<Fixture>, so each one builds its session pool (one
// session per worker) as examples/dvs_timing, sram_yield and bench_fig9
// do.  Set-up is the cold work before the first campaign: one session per
// (fixture, mode) and the FitCampaign; the median of several set-ups is
// reported.  The timed phase runs whole rounds (kRound: five small Fig. 9
// anchor campaigns, one statistical-tier SNM campaign, the two delay
// campaigns, then the fit campaign) until the time budget is spent.
// Campaigns are timed on the CPU clocks of every thread (bench.hpp), so a
// campaign's time is the CPU time its pool threads spent on it.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "circuits/benchmarks.hpp"
#include "circuits/cells.hpp"
#include "extract/fit_campaign.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "measure/delay.hpp"
#include "measure/snm.hpp"
#include "models/vs_model.hpp"
#include "probes.hpp"
#include "serve/request.hpp"
#include "serve/stream.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace vsstat;

namespace {

constexpr unsigned kThreads = 3;
constexpr int kSnmPoints = 45;
constexpr int kSetupsPerGap = 2;  ///< cold set-ups between two rounds
constexpr int kMinSetups = 41;
constexpr std::size_t kFitLanes = 192;

spice::SessionOptions anchorMode() { return {}; }
spice::SessionOptions fastMode() {
  spice::SessionOptions o;
  o.numerics = models::NumericsMode::fast;
  return o;
}
spice::SessionOptions statisticalMode() {
  spice::SessionOptions o;
  o.numerics = models::NumericsMode::fast;
  o.solver = linalg::SolverMode::reusePivot;
  o.tier = spice::ToleranceTier::statistical;
  return o;
}

std::unique_ptr<circuits::DeviceProvider> makeProvider() {
  // Initial seed is irrelevant: bindSample reseeds per sample.
  return std::make_unique<mc::VsStatisticalProvider>(
      models::defaultVsNmos(), models::defaultVsPmos(), serve::defaultAlphas(),
      serve::defaultAlphas(), stats::Rng(1));
}

circuits::SramButterflyBench buildSram(circuits::DeviceProvider& p) {
  return circuits::buildSramButterfly(p, 0.9, circuits::SramMode::Read,
                                      circuits::SramSizing{});
}
circuits::GateFo3Bench buildInv(circuits::DeviceProvider& p) {
  return circuits::buildInvFo3(p, circuits::CellSizing{},
                               circuits::StimulusSpec{});
}

double snmOf(sim::CampaignSession<circuits::SramButterflyBench>& s) {
  return measure::measureSnm(s.fixture(), s.spice(), kSnmPoints).cellSnm();
}
double delayOf(sim::CampaignSession<circuits::GateFo3Bench>& s) {
  return measure::measureGateDelays(s.fixture(), s.spice()).average();
}

/// What the benchmark observes of one campaign's samples from outside:
/// when the first sample finished, and (traced run) the solver work the
/// samples consumed, read from the sessions' telemetry.
struct SampleWatch {
  Clock::time_point start = Clock::now();
  ThreadCpu startCpu = threadCpuNow();
  std::atomic<bool> seen{false};
  /// Written once, by the first finishing sample: CPU time its thread spent
  /// since the call (session build included), and wall time.
  double firstMs = -1.0;
  double firstWallMs = -1.0;
  bool countSolver = false;
  std::atomic<std::uint64_t> fullFactors{0};
  std::atomic<std::uint64_t> fastRefactors{0};
};

template <class Fixture>
using Measure = double (*)(sim::CampaignSession<Fixture>&);

/// Wraps a measurement as a campaign sample function observed by `watch`.
template <class Fixture>
mc::CircuitSampleFn<Fixture> sampleFn(Measure<Fixture> measure,
                                      SampleWatch& watch) {
  return [measure, &watch](std::size_t, sim::CampaignSession<Fixture>& s,
                           stats::Rng&, std::vector<double>& out) {
    spice::SimSession::SolverTelemetry before;
    if (watch.countSolver) before = s.spice().solverTelemetry();
    out[0] = measure(s);
    if (watch.countSolver) {
      const auto after = s.spice().solverTelemetry();
      watch.fullFactors += after.fullFactors - before.fullFactors;
      watch.fastRefactors += after.fastRefactors - before.fastRefactors;
    }
    if (!watch.seen.exchange(true)) {
      watch.firstWallMs = msSince(watch.start);
      watch.firstMs = cpuMs(CLOCK_THREAD_CPUTIME_ID) -
                      threadCpuIn(watch.startCpu, ::gettid());
    }
  };
}

/// Set-up: one session per (fixture, mode) the campaigns use, then the
/// FitCampaign, which the timed phase keeps.  With a tracer, one span per
/// build.
std::unique_ptr<extract::FitCampaign> makeSetup(Tracer* tracer = nullptr) {
  const auto build = [tracer](auto builder, const spice::SessionOptions& mode) {
    using Fixture = std::invoke_result_t<decltype(builder),
                                         circuits::DeviceProvider&>;
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr)
      span.emplace(*tracer, "sim.CampaignSession.build", -1);
    const sim::CampaignSession<Fixture> session(builder, makeProvider(), mode);
  };
  build(buildSram, anchorMode());
  build(buildSram, statisticalMode());
  build(buildInv, anchorMode());
  build(buildInv, fastMode());
  std::optional<Tracer::Scope> span;
  if (tracer != nullptr)
    span.emplace(*tracer, "extract.FitCampaign.construct", -1);
  return fastFitCampaign(kThreads);
}

/// Sessions makeSetup builds.
constexpr int kSetupSessions = 4;

/// One Monte Carlo campaign of the round.
struct McSpec {
  const char* name;
  bool anchor;
  int samples;
};

constexpr McSpec kCampaigns[] = {
    {"snm_anchor", true, 48},
    {"snm_statistical", false, 192},
    {"delay_anchor", true, 24},
    {"delay_fast", false, 24},
};

/// One round: five small Fig. 9 anchor campaigns (the request and
/// first-statistic population), one statistical-tier SNM campaign, the two
/// Fig. 5 delay campaigns, then the extraction campaign.
constexpr int kRound[] = {0, 0, 0, 0, 0, 1, 2, 3};
constexpr int kRoundSlots = sizeof kRound / sizeof kRound[0];

/// Mean / max relative error of the extracted cards against their truth.
std::pair<double, double> cardError(const extract::FitCampaignResult& r,
                                    std::uint64_t seed) {
  const models::VsParams card;
  const double rest[7] = {0.0,     card.delta0, card.n0,  card.vxo,
                          card.mu, card.beta,   card.cinv};
  double sum = 0.0, worst = 0.0;
  std::size_t terms = 0;
  for (std::size_t lane = 0; lane < r.laneCount; ++lane) {
    if (r.outcomes[lane] != extract::FitOutcome::converged &&
        r.outcomes[lane] != extract::FitOutcome::boundPinned)
      continue;
    stats::Rng rng = stats::Rng(seed).fork(lane);
    const double vt0 = card.vt0 + kFitVtSigma * rng.normal();
    const auto x = r.lane(lane);
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double truth = j == 0 ? vt0 : rest[j];
      const double rel = std::fabs(x[j] - truth) / std::fabs(truth);
      sum += rel;
      worst = std::max(worst, rel);
      ++terms;
    }
  }
  return {terms == 0 ? 1.0 : sum / static_cast<double>(terms), worst};
}

/// A fit campaign succeeds when no lane failed hard (singular normal
/// equations, non-finite data) and the extracted cards stay within
/// bench_extract's ceilings: mean relative error <= 0.05, max <= 0.25.
bool fitCampaignOk(const extract::FitCampaignResult& r, std::uint64_t seed,
                   std::string& why) {
  const int hard =
      r.outcomeCounts[static_cast<int>(extract::FitOutcome::singularJtJ)] +
      r.outcomeCounts[static_cast<int>(extract::FitOutcome::nonFinite)];
  const auto [meanErr, maxErr] = cardError(r, seed);
  why = std::to_string(hard) + " hard lane failures, card error mean " +
        std::to_string(meanErr) + ", max " + std::to_string(maxErr);
  return hard == 0 && meanErr <= 0.05 && maxErr <= 0.25;
}

/// Outcome of one campaign of a round.
struct CampaignRun {
  int kind = 0;
  std::uint64_t seed = 0;
  mc::McResult result;
  double ttfsMs = -1.0;  ///< call to the first finished sample, CPU time
  double totalMs = 0.0;  ///< CPU time of every thread
  double ttfsWallMs = -1.0;
  double totalWallMs = 0.0;
  std::uint64_t fullFactors = 0;  ///< traced run only
  std::uint64_t fastRefactors = 0;
};

/// Runs campaign `kind` through mc::runCampaign<Fixture> (`samples` and
/// `threads` override the campaign's size and kThreads).
CampaignRun runCampaign(int kind, std::uint64_t seed, bool countSolver,
                        int samples = 0, unsigned threads = kThreads) {
  mc::McOptions options;
  options.samples = samples > 0 ? samples : kCampaigns[kind].samples;
  options.seed = seed;
  options.threads = threads;
  CampaignRun run;
  run.kind = kind;
  run.seed = seed;
  SampleWatch watch;
  watch.countSolver = countSolver;
  const auto provider = [] { return makeProvider(); };
  switch (kind) {
    case 0:
    case 1:
      run.result = mc::runCampaign<circuits::SramButterflyBench>(
          options, 1, buildSram, provider,
          sampleFn<circuits::SramButterflyBench>(snmOf, watch),
          kind == 0 ? anchorMode() : statisticalMode());
      break;
    default:
      run.result = mc::runCampaign<circuits::GateFo3Bench>(
          options, 1, buildInv, provider,
          sampleFn<circuits::GateFo3Bench>(delayOf, watch),
          kind == 2 ? anchorMode() : fastMode());
      break;
  }
  run.totalMs = cpuMsSince(watch.startCpu);
  run.totalWallMs = msSince(watch.start);
  run.ttfsMs = watch.firstMs;
  run.ttfsWallMs = watch.firstWallMs;
  run.fullFactors = watch.fullFactors.load();
  run.fastRefactors = watch.fastRefactors.load();
  return run;
}

/// One round of campaigns; seeds are a function of (seed, round, slot).
/// `between`, when set, runs after every campaign.
std::vector<CampaignRun> runRound(std::uint64_t seed, int round,
                                  Tracer* tracer,
                                  const std::function<void()>& between = {}) {
  std::vector<CampaignRun> runs;
  for (int slot = 0; slot < kRoundSlots; ++slot) {
    const int kind = kRound[slot];
    const std::uint64_t campaignSeed =
        mixSeed(seed, 1000u * static_cast<unsigned>(round) + slot);
    {
      std::optional<Tracer::Scope> span;
      if (tracer != nullptr)
        span.emplace(*tracer, std::string("mc.") + kCampaigns[kind].name,
                     round * (kRoundSlots + 1) + slot);
      runs.push_back(runCampaign(kind, campaignSeed, tracer != nullptr));
    }
    if (between) between();
  }
  return runs;
}

std::uint64_t fitSeed(std::uint64_t seed, int round) {
  return mixSeed(seed, 1000u * static_cast<unsigned>(round) + 999u);
}

/// Correctness of one round: each anchor kind's first campaign is
/// bit-identical to the same campaign on one thread (results never depend
/// on the thread count); the statistical SNM and the fast delay stay within
/// 3 MC standard errors of the anchor run on the same seed; the extracted
/// cards stay within bench_extract's ceilings (mean <= 0.05, max <= 0.25);
/// the shared pool runs exactly the stated helper threads.
void verifyRound(const std::vector<CampaignRun>& runs,
                 const extract::FitCampaignResult& fit, std::uint64_t fitSeed,
                 Result& result) {
  std::set<int> seen;
  for (const CampaignRun& run : runs) {
    if (!seen.insert(run.kind).second) continue;
    const McSpec& spec = kCampaigns[run.kind];
    if (spec.anchor) {
      const CampaignRun serial = runCampaign(run.kind, run.seed, false, 0, 1);
      const std::string parallel = hex(serve::metricsFingerprint(run.result));
      const std::string one = hex(serve::metricsFingerprint(serial.result));
      result.check(parallel == one, std::string("anchor fingerprint ") +
                                      spec.name + ": " +
                                      std::to_string(kThreads) + " threads " +
                                      parallel + " vs 1 thread " + one);
      result.note(std::string("anchor metrics_fnv1a ") + spec.name, parallel);
      continue;
    }
    // The anchor run of the tuned campaign's fixture, seed and size.
    const CampaignRun anchor =
        runCampaign(run.kind < 2 ? 0 : 2, run.seed, false, spec.samples);
    const stats::Summary a = stats::summarize(anchor.result.metrics[0]);
    const stats::Summary t = stats::summarize(run.result.metrics[0]);
    const double se = a.stddev / std::sqrt(static_cast<double>(a.count));
    result.check(std::fabs(t.mean - a.mean) <= 3.0 * se,
                 std::string(spec.name) + " mean off anchor by " +
                     std::to_string(std::fabs(t.mean - a.mean) / se) +
                     " standard errors");
  }
  const auto [meanErr, maxErr] = cardError(fit, fitSeed);
  result.check(meanErr <= 0.05 && maxErr <= 0.25,
               "extracted card error mean " + std::to_string(meanErr) +
                   ", max " + std::to_string(maxErr));
  result.note("extraction", "mean card error " + std::to_string(meanErr) +
                                ", max " + std::to_string(maxErr) +
                                ", params_fnv1a " + hex(fit.paramsFnv1a()));
  const unsigned workers = util::ThreadPool::instance().workerCount();
  result.check(workers == kThreads - 1,
               "thread pool runs " + std::to_string(workers) +
                   " helper threads for campaigns at threads " +
                   std::to_string(kThreads) + " (expected " +
                   std::to_string(kThreads - 1) + ")");
}

void countCampaign(const CampaignRun& r, Result& result) {
  const int n = kCampaigns[r.kind].samples;
  result.operation(r.result.failures * 20 <= n,
                   std::string(kCampaigns[r.kind].name) + ": " +
                       std::to_string(r.result.failures) + " failed samples");
}

/// Where the campaign threads run in round `round`: the calling thread on
/// the first CPU, the pool's helper threads on the next ones, moving on by
/// kThreads CPUs every round.
std::vector<int> placement(int round) {
  const std::vector<int>& cpus = allowedCpus();
  std::vector<int> out;
  for (unsigned t = 0; t < kThreads; ++t)
    out.push_back(cpus[(static_cast<std::size_t>(round) * kThreads + t) %
                       cpus.size()]);
  return out;
}

int untraced(const Options& options, Result& result) {
  // Cold set-ups; after each, a one-sample-per-thread snm_anchor campaign's
  // first statistic (the cold population: right after fresh set-up work).
  // A set-up takes well under a millisecond, so set-ups run between every
  // two rounds (outside the timed intervals; the latest FitCampaign serves
  // the next round) and both medians sample the whole run.  Every unit is
  // bracketed by speed probes of all the CPUs the threads are pinned to.
  SpeedProbe probe;
  std::vector<int> place = placement(0);
  std::vector<pid_t> helpers;
  std::vector<Probed> setupS, coldTtfs;
  std::vector<double> setupWallS;
  std::unique_ptr<extract::FitCampaign> fits;
  const auto coldSetup = [&] {
    fits.reset();
    // The set-up runs on the calling thread alone.
    const double before = probe.run(place[0], place[0]);
    const ThreadCpu cpu0 = threadCpuNow();
    const Clock::time_point t0 = Clock::now();
    fits = makeSetup();
    const double setupMs = cpuMsSince(cpu0);
    setupWallS.push_back(msSince(t0) / 1000.0);
    const double after = probe.run(place[0], place[0]);
    setupS.push_back(Probed{setupMs, before, after});
    const double mid = probe.runAll(place, place[0]);
    const double ttfs =
        runCampaign(0, mixSeed(options.seed, 30u + setupS.size()), false,
                    static_cast<int>(kThreads))
            .ttfsMs;
    coldTtfs.push_back(
        Probed{ttfs, mid, probe.runAll(place, place[0])});
  };
  // The pool's helper threads start with the first campaign on kThreads
  // threads; find them, so they can be pinned.
  {
    pinThread(0, place[0]);
    const std::vector<pid_t> before = threadIds();
    coldSetup();
    for (const pid_t id : threadIds())
      if (!std::binary_search(before.begin(), before.end(), id))
        helpers.push_back(id);
    result.check(helpers.size() == kThreads - 1,
                 std::to_string(helpers.size()) +
                     " threads started with the first campaign, expected " +
                     std::to_string(kThreads - 1) + " pool helpers");
  }

  // Per timed round and slot (kRound's campaigns, then the fit campaign):
  // CPU time of every thread.
  std::vector<std::vector<Probed>> slotMs(kRoundSlots + 1);
  std::vector<Probed> requestMs, ttfsMs;
  std::vector<double> requestWallMs, ttfsWallMs;
  double timedWallMs = 0.0, mcWallMs = 0.0;
  long samples = 0, lanes = 0;
  int rounds = 0;
  for (int round = 0;; ++round) {
    place = placement(round);
    pinThread(0, place[0]);
    for (std::size_t h = 0; h < helpers.size() && h + 1 < place.size(); ++h)
      pinThread(helpers[h], place[h + 1]);
    const Clock::time_point r0 = Clock::now();
    std::vector<double> probes{probe.runAll(place, place[0])};
    const std::vector<CampaignRun> runs = runRound(
        options.seed, round, nullptr,
        [&] { probes.push_back(probe.runAll(place, place[0])); });
    const ThreadCpu f0 = threadCpuNow();
    const extract::FitCampaignResult fit = fits->run(
        kFitLanes, fitSeed(options.seed, round), fitPopulation(*fits));
    const double fitCpuMs = cpuMsSince(f0);
    probes.push_back(probe.runAll(place, place[0]));
    const double roundWallMs = msSince(r0);
    if (round == 0) continue;  // warm-up round: untimed
    ++rounds;
    for (std::size_t slot = 0; slot < runs.size(); ++slot) {
      const CampaignRun& r = runs[slot];
      const Probed unit{r.totalMs, probes[slot], probes[slot + 1]};
      countCampaign(r, result);
      slotMs[slot].push_back(unit);
      mcWallMs += r.totalWallMs;
      samples += kCampaigns[r.kind].samples;
      if (r.kind == 0) {
        requestMs.push_back(unit);
        ttfsMs.push_back(Probed{r.ttfsMs, unit.beforeMs, unit.afterMs});
        requestWallMs.push_back(r.totalWallMs);
        ttfsWallMs.push_back(r.ttfsWallMs);
      }
    }
    slotMs[kRoundSlots].push_back(
        Probed{fitCpuMs, probes[kRoundSlots], probes.back()});
    std::string why;
    const bool fitOk = fitCampaignOk(fit, fitSeed(options.seed, round), why);
    result.operation(fitOk, "fit campaign: " + why);
    lanes += static_cast<long>(kFitLanes);
    if (round == 1)
      verifyRound(runs, fit, fitSeed(options.seed, round), result);
    timedWallMs += roundWallMs;
    if (timedWallMs / 1000.0 >= options.seconds) break;
    for (int k = 0; k < kSetupsPerGap; ++k) coldSetup();
  }
  while (setupS.size() < static_cast<std::size_t>(kMinSetups)) coldSetup();
  pinThread(0, -1);
  for (const pid_t h : helpers) pinThread(h, -1);

  // Times at the reference speed (bench.hpp).  Throughput: a round's MC
  // samples over its campaign time, the sum over its campaign slots of each
  // slot's median.
  double roundMs = 0.0, roundSamples = 0.0;
  for (int slot = 0; slot < kRoundSlots; ++slot) {
    roundMs += median(scaledMs(slotMs[static_cast<std::size_t>(slot)]));
    roundSamples += kCampaigns[kRound[slot]].samples;
  }
  const double fitMs = median(scaledMs(slotMs[kRoundSlots]));
  const std::vector<double> totalMs = scaledMs(requestMs);

  result.metric("setup_s", median(scaledMs(setupS)) / 1000.0, "s");
  result.metric("samples_per_cpu_s", roundSamples / (roundMs / 1000.0), "1/s");
  result.metric("fits_per_cpu_s",
                static_cast<double>(kFitLanes) / (fitMs / 1000.0), "1/s");
  result.metric("ttfs_cpu_p50_ms", median(scaledMs(ttfsMs)), "ms");
  result.metric("cold_ttfs_cpu_p50_ms", median(scaledMs(coldTtfs)), "ms");
  result.metric("request_cpu_p50_ms", median(totalMs), "ms");
  result.metric("peak_rss_mib", peakRssMiB(), "MiB");
  result.note("request_cpu_ms spread",
              "q1 " + std::to_string(quantile(totalMs, 0.25)) + ", median " +
                  std::to_string(median(totalMs)) + ", q3 " +
                  std::to_string(quantile(totalMs, 0.75)) + ", p90 " +
                  std::to_string(quantile(totalMs, 0.9)) + ", p99 " +
                  std::to_string(quantile(totalMs, 0.99)));
  result.note("speed probes",
              probe.summary() + "; steady: snm_anchor campaigns " +
                  steadyShare(requestMs) + ", fit campaigns " +
                  steadyShare(slotMs[kRoundSlots]) + ", set-ups " +
                  steadyShare(setupS) + ", cold campaigns " +
                  steadyShare(coldTtfs));
  result.note("wall time",
              "setup median " + std::to_string(median(setupWallS)) +
                  " s, ttfs p50 " + std::to_string(median(ttfsWallMs)) +
                  " ms, request p50 " + std::to_string(median(requestWallMs)) +
                  " ms, p90 " + std::to_string(quantile(requestWallMs, 0.9)) +
                  " ms, " +
                  std::to_string(static_cast<double>(samples) /
                                 (mcWallMs / 1000.0)) +
                  " samples/s over " + std::to_string(timedWallMs / 1000.0) +
                  " s (speed probes included)");
  result.note("counts",
              std::to_string(rounds) + " timed rounds on " +
                  std::to_string(kThreads) + " threads; " +
                  std::to_string(samples) + " MC samples, " +
                  std::to_string(lanes) +
                  " fits; times are CPU time of every thread at the "
                  "reference speed (ttfs: of the thread that finished the "
                  "first sample); samples_per_cpu_s: a round's samples over "
                  "the sum of its campaign slots' median CPU times; "
                  "fits_per_cpu_s over the fit slot's median; request and "
                  "ttfs percentiles over " +
                  std::to_string(totalMs.size()) +
                  " steady snm_anchor campaigns; cold_ttfs over the steady "
                  "ones of " +
                  std::to_string(coldTtfs.size()) +
                  " post-set-up snm_anchor campaigns; setup_s over the "
                  "steady ones of " +
                  std::to_string(setupS.size()) + " set-ups");
  return result.correct() ? 0 : 1;
}

constexpr int kTracedRounds = 2;

int traced(const Options& options, Result& result) {
  Tracer tracer;
  // One cold set-up with a span per session build.
  std::unique_ptr<extract::FitCampaign> fits;
  {
    Tracer::Scope setupSpan(tracer, "paper.setup", -1);
    fits = makeSetup(&tracer);
  }

  // An untraced warm-up round, then the traced rounds: a span per
  // campaign, solver counts per campaign.
  (void)runRound(options.seed, kTracedRounds, nullptr);
  std::vector<CampaignRun> runs;
  double fitUs = 0.0;
  for (int round = 0; round < kTracedRounds; ++round) {
    std::vector<CampaignRun> roundRuns =
        runRound(options.seed, round, &tracer);
    extract::FitCampaignResult fit;
    {
      Tracer::Scope span(tracer, "extract.FitCampaign.run",
                         round * (kRoundSlots + 1) + kRoundSlots);
      const Clock::time_point f0 = Clock::now();
      fit = fits->run(kFitLanes, fitSeed(options.seed, round),
                      fitPopulation(*fits));
      fitUs += msSince(f0) * 1000.0;
    }
    for (const CampaignRun& r : roundRuns) countCampaign(r, result);
    std::string why;
    const bool fitOk = fitCampaignOk(fit, fitSeed(options.seed, round), why);
    result.operation(fitOk, "traced fit campaign: " + why);
    if (round == 0)
      verifyRound(roundRuns, fit, fitSeed(options.seed, round), result);
    runs.insert(runs.end(), roundRuns.begin(), roundRuns.end());
  }

  // Probes on the two fixtures.
  auto provider = makeProvider();
  circuits::SramButterflyBench sram = buildSram(*provider);
  circuits::GateFo3Bench inv = buildInv(*provider);
  const CircuitProbe sramProbe = probeCircuit(sram.circuit);
  const CircuitProbe invProbe = probeCircuit(inv.circuit);
  const PaperProbe paper = probePaper(options.seed);
  const auto rebindUs = [&](auto builder) {
    using Fixture = std::invoke_result_t<decltype(builder),
                                         circuits::DeviceProvider&>;
    sim::CampaignSession<Fixture> session(builder, makeProvider(),
                                          anchorMode());
    stats::Rng rng(mixSeed(options.seed, 600));
    std::uint64_t k = 0;
    return timeUs([&] { session.bindSample(rng.fork(++k)); });
  };
  const double sramRebind = rebindUs(buildSram);
  const double invRebind = rebindUs(buildInv);

  // Campaign spans in run order (one per slot per round).
  std::vector<double> campaignUs;
  for (const Tracer::Span& span : tracer.spans())
    if (span.name.compare(0, 3, "mc.") == 0) campaignUs.push_back(span.us());
  double totalUs = fitUs, anchorUs = 0.0, tunedUs = 0.0;
  double anchorSamples = 0.0, tunedSamples = 0.0, allSamples = 0.0,
         okSamples = 0.0, failures = 0.0, rescued = 0.0;
  double sramSamples = 0.0, invSamples = 0.0;
  std::uint64_t iters = 0, warmHits = 0, warmOpp = 0;
  LayerTime layers;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CampaignRun& r = runs[i];
    const McSpec& spec = kCampaigns[r.kind];
    const mc::McResult& m = r.result;
    const double n = spec.samples;
    const bool snm = r.kind < 2;
    totalUs += campaignUs[i];
    (spec.anchor ? anchorUs : tunedUs) += campaignUs[i];
    (spec.anchor ? anchorSamples : tunedSamples) += n;
    (snm ? sramSamples : invSamples) += n;
    allSamples += n;
    okSamples += static_cast<double>(m.sampleCount());
    failures += m.failures;
    rescued += m.rescued;
    iters += m.newtonIterations;
    warmHits += m.warmStartHits;
    warmOpp += m.warmStartOpportunities;
    CampaignCounts cc;
    cc.samples = spec.samples;
    cc.newtonIterations = m.newtonIterations;
    cc.fullFactors = r.fullFactors;
    cc.fastRefactors = r.fastRefactors;
    cc.fastNumerics = !spec.anchor;
    LayerTime t = attribute(snm ? sramProbe : invProbe, cc,
                            snm ? sramRebind : invRebind);
    t.measure = n * std::max(0.0, snm ? paper.snmUs - 2.0 * paper.sweepUs
                                      : paper.delayUs - paper.transientUs);
    layers.add(t);
  }
  // Layer estimates are thread time; campaigns and fits run on kThreads
  // pool threads, so shares are of kThreads x wall time (pool idle and
  // imbalance land in unattributed_share).
  const double share = 1.0 / (totalUs * kThreads);
  fitUs *= kThreads;
  const std::vector<double> builds =
      tracer.durationsUs("sim.CampaignSession.build");

  // Tracing overhead: round 0 again, untraced and uncounted.
  double untracedUs = 0.0;
  for (const CampaignRun& r : runRound(options.seed, 0, nullptr))
    untracedUs += r.totalWallMs * 1000.0;
  double tracedUs = 0.0;
  for (int slot = 0; slot < kRoundSlots; ++slot)
    tracedUs += campaignUs[static_cast<std::size_t>(slot)];

  // The serve layer, which this workload bypasses, from a small probe.
  Result serveProbe;
  (void)traceServingProbe(options, serveProbe);
  result.merge(serveProbe, "serve.");

  result.metric("sim.session_build_ms", median(builds) / 1000.0, "ms");
  result.metric("sim.sessions_built", kSetupSessions, "count");
  result.metric("sim.rebind_us",
                (sramRebind * sramSamples + invRebind * invSamples) /
                    allSamples,
                "us");
  result.metric("mc.us_per_sample.anchor", anchorUs / anchorSamples, "us");
  result.metric("mc.us_per_sample.tuned", tunedUs / tunedSamples, "us");
  result.metric("mc.newton_iters_per_sample",
                static_cast<double>(iters) / okSamples, "count");
  result.metric("mc.warm_start_hit_rate",
                warmOpp == 0 ? 0.0
                             : static_cast<double>(warmHits) /
                                   static_cast<double>(warmOpp),
                "ratio");
  result.metric("mc.failed_sample_share", failures / allSamples, "ratio");
  result.metric("mc.rescued_share", rescued / allSamples, "ratio");
  result.metric("spice.netlist_parse_us",
                serveProbe.value("spice.netlist_parse_us"), "us");
  emitCircuitMetrics(result, weightedProbe({{sramProbe, sramSamples},
                                            {invProbe, invSamples}}));
  emitPaperMetrics(result, paper);
  result.metric("util.pool_workers",
                util::ThreadPool::instance().workerCount(), "count");
  result.metric("serve.share", 0.0, "ratio");
  result.metric("sim.share", layers.sim * share, "ratio");
  result.metric("spice.share", layers.spice * share, "ratio");
  result.metric("linalg.share", layers.linalg * share, "ratio");
  result.metric("models.share", layers.models * share, "ratio");
  result.metric("measure.share", layers.measure * share, "ratio");
  result.metric("extract.share", fitUs * share, "ratio");
  result.metric("unattributed_share",
                1.0 - (layers.sim + layers.spice + layers.linalg +
                       layers.models + layers.measure + fitUs) *
                          share,
                "ratio");
  result.metric("trace.overhead_share", (tracedUs - untracedUs) / untracedUs,
                "ratio");
  result.note("traced run", std::to_string(kTracedRounds) +
                                " rounds; set-up sessions built " +
                                std::to_string(kSetupSessions) + "; spans " +
                                std::to_string(tracer.spans().size()));
  tracer.write(".bench_build/trace-paper_batch.jsonl");
  return result.correct() ? 0 : 1;
}

}  // namespace

int runPaper(const Options& options, Result& result) {
  return options.trace ? traced(options, result) : untraced(options, result);
}

}  // namespace perfbench
