#include "mc/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace vsstat::mc {
namespace {

TEST(McRunner, CollectsAllSamples) {
  McOptions opt;
  opt.samples = 100;
  const McResult r = runCampaign(
      opt, 2, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        out[0] = static_cast<double>(i);
        out[1] = 2.0 * static_cast<double>(i);
      });
  EXPECT_EQ(r.sampleCount(), 100u);
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.metrics.size(), 2u);
}

TEST(McRunner, DeterministicAcrossThreadCounts) {
  const auto run = [](unsigned threads) {
    McOptions opt;
    opt.samples = 500;
    opt.seed = 99;
    opt.threads = threads;
    const McResult r = runCampaign(
        opt, 1, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
          out[0] = rng.normal();
        });
    return stats::mean(r.metrics[0]);
  };
  EXPECT_DOUBLE_EQ(run(1), run(4));
}

TEST(McRunner, SampleRngsAreDecorrelated) {
  McOptions opt;
  opt.samples = 20000;
  const McResult r = runCampaign(
      opt, 2, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
        out[0] = rng.normal();
        out[1] = rng.normal();
      });
  // Mean near zero and consecutive samples uncorrelated.
  EXPECT_NEAR(stats::mean(r.metrics[0]), 0.0, 0.03);
  EXPECT_NEAR(stats::correlation(r.metrics[0], r.metrics[1]), 0.0, 0.03);
}

TEST(McRunner, FailedSamplesAreDroppedAndCounted) {
  McOptions opt;
  opt.samples = 50;
  const McResult r = runCampaign(
      opt, 1, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        if (i % 5 == 0) throw ConvergenceError("non-convergent corner", 80);
        out[0] = 1.0;
      });
  EXPECT_EQ(r.failures, 10);
  EXPECT_EQ(r.sampleCount(), 40u);
  EXPECT_EQ(r.failuresOf(FailureClass::nonConvergence), 10);
  EXPECT_EQ(r.rescued, 0);
}

TEST(McRunner, FailuresAreClassifiedPerClassWithFirstFailureDiagnostics) {
  McOptions opt;
  opt.samples = 40;
  opt.seed = 3;
  const McResult r = runCampaign(
      opt, 1, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        if (i % 10 == 3) throw SingularMatrixError("pivot breakdown", 2);
        if (i % 10 == 5) throw NonFiniteError("NaN lane");
        if (i % 10 == 7) throw MetricDomainError("output never fell");
        out[0] = 1.0;
      });
  EXPECT_EQ(r.failures, 12);
  EXPECT_EQ(r.failuresOf(FailureClass::singular), 4);
  EXPECT_EQ(r.failuresOf(FailureClass::nonFinite), 4);
  EXPECT_EQ(r.failuresOf(FailureClass::metricDomain), 4);
  EXPECT_EQ(r.failuresOf(FailureClass::nonConvergence), 0);
  EXPECT_EQ(r.failuresOf(FailureClass::unclassified), 0);
  // First failure is the lowest-indexed one, independent of scheduling.
  ASSERT_TRUE(r.firstFailure.valid);
  EXPECT_EQ(r.firstFailure.sampleIndex, 3u);
  EXPECT_EQ(r.firstFailure.failureClass, FailureClass::singular);
  EXPECT_NE(r.firstFailure.message.find("pivot breakdown"),
            std::string::npos);
}

TEST(McRunner, SingularFailuresAreCaughtAsConvergenceErrors) {
  // SingularMatrixError derives from ConvergenceError (homotopy handlers
  // catch the base) yet carries the finer class for the taxonomy.
  try {
    throw SingularMatrixError("singular to working precision", 5);
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.failureClass(), FailureClass::singular);
    EXPECT_EQ(e.iterations(), 5);
  }
}

TEST(McRunner, NonSampleFailuresPropagateOutOfTheCampaign) {
  // A programming error must abort the campaign, never be counted as a
  // dropped corner.
  McOptions opt;
  opt.samples = 8;
  opt.threads = 2;
  EXPECT_THROW(
      runCampaign(opt, 1,
                  [](std::size_t i, stats::Rng&, std::vector<double>& out) {
                    if (i == 5) throw std::runtime_error("logic bug");
                    out[0] = 1.0;
                  }),
      std::runtime_error);
}

TEST(McRunner, RescuedSamplesAreCountedViaTheSampleContext) {
  McOptions opt;
  opt.samples = 30;
  const McResult r = runCampaignChunked(
      opt, 1,
      SampleFnEx([](std::size_t i, stats::Rng&, std::vector<double>& out,
                    SampleContext& ctx) {
        out[0] = 1.0;
        if (i % 3 == 0) ctx.rescueAttempts = 1;  // simulated ladder rescue
      }),
      BlockResourceFn{}, /*chunkSamples=*/0, ChunkFn{});
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.rescued, 10);
}

TEST(McRunner, DifferentSeedsGiveDifferentStreams) {
  const auto run = [](std::uint64_t seed) {
    McOptions opt;
    opt.samples = 50;
    opt.seed = seed;
    const McResult r = runCampaign(
        opt, 1, [](std::size_t, stats::Rng& rng, std::vector<double>& out) {
          out[0] = rng.normal();
        });
    return r.metrics[0][0];
  };
  EXPECT_NE(run(1), run(2));
}

TEST(McRunner, SampleCountEnforcesTheSharedRowLengthContract) {
  // Rows are filled in lockstep (failure-drop contract, see runner.hpp):
  // a campaign result always satisfies sampleCount() + failures == samples.
  McOptions opt;
  opt.samples = 40;
  opt.seed = 9;
  const McResult r = runCampaign(
      opt, 2, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
        if (i % 5 == 0) throw ConvergenceError("dropped corner", 80);
        out[0] = static_cast<double>(i);
        out[1] = -static_cast<double>(i);
      });
  EXPECT_EQ(r.metrics[0].size(), r.metrics[1].size());
  EXPECT_EQ(static_cast<int>(r.sampleCount()) + r.failures, opt.samples);

  // Hand-tampered ragged rows must be rejected loudly, not silently
  // reported as the first row's length.
  McResult ragged = r;
  ragged.metrics[1].pop_back();
  EXPECT_THROW((void)ragged.sampleCount(), InvalidArgumentError);
}

TEST(McRunner, NestedCampaignKeepsTheCallersSampleBuffer) {
  // A sample function may run an inner campaign (a kit characterized on
  // first use inside a worker does).  On a fresh thread the inner campaign
  // grows the per-thread scratch by one nesting level, which must leave
  // the outer sample's half-written buffer where it is.
  McOptions outer;
  outer.samples = 4;
  outer.threads = 1;
  McResult r;
  std::thread fresh([&] {
    r = runCampaign(
        outer, 2, [](std::size_t i, stats::Rng&, std::vector<double>& out) {
          out[0] = static_cast<double>(i);
          McOptions inner;
          inner.samples = 3;
          inner.threads = 1;
          const McResult sub = runCampaign(
              inner, 1, [](std::size_t k, stats::Rng&,
                           std::vector<double>& o) { o[0] = 10.0 * k; });
          out[1] = sub.metrics[0].back();
        });
  });
  fresh.join();
  EXPECT_EQ(r.metrics[0], (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(r.metrics[1], (std::vector<double>(4, 20.0)));
}

TEST(McRunner, RejectsBadOptions) {
  McOptions opt;
  opt.samples = 0;
  EXPECT_THROW(
      runCampaign(opt, 1,
                  [](std::size_t, stats::Rng&, std::vector<double>&) {}),
      InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::mc
