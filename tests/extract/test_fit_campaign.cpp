// The multi-fit extraction engine's contract tests:
//   * each measurement point is synthesized at its own bias, and each
//     family's card carries exactly its lane's fitted parameters,
//   * box bounds respected -- pinned lanes are reported, never violated,
//   * bit-identical campaigns across 1/2/4 workers,
//   * per-class failure accounting on an injected bad-data lane,
//   * population sigma round-trips through synthesize -> re-extract.
// The bank the engine evaluates through equals scalar evaluateLoad bit for
// bit under reference numerics; tests/models/test_model_contract.cpp pins
// that, including the uniform rebind between iterations.
#include "extract/fit_campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "models/alpha_power.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::extract {
namespace {

models::DeviceGeometry nominalGeom() { return {80e-9, 40e-9}; }

/// Dataset factory: per-lane vth-perturbed truth card, synthesized on the
/// campaign grid with multiplicative measurement noise.
FitCampaign::DatasetFn vsPopulation(const FitCampaign& campaign,
                                    models::VsParams truth, double vtSigma,
                                    double noiseRel) {
  return [&campaign, truth, vtSigma, noiseRel](
             std::size_t, stats::Rng& rng, FitDataset& d) {
    models::VsParams t = truth;
    t.vt0 += vtSigma * rng.normal();
    const models::VsModel m(t);
    campaign.synthesizeDataset(m, noiseRel, rng, d);
  };
}

TEST(FitCampaign, CggPointMeasuredAtItsOwnBias) {
  // A Cgg point reads dQg/dVgs at its own (vgs, vds): the nominal fits'
  // BPV target sits at (Vdd, 0), the stock grids' point at (Vdd, Vdd).
  MeasurementGrid grid;
  grid.points = {{0.9, 0.0, Quantity::cgg, 4.0},
                 {0.9, 0.9, Quantity::cgg, 4.0},
                 {0.6, 0.45, Quantity::relId, 1.5}};
  const FitCampaign c(models::VsParams{}, nominalGeom(), grid);
  const models::VsModel truth(models::defaultVsNmos());
  stats::Rng rng(3);
  FitDataset d;
  c.synthesizeDataset(truth, 0.0, rng, d);

  ASSERT_EQ(d.values.size(), grid.points.size());
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const IvPoint& p = grid.points[i];
    const models::MosfetLoadEvaluation ev =
        truth.evaluateLoad(nominalGeom(), p.vgs, p.vds, 1e-3);
    EXPECT_EQ(d.values[i], p.quantity == Quantity::cgg ? ev.dqgVgs : ev.at.id)
        << "point " << i;
  }
  EXPECT_NE(d.values[0], d.values[1]);
}

TEST(FitCampaign, EachFamilyCardCarriesItsLane) {
  // The card builders write the lane through the family's own field list
  // into a copy of the seed: fitted fields equal the lane's parameters
  // bit for bit, every other field stays the seed's.
  FitCampaignOptions opt;
  opt.threads = 1;
  const auto synthesize = [](const FitCampaign& c,
                             const models::MosfetModel& truth) {
    return [&c, &truth](std::size_t, stats::Rng& rng, FitDataset& d) {
      c.synthesizeDataset(truth, 0.0, rng, d);
    };
  };

  models::VsParams vsSeed;
  vsSeed.rs = 91e-6;
  models::VsParams vsTruth = vsSeed;
  vsTruth.vt0 += 0.02;
  const models::VsModel vsModel(vsTruth);
  const FitCampaign vs(vsSeed, nominalGeom(), vsMeasurementGrid(), opt);
  const FitCampaignResult rv = vs.run(1, 1, synthesize(vs, vsModel));
  const models::VsParams vc = vs.vsCard(rv, 0);
  const auto xv = rv.lane(0);
  EXPECT_EQ(vc.vt0, xv[0]);
  EXPECT_EQ(vc.n0, xv[2]);
  EXPECT_EQ(vc.cinv, xv[6]);
  EXPECT_EQ(vc.rs, vsSeed.rs);
  EXPECT_NEAR(vc.vt0, vsTruth.vt0, 1e-3);

  models::AlphaPowerParams alphaSeed;
  alphaSeed.vSmooth *= 1.5;
  models::AlphaPowerParams alphaTruth = alphaSeed;
  alphaTruth.vth0 += 0.02;
  const models::AlphaPowerModel alphaModel(alphaTruth);
  const FitCampaign alpha(alphaSeed, nominalGeom(), strongInversionGrid(),
                          opt);
  const FitCampaignResult ra = alpha.run(1, 1, synthesize(alpha, alphaModel));
  const models::AlphaPowerParams ac = alpha.alphaCard(ra, 0);
  const auto xa = ra.lane(0);
  EXPECT_EQ(ac.vth0, xa[0]);
  EXPECT_EQ(ac.alphaSat, xa[2]);
  EXPECT_EQ(ac.cg, xa[5]);
  EXPECT_EQ(ac.vSmooth, alphaSeed.vSmooth);
  EXPECT_NEAR(ac.vth0, alphaTruth.vth0, 1e-3);

}

TEST(FitCampaign, RecoversNoiselessTruthWithinFitTolerance) {
  const models::VsParams seed;
  models::VsParams truth = seed;
  truth.vt0 = 0.46;
  truth.mu = 2.3e-2;

  FitCampaignOptions opt;
  opt.threads = 1;
  opt.maxIterations = 120;
  const FitCampaign c(seed, nominalGeom(), vsMeasurementGrid(), opt);
  const FitCampaignResult r =
      c.run(2, 1, vsPopulation(c, truth, 0.0, 0.0));

  for (std::size_t lane = 0; lane < r.laneCount; ++lane) {
    EXPECT_TRUE(r.outcomes[lane] == FitOutcome::converged ||
                r.outcomes[lane] == FitOutcome::stalled)
        << toString(r.outcomes[lane]);
    EXPECT_LT(r.cost[lane], 1e-6);
    const models::VsParams fitted = c.vsCard(r, lane);
    EXPECT_NEAR(fitted.vt0, truth.vt0, 0.02 * truth.vt0);
  }
}

TEST(FitCampaign, BoundPinnedLanesAreReportedNeverViolated) {
  const models::VsParams seed;
  // Truth vt0 far above the family's physical box (hi = 0.65): the optimum
  // presses against the bound; the engine must clamp there and say so.
  models::VsParams truth = seed;
  truth.vt0 = 0.72;

  FitCampaignOptions opt;
  opt.threads = 1;
  const FitCampaign c(seed, nominalGeom(), vsMeasurementGrid(), opt);
  const FitCampaignResult r =
      c.run(3, 5, vsPopulation(c, truth, 0.0, 0.0));

  // Family box, same order as the campaign's parameter vector.
  const double lo[7] = {0.15, 0.04, 1.22, 0.4e5, 0.6e-2, 1.2, 1.0e-2};
  const double hi[7] = {0.65, 0.25, 1.90, 2.5e5, 5.0e-2, 2.8, 2.6e-2};
  for (std::size_t lane = 0; lane < r.laneCount; ++lane) {
    const auto x = r.lane(lane);
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_GE(x[j], lo[j]);
      EXPECT_LE(x[j], hi[j]);
    }
    EXPECT_EQ(r.outcomes[lane], FitOutcome::boundPinned)
        << toString(r.outcomes[lane]) << " iters=" << r.iterations[lane]
        << " cost=" << r.cost[lane] << " mask=" << r.boundMask[lane];
    EXPECT_NE(r.boundMask[lane], 0u);
    EXPECT_EQ(c.vsCard(r, lane).vt0, hi[0]);  // clamped exactly on the bound
  }
  EXPECT_EQ(r.outcomeCounts[static_cast<int>(FitOutcome::boundPinned)], 3);
}

TEST(FitCampaign, BitIdenticalAcrossWorkerCounts) {
  const models::VsParams seed;
  models::VsParams truth = seed;
  truth.vt0 = 0.44;

  std::vector<std::uint64_t> hashes;
  for (const unsigned threads : {1u, 2u, 4u}) {
    FitCampaignOptions opt;
    opt.threads = threads;
    const FitCampaign c(seed, nominalGeom(), vsMeasurementGrid(), opt);
    const FitCampaignResult r =
        c.run(16, 1234, vsPopulation(c, truth, 0.02, 0.01));
    hashes.push_back(r.paramsFnv1a());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

TEST(FitCampaign, FastNumericsBitIdenticalAcrossWorkerCountsAndTolerant) {
  const models::VsParams seed;
  models::VsParams truth = seed;
  truth.vt0 = 0.44;

  FitCampaignOptions ref;
  ref.threads = 1;
  const FitCampaign cr(seed, nominalGeom(), vsMeasurementGrid(), ref);
  const FitCampaignResult rr =
      cr.run(12, 77, vsPopulation(cr, truth, 0.01, 0.005));

  std::vector<std::uint64_t> hashes;
  FitCampaignResult fast;
  for (const unsigned threads : {1u, 4u}) {
    FitCampaignOptions opt;
    opt.threads = threads;
    opt.numerics = models::NumericsMode::fast;
    const FitCampaign c(seed, nominalGeom(), vsMeasurementGrid(), opt);
    fast = c.run(12, 77, vsPopulation(c, truth, 0.01, 0.005));
    hashes.push_back(fast.paramsFnv1a());
  }
  // Fast mode is deterministic (same bits per worker count)...
  EXPECT_EQ(hashes[0], hashes[1]);
  // ...and agrees with reference within fit tolerance, not bit identity:
  // both campaigns extract cards that match to a fraction of the noise.
  EXPECT_GE(fast.convergedFraction(), 0.9);
  for (std::size_t lane = 0; lane < fast.laneCount; ++lane) {
    if (fast.outcomes[lane] != FitOutcome::converged ||
        rr.outcomes[lane] != FitOutcome::converged)
      continue;
    EXPECT_NEAR(fast.lane(lane)[0], rr.lane(lane)[0],
                0.02 * std::fabs(rr.lane(lane)[0]));
  }
}

TEST(FitCampaign, BadDataLaneIsClassifiedNotFatal) {
  const models::VsParams seed;
  FitCampaignOptions opt;
  opt.threads = 2;
  const FitCampaign c(seed, nominalGeom(), vsMeasurementGrid(), opt);

  const auto data = [&c, seed](std::size_t lane, stats::Rng& rng,
                               FitDataset& d) {
    const models::VsModel m(seed);
    c.synthesizeDataset(m, 0.01, rng, d);
    if (lane == 2) {
      // An unmeasurable die: NaN currents must classify as a non-finite
      // lane, not poison the campaign.
      d.values[3] = std::numeric_limits<double>::quiet_NaN();
    }
  };
  const FitCampaignResult r = c.run(6, 21, data);

  EXPECT_EQ(r.outcomes[2], FitOutcome::nonFinite);
  EXPECT_EQ(r.outcomeCounts[static_cast<int>(FitOutcome::nonFinite)], 1);
  EXPECT_TRUE(std::isnan(r.cost[2]));
  ASSERT_TRUE(r.firstFailure.valid);
  EXPECT_EQ(r.firstFailure.lane, 2u);
  EXPECT_EQ(r.firstFailure.outcome, FitOutcome::nonFinite);
  EXPECT_FALSE(r.firstFailure.message.empty());
  // The failed lane reports the (clamped) seed card, inside the box.
  EXPECT_EQ(c.vsCard(r, 2).vt0, seed.vt0);
  // Everyone else still extracted.
  EXPECT_GE(r.outcomeCounts[static_cast<int>(FitOutcome::converged)] +
                r.outcomeCounts[static_cast<int>(FitOutcome::boundPinned)],
            5);
}

TEST(FitCampaign, SigmaRoundTripsThroughExtraction) {
  const models::VsParams seed;
  const double sigmaIn = 0.02;  // 20 mV vt0 spread across the population

  FitCampaignOptions opt;
  opt.threads = 0;  // hardware concurrency; result is worker-invariant
  const FitCampaign c(seed, nominalGeom(), vsMeasurementGrid(), opt);
  const FitCampaignResult r =
      c.run(160, 4242, vsPopulation(c, seed, sigmaIn, 0.004));

  EXPECT_GE(r.convergedFraction(), 0.95);
  double sum = 0.0, sumSq = 0.0;
  std::size_t used = 0;
  for (std::size_t lane = 0; lane < r.laneCount; ++lane) {
    if (r.outcomes[lane] != FitOutcome::converged &&
        r.outcomes[lane] != FitOutcome::boundPinned)
      continue;
    const double vt0 = r.lane(lane)[0];
    sum += vt0;
    sumSq += vt0 * vt0;
    ++used;
  }
  ASSERT_GT(used, 100u);
  const double mean = sum / static_cast<double>(used);
  const double var = sumSq / static_cast<double>(used) - mean * mean;
  const double sigmaOut = std::sqrt(std::max(var, 0.0));
  EXPECT_NEAR(mean, seed.vt0, 0.01);
  EXPECT_NEAR(sigmaOut, sigmaIn, 0.25 * sigmaIn);
}

TEST(FitCampaign, ValidatesConstruction) {
  const models::VsParams seed;
  MeasurementGrid empty;
  EXPECT_THROW(FitCampaign(seed, nominalGeom(), empty), InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::extract
