#include "extract/fit.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "extract/fit_campaign.hpp"
#include "measure/device_metrics.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::extract {

namespace {

// Anchor targets: the BPV electrical targets e_i = {Idsat, log10(Ioff),
// Cgg} must be matched tightly at the reference geometry, since the
// extraction sensitivities are evaluated on this card.  The model and
// golden transport formulations cannot agree everywhere, so the anchors get
// heavy weights and the curve-shape residuals moderate ones; the single Cgg
// point counts like a few I-V points rather than being drowned out.
constexpr double kCggWeight = 4.0;
constexpr double kIdsatWeight = 8.0;
constexpr double kIoffWeight = 5.0;

// Measurement grid: Id-Vg and Id-Vd pitches, linear-region drain bias [V].
constexpr double kVgsStep = 0.05;
constexpr double kVdsStep = 0.05;
constexpr double kVdsLin = 0.05;

// LM iteration budget of a nominal fit.
constexpr int kMaxIterations = 300;

struct NominalRun {
  FitCampaignResult result;
  bool converged = false;
};

/// Runs `campaign` as one lane on the golden model's data, measured through
/// the campaign's own grid; a failed lane rethrows as the solver's error.
NominalRun runNominal(const FitCampaign& campaign,
                      const models::MosfetModel& golden, const char* who) {
  FitDataset data;
  stats::Rng noiseless(0);  // noiseRel = 0 draws nothing
  campaign.synthesizeDataset(golden, 0.0, noiseless, data);
  for (const double v : data.values) {
    if (!(v > 0.0))
      throw InvalidArgumentError(std::string(who) +
                                 ": golden data must be > 0");
  }
  NominalRun run;
  run.result = campaign.run(
      1, 0, [&data](std::size_t, stats::Rng&, FitDataset& d) {
        d.values = data.values;
      });

  const FitCampaignResult& r = run.result;
  if (r.firstFailure.valid) {
    if (r.firstFailure.outcome == FitOutcome::singularJtJ)
      throw SingularMatrixError(
          std::string(who) + ": singular normal equations", r.iterations[0]);
    throw NonFiniteError(std::string(who) + ": " + r.firstFailure.message);
  }
  // LM stops inside its budget only on a convergence test (gradient, step
  // or stall).  Cross-family fits approach their floor asymptotically and
  // can exhaust the budget before those fire; a large cost reduction with
  // intact anchors is still a converged fit.
  run.converged = r.iterations[0] < campaign.options().maxIterations ||
                  r.cost[0] < 0.2 * r.initialCost[0];
  return run;
}

/// RMS drain-current error of the fitted card against the golden one over
/// grid points [begin, end): ln(Id_fit / Id_golden) on log points,
/// relative error otherwise.
double rmsIdError(const models::MosfetModel& fitted,
                  const models::MosfetModel& golden,
                  const models::DeviceGeometry& geom,
                  const MeasurementGrid& grid, std::size_t begin,
                  std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const IvPoint& p = grid.points[i];
    const double id = fitted.drainCurrent(geom, p.vgs, p.vds);
    const double ref = golden.drainCurrent(geom, p.vgs, p.vds);
    const double e = p.quantity == Quantity::logId
                         ? std::log(std::max(id, 1e-18) / ref)
                         : id / ref - 1.0;
    sum += e * e;
  }
  return std::sqrt(sum / static_cast<double>(std::max<std::size_t>(
                             end - begin, 1)));
}

}  // namespace

IvFitResult fitVsToGolden(const models::VsParams& seed,
                          const models::MosfetModel& golden,
                          const models::DeviceGeometry& geom,
                          const FitOptions& options) {
  require(options.vdd > 0.0, "fitVsToGolden: vdd must be positive");
  const double vdd = options.vdd;
  constexpr double kLogWeight = 0.55;
  constexpr double kRelWeight = 1.5;

  MeasurementGrid grid;
  // Id-Vg at linear and saturation drain bias: log-space residuals.
  for (double vgs = 0.10; vgs <= vdd + 1e-9; vgs += kVgsStep) {
    grid.points.push_back({vgs, kVdsLin, Quantity::logId, kLogWeight});
    grid.points.push_back({vgs, vdd, Quantity::logId, kLogWeight});
  }
  const std::size_t idVgEnd = grid.points.size();
  // Id-Vd family at three gate biases: relative residuals.
  for (const double vgs : {0.5, 0.7, 0.9}) {
    for (double vds = kVdsStep; vds <= vdd + 1e-9; vds += kVdsStep)
      grid.points.push_back({vgs, vds, Quantity::relId, kRelWeight});
  }
  const std::size_t idVdEnd = grid.points.size();
  // The BPV anchors: Cgg at measure::cggAtVdd's bias, Idsat, log Ioff.
  grid.points.push_back({vdd, 0.0, Quantity::cgg, kCggWeight});
  grid.points.push_back({vdd, vdd, Quantity::relId, kIdsatWeight});
  grid.points.push_back({0.0, vdd, Quantity::logId, kIoffWeight});

  FitCampaignOptions campaignOptions;
  campaignOptions.maxIterations = kMaxIterations;
  const FitCampaign campaign(seed, geom, std::move(grid), campaignOptions);
  const NominalRun run = runNominal(campaign, golden, "fitVsToGolden");

  IvFitResult result;
  result.card = campaign.vsCard(run.result, 0);
  result.iterations = run.result.iterations[0];
  result.converged = run.converged;

  // Report region-wise errors on the final card.
  const models::VsModel fitted(result.card);
  result.rmsLogIdVg =
      rmsIdError(fitted, golden, geom, campaign.grid(), 0, idVgEnd);
  result.rmsRelIdVd =
      rmsIdError(fitted, golden, geom, campaign.grid(), idVgEnd, idVdEnd);
  result.relCggError = measure::cggAtVdd(fitted, geom, vdd) /
                           measure::cggAtVdd(golden, geom, vdd) -
                       1.0;
  return result;
}

AlphaFitResult fitAlphaPowerToGolden(const models::AlphaPowerParams& seed,
                                     const models::MosfetModel& golden,
                                     const models::DeviceGeometry& geom,
                                     const FitOptions& options) {
  require(options.vdd > 0.0, "fitAlphaPowerToGolden: vdd must be positive");
  const double vdd = options.vdd;

  // Strong-inversion grid only: Id-Vg from ~threshold-plus up to Vdd at two
  // drain biases, plus the Id-Vd family.  No subthreshold points -- the
  // model has nothing to fit there.  Every Id point weighs 1; the grid's
  // closing Cgg point moves to the BPV target's bias (Vdd, 0), and the
  // Idsat anchor follows it.
  MeasurementGrid grid =
      strongInversionGrid(vdd, kVgsStep, kVdsStep, kVdsLin);
  for (IvPoint& p : grid.points) p.weight = 1.0;
  grid.points.back() = {vdd, 0.0, Quantity::cgg, kCggWeight};
  const std::size_t idVdEnd = grid.points.size() - 1;
  grid.points.push_back({vdd, vdd, Quantity::relId, kIdsatWeight});
  // strongInversionGrid opens with its Id-Vg scan: two drain biases per
  // gate bias, gate biases from 0.45 Vdd in kVgsStep steps.
  std::size_t idVgEnd = 0;
  for (double vgs = 0.45 * vdd; vgs <= vdd + 1e-9; vgs += kVgsStep)
    idVgEnd += 2;

  FitCampaignOptions campaignOptions;
  campaignOptions.maxIterations = kMaxIterations;
  const FitCampaign campaign(seed, geom, std::move(grid), campaignOptions);
  const NominalRun run = runNominal(campaign, golden, "fitAlphaPowerToGolden");

  AlphaFitResult result;
  result.card = campaign.alphaCard(run.result, 0);
  result.iterations = run.result.iterations[0];
  result.converged = run.converged;

  const models::AlphaPowerModel fitted(result.card);
  result.rmsRelIdVg =
      rmsIdError(fitted, golden, geom, campaign.grid(), 0, idVgEnd);
  result.rmsRelIdVd =
      rmsIdError(fitted, golden, geom, campaign.grid(), idVgEnd, idVdEnd);
  result.relCggError = measure::cggAtVdd(fitted, geom, vdd) /
                           measure::cggAtVdd(golden, geom, vdd) -
                       1.0;
  return result;
}

}  // namespace vsstat::extract
