// Multi-fit extraction engine: every compact-model card fit in the library
// runs here, from the one-lane nominal Fig. 1 fits (extract/fit.hpp) to
// thousands of per-die re-extractions in one campaign.
//
// The paper's actual pipeline is measure -> extract VS cards -> statistical
// model -> yield.  Production-volume extraction (per-die, per-corner) means
// thousands of small box-bounded Levenberg-Marquardt fits, each over a few
// dozen I-V/C-V points -- the exact shape of FEBioVFM's ConstrainedLevmar
// driver and Gpufit's LMFitCPP.  Here each fit is an independent *lane*:
//
//   * the measurement plan is a list of weighted points; each names the
//     quantity it measures at its own bias -- log Id, relative Id, or Cgg
//     -- and contributes one residual, weight * (model vs measured).
//   * residual/Jacobian evaluation routes through models::MosfetLoadBank --
//     one bank per worker whose bank-lanes are the measurement points of
//     the device under fit, all referencing one worker-owned card that the
//     optimizer rewrites (and rebindUniform re-derives) between
//     iterations.  Under NumericsMode::fast the VS bank batches the whole
//     grid through the SIMD chain; under reference (the default) the bank
//     is bit-identical to scalar evaluateLoad, a contract the
//     ModelContract tests pin (tests/models/test_model_contract.cpp).
//   * linalg::levenbergMarquardt runs in its allocation-free workspace form
//     with per-family box bounds, so extracted cards stay physical.
//   * lanes are scheduled over the persistent util::ThreadPool with
//     per-worker engines and fork-per-lane RNG: results are bit-identical
//     across 1/2/4 workers by construction.
//   * every lane lands in a FitOutcome taxonomy (converged / bound-pinned /
//     stalled / singular-JtJ / non-finite) mirroring the SampleFailure
//     discipline -- a bad lane is classified and counted, never garbage.
//
// Numerics contract: extraction carries a FIT TOLERANCE, not a bit-identity
// contract -- the acceptance question is "does the fitted card reproduce
// the data within the fit residual", so NumericsMode::fast is a legitimate
// throughput mode here.  Reference numerics stays the default.
#ifndef VSSTAT_EXTRACT_FIT_CAMPAIGN_HPP
#define VSSTAT_EXTRACT_FIT_CAMPAIGN_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/levmar.hpp"
#include "models/alpha_power.hpp"
#include "models/device.hpp"
#include "models/vs_params.hpp"
#include "stats/rng.hpp"

namespace vsstat::extract {

/// Which compact-model card family a campaign extracts.
enum class CardFamily { vs, alphaPower };

/// Per-lane fit classification.  The first two are successful extractions
/// (boundPinned means the optimum pressed against the physical box -- the
/// card is valid but the data wants parameters outside it); the last three
/// mirror the SampleFailure discipline of mc::McResult.
enum class FitOutcome : int {
  converged = 0,   ///< formal convergence criteria met, interior solution
  boundPinned,     ///< finished with >=1 parameter exactly on a box bound
  stalled,         ///< no damped step improved the cost / budget exhausted
  singularJtJ,     ///< damped normal equations singular at every damping level
  nonFinite,       ///< residual/Jacobian went non-finite (bad data, blow-up)
};
inline constexpr int kFitOutcomeCount = 5;

[[nodiscard]] const char* toString(FitOutcome o) noexcept;

/// What a measurement point observes, and how its residual compares the
/// model value m with the measured value d.
enum class Quantity {
  logId,  ///< drain current, weight * ln(max(m, 1e-18) / d): subthreshold
          ///< decades count
  relId,  ///< drain current, weight * (m / d - 1)
  cgg,    ///< gate capacitance dQg/dVgs, weight * (m / d - 1)
};

/// One measurement point: a bias, the quantity measured there, and the
/// weight of its residual.
struct IvPoint {
  double vgs = 0.0;
  double vds = 0.0;
  Quantity quantity = Quantity::relId;
  double weight = 1.0;
};

/// The measurement plan every lane shares: one residual per point, in
/// point order.
struct MeasurementGrid {
  std::vector<IvPoint> points;
};

/// The full-pipeline VS plan: a two-bias Id-Vg scan (log Id, weight 0.55),
/// a three-gate-bias Id-Vd family (relative Id, weight 1.5), and a closing
/// Cgg point at (vdd, vdd), weight 4.
[[nodiscard]] MeasurementGrid vsMeasurementGrid(double vdd = 0.9,
                                                double vgsStep = 0.1,
                                                double vdsStep = 0.1,
                                                double vdsLin = 0.05);

/// Strong-inversion-only plan for families with no subthreshold conduction
/// to fit (alpha-power law): the same two scans from 0.45 vdd up, all
/// relative Id at weight 1.5, and the closing Cgg point at (vdd, vdd),
/// weight 4.
[[nodiscard]] MeasurementGrid strongInversionGrid(double vdd = 0.9,
                                                  double vgsStep = 0.1,
                                                  double vdsStep = 0.1,
                                                  double vdsLin = 0.05);

/// One lane's measurements: values[i] is the measured quantity of grid
/// point i (drain current [A] or Cgg [F]).
struct FitDataset {
  std::vector<double> values;
};

struct FitCampaignOptions {
  int maxIterations = 60;  ///< LM budget per lane
  unsigned threads = 0;  ///< parallelFor workers; 0 = hardware concurrency
  models::NumericsMode numerics = models::NumericsMode::reference;
};

/// Campaign output: a bank of fitted cards (lane-major parameter storage)
/// plus the per-lane outcome taxonomy and telemetry.  Lane i's card is
/// reconstructed with FitCampaign::{vs,alpha}Card(result, i).
struct FitCampaignResult {
  std::size_t laneCount = 0;
  std::size_t paramCount = 0;
  std::vector<double> params;  ///< laneCount x paramCount, lane-major
  std::vector<FitOutcome> outcomes;
  std::vector<double> cost;        ///< final 0.5||r||^2 (NaN on failed lanes)
  std::vector<double> initialCost; ///< 0.5||r||^2 at the seed (NaN if failed)
  std::vector<std::int32_t> iterations;
  std::vector<std::uint32_t> boundMask;  ///< bit j: param j pinned at a bound
  std::array<int, kFitOutcomeCount> outcomeCounts{};
  std::uint64_t totalLmIterations = 0;

  /// First failed lane (singular-JtJ or non-finite), by lane index --
  /// deterministic regardless of worker count.
  struct FirstFailure {
    bool valid = false;
    std::size_t lane = 0;
    FitOutcome outcome = FitOutcome::converged;
    std::string message;
  } firstFailure;

  [[nodiscard]] std::span<const double> lane(std::size_t i) const {
    return {params.data() + i * paramCount, paramCount};
  }
  /// Fraction of lanes that extracted a valid card (converged + pinned).
  [[nodiscard]] double convergedFraction() const noexcept;
  [[nodiscard]] double meanIterationsPerFit() const noexcept;
  /// FNV-1a over every lane's outcome, bound mask, iteration count and
  /// fitted parameter bits: equal hashes mean bit-identical campaigns
  /// (the 1/2/4-worker scaling smoke compares exactly this).
  [[nodiscard]] std::uint64_t paramsFnv1a() const noexcept;
};

/// The multi-fit engine.  Construct once per extraction plan (family seed
/// card, geometry, measurement grid), then run() any number of campaigns.
/// Thread-safe for the duration of run(): per-worker state lives in
/// worker-local engines, the campaign object itself is read-only.
class FitCampaign {
 public:
  FitCampaign(const models::VsParams& seed, models::DeviceGeometry geometry,
              MeasurementGrid grid, FitCampaignOptions options = {});
  FitCampaign(const models::AlphaPowerParams& seed,
              models::DeviceGeometry geometry, MeasurementGrid grid,
              FitCampaignOptions options = {});
  ~FitCampaign();

  FitCampaign(const FitCampaign&) = delete;
  FitCampaign& operator=(const FitCampaign&) = delete;

  [[nodiscard]] const MeasurementGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const FitCampaignOptions& options() const noexcept {
    return options_;
  }

  /// Produces lane `lane`'s measurements.  Called once per lane with a
  /// decorrelated child RNG (root.fork(lane)), so datasets -- and therefore
  /// results -- are bit-identical across worker counts.  `dataset.values`
  /// is pre-sized to the grid.
  using DatasetFn =
      std::function<void(std::size_t lane, stats::Rng& rng, FitDataset& dataset)>;

  /// Runs `laneCount` independent fits over the thread pool.
  [[nodiscard]] FitCampaignResult run(std::size_t laneCount, std::uint64_t seed,
                                      const DatasetFn& makeDataset) const;

  /// Synthesizes one lane's dataset from a truth card: evaluates the truth
  /// model at every grid point (evaluateLoad's at.id for current points,
  /// its dqgVgs for Cgg points -- the values the fit compares against) and
  /// applies multiplicative log-normal measurement noise of relative sigma
  /// `noiseRel` (0 = noiseless, no draws), one draw per point in order.
  void synthesizeDataset(const models::MosfetModel& truth, double noiseRel,
                         stats::Rng& rng, FitDataset& out) const;

  /// Reconstructs lane i's fitted card (campaign family must match).
  [[nodiscard]] models::VsParams vsCard(const FitCampaignResult& r,
                                        std::size_t lane) const;
  [[nodiscard]] models::AlphaPowerParams alphaCard(const FitCampaignResult& r,
                                                   std::size_t lane) const;

 private:
  friend struct LaneEngine;

  void finishInit();

  std::uint64_t id_ = 0;  ///< process-unique, keys the worker engine cache
  CardFamily family_;
  models::DeviceGeometry geometry_;
  MeasurementGrid grid_;
  FitCampaignOptions options_;
  linalg::LevMarOptions lmOptions_;  ///< family box + maxIterations
  std::unique_ptr<models::MosfetModel> seed_;  ///< prototype card
  linalg::Vector x0_;                          ///< clamped seed parameters
};

}  // namespace vsstat::extract

#endif  // VSSTAT_EXTRACT_FIT_CAMPAIGN_HPP
