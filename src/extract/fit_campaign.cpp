#include "extract/fit_campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "models/alpha_power.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"
#include "util/fnv1a.hpp"
#include "util/thread_pool.hpp"

namespace vsstat::extract {

namespace {

/// Forward-difference step of every Newton-load evaluation in a campaign --
/// shared by synthesis and fitting so a noiseless synthetic lane has an
/// exactly-zero residual at the truth card.
constexpr double kLoadFdStep = 1e-3;

/// Log-space residuals floor the model current here so a card driven deep
/// below threshold produces a large finite residual, not -inf.
constexpr double kIdFloor = 1e-18;

/// Residual weights of the stock grids: log Id, relative Id, Cgg.
constexpr double kLogIdWeight = 0.55;
constexpr double kRelIdWeight = 1.5;
constexpr double kCggWeight = 4.0;

/// Family adapter: the bijection between a card's fitted fields and the
/// optimizer's parameter vector, plus the family's physical box.
struct FamilySpec {
  std::size_t n = 0;
  const double* lo = nullptr;
  const double* hi = nullptr;
  void (*read)(const models::MosfetModel&, linalg::Vector&) = nullptr;
  void (*write)(std::span<const double>, models::MosfetModel&) = nullptr;
};

// --- VS family: [vt0, delta0, n0, vxo, mu, beta, cinv] ----------------------
constexpr std::size_t kVsN = 7;
constexpr double kVsLo[kVsN] = {0.15, 0.04, 1.22, 0.4e5, 0.6e-2, 1.2, 1.0e-2};
constexpr double kVsHi[kVsN] = {0.65, 0.25, 1.90, 2.5e5, 5.0e-2, 2.8, 2.6e-2};

void vsRead(const models::MosfetModel& m, linalg::Vector& x) {
  const models::VsParams& p = static_cast<const models::VsModel&>(m).params();
  x[0] = p.vt0;
  x[1] = p.delta0;
  x[2] = p.n0;
  x[3] = p.vxo;
  x[4] = p.mu;
  x[5] = p.beta;
  x[6] = p.cinv;
}

void vsWrite(std::span<const double> x, models::MosfetModel& m) {
  models::VsParams& p = static_cast<models::VsModel&>(m).mutableParams();
  p.vt0 = x[0];
  p.delta0 = x[1];
  p.n0 = x[2];
  p.vxo = x[3];
  p.mu = x[4];
  p.beta = x[5];
  p.cinv = x[6];
}

// --- alpha-power family: [vth0, delta0, alphaSat, kSat, kV, cg] -------------
constexpr std::size_t kAlphaN = 6;
constexpr double kAlphaLo[kAlphaN] = {0.10, 0.00, 1.0, 1e2, 0.3, 0.5e-2};
constexpr double kAlphaHi[kAlphaN] = {0.55, 0.30, 2.0, 5e3, 2.5, 3.0e-2};

void alphaRead(const models::MosfetModel& m, linalg::Vector& x) {
  const models::AlphaPowerParams& p =
      static_cast<const models::AlphaPowerModel&>(m).params();
  x[0] = p.vth0;
  x[1] = p.delta0;
  x[2] = p.alphaSat;
  x[3] = p.kSat;
  x[4] = p.kV;
  x[5] = p.cg;
}

void alphaWrite(std::span<const double> x, models::MosfetModel& m) {
  models::AlphaPowerParams& p =
      static_cast<models::AlphaPowerModel&>(m).mutableParams();
  p.vth0 = x[0];
  p.delta0 = x[1];
  p.alphaSat = x[2];
  p.kSat = x[3];
  p.kV = x[4];
  p.cg = x[5];
}

const FamilySpec& specFor(CardFamily family) noexcept {
  static const FamilySpec vs{kVsN, kVsLo, kVsHi, &vsRead, &vsWrite};
  static const FamilySpec alpha{kAlphaN, kAlphaLo, kAlphaHi, &alphaRead,
                                &alphaWrite};
  switch (family) {
    case CardFamily::vs: return vs;
    case CardFamily::alphaPower: return alpha;
  }
  return vs;
}

}  // namespace

const char* toString(FitOutcome o) noexcept {
  switch (o) {
    case FitOutcome::converged: return "converged";
    case FitOutcome::boundPinned: return "bound-pinned";
    case FitOutcome::stalled: return "stalled";
    case FitOutcome::singularJtJ: return "singular-jtj";
    case FitOutcome::nonFinite: return "non-finite";
  }
  return "unknown";
}

MeasurementGrid vsMeasurementGrid(double vdd, double vgsStep, double vdsStep,
                                  double vdsLin) {
  MeasurementGrid g;
  // Id-Vg transfer scan at linear and saturation drain bias, log space so
  // subthreshold decades carry weight (the paper fits Ioff AND Ion).
  for (double vgs = 0.10; vgs <= vdd + 1e-9; vgs += vgsStep) {
    g.points.push_back({vgs, vdsLin, Quantity::logId, kLogIdWeight});
    g.points.push_back({vgs, vdd, Quantity::logId, kLogIdWeight});
  }
  // Id-Vd output family at three gate overdrives, relative space.
  for (const double frac : {0.56, 0.78, 1.0}) {
    const double vgs = frac * vdd;
    for (double vds = vdsStep; vds <= vdd + 1e-9; vds += vdsStep)
      g.points.push_back({vgs, vds, Quantity::relId, kRelIdWeight});
  }
  g.points.push_back({vdd, vdd, Quantity::cgg, kCggWeight});
  return g;
}

MeasurementGrid strongInversionGrid(double vdd, double vgsStep, double vdsStep,
                                    double vdsLin) {
  MeasurementGrid g;
  for (double vgs = 0.45 * vdd; vgs <= vdd + 1e-9; vgs += vgsStep) {
    g.points.push_back({vgs, vdsLin, Quantity::relId, kRelIdWeight});
    g.points.push_back({vgs, vdd, Quantity::relId, kRelIdWeight});
  }
  for (const double frac : {0.6, 0.8, 1.0}) {
    const double vgs = frac * vdd;
    for (double vds = vdsStep; vds <= vdd + 1e-9; vds += vdsStep)
      g.points.push_back({vgs, vds, Quantity::relId, kRelIdWeight});
  }
  g.points.push_back({vdd, vdd, Quantity::cgg, kCggWeight});
  return g;
}

double FitCampaignResult::convergedFraction() const noexcept {
  if (laneCount == 0) return 1.0;
  const int good = outcomeCounts[static_cast<int>(FitOutcome::converged)] +
                   outcomeCounts[static_cast<int>(FitOutcome::boundPinned)];
  return static_cast<double>(good) / static_cast<double>(laneCount);
}

double FitCampaignResult::meanIterationsPerFit() const noexcept {
  if (laneCount == 0) return 0.0;
  return static_cast<double>(totalLmIterations) /
         static_cast<double>(laneCount);
}

std::uint64_t FitCampaignResult::paramsFnv1a() const noexcept {
  util::Fnv1a h;
  h.mix(laneCount);
  h.mix(paramCount);
  for (std::size_t i = 0; i < laneCount; ++i) {
    h.mix(static_cast<std::uint64_t>(static_cast<int>(outcomes[i])));
    h.mix(boundMask[i]);
    h.mix(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(iterations[i])));
    h.mixDouble(cost[i]);
  }
  for (double v : params) h.mixDouble(v);
  return h.value();
}

/// Per-worker fit state: the worker-owned card, the measurement-point
/// device bank over it, the solver workspace and the lane dataset.  One
/// engine is materialized lazily per (worker thread, run) and reused for
/// every lane that worker executes, so a steady-state fit allocates nothing.
struct LaneEngine {
  explicit LaneEngine(const FitCampaign& campaign)
      : owner(&campaign),
        spec(specFor(campaign.family_)),
        model(campaign.seed_->clone()),
        pointCount(campaign.grid_.points.size()) {
    vgs.resize(pointCount);
    vds.resize(pointCount);
    evals.resize(pointCount);
    for (std::size_t i = 0; i < pointCount; ++i) {
      vgs[i] = campaign.grid_.points[i].vgs;
      vds[i] = campaign.grid_.points[i].vds;
    }
    bank = models::makeUniformLoadBank(*model, campaign.geometry_, pointCount,
                                       campaign.options_.numerics);
    dataset.values.resize(pointCount);
    residual = [this](const linalg::Vector& x, linalg::Vector& r) {
      response(x, r);
    };
  }

  /// The campaign residual: write the trial parameters into the worker
  /// card, re-derive the bank ONCE for all point lanes (rebindUniform),
  /// evaluate the whole grid in one batched call, then weigh each point's
  /// measured quantity against the dataset.
  void response(const linalg::Vector& x, linalg::Vector& r) {
    spec.write(x, *model);
    require(bank->rebindUniform(*model, owner->geometry_),
            "FitCampaign: bank rejected its own card type");
    bank->evaluateLoadBatch(vgs, vds, kLoadFdStep, evals);
    const std::vector<IvPoint>& points = owner->grid_.points;
    for (std::size_t i = 0; i < pointCount; ++i) {
      const IvPoint& p = points[i];
      const double d = dataset.values[i];
      switch (p.quantity) {
        case Quantity::logId:
          r[i] = p.weight * std::log(std::max(evals[i].at.id, kIdFloor) / d);
          break;
        case Quantity::relId:
          r[i] = p.weight * (evals[i].at.id / d - 1.0);
          break;
        case Quantity::cgg:
          r[i] = p.weight * (evals[i].dqgVgs / d - 1.0);
          break;
      }
    }
  }

  const FitCampaign* owner;
  const FamilySpec& spec;
  std::unique_ptr<models::MosfetModel> model;
  std::size_t pointCount;
  std::unique_ptr<models::MosfetLoadBank> bank;
  std::vector<double> vgs, vds;
  std::vector<models::MosfetLoadEvaluation> evals;
  FitDataset dataset;
  linalg::LevMarWorkspace ws;
  linalg::LevMarResult lm;
  linalg::ResidualFn residual;
};

namespace {

/// Worker-local engine cache, keyed by the campaign's process-unique
/// instance id.  Ids are never reissued, so an engine built for a destroyed
/// campaign can never be mistaken for the current one -- and repeated run()
/// calls on the SAME campaign reuse the worker's engine, keeping the
/// steady-state batch path allocation-free.
struct EngineSlot {
  std::uint64_t campaignId = 0;
  std::unique_ptr<LaneEngine> engine;
};
thread_local EngineSlot tEngineSlot;
std::atomic<std::uint64_t> gCampaignCounter{0};

FitOutcome outcomeForFailure(FailureClass c) noexcept {
  switch (c) {
    case FailureClass::singular: return FitOutcome::singularJtJ;
    case FailureClass::nonFinite: return FitOutcome::nonFinite;
    default: return FitOutcome::stalled;
  }
}

}  // namespace

FitCampaign::FitCampaign(const models::VsParams& seed,
                         models::DeviceGeometry geometry, MeasurementGrid grid,
                         FitCampaignOptions options)
    : family_(CardFamily::vs),
      geometry_(geometry),
      grid_(std::move(grid)),
      options_(std::move(options)),
      seed_(std::make_unique<models::VsModel>(seed)) {
  finishInit();
}

FitCampaign::FitCampaign(const models::AlphaPowerParams& seed,
                         models::DeviceGeometry geometry, MeasurementGrid grid,
                         FitCampaignOptions options)
    : family_(CardFamily::alphaPower),
      geometry_(geometry),
      grid_(std::move(grid)),
      options_(std::move(options)),
      seed_(std::make_unique<models::AlphaPowerModel>(seed)) {
  finishInit();
}

FitCampaign::~FitCampaign() = default;

void FitCampaign::finishInit() {
  id_ = gCampaignCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  require(!grid_.points.empty(), "FitCampaign: measurement grid is empty");
  require(geometry_.width > 0.0 && geometry_.length > 0.0,
          "FitCampaign: geometry must be positive");
  require(options_.maxIterations > 0,
          "FitCampaign: maxIterations must be positive");
  const FamilySpec& spec = specFor(family_);
  lmOptions_.maxIterations = options_.maxIterations;
  lmOptions_.lowerBounds.assign(spec.lo, spec.lo + spec.n);
  lmOptions_.upperBounds.assign(spec.hi, spec.hi + spec.n);
  x0_.resize(spec.n);
  spec.read(*seed_, x0_);
  for (std::size_t j = 0; j < spec.n; ++j)
    x0_[j] = std::min(std::max(x0_[j], spec.lo[j]), spec.hi[j]);
}

FitCampaignResult FitCampaign::run(std::size_t laneCount, std::uint64_t seed,
                                   const DatasetFn& makeDataset) const {
  require(laneCount > 0, "FitCampaign: need at least one lane");
  require(makeDataset != nullptr, "FitCampaign: null dataset callback");
  const std::size_t n = specFor(family_).n;

  FitCampaignResult res;
  res.laneCount = laneCount;
  res.paramCount = n;
  res.params.resize(laneCount * n);
  res.outcomes.assign(laneCount, FitOutcome::converged);
  res.cost.assign(laneCount, 0.0);
  res.initialCost.assign(laneCount, 0.0);
  res.iterations.assign(laneCount, 0);
  res.boundMask.assign(laneCount, 0);
  // SSO keeps the empty-message common case allocation-free.
  std::vector<std::string> messages(laneCount);

  const stats::Rng root(seed);

  util::parallelFor(
      laneCount,
      [&](std::size_t lane) {
        EngineSlot& slot = tEngineSlot;
        if (slot.campaignId != id_ || slot.engine == nullptr) {
          slot.engine = std::make_unique<LaneEngine>(*this);
          slot.campaignId = id_;
        }
        LaneEngine& e = *slot.engine;

        stats::Rng rng = root.fork(lane);
        makeDataset(lane, rng, e.dataset);
        require(e.dataset.values.size() == e.pointCount,
                "FitCampaign: dataset resized away from the grid");

        double* out = res.params.data() + lane * n;
        const auto fail = [&](FitOutcome outcome, int iterations,
                              const char* what) {
          res.outcomes[lane] = outcome;
          res.iterations[lane] = iterations;
          res.cost[lane] = std::numeric_limits<double>::quiet_NaN();
          res.initialCost[lane] = std::numeric_limits<double>::quiet_NaN();
          res.boundMask[lane] = 0;
          std::copy(x0_.begin(), x0_.end(), out);
          messages[lane] = what;
        };

        try {
          linalg::levenbergMarquardt(e.residual, x0_, e.pointCount,
                                     lmOptions_, e.ws, e.lm);
        } catch (const SingularMatrixError& err) {
          fail(FitOutcome::singularJtJ, err.iterations(), err.what());
          return;
        } catch (const NonFiniteError& err) {
          fail(FitOutcome::nonFinite, 0, err.what());
          return;
        } catch (const SampleFailure& err) {
          // Defensive: any other classified failure still lands in the
          // taxonomy instead of aborting the campaign.
          fail(outcomeForFailure(err.failureClass()), 0, err.what());
          return;
        }

        std::copy(e.lm.x.begin(), e.lm.x.end(), out);
        res.cost[lane] = e.lm.cost;
        res.initialCost[lane] = e.lm.initialCost;
        res.iterations[lane] = e.lm.iterations;
        res.boundMask[lane] = e.lm.activeBounds;
        if (e.lm.activeBounds != 0) {
          // Any non-exception exit on a bound face is bound-pinned: the
          // data wants parameters outside the physical box, whether the
          // solver formally converged there or exhausted its budget
          // crawling along the face (free parameters compensating for the
          // clamped one improve the cost indefinitely but negligibly).
          res.outcomes[lane] = FitOutcome::boundPinned;
        } else if (!e.lm.converged || e.lm.stalled) {
          res.outcomes[lane] = FitOutcome::stalled;
        } else {
          res.outcomes[lane] = FitOutcome::converged;
        }
      },
      options_.threads);

  // Serial reduction keeps the counters and the first-failure pick
  // deterministic regardless of worker count.
  for (std::size_t i = 0; i < laneCount; ++i) {
    ++res.outcomeCounts[static_cast<int>(res.outcomes[i])];
    res.totalLmIterations += static_cast<std::uint64_t>(res.iterations[i]);
    const FitOutcome o = res.outcomes[i];
    if (!res.firstFailure.valid &&
        (o == FitOutcome::singularJtJ || o == FitOutcome::nonFinite)) {
      res.firstFailure.valid = true;
      res.firstFailure.lane = i;
      res.firstFailure.outcome = o;
      res.firstFailure.message = messages[i];
    }
  }
  return res;
}

void FitCampaign::synthesizeDataset(const models::MosfetModel& truth,
                                    double noiseRel, stats::Rng& rng,
                                    FitDataset& out) const {
  const std::size_t count = grid_.points.size();
  out.values.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const IvPoint& p = grid_.points[i];
    const models::MosfetLoadEvaluation ev =
        truth.evaluateLoad(geometry_, p.vgs, p.vds, kLoadFdStep);
    double v = p.quantity == Quantity::cgg ? ev.dqgVgs : ev.at.id;
    if (noiseRel > 0.0) v *= std::exp(noiseRel * rng.normal());
    out.values[i] = v;
  }
}

namespace {

/// Lane `lane`'s fitted model: the family's write over a copy of the seed.
template <class Model>
Model laneModel(const models::MosfetModel& seed, CardFamily family,
                const FitCampaignResult& r, std::size_t lane) {
  Model m = static_cast<const Model&>(seed);
  specFor(family).write(r.lane(lane), m);
  return m;
}

}  // namespace

models::VsParams FitCampaign::vsCard(const FitCampaignResult& r,
                                     std::size_t lane) const {
  require(family_ == CardFamily::vs, "FitCampaign: not a VS-family campaign");
  return laneModel<models::VsModel>(*seed_, family_, r, lane).params();
}

models::AlphaPowerParams FitCampaign::alphaCard(const FitCampaignResult& r,
                                                std::size_t lane) const {
  require(family_ == CardFamily::alphaPower,
          "FitCampaign: not an alpha-power campaign");
  return laneModel<models::AlphaPowerModel>(*seed_, family_, r, lane).params();
}

}  // namespace vsstat::extract
