#include "serve/session_cache.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "mc/providers.hpp"
#include "spice/waveform.hpp"
#include "util/fnv1a.hpp"

namespace vsstat::serve {

namespace {

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// FNV-1a over the deck text's bytes: one multiply per byte.  (Fnv1a::mix
/// spends eight per 64-bit word; it stays as it is because it defines the
/// metrics_fnv1a fingerprints.)
std::uint64_t hashText(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::shared_ptr<const DeckPlan> makeDeckPlan(const std::string& deck,
                                             std::uint64_t textHash) {
  // Classified deck rejects surface here with their 1-based line
  // (spice::NetlistParseError propagates to the server's deck_error
  // frame), before any pool or session is touched.
  auto plan = std::make_shared<DeckPlan>();
  plan->deck = std::make_shared<const spice::Deck>(spice::parseDeck(deck));
  plan->textHash = textHash;
  return plan;
}

void mixAlphas(util::Fnv1a& hash, const models::PelgromAlphas& a) {
  hash.mixDouble(a.aVt0);
  hash.mixDouble(a.aLeff);
  hash.mixDouble(a.aWeff);
  hash.mixDouble(a.aMu);
  hash.mixDouble(a.aCinv);
}

/// Hashes everything that determines a pool's identity: the deck (by its
/// text hash), the three session-mode axes, the variability spec, and the
/// sampling scheme (generator schemes need FixedZProvider sessions, so
/// they cannot share a pool with provider-RNG requests).
std::string cacheKeyOf(const CampaignRequest& req, const DeckPlan& deck) {
  util::Fnv1a hash;
  hash.mix(deck.textHash);
  hash.mix(static_cast<std::uint64_t>(req.mode.numerics));
  hash.mix(static_cast<std::uint64_t>(req.mode.solver));
  hash.mix(static_cast<std::uint64_t>(req.mode.tier));
  hash.mix(static_cast<std::uint64_t>(req.scheme));
  mixAlphas(hash, req.nmosAlphas);
  mixAlphas(hash, req.pmosAlphas);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash.value()));
  return buf;
}

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::shared_ptr<const DeckPlan> parseDeckPlan(const std::string& deck) {
  return makeDeckPlan(deck, hashText(deck));
}

CampaignPlan::CampaignPlan(CampaignRequest request)
    : request_(std::move(request)), deck_(parseDeckPlan(request_.deck)) {
  key_ = cacheKeyOf(request_, *deck_);
  resolveMeasure();
}

CampaignPlan::CampaignPlan(CampaignRequest request,
                           std::shared_ptr<const DeckPlan> deck)
    : request_(std::move(request)), deck_(std::move(deck)) {
  require(deck_ != nullptr, "CampaignPlan: null deck plan");
  key_ = cacheKeyOf(request_, *deck_);
  resolveMeasure();
}

void CampaignPlan::resolveMeasure() {
  const spice::Deck& deck = *deck_->deck;
  if (request_.measure.analysis == MeasureSpec::Analysis::tran &&
      !deck.tran())
    throw RequestValidationError(
        RequestError::badRequest,
        "measure.analysis is 'tran' but the deck has no .tran card");

  // Resolve probe names against the Deck's node table (shared across
  // concurrent requests, never mutated).
  probeNodes_.reserve(request_.measure.probes.size());
  for (const std::string& probe : request_.measure.probes) {
    const std::optional<spice::NodeId> node = deck.findNode(lowercase(probe));
    if (!node)
      throw RequestValidationError(
          RequestError::badRequest,
          "measure.probes: unknown node '" + probe + "'");
    probeNodes_.push_back(*node);
  }
}

std::size_t CampaignPlan::zDimension() const noexcept {
  return deck_->deck->vsMosfets() * mc::VsFixedZProvider::kDimsPerDevice;
}

std::shared_ptr<sim::SessionPool<DeckFixture>> CampaignPlan::makePool() const {
  const std::shared_ptr<const spice::Deck> deck = deck_->deck;
  const sim::SessionPool<DeckFixture>::Builder build =
      [deck](circuits::DeviceProvider& provider) {
        return DeckFixture{spice::instantiate(*deck, &provider)};
      };

  const models::VsParams nmos =
      deck->vsNmos().value_or(models::defaultVsNmos());
  const models::VsParams pmos =
      deck->vsPmos().value_or(models::defaultVsPmos());
  const models::PelgromAlphas nmosAlphas = request_.nmosAlphas;
  const models::PelgromAlphas pmosAlphas = request_.pmosAlphas;
  mc::ProviderFactory providerFactory;
  if (request_.scheme == mc::SamplingPlan::Scheme::providerRng) {
    providerFactory = [nmos, pmos, nmosAlphas, pmosAlphas]() {
      // Initial seed is irrelevant: bindSample reseeds per sample.
      return std::make_unique<mc::VsStatisticalProvider>(
          nmos, pmos, nmosAlphas, pmosAlphas, stats::Rng(1));
    };
  } else {
    providerFactory = [nmos, pmos, nmosAlphas, pmosAlphas]() {
      return std::make_unique<mc::VsFixedZProvider>(nmos, pmos, nmosAlphas,
                                                    pmosAlphas);
    };
  }
  return std::make_shared<sim::SessionPool<DeckFixture>>(
      build, providerFactory, request_.mode);
}

mc::McResult CampaignPlan::run(sim::SessionPool<DeckFixture>& pool,
                               const FrameSink& emit, bool warm) const {
  const auto start = std::chrono::steady_clock::now();

  mc::McOptions options;
  options.samples = request_.samples;
  options.seed = request_.seed;
  options.threads = request_.threads;

  mc::SamplingPlan plan;
  plan.scheme = request_.scheme;
  plan.dimension = zDimension();

  // Per-sample measurement: the fixture arrives rebound for the sample.
  const std::optional<std::pair<double, double>> tran = deck_->deck->tran();
  const std::vector<spice::NodeId> probes = probeNodes_;
  const MeasureSpec::Analysis analysis = request_.measure.analysis;
  const mc::CircuitSampleFn<DeckFixture> measure =
      [tran, probes, analysis](std::size_t /*index*/,
                               sim::CampaignSession<DeckFixture>& session,
                               stats::Rng& /*rng*/,
                               std::vector<double>& out) {
        spice::SimSession& spice = session.spice();
        if (analysis == MeasureSpec::Analysis::op) {
          const spice::OperatingPoint op = spice.dcOperatingPoint();
          for (std::size_t m = 0; m < probes.size(); ++m)
            out[m] = op.v(probes[m]);
          return;
        }
        spice::TransientOptions topt;
        topt.dt = tran->first;
        topt.tStop = tran->second;
        // Per-worker record, reset to the deck's node count by the run.
        static thread_local spice::Waveform wf(1);
        spice.transient(topt, wf);
        for (std::size_t m = 0; m < probes.size(); ++m)
          out[m] = wf.finalValue(probes[m]);
      };

  StreamingEstimator estimator(metricCount(), request_.measure.spec);
  double ttfsMs = -1.0;
  std::size_t lastKde = 0;
  const mc::ChunkFn onChunk = [&](const mc::McChunkView& view) {
    estimator.fold(view);
    if (ttfsMs < 0.0) ttfsMs = millisSince(start);
    if (emit) {
      emit(progressFrame(request_.id, estimator, millisSince(start)));
      if (request_.kdeEvery > 0 &&
          estimator.done() / static_cast<std::size_t>(request_.kdeEvery) >
              lastKde) {
        lastKde = estimator.done() / static_cast<std::size_t>(request_.kdeEvery);
        emit(kdeFrame(request_.id, estimator,
                      static_cast<std::size_t>(request_.kdePoints)));
      }
    }
  };

  mc::McResult result = mc::runCampaign<DeckFixture>(
      options, metricCount(), pool, measure, sim::RescuePolicy{}, plan,
      request_.streamEvery, onChunk);
  if (ttfsMs < 0.0) ttfsMs = millisSince(start);
  if (emit)
    emit(finalFrame(request_.id, result,
                    static_cast<std::size_t>(request_.samples),
                    request_.measure.spec, warm, ttfsMs, millisSince(start)));
  return result;
}

std::shared_ptr<const DeckPlan> SessionCache::deckPlan(
    const std::string& deck) {
  const std::uint64_t hash = hashText(deck);
  {
    const std::lock_guard<std::mutex> lock(planMutex_);
    const auto it = planByHash_.find(hash);
    if (it != planByHash_.end()) {
      planLru_.splice(planLru_.begin(), planLru_, it->second);
      return *it->second;
    }
  }
  // Parse outside the lock: a slow (or throwing) parse must not serialize
  // concurrent requests.  A racing duplicate parse is harmless -- both
  // produce equivalent immutable plans and the second insert wins nothing.
  std::shared_ptr<const DeckPlan> plan = makeDeckPlan(deck, hash);
  const std::lock_guard<std::mutex> lock(planMutex_);
  const auto it = planByHash_.find(hash);
  if (it != planByHash_.end()) {
    planLru_.splice(planLru_.begin(), planLru_, it->second);
    return *it->second;
  }
  planLru_.push_front(plan);
  planByHash_.emplace(hash, planLru_.begin());
  while (planLru_.size() > planCapacity_) {
    planByHash_.erase(planLru_.back()->textHash);
    planLru_.pop_back();
  }
  return plan;
}

SessionCache::Acquired SessionCache::acquire(const CampaignPlan& plan) {
  Acquired acquired;
  acquired.pool = cache_.acquire(
      plan.cacheKey(), [&plan] { return plan.makePool(); }, &acquired.warm);
  return acquired;
}

}  // namespace vsstat::serve
