// Multi-tenant session-pool cache (sim::SessionPoolCache): keyed pools
// with LRU eviction behind the campaign server.  Covers the cache
// mechanics (hit/miss accounting, LRU order, eviction keeping in-flight
// pools alive) and the determinism contract that matters for multi-tenant
// serving: campaigns leased from a CACHED, REUSED pool must be
// bit-identical to campaigns on dedicated pools, at any worker count.
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "measure/delay.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"

namespace vsstat::sim {
namespace {

using circuits::GateFo3Bench;
using Cache = SessionPoolCache<GateFo3Bench>;
using Pool = SessionPool<GateFo3Bench>;

models::PelgromAlphas someAlphas() {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;
  a.aLeff = 3.7;
  a.aWeff = 3.7;
  a.aMu = 900.0;
  a.aCinv = 0.3;
  return a;
}

std::shared_ptr<Pool> makeInvPool() {
  return std::make_shared<Pool>(
      [](circuits::DeviceProvider& p) {
        return circuits::buildInvFo3(p, circuits::CellSizing{},
                                     circuits::StimulusSpec{});
      },
      [] {
        return std::make_unique<mc::VsStatisticalProvider>(
            models::defaultVsNmos(), models::defaultVsPmos(), someAlphas(),
            someAlphas(), stats::Rng(0));
      });
}

TEST(SessionPoolCache, HitMissAccounting) {
  Cache cache(4);
  EXPECT_FALSE(cache.contains("a"));

  bool hit = true;
  const std::shared_ptr<Pool> first = cache.acquire("a", makeInvPool, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(cache.contains("a"));
  const std::shared_ptr<Pool> second = cache.acquire("a", makeInvPool, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get()) << "repeat key must share one pool";

  const Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SessionPoolCache, EvictsLeastRecentlyUsed) {
  Cache cache(2);
  (void)cache.acquire("a", makeInvPool);
  (void)cache.acquire("b", makeInvPool);
  // Touch "a" so "b" becomes the LRU entry.
  (void)cache.acquire("a", makeInvPool);
  (void)cache.acquire("c", makeInvPool);

  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SessionPoolCache, EvictionKeepsInFlightPoolAlive) {
  Cache cache(1);
  const std::shared_ptr<Pool> held = cache.acquire("a", makeInvPool);
  {
    // Build a session on the held pool, then evict its cache entry.
    Pool::Lease lease = held->acquire();
    (void)cache.acquire("b", makeInvPool);
    EXPECT_FALSE(cache.contains("a"));
    // The lease (and the pool behind it) must remain fully usable.
    EXPECT_GE(lease->deviceCount(), 1u);
  }
  EXPECT_EQ(held->sessionCount(), 1u);
}

TEST(SessionPoolCache, CapacityMustBePositive) {
  EXPECT_THROW(Cache cache(0), InvalidArgumentError);
}

// --- determinism across cached/shared pools --------------------------------

constexpr double kInvDt = 0.5e-12;

/// Runs the INV Fo3 delay campaign against an explicit shared pool, the
/// way the campaign server does (per-sample leases, no blocked dispatch).
mc::McResult campaignOnPool(Pool& pool, int samples, unsigned threads) {
  mc::McOptions opt;
  opt.samples = samples;
  opt.seed = 321;
  opt.threads = threads;
  return mc::runCampaign<GateFo3Bench>(
      opt, 1, pool,
      [](std::size_t, CampaignSession<GateFo3Bench>& session, stats::Rng&,
         std::vector<double>& out) {
        out[0] = measure::measureGateDelays(session.fixture(),
                                            session.spice(), kInvDt)
                     .average();
      });
}

TEST(SessionPoolCache, CachedPoolCampaignsBitIdenticalAcrossWorkers) {
  Cache cache(2);
  const std::shared_ptr<Pool> pool = cache.acquire("inv", makeInvPool);

  // Cold pool, 1 worker -- the reference.
  const mc::McResult reference = campaignOnPool(*pool, 10, 1);
  ASSERT_GT(reference.sampleCount(), 0u);

  // Re-acquired (warm) pool at 2 and 4 workers: same bits.  The pool's
  // sessions are now primed from the first campaign, which must not matter.
  for (const unsigned threads : {2u, 4u}) {
    const std::shared_ptr<Pool> warm = cache.acquire("inv", makeInvPool);
    ASSERT_EQ(warm.get(), pool.get());
    const mc::McResult repeat = campaignOnPool(*warm, 10, threads);
    ASSERT_EQ(repeat.metrics[0].size(), reference.metrics[0].size());
    EXPECT_EQ(repeat.metrics[0], reference.metrics[0])
        << threads << " workers";
  }
}

}  // namespace
}  // namespace vsstat::sim
