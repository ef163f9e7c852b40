// Deck-driven campaigns and the server's multi-tenant session cache.
//
// The campaign server receives topology as TEXT (a SPICE deck inside the
// request JSON), so the build-once/rebind-per-sample machinery needs a
// fixture whose builder is "instantiate this deck through the worker's
// provider".  Each deck text is read twice, once to hash it and once to
// parse it; everything after works from the parsed spice::Deck:
//
//   DeckPlan     -- the deck text's hash and its parsed, validated
//                   spice::Deck (classified, line-numbered rejects happen
//                   here).  Cached by SessionCache keyed on that hash, so
//                   a warm request never parses its deck.
//   CampaignPlan -- the per-request resolution against a DeckPlan:
//                   probe-name lookups in the Deck's node table,
//                   measure/deck consistency, the builder/provider-factory
//                   closures, and the cache key naming the
//                   topology+options combination (derived from the deck
//                   hash, not from the text).
//
// SessionCache keys sim::SessionPoolCache<DeckFixture> by that key: a
// repeat request (same deck text, session-mode axes, variability spec, and
// sampling scheme) leases the warm worker sessions the previous campaign
// built.  A cold pool's workers each build their session by instantiating
// the shared Deck -- no worker parses text.  Together the two cache levels
// are the server's warm-path speedup -- a warm request's time-to-first-
// stat pays neither deck parse nor session build, only the first chunk's
// samples -- and the bench gates it (warm_vs_cold_ttfs).
//
// Determinism: NodeIds follow first mention in deck order, the last
// terminal of each element line first (spice/netlist.hpp), and every
// worker instantiates the same Deck, so all of them (and the probe
// lookups) see identical ids; the campaign itself runs
// through mc::runCampaign on the cached pool (results are bit-identical
// across 1/2/4/... workers and identical to an in-process campaign over
// the same deck, seed, and axes).
#ifndef VSSTAT_SERVE_SESSION_CACHE_HPP
#define VSSTAT_SERVE_SESSION_CACHE_HPP

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mc/circuit_campaign.hpp"
#include "serve/request.hpp"
#include "serve/stream.hpp"
#include "sim/session.hpp"
#include "spice/netlist.hpp"

namespace vsstat::serve {

/// Campaign fixture of a parsed deck (the `circuit` member is the
/// sim::CampaignSession fixture contract).
struct DeckFixture {
  spice::Circuit circuit;
};

/// Sink for outbound frames (one line each, no trailing newline).
using FrameSink = std::function<void(const std::string&)>;

/// A parsed deck and the hash of its text: everything a request needs that
/// depends only on the deck text.  Immutable once built and shared across
/// concurrent requests; the session builders of the pools made from it
/// share its Deck.
struct DeckPlan {
  std::shared_ptr<const spice::Deck> deck;
  std::uint64_t textHash = 0;  ///< FNV-1a of the deck text: its identity
};

/// Hashes and parses a deck.  A malformed deck throws
/// spice::NetlistParseError carrying the 1-based deck line.
[[nodiscard]] std::shared_ptr<const DeckPlan> parseDeckPlan(
    const std::string& deck);

/// One validated request, resolved against its deck and ready to run.
/// The two-argument form resolves against an already-parsed (possibly
/// cached) DeckPlan and reads no deck text at all; the single-argument
/// convenience form hashes and parses the deck first.  A malformed deck
/// throws spice::NetlistParseError (the server's deck_error frame); an
/// unknown probe or a measure/deck mismatch throws RequestValidationError
/// with code badRequest.
class CampaignPlan {
 public:
  explicit CampaignPlan(CampaignRequest request);
  CampaignPlan(CampaignRequest request, std::shared_ptr<const DeckPlan> deck);

  [[nodiscard]] const CampaignRequest& request() const noexcept {
    return request_;
  }
  /// Opaque key naming (deck text hash, mode axes, variability, scheme) --
  /// the session-cache identity.  Requests differing only in samples /
  /// seed / threads / measure / streaming cadence share a pool.
  [[nodiscard]] const std::string& cacheKey() const noexcept { return key_; }
  /// Standardized mismatch dimensionality (vs_* devices x 5 coordinates).
  [[nodiscard]] std::size_t zDimension() const noexcept;
  [[nodiscard]] std::size_t metricCount() const noexcept {
    return request_.measure.probes.size();
  }

  /// Builds a fresh (cold) session pool for this plan.  Its builder holds
  /// the DeckPlan's Deck, so the pool outlives the plan-cache entry.
  [[nodiscard]] std::shared_ptr<sim::SessionPool<DeckFixture>> makePool()
      const;

  /// Runs the campaign against `pool` (shared, possibly concurrently with
  /// other campaigns on other pools), emitting progress / kde / final
  /// frames through `emit` on the calling thread.  `warm` is echoed into
  /// the final frame's "cache" field.
  [[nodiscard]] mc::McResult run(sim::SessionPool<DeckFixture>& pool,
                                 const FrameSink& emit, bool warm) const;

 private:
  void resolveMeasure();

  CampaignRequest request_;
  std::string key_;
  std::shared_ptr<const DeckPlan> deck_;
  std::vector<spice::NodeId> probeNodes_;
};

/// Multi-tenant two-level cache, thread-safe:
///   deckPlan() -- parsed decks keyed by the deck text's hash (its own LRU
///                 list, same capacity), so warm requests skip the parse;
///   acquire()  -- shared session pools keyed by CampaignPlan::cacheKey()
///                 with LRU eviction (sim::SessionPoolCache), so warm
///                 requests lease already-built worker sessions.
/// The levels need no eviction coupling: a DeckPlan is keyed by content,
/// so a cached entry stays correct even after its pool is evicted, and a
/// pool's builder holds its own reference to the Deck it instantiates.
class SessionCache {
 public:
  explicit SessionCache(std::size_t capacity = 8)
      : planCapacity_(capacity), cache_(capacity) {}

  /// Cached DeckPlan of `deck`: hashes the text, and parses and caches it
  /// on a miss.
  [[nodiscard]] std::shared_ptr<const DeckPlan> deckPlan(
      const std::string& deck);

  struct Acquired {
    std::shared_ptr<sim::SessionPool<DeckFixture>> pool;
    bool warm = false;  ///< key was resident (sessions already built)
  };

  [[nodiscard]] Acquired acquire(const CampaignPlan& plan);

  [[nodiscard]] sim::SessionPoolCache<DeckFixture>::Stats stats() const {
    return cache_.stats();
  }

 private:
  using PlanLru = std::list<std::shared_ptr<const DeckPlan>>;

  std::mutex planMutex_;
  std::size_t planCapacity_;
  PlanLru planLru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, PlanLru::iterator> planByHash_;
  sim::SessionPoolCache<DeckFixture> cache_;
};

}  // namespace vsstat::serve

#endif  // VSSTAT_SERVE_SESSION_CACHE_HPP
