// Serving workloads: cell_warm and grid_edit, driven through the campaign
// server's real unix socket by closed-loop client connections.
//
// Untraced runs: half of several cold set-ups (fresh server to every warm
// topology primed; median reported); then every connection, an independent
// closed loop, runs an untimed warm-up round and whole rounds of its fixed
// request list until its timed rounds add up to the time budget (every
// round is the same work); then the verify pass on every timed outcome and
// the first timed round's final frames, on cell_warm the protocol-coverage
// pass, and the other half of the set-ups.
//
// Traced runs replay the same generated requests one after another three
// times, each on a fresh cache: through CampaignServer::handleLine
// (untraced), through the public calls that make up handleLine (traced,
// one span per call), and through the socket.  Probes then time the inner
// layers per distinct deck.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "probes.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session_cache.hpp"
#include "serve/stream.hpp"
#include "spice/netlist.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace vsstat;

namespace {

// --- decks -----------------------------------------------------------------

const char* const kModels = ".model nch vs_nmos\n.model pch vs_pmos\n.end\n";

/// SRAM read-disturb half cell: the '0' node y, pulled down by PD and up
/// through the pass gate from a precharged bit line (paper Fig. 9 cell).
std::string halfCellDeck(const std::string& tag) {
  return ".title half " + tag +
         "\nVDD vdd 0 0.9\nVBL bl 0 0.9\nVWL wl 0 0.9\nVIN u 0 0.9\n"
         "MPU y u vdd pch W=150n L=40n\nMPD y u 0 nch W=150n L=40n\n"
         "MPG bl wl y nch W=100n L=40n\n" +
         kModels;
}

/// Inverter chain driven low; node n<stages> is the last output.
std::string chainDeck(const std::string& tag, int stages) {
  std::string deck = ".title chain " + tag +
                     "\nVDD vdd 0 0.9\nVIN n0 0 0.0\n";
  for (int i = 1; i <= stages; ++i) {
    const std::string in = "n" + std::to_string(i - 1);
    const std::string out = "n" + std::to_string(i);
    deck += "MP" + std::to_string(i) + " " + out + " " + in +
            " vdd pch W=600n L=40n\n";
    deck += "MN" + std::to_string(i) + " " + out + " " + in +
            " 0 nch W=300n L=40n\n";
  }
  return deck + kModels;
}

/// NAND2 with one input at mid-rail (the metastable-ish transfer point).
std::string nand2Deck(const std::string& tag) {
  return ".title nand2 " + tag +
         "\nVDD vdd 0 0.9\nVA a 0 0.9\nVB b 0 0.45\n"
         "MPA out a vdd pch W=300n L=40n\nMPB out b vdd pch W=300n L=40n\n"
         "MNA out a x nch W=300n L=40n\nMNB x b 0 nch W=300n L=40n\n" +
         kModels;
}

/// edge x edge power-grid mesh, one diode-connected leakage NMOS per node,
/// fed at the corner g0_0.  `edits` overrides individual horizontal
/// segment values (a designer's value edit: new deck text, same topology).
std::string gridDeck(int edge, double ohms,
                     const std::map<int, double>& edits) {
  std::string deck;
  deck.reserve(static_cast<std::size_t>(edge * edge) * 96);
  deck += "VGRID g0_0 0 0.9\n";
  char buf[128];
  for (int r = 0; r < edge; ++r) {
    for (int c = 0; c < edge; ++c) {
      const int index = r * edge + c;
      if (c + 1 < edge) {
        const auto edit = edits.find(index);
        std::snprintf(buf, sizeof buf, "RH%d_%d g%d_%d g%d_%d %.9g\n", r, c,
                      r, c, r, c + 1,
                      edit == edits.end() ? ohms : edit->second);
        deck += buf;
      }
      if (r + 1 < edge) {
        std::snprintf(buf, sizeof buf, "RV%d_%d g%d_%d g%d_%d %.9g\n", r, c,
                      r, c, r + 1, c, ohms);
        deck += buf;
      }
      std::snprintf(buf, sizeof buf,
                    "ML%d_%d g%d_%d g%d_%d 0 nch W=200n L=40n\n", r, c, r, c,
                    r, c);
      deck += buf;
    }
  }
  return deck + ".model nch vs_nmos\n.end\n";
}

// --- requests --------------------------------------------------------------

enum class Mode { anchor, fast, statistical };

const char* modeJson(Mode m) {
  switch (m) {
    case Mode::anchor:
      return R"({"numerics":"reference","solver":"fresh","tier":"perSample"})";
    case Mode::fast:
      return R"({"numerics":"fast","solver":"reusePivot","tier":"perSample"})";
    case Mode::statistical:
      return R"({"numerics":"fast","solver":"reusePivot","tier":"statistical"})";
  }
  return "";
}

const char* modeName(Mode m) {
  return m == Mode::anchor ? "anchor" : (m == Mode::fast ? "fast" : "stat");
}

/// Latency population a request belongs to.  Each latency percentile is
/// taken over one population: requests of one deck kind and mode, either
/// warm (cached) or cold (the server has not seen the deck yet).
enum class Pop { other, warm, cold };

/// One generated request: the wire line plus what the benchmark knows
/// about it (for percentiles by population and for the verify pass).
struct Req {
  std::string line;
  std::string id;
  std::string deckName;  ///< topology label for reports
  std::string deck;      ///< deck text (probe input)
  Mode mode = Mode::anchor;
  int samples = 0;
  Pop pop = Pop::other;
};

struct ReqShape {
  std::string id;
  const std::string* deck = nullptr;
  std::string deckName;
  std::string probe;
  Mode mode = Mode::anchor;
  std::string scheme = "rng";
  int samples = 0;
  int streamEvery = 0;
  std::uint64_t seed = 0;
  std::optional<std::pair<double, double>> spec;
  int kdeEvery = 0;
  std::string analysis = "op";
  Pop pop = Pop::other;
};

Req makeReq(const ReqShape& s) {
  Req r;
  r.id = s.id;
  r.deckName = s.deckName;
  r.deck = *s.deck;
  r.mode = s.mode;
  r.samples = s.samples;
  r.pop = s.pop;
  std::string& line = r.line;
  line = "{\"id\":";
  serve::appendJsonString(line, s.id);
  line += ",\"deck\":";
  serve::appendJsonString(line, *s.deck);
  line += ",\"samples\":" + std::to_string(s.samples);
  line += ",\"seed\":" + std::to_string(s.seed % 1000000007ull);
  line += ",\"threads\":1";
  line += std::string(",\"mode\":") + modeJson(s.mode);
  line += ",\"scheme\":\"" + s.scheme + "\"";
  line += ",\"measure\":{\"analysis\":\"" + s.analysis + "\",\"probes\":[\"" +
          s.probe + "\"]";
  if (s.spec) {
    line += ",\"spec\":{\"min\":";
    serve::appendJsonNumber(line, s.spec->first);
    line += ",\"max\":";
    serve::appendJsonNumber(line, s.spec->second);
    line += '}';
  }
  line += '}';
  line += ",\"stream_every\":" + std::to_string(s.streamEvery);
  if (s.kdeEvery > 0)
    line += ",\"kde_every\":" + std::to_string(s.kdeEvery) +
            ",\"kde_points\":32";
  line += '}';
  return r;
}

/// Request id "c<conn>r<round>s<slot>".
std::string requestId(int conn, int round, int slot) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "c%dr%ds%d", conn, round, slot);
  return buf;
}

/// A serving workload: connections, per-connection priming requests (the
/// warm topologies), and per-connection round lists.
struct Workload {
  std::string name;
  int connections = 0;
  std::vector<std::vector<Req>> prime;
  std::function<std::vector<Req>(int conn, int round)> round;
  int setups = 0;        ///< cold set-ups per run (median reported)
  int tracedRounds = 0;  ///< rounds the traced replay covers
  std::string warmPop;   ///< what the warm population is, for reports
  std::string coldPop;   ///< what the cold population is
  Pop requestPop = Pop::warm;  ///< population of request_p50 (and p90)
};

// cell_warm: every connection owns four (deck, mode, scheme) keys -- its
// own deck texts, so the eight keys fit the server's default eight-entry
// cache and the timed phase is all hits.  Both connections send the same
// mix.  All modes stream the same first chunk (64 samples, two
// statistical warm-chain blocks).  Sobol runs on a small deck only (the
// sampler supports at most 32 dimensions, 5 per device).  Priming sends
// each key's first full request.  The latency populations are the
// headline key's (key 0, the inverter chain in anchor mode, the heaviest
// first chunk): its timed requests are the warm population, its priming
// requests the cold one.
struct CellKey {
  int deck;  ///< 0 half cell, 1 chain, 2 nand2
  Mode mode;
  const char* scheme;
  int weight;  ///< requests per round
};

constexpr CellKey kCellKeys[4] = {
    {1, Mode::anchor, "rng", 3},
    {0, Mode::fast, "rng", 3},
    {2, Mode::statistical, "rng", 2},
    {2, Mode::fast, "sobol", 2},
};
constexpr int kCellHeadline = 0;

constexpr int kCellSamples = 512;
constexpr int kCellChunk = 64;
constexpr int kChainStages = 6;

Workload cellWarm(std::uint64_t seed) {
  // decks[conn][deck]: each connection's own deck texts.
  auto decks = std::make_shared<std::vector<std::vector<std::string>>>();
  for (int c = 0; c < 2; ++c) {
    const std::string tag = std::to_string(seed) + " c" + std::to_string(c);
    decks->push_back({halfCellDeck(tag), chainDeck(tag, kChainStages),
                      nand2Deck(tag)});
  }
  static const char* const names[] = {"sram_half_cell", "inv_chain6",
                                      "nand2"};
  static const char* const probes[] = {"y", "n6", "out"};
  // Spec windows (metric-0 yield) per deck: around each probe's nominal.
  static const std::pair<double, double> specs[] = {
      {0.0, 0.12}, {0.0, 0.05}, {0.2, 0.9}};
  const auto shape = [decks](int conn, const CellKey& key) {
    ReqShape s;
    s.deck = &(*decks)[static_cast<std::size_t>(conn)]
                      [static_cast<std::size_t>(key.deck)];
    s.deckName = names[key.deck];
    s.probe = probes[key.deck];
    s.mode = key.mode;
    s.scheme = key.scheme;
    s.streamEvery = kCellChunk;
    return s;
  };

  Workload w;
  w.name = "cell_warm";
  w.connections = 2;
  w.setups = 41;
  w.tracedRounds = 6;
  w.warmPop = "inv_chain6 anchor, cached";
  w.coldPop = "inv_chain6 anchor priming requests";
  w.prime.resize(2);
  for (int c = 0; c < 2; ++c)
    for (int k = 0; k < 4; ++k) {
      ReqShape s = shape(c, kCellKeys[k]);
      s.id = "prime";
      s.samples = kCellSamples;
      s.seed = mixSeed(seed, 100u + static_cast<unsigned>(c));
      if (k == kCellHeadline) s.pop = Pop::cold;
      w.prime[static_cast<std::size_t>(c)].push_back(makeReq(s));
    }
  w.round = [shape, seed](int conn, int round) {
    std::vector<Req> out;
    stats::Rng rng(mixSeed(seed, 1000u + static_cast<unsigned>(conn)));
    rng = rng.fork(static_cast<std::uint64_t>(round));
    int slot = 0;
    // Interleave the keys (round-robin by remaining weight) so a
    // connection alternates decks the way a design tool would.
    int remaining[4];
    for (int k = 0; k < 4; ++k) remaining[k] = kCellKeys[k].weight;
    for (bool any = true; any;) {
      any = false;
      for (int k = 0; k < 4; ++k) {
        if (remaining[k]-- <= 0) continue;
        any = true;
        ReqShape s = shape(conn, kCellKeys[k]);
        s.id = requestId(conn, round, slot);
        s.samples = kCellSamples;
        s.seed = rng.fork(static_cast<std::uint64_t>(slot)).nextU64();
        if (slot % 3 == 1) s.spec = specs[kCellKeys[k].deck];
        if (slot % 4 == 2) s.kdeEvery = 256;
        if (k == kCellHeadline) s.pop = Pop::warm;
        out.push_back(makeReq(s));
        ++slot;
      }
    }
    return out;
  };
  return w;
}

// grid_edit: every connection owns two mesh topologies (32x32 and 48x48)
// and edits their values; an edit is new deck text, so it misses both
// cache levels.  The repeats rerun the connection's previous request (a
// new MC seed) and always hit.  Per round and connection:
//   edit A, repeat, repeat, edit B (fast+reusePivot), edit A
// where the A requests run in anchor mode.  The latency populations are
// the A requests: the repeats are the warm population, the edits the cold
// one.  Request latency is the edits' (the designer's action this workload
// is about).
constexpr int kGridEdgeA = 32;
constexpr int kGridEdgeB = 48;
constexpr int kGridSamples = 2;

Workload gridEdit(std::uint64_t seed) {
  Workload w;
  w.name = "grid_edit";
  w.connections = 2;
  w.setups = 21;
  w.tracedRounds = 3;
  w.warmPop = "grid32 anchor repeats";
  w.coldPop = "grid32 anchor edits";
  w.requestPop = Pop::cold;
  w.prime.resize(2);

  const auto baseOhms = [seed](int conn, int topo) {
    stats::Rng rng(mixSeed(seed, 200u + static_cast<unsigned>(conn * 2 + topo)));
    return 4.5 + rng.uniform();
  };
  const auto edgeOf = [](int topo) { return topo == 0 ? kGridEdgeA : kGridEdgeB; };
  const auto shape = [](const std::string& id, const std::string& deck,
                        int edge, Mode mode, std::uint64_t mcSeed, Pop pop) {
    ReqShape s;
    s.id = id;
    s.deck = &deck;
    s.deckName = "grid" + std::to_string(edge);
    s.probe = "g" + std::to_string(edge - 1) + "_" + std::to_string(edge - 1);
    s.mode = mode;
    s.samples = kGridSamples;
    s.streamEvery = 1;
    s.seed = mcSeed;
    s.pop = pop;
    return makeReq(s);
  };

  for (int c = 0; c < 2; ++c)
    for (int topo = 0; topo < 2; ++topo) {
      const std::string deck =
          gridDeck(edgeOf(topo), baseOhms(c, topo), {});
      w.prime[static_cast<std::size_t>(c)].push_back(
          shape("prime", deck, edgeOf(topo),
                topo == 0 ? Mode::anchor : Mode::fast,
                mixSeed(seed, 300u + static_cast<unsigned>(c)), Pop::other));
    }

  w.round = [seed, baseOhms, edgeOf, shape](int conn, int round) {
    stats::Rng rng(mixSeed(seed, 2000u + static_cast<unsigned>(conn)));
    rng = rng.fork(static_cast<std::uint64_t>(round));
    const auto edited = [&](int topo, int editIndex) {
      // Three segment values of the topology's base deck, unique per
      // (seed, connection, round, edit).
      const int edge = edgeOf(topo);
      std::map<int, double> edits;
      stats::Rng e = rng.fork(static_cast<std::uint64_t>(editIndex));
      while (edits.size() < 3) {
        const int node = static_cast<int>(e.uniform() * edge * edge) %
                         (edge * edge);
        if (node % edge == edge - 1) continue;  // no horizontal segment
        edits[node] = baseOhms(conn, topo) * (0.8 + 0.4 * e.uniform());
      }
      return gridDeck(edge, baseOhms(conn, topo), edits);
    };
    const auto add = [&](std::vector<Req>& out, const std::string& deck,
                         int edge, Mode mode, Pop pop) {
      const int slot = static_cast<int>(out.size());
      out.push_back(shape(
          requestId(conn, round, slot), deck, edge, mode,
          rng.fork(100u + static_cast<std::uint64_t>(slot)).nextU64(), pop));
    };
    std::vector<Req> out;
    const std::string deckA = edited(0, 0);
    add(out, deckA, kGridEdgeA, Mode::anchor, Pop::cold);
    add(out, deckA, kGridEdgeA, Mode::anchor, Pop::warm);
    add(out, deckA, kGridEdgeA, Mode::anchor, Pop::warm);
    add(out, edited(1, 1), kGridEdgeB, Mode::fast, Pop::other);
    add(out, edited(0, 2), kGridEdgeA, Mode::anchor, Pop::cold);
    return out;
  };
  return w;
}

// --- socket plumbing -------------------------------------------------------

bool writeAll(int fd, const std::string& data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

/// What the client saw for one request.  The times are CPU time of the
/// connection's server thread plus the client's (see bench.hpp), with the
/// wall-clock ones beside them for the report lines.
struct Outcome {
  double ttfsMs = -1.0;
  double totalMs = 0.0;
  double ttfsWallMs = -1.0;
  double totalWallMs = 0.0;
  int progress = 0;
  int stray = 0;  ///< frames addressed to another request
  bool final = false;
  bool healthOk = false;
  std::string finalFrame;
  std::string errorFrame;

  /// One final frame with health OK, after at least one progress frame,
  /// and no frame of another request in between.
  [[nodiscard]] bool ok() const {
    return final && healthOk && progress >= 1 && stray == 0;
  }
  [[nodiscard]] std::string why() const {
    if (!errorFrame.empty()) return errorFrame.substr(0, 200);
    return "final " + std::to_string(final) + ", health OK " +
           std::to_string(healthOk) + ", progress frames " +
           std::to_string(progress) + ", stray frames " +
           std::to_string(stray);
  }
};

bool startsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// One client connection (a design tool waiting for each final frame).
/// Connect clients one at a time: each finds the server thread that serves
/// its connection as the one thread the connection started.
class Client {
 public:
  explicit Client(const std::string& path) {
    const std::vector<pid_t> before = threadIds();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    try {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0)
        throw std::runtime_error("client: connect to '" + path + "' failed");
      handler_ = awaitNewThread(before);
      handlerClock_ = threadCpuClock(handler_);
    } catch (...) {
      ::close(fd_);
      throw;
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The server thread that serves this connection.
  [[nodiscard]] pid_t handler() const noexcept { return handler_; }

  /// CPU time of the connection's server thread plus the calling thread's
  /// [ms].  Call it from the thread that sends the requests.
  [[nodiscard]] double cpuNowMs() const {
    return cpuMs(handlerClock_) + cpuMs(CLOCK_THREAD_CPUTIME_ID);
  }

  /// Sends one request line and reads frames up to its final or error
  /// frame.  Frames must carry the request's `id` (unchecked when empty);
  /// others count as stray.  `keepFinal` keeps the final frame text for the
  /// verify pass.
  Outcome request(const std::string& line, const std::string& id,
                  bool keepFinal) {
    Outcome out;
    // Every frame starts {"type":"<kind>","id":"<id>", ...
    const std::string idField = ",\"id\":\"" + id + "\"";
    constexpr std::size_t kTypeAt = 9;  // after {"type":"
    const double cpu0 = cpuNowMs();
    const Clock::time_point start = Clock::now();
    if (!writeAll(fd_, line + "\n")) {
      out.errorFrame = "send failed";
      return out;
    }
    char chunk[65536];
    while (true) {
      std::size_t newline;
      while ((newline = pending_.find('\n')) != std::string::npos) {
        const std::string frame = pending_.substr(0, newline);
        pending_.erase(0, newline + 1);
        const std::size_t typeEnd = frame.find('"', kTypeAt);
        if (!id.empty() && (typeEnd == std::string::npos ||
                            frame.compare(typeEnd + 1, idField.size(),
                                          idField) != 0)) {
          ++out.stray;
          continue;
        }
        if (startsWith(frame, "{\"type\":\"progress\"")) {
          if (out.progress++ == 0) {
            out.ttfsWallMs = msSince(start);
            out.ttfsMs = cpuNowMs() - cpu0;
          }
        } else if (startsWith(frame, "{\"type\":\"final\"")) {
          out.totalWallMs = msSince(start);
          out.totalMs = cpuNowMs() - cpu0;
          out.final = true;
          out.healthOk =
              frame.find("\"health\":\"OK\"") != std::string::npos;
          if (keepFinal) out.finalFrame = frame;
          return out;
        } else if (startsWith(frame, "{\"type\":\"error\"")) {
          out.totalWallMs = msSince(start);
          out.totalMs = cpuNowMs() - cpu0;
          out.errorFrame = frame;
          return out;
        }
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        out.errorFrame = "connection closed";
        return out;
      }
      pending_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  pid_t handler_ = 0;
  clockid_t handlerClock_ = CLOCK_THREAD_CPUTIME_ID;
  std::string pending_;
};

/// A campaign server on a unix socket, serving on its own thread.
class Host {
 public:
  explicit Host(const std::string& path) : path_(path) {
    server_.listenUnix(path_);
    loop_ = std::thread([this] {
      server_.serve();
      done_.store(true);
    });
  }
  ~Host() {
    // stop() is a no-op until serve() has marked itself running, so
    // repeat it until the accept loop has really returned.
    while (!done_.load()) {
      server_.stop();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    loop_.join();
    ::unlink(path_.c_str());
  }
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] serve::CampaignServer& server() noexcept { return server_; }

 private:
  std::string path_;
  serve::CampaignServer server_;
  std::atomic<bool> done_{false};
  std::thread loop_;
};

std::string socketPath() {
  return ".bench_build/vsbench-" + std::to_string(::getpid()) + ".sock";
}

// --- verify pass -----------------------------------------------------------

/// Extracts a numeric field of a final frame.
double frameNumber(const std::string& frame, const char* key) {
  const serve::JsonValue doc = serve::parseJson(frame);
  const serve::JsonValue* v = doc.find(key);
  return v != nullptr && v->kind == serve::JsonValue::Kind::number
             ? v->number
             : std::nan("");
}

std::string frameString(const std::string& frame, const char* key) {
  const serve::JsonValue doc = serve::parseJson(frame);
  const serve::JsonValue* v = doc.find(key);
  return v != nullptr && v->kind == serve::JsonValue::Kind::string ? v->string
                                                                   : "";
}

/// The same request run in-process on a fresh cache, optionally with its
/// mode axes forced to the anchor (reference / fresh / perSample).
mc::McResult runInProcess(const std::string& line, bool asAnchor) {
  serve::CampaignRequest request =
      serve::parseCampaignRequest(serve::parseJson(line));
  if (asAnchor) request.mode = spice::SessionOptions{};
  const serve::CampaignPlan plan(std::move(request));
  return plan.run(*plan.makePool(), nullptr, false);
}

/// Checks final frames of served requests against in-process runs:
/// anchors bit-for-bit (metrics_fnv1a), tuned modes within 3 MC standard
/// errors of the anchor run on the same deck and seed.
void verifyFinals(const std::vector<std::pair<const Req*, std::string>>& finals,
                  Result& result) {
  std::map<std::string, std::string> anchorFnv;  // deck label -> first fnv
  int anchors = 0, tuned = 0;
  for (const auto& [req, frame] : finals) {
    const std::string label = req->deckName + "/" + modeName(req->mode);
    if (frame.empty()) {
      result.check(false, "request " + req->id + " (" + label +
                              ") has no final frame to verify");
      continue;
    }
    const mc::McResult anchor = runInProcess(req->line, true);
    if (req->mode == Mode::anchor) {
      const std::string served = frameString(frame, "metrics_fnv1a");
      const std::string local = hex(serve::metricsFingerprint(anchor));
      result.check(served == local, "anchor fingerprint " + label + ": served " +
                                        served + " vs in-process " + local);
      anchorFnv.emplace(req->deckName, served);
      ++anchors;
    } else {
      const stats::Summary a = stats::summarize(anchor.metrics[0]);
      const double n = static_cast<double>(a.count);
      const double mean = frameNumber(frame, "mean");
      const double se = a.stddev / std::sqrt(std::max(1.0, n));
      const double tol = 3.0 * se + 1e-9 * std::fabs(a.mean);
      result.check(std::fabs(mean - a.mean) <= tol,
                   "tuned mean " + label + " off anchor by " +
                       std::to_string(std::fabs(mean - a.mean)) + " > " +
                       std::to_string(tol));
      ++tuned;
    }
  }
  for (const auto& [deck, fnv] : anchorFnv)
    result.note("anchor metrics_fnv1a " + deck, fnv);
  result.note("verified", std::to_string(anchors) + " anchor fingerprints, " +
                              std::to_string(tuned) + " tuned means");
}

/// One request per request-schema feature, over the socket.  Each is an
/// operation; error-path requests must produce their documented error.
/// The transient request is the exception: the server's "tran" path fails
/// every request today (campaign_error "Waveform: need at least the ground
/// node", from the thread_local Waveform(0) in serve/session_cache.cpp), and
/// a benchmark operation must not fail, so its outcome is reported on every
/// run but not counted.
void coveragePass(Client& client, std::uint64_t seed, Result& result) {
  const std::string half = halfCellDeck(std::to_string(seed) + " coverage");
  const std::string tranDeck =
      ".title tran " + std::to_string(seed) +
      "\nVDD vdd 0 0.9\nVIN in 0 PULSE(0 0.9 10p 10p 10p 60p 160p)\n"
      "MP out in vdd pch W=600n L=40n\nMN out in 0 nch W=300n L=40n\n"
      "C1 out 0 2f\n.tran 1p 120p\n" +
      kModels;
  std::vector<std::pair<std::string, ReqShape>> features;
  const auto base = [&](const std::string& id) {
    ReqShape s;
    s.id = id;
    s.deck = &half;
    s.deckName = "sram_half_cell";
    s.probe = "y";
    s.samples = 64;
    s.streamEvery = 32;
    s.seed = mixSeed(seed, 400);
    return s;
  };
  features.emplace_back("op", base("cov-op"));
  {
    ReqShape s = base("cov-tran");
    s.deck = &tranDeck;
    s.deckName = "inv_tran";
    s.probe = "out";
    s.analysis = "tran";
    s.samples = 8;
    s.streamEvery = 4;
    features.emplace_back("tran", s);
  }
  for (const char* scheme : {"rng", "iid", "lhs", "halton", "sobol"}) {
    ReqShape s = base(std::string("cov-scheme-") + scheme);
    s.scheme = scheme;
    features.emplace_back(std::string("scheme ") + scheme, s);
  }
  for (const Mode m : {Mode::anchor, Mode::fast, Mode::statistical}) {
    ReqShape s = base(std::string("cov-mode-") + modeName(m));
    s.mode = m;
    features.emplace_back(std::string("mode ") + modeName(m), s);
  }
  {
    ReqShape s = base("cov-kde");
    s.kdeEvery = 32;
    features.emplace_back("kde", s);
    ReqShape t = base("cov-spec");
    t.spec = std::make_pair(0.0, 0.12);
    features.emplace_back("spec window", t);
  }
  int served = 0;
  for (const auto& [what, shape] : features) {
    const Req r = makeReq(shape);
    const Outcome o = client.request(r.line, r.id, false);
    served += o.ok() ? 1 : 0;
    if (shape.analysis == "tran") {
      result.note("coverage tran (reported, not counted)",
                  o.ok() ? "served" : o.why());
      continue;
    }
    result.operation(o.ok(), "coverage " + what + ": " + o.why());
  }

  // Error paths: a malformed deck names its line; a bad JSON line.
  std::string bad = half;
  bad.replace(bad.find("MPD"), 3, "QPD");
  const int badLine = 6;  // .title, 4 sources, MPU, then QPD
  ReqShape s = base("cov-deck-error");
  s.deck = &bad;
  const Outcome deckError = client.request(makeReq(s).line, s.id, false);
  const bool deckOk =
      deckError.errorFrame.find("\"code\":\"deck_error\"") !=
          std::string::npos &&
      deckError.errorFrame.find("\"line\":" + std::to_string(badLine + 1)) !=
          std::string::npos;
  result.operation(deckOk, "coverage deck_error: " + deckError.errorFrame);
  // The line does not parse, so its error frame cannot name the id.
  const Outcome badJson =
      client.request("{\"id\":\"cov-bad\",\"deck\":", "", false);
  const bool jsonOk = badJson.errorFrame.find("\"code\":\"bad_json\"") !=
                      std::string::npos;
  result.operation(jsonOk, "coverage bad_json: " + badJson.errorFrame);
  result.note("coverage", std::to_string(served + (deckOk ? 1 : 0) +
                                         (jsonOk ? 1 : 0)) +
                              " of " + std::to_string(features.size() + 2) +
                              " feature requests answered as documented");
}

void noteCache(Result& result, serve::CampaignServer& server,
               const std::string& when) {
  const auto s = server.cache().stats();
  result.note("cache " + when, "hits " + std::to_string(s.hits) + ", misses " +
                                   std::to_string(s.misses) + ", evictions " +
                                   std::to_string(s.evictions));
}

// --- untraced run ----------------------------------------------------------

/// What the benchmark keeps of one timed request.
struct Timed {
  int slot = 0;  ///< position in its round (the same kind in every round)
  int samples = 0;
  Pop pop = Pop::other;
  double ttfsMs = 0.0;  ///< CPU time
  double totalMs = 0.0;
  double ttfsWallMs = 0.0;
  double totalWallMs = 0.0;
  double beforeMs = 0.0;  ///< speed probes around it
  double afterMs = 0.0;
};

/// What one connection saw in the timed phase.  Only the first timed
/// round's requests and final frames are kept (for the verify pass), so
/// the benchmark's own memory does not grow with the run.
struct ConnectionLog {
  std::vector<Timed> timed;
  std::vector<Req> firstRound;
  std::vector<std::string> firstFinals;
  long requests = 0;
  long sampleCount = 0;
  int rounds = 0;
  int failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
};

/// One closed-loop client: an untimed warm-up round, then whole rounds of
/// its request list until its timed rounds add up to `seconds` of wall
/// time.  Lists are generated between rounds, outside the timed intervals.
/// Each round pins the connection's server thread to the connection's next
/// CPU and probes that CPU before the round and after every request; with
/// enough CPUs the client waits on another CPU, so that reading frames does
/// not compete with the server thread.  Connection c uses the CPUs at
/// positions congruent to c modulo the connection count, so connections
/// never share one.
void clientLoop(const Workload& w, int conn, double seconds, Client& client,
                ConnectionLog& log, SpeedProbe& probe) {
  const std::vector<int>& cpus = allowedCpus();
  const int n = static_cast<int>(cpus.size());
  const int conns = w.connections;
  double timed = 0.0;
  for (int round = 0; timed < seconds; ++round) {
    const int cpu = cpus[static_cast<std::size_t>((round * conns + conn) % n)];
    const int home =
        n >= 2 * conns
            ? cpus[static_cast<std::size_t>((round * conns + conns + conn) % n)]
            : -1;
    pinThread(client.handler(), cpu);
    pinThread(0, home);
    std::vector<Req> list = w.round(conn, round);
    const bool keep = round == 1;
    std::vector<Outcome> outcomes;
    std::vector<double> probes{probe.run(cpu, home)};
    const Clock::time_point t0 = Clock::now();
    for (const Req& r : list) {
      outcomes.push_back(client.request(r.line, r.id, keep));
      probes.push_back(probe.run(cpu, home));
    }
    if (round == 0) continue;  // warm-up round: untimed
    timed += msSince(t0) / 1000.0;
    ++log.rounds;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Outcome& o = outcomes[i];
      ++log.requests;
      if (!o.ok()) {
        if (++log.failed <= 5)
          log.failures.push_back(list[i].id + " (" + list[i].deckName + "/" +
                                 modeName(list[i].mode) + "): " + o.why());
        continue;
      }
      log.sampleCount += list[i].samples;
      log.timed.push_back(Timed{static_cast<int>(i), list[i].samples,
                                list[i].pop, o.ttfsMs, o.totalMs, o.ttfsWallMs,
                                o.totalWallMs,
                                probes[i], probes[i + 1]});
    }
    if (keep) {
      for (std::size_t i = 0; i < list.size(); ++i)
        log.firstFinals.push_back(outcomes[i].finalFrame);
      log.firstRound = std::move(list);
    }
  }
}

/// Minimum one-thread batches of the extraction control (fits_per_cpu_s of
/// the serving workloads), spread evenly over the cold set-ups.
constexpr int kFitControlBatches = 60;
constexpr std::size_t kFitControlLanes = 64;

int untraced(const Workload& w, const Options& options, Result& result) {
  const std::string path = socketPath();
  const std::size_t conns = static_cast<std::size_t>(w.connections);
  const std::vector<int>& cpus = allowedCpus();
  SpeedProbe probe;
  // Extraction throughput control (serving bypasses extract/): one-thread
  // fit batches after every cold set-up, so the median samples both set-up
  // windows of the run.
  std::vector<Probed> fitMs;
  const int fitsPerSetup = (kFitControlBatches + w.setups - 1) / w.setups;

  // Cold set-ups: fresh server to every warm topology primed, through one
  // priming connection (sequential, so the set-up does not depend on how
  // the scheduler overlaps connections).  Each key still gets exactly one
  // session: the timed connections never share a key.  Half the set-ups
  // run before the timed phase (the last one serves it) and half after the
  // verify pass, so setup_s and cold_ttfs sample two windows of the run.
  // Set-up k pins the priming connection's server thread to CPU k mod n,
  // probed before and after; the priming client waits on the next CPU.
  std::vector<Probed> setups, ttfsCold;
  std::vector<double> setupWallS;
  std::unique_ptr<Host> host;
  int primeFailed = 0;
  const auto coldSetup = [&] {
    host.reset();
    const std::size_t k = setups.size();
    const int cpu = cpus[k % cpus.size()];
    const int home = cpus.size() > 1 ? cpus[(k + 1) % cpus.size()] : -1;
    pinThread(0, home);
    const double before = probe.run(cpu, home);
    const ThreadCpu cpu0 = threadCpuNow();
    const Clock::time_point t0 = Clock::now();
    host = std::make_unique<Host>(path);
    std::vector<std::pair<const Req*, Outcome>> primed;
    double setupMs = 0.0, after = 0.0;
    {
      Client priming(path);
      pinThread(priming.handler(), cpu);
      for (std::size_t c = 0; c < conns; ++c)
        for (const Req& r : w.prime[c])
          primed.emplace_back(&r, priming.request(r.line, r.id, false));
      // Read while the connection's server thread is still alive.
      setupMs = cpuMsSince(cpu0);
      setupWallS.push_back(msSince(t0) / 1000.0);
      after = probe.run(cpu, home);
    }
    setups.push_back(Probed{setupMs, before, after});
    for (const auto& [r, o] : primed) {
      result.operation(o.ok(), "prime " + r->deckName + "/" +
                                   modeName(r->mode) + ": " + o.why());
      if (!o.ok()) ++primeFailed;
      if (o.ok() && r->pop == Pop::cold)
        ttfsCold.push_back(Probed{o.ttfsMs, before, after});
    }
    for (const Probed& batch :
         fitBatchMs(mixSeed(options.seed, 500), static_cast<int>(fitMs.size()),
                    fitsPerSetup, kFitControlLanes, probe))
      fitMs.push_back(batch);
  };
  const int setupsBefore = (w.setups + 1) / 2;
  for (int rep = 0; rep < setupsBefore; ++rep) coldSetup();
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < conns; ++c)
    clients.push_back(std::make_unique<Client>(path));
  noteCache(result, host->server(), "after priming");

  // Timed phase: every connection is an independent closed loop.
  const Clock::time_point timed0 = Clock::now();
  std::vector<ConnectionLog> logs(conns);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c)
      threads.emplace_back([&, c] {
        clientLoop(w, static_cast<int>(c), options.seconds, *clients[c],
                   logs[c], probe);
      });
    for (std::thread& t : threads) t.join();
  }
  const double timedWallS = msSince(timed0) / 1000.0;
  noteCache(result, host->server(), "after timed phase");

  // Every timed request must have ended in one final frame with health OK
  // after at least one progress frame.
  std::vector<Probed> ttfsWarm, requestMs;
  std::map<int, std::vector<Probed>> slotMs;  // CPU time per round slot
  std::map<int, int> slotSamples;
  std::vector<double> ttfsWarmWall, requestWallMs;
  long samples = 0, requests = 0;
  int rounds = 0, failed = 0;
  std::vector<std::pair<const Req*, std::string>> finals;
  for (const ConnectionLog& log : logs) {
    for (const Timed& t : log.timed) {
      slotMs[t.slot].push_back(Probed{t.totalMs, t.beforeMs, t.afterMs});
      slotSamples[t.slot] = t.samples;
      if (t.pop == Pop::warm) {
        ttfsWarm.push_back(Probed{t.ttfsMs, t.beforeMs, t.afterMs});
        ttfsWarmWall.push_back(t.ttfsWallMs);
      } else if (t.pop == Pop::cold) {
        ttfsCold.push_back(Probed{t.ttfsMs, t.beforeMs, t.afterMs});
      }
      if (t.pop == w.requestPop) {
        requestMs.push_back(Probed{t.totalMs, t.beforeMs, t.afterMs});
        requestWallMs.push_back(t.totalWallMs);
      }
    }
    for (long i = log.failed; i < log.requests; ++i) result.operation(true, "");
    for (int i = 0; i < log.failed; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      result.operation(false, "timed request " +
                                  (k < log.failures.size()
                                       ? log.failures[k]
                                       : std::string("(reason not kept)")));
    }
    failed += log.failed;
    samples += log.sampleCount;
    requests += log.requests;
    rounds += log.rounds;
    for (std::size_t i = 0; i < log.firstRound.size(); ++i)
      finals.emplace_back(&log.firstRound[i], log.firstFinals[i]);
  }
  result.check(failed == 0, std::to_string(failed) + " of " +
                                std::to_string(requests) +
                                " timed requests failed");

  // Verify pass (outside the timed phase).
  verifyFinals(finals, result);
  if (w.name == "cell_warm") {
    Client coverage(path);
    coveragePass(coverage, options.seed, result);
  }
  clients.clear();
  for (int rep = setupsBefore; rep < w.setups; ++rep) coldSetup();
  host.reset();
  result.check(primeFailed == 0,
               std::to_string(primeFailed) + " priming requests failed");

  // Times at the reference speed (bench.hpp).  Throughput: a round's
  // samples over its CPU time, the sum over its slots of each slot's median.
  double roundMs = 0.0, roundSamples = 0.0;
  for (const auto& [slot, units] : slotMs) {
    roundMs += median(scaledMs(units));
    roundSamples += slotSamples[slot];
  }
  const std::vector<double> setupMs = scaledMs(setups);
  const std::vector<double> coldMs = scaledMs(ttfsCold);
  const std::vector<double> warmMs = scaledMs(ttfsWarm);
  const std::vector<double> totalMs = scaledMs(requestMs);
  const auto quartiles = [](const std::vector<double>& v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "q1 %.4g, median %.4g, q3 %.4g",
                  quantile(v, 0.25), median(v), quantile(v, 0.75));
    return std::string(buf);
  };
  result.note("setup_cpu_ms spread", quartiles(setupMs));
  result.note("cold_ttfs_cpu_ms spread", quartiles(coldMs));
  result.note("request_cpu_ms spread",
              quartiles(totalMs) + ", p90 " +
                  std::to_string(quantile(totalMs, 0.9)) + ", p99 " +
                  std::to_string(quantile(totalMs, 0.99)));
  result.note("speed probes",
              probe.summary() + "; steady: timed requests " +
                  steadyShare(requestMs) + ", set-ups " + steadyShare(setups) +
                  ", fit batches " + steadyShare(fitMs));
  result.note("wall time",
              "setup median " + std::to_string(median(setupWallS)) +
                  " s, ttfs p50 " + std::to_string(median(ttfsWarmWall)) +
                  " ms, request p50 " + std::to_string(median(requestWallMs)) +
                  " ms, p90 " + std::to_string(quantile(requestWallMs, 0.9)) +
                  " ms, " +
                  std::to_string(static_cast<double>(samples) / timedWallS) +
                  " samples/s over " + std::to_string(timedWallS) +
                  " s (speed probes included)");
  result.metric("setup_s", median(setupMs) / 1000.0, "s");
  result.metric("samples_per_cpu_s", roundSamples / (roundMs / 1000.0), "1/s");
  result.metric("ttfs_cpu_p50_ms", median(warmMs), "ms");
  result.metric("cold_ttfs_cpu_p50_ms", median(coldMs), "ms");
  result.metric("request_cpu_p50_ms", median(totalMs), "ms");
  result.metric("fits_per_cpu_s",
                static_cast<double>(kFitControlLanes) /
                    (median(scaledMs(fitMs)) / 1000.0),
                "1/s");
  result.metric("peak_rss_mib", peakRssMiB(), "MiB");
  result.note(
      "counts",
      std::to_string(rounds) + " timed rounds, " + std::to_string(requests) +
          " requests, " + std::to_string(samples) +
          " samples; times are CPU time of each connection's server thread "
          "plus its client thread, at the reference speed; "
          "samples_per_cpu_s: a round's samples over the sum of its slots' "
          "median CPU times; ttfs_p50 over " +
          std::to_string(warmMs.size()) + " steady warm requests (" +
          w.warmPop + "); cold_ttfs over " + std::to_string(coldMs.size()) +
          " steady cold requests (" + w.coldPop + "); request_p50 over " +
          std::to_string(totalMs.size()) + " steady " +
          (w.requestPop == Pop::warm ? "warm" : "cold") +
          " requests; setup_s over " + std::to_string(setupMs.size()) +
          " steady set-ups (CPU time of every thread); fits_per_cpu_s: "
          "control, median of the steady ones of " +
          std::to_string(fitMs.size()) +
          " one-thread batches of 64 lanes after the set-ups, rotated over "
          "the CPUs");
  return result.correct() ? 0 : 1;
}

// --- traced run ------------------------------------------------------------

/// Per-request record of the traced replay.
struct TracedRequest {
  const Req* req = nullptr;
  double us = 0.0;
  mc::McResult mc;
  std::uint64_t fullFactors = 0;
  std::uint64_t fastRefactors = 0;
  int frames = 0;
};

/// Replays `reqs` through the public calls that make up
/// CampaignServer::handleLine, one span per call.
std::vector<TracedRequest> tracedReplay(const std::vector<const Req*>& reqs,
                                        Tracer& tracer, int& sessionsBuilt,
                                        serve::SessionCache& cache) {
  std::vector<TracedRequest> out;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const long id = static_cast<long>(i);
    TracedRequest t;
    t.req = reqs[i];
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope request(tracer, "serve.request", id);
      serve::JsonValue doc;
      {
        Tracer::Scope s(tracer, "serve.parseJson", id);
        doc = serve::parseJson(reqs[i]->line);
      }
      serve::CampaignRequest parsed;
      {
        Tracer::Scope s(tracer, "serve.parseCampaignRequest", id);
        parsed = serve::parseCampaignRequest(doc);
      }
      std::shared_ptr<const serve::DeckPlan> deck;
      {
        Tracer::Scope s(tracer, "serve.deckPlan", id);
        deck = cache.deckPlan(parsed.deck);
      }
      std::optional<serve::CampaignPlan> plan;
      {
        Tracer::Scope s(tracer, "serve.CampaignPlan", id);
        plan.emplace(std::move(parsed), std::move(deck));
      }
      serve::SessionCache::Acquired acquired;
      {
        Tracer::Scope s(tracer, "serve.SessionCache.acquire", id);
        acquired = cache.acquire(*plan);
      }
      if (acquired.pool->sessionCount() == 0) {
        Tracer::Scope s(tracer, "sim.SessionPool.acquire.cold", id);
        (void)acquired.pool->acquire();
        ++sessionsBuilt;
      }
      spice::SimSession::SolverTelemetry before;
      {
        auto lease = acquired.pool->acquire();
        before = lease->spice().solverTelemetry();
      }
      {
        Tracer::Scope run(tracer, "mc.CampaignPlan.run", id);
        int chunk = tracer.begin("mc.chunk", id);
        const serve::FrameSink emit = [&](const std::string& frame) {
          ++t.frames;
          if (!startsWith(frame, "{\"type\":\"progress\"")) return;
          tracer.end(chunk);
          chunk = tracer.begin("mc.chunk", id);
        };
        t.mc = plan->run(*acquired.pool, emit, acquired.warm);
        tracer.end(chunk);
      }
      {
        auto lease = acquired.pool->acquire();
        const auto after = lease->spice().solverTelemetry();
        t.fullFactors = after.fullFactors - before.fullFactors;
        t.fastRefactors = after.fastRefactors - before.fastRefactors;
      }
    }
    t.us = msSince(t0) * 1000.0;
    out.push_back(std::move(t));
  }
  return out;
}

/// Mean cost of building one frame of each kind [us], from a chunk view
/// over a finished campaign's values.
double frameUs(const Req& req, const mc::McResult& mcResult) {
  const std::vector<double>& values = mcResult.metrics[0];
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  std::vector<char> ok(n, 1);
  std::vector<signed char> cls(n, -1);
  std::vector<int> rescues(n, 0);
  mc::McChunkView view;
  view.first = 0;
  view.end = n;
  view.total = n;
  view.metricCount = 1;
  view.metrics = values.data();
  view.ok = ok.data();
  view.failureClass = cls.data();
  view.rescues = rescues.data();
  serve::StreamingEstimator est(1, std::nullopt);
  est.fold(view);
  const double progress =
      timeUs([&] { (void)serve::progressFrame(req.deckName, est, 1.0); });
  const double kde =
      timeUs([&] { (void)serve::kdeFrame(req.deckName, est, 32); });
  const double fin = timeUs([&] {
    (void)serve::finalFrame(req.deckName, mcResult, n, std::nullopt, true,
                            1.0, 2.0);
  });
  return (progress + kde + fin) / 3.0;
}

int traced(const Workload& w, const Options& options, Result& result) {
  // The replay sequence: priming, then the traced rounds, connection by
  // connection (deterministic: one thread, so cache hits and session
  // builds are a function of the workload alone).
  std::vector<std::vector<Req>> storage;
  std::vector<const Req*> reqs;
  for (const auto& list : w.prime)
    for (const Req& r : list) reqs.push_back(&r);
  for (int round = 0; round < w.tracedRounds; ++round)
    for (int c = 0; c < w.connections; ++c)
      storage.push_back(w.round(c, round));
  for (const auto& list : storage)
    for (const Req& r : list) reqs.push_back(&r);

  // (a) untraced in-process handleLine, once to warm the process and once
  // after the traced replay for the overhead comparison.
  const auto handleReplay = [&reqs] {
    std::vector<double> ms;
    serve::CampaignServer server;
    for (const Req* r : reqs) {
      const Clock::time_point t0 = Clock::now();
      server.handleLine(r->line, [](const std::string&) {});
      ms.push_back(msSince(t0));
    }
    return ms;
  };
  (void)handleReplay();
  // (b) traced decomposition.
  Tracer tracer;
  int sessionsBuilt = 0;
  serve::SessionCache cache;
  const std::vector<TracedRequest> tracedReqs =
      tracedReplay(reqs, tracer, sessionsBuilt, cache);
  const std::vector<double> handleMs = handleReplay();
  // (c) the socket, one connection.
  std::vector<double> socketMs;
  std::vector<std::pair<const Req*, std::string>> finals;
  {
    const std::string path = socketPath();
    Host host(path);
    Client client(path);
    int failed = 0;
    for (const Req* r : reqs) {
      const Outcome o = client.request(r->line, r->id, true);
      result.operation(o.ok(), "traced request " + r->id + ": " + o.why());
      failed += o.ok() ? 0 : 1;
      socketMs.push_back(o.totalWallMs);
      finals.emplace_back(r, o.finalFrame);
    }
    result.check(failed == 0,
                 std::to_string(failed) + " traced socket requests failed");
    noteCache(result, host.server(), "after socket replay");
  }
  verifyFinals(finals, result);

  // Probes, per distinct deck.
  struct DeckProbe {
    CircuitProbe circuit;
    double parseUs = 0.0;
    double deckPlanUs = 0.0;
    double rebindUs = 0.0;
    double frameUs = 0.0;
  };
  // Keyed by topology label: value edits of one mesh share its costs.
  std::map<std::string, DeckProbe> probes;
  for (const TracedRequest& t : tracedReqs) {
    if (probes.count(t.req->deckName) != 0) continue;
    DeckProbe p;
    const std::string& deck = t.req->deck;
    p.parseUs = timeUs([&] { (void)spice::parseNetlist(deck); });
    p.deckPlanUs = timeUs([&] {
      serve::SessionCache fresh(1);
      (void)fresh.deckPlan(deck);
    });
    spice::ParsedNetlist parsed = spice::parseNetlist(deck);
    p.circuit = probeCircuit(parsed.circuit);
    const serve::CampaignPlan plan(
        serve::parseCampaignRequest(serve::parseJson(t.req->line)));
    auto pool = plan.makePool();
    auto lease = pool->acquire();
    stats::Rng rng(mixSeed(options.seed, 600));
    std::uint64_t k = 0;
    p.rebindUs = timeUs([&] { lease->bindSample(rng.fork(++k)); });
    p.frameUs = frameUs(*t.req, t.mc);
    probes.emplace(t.req->deckName, p);
  }

  // Attribution over the traced replay.
  double totalUs = 0.0, anchorUs = 0.0, tunedUs = 0.0;
  double anchorSamples = 0.0, tunedSamples = 0.0, okSamples = 0.0,
         allSamples = 0.0, failures = 0.0, rescued = 0.0, frames = 0.0;
  std::uint64_t iters = 0, warmHits = 0, warmOpp = 0;
  LayerTime layers;
  std::vector<std::pair<CircuitProbe, double>> weighted;
  double parseW = 0.0, deckPlanW = 0.0, rebindW = 0.0, frameW = 0.0;
  const std::vector<double> runUs = tracer.durationsUs("mc.CampaignPlan.run");
  for (std::size_t i = 0; i < tracedReqs.size(); ++i) {
    const TracedRequest& t = tracedReqs[i];
    const DeckProbe& p = probes.at(t.req->deckName);
    totalUs += t.us;
    const double n = static_cast<double>(t.req->samples);
    allSamples += n;
    okSamples += static_cast<double>(t.mc.sampleCount());
    failures += t.mc.failures;
    rescued += t.mc.rescued;
    iters += t.mc.newtonIterations;
    warmHits += t.mc.warmStartHits;
    warmOpp += t.mc.warmStartOpportunities;
    frames += t.frames;
    (t.req->mode == Mode::anchor ? anchorUs : tunedUs) += runUs[i];
    (t.req->mode == Mode::anchor ? anchorSamples : tunedSamples) += n;
    CampaignCounts counts;
    counts.samples = t.req->samples;
    counts.newtonIterations = t.mc.newtonIterations;
    counts.fullFactors = t.fullFactors;
    counts.fastRefactors = t.fastRefactors;
    counts.fastNumerics = t.req->mode != Mode::anchor;
    layers.add(attribute(p.circuit, counts, p.rebindUs));
    weighted.emplace_back(p.circuit, n);
    parseW += p.parseUs;
    deckPlanW += p.deckPlanUs;
    rebindW += p.rebindUs * n;
    frameW += p.frameUs * t.frames;
  }
  const double count = static_cast<double>(tracedReqs.size());
  const double serveUs =
      tracer.selfUs("serve.parseJson") +
      tracer.selfUs("serve.parseCampaignRequest") +
      tracer.selfUs("serve.deckPlan") + tracer.selfUs("serve.CampaignPlan") +
      tracer.selfUs("serve.SessionCache.acquire") + frameW;
  layers.sim += tracer.totalUs("sim.SessionPool.acquire.cold");

  const auto stats = cache.stats();
  std::vector<double> transport;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    transport.push_back(socketMs[i] - handleMs[i]);
  double handleTotal = 0.0;
  for (double ms : handleMs) handleTotal += ms;
  const std::vector<double> builds =
      tracer.durationsUs("sim.SessionPool.acquire.cold");

  result.metric("serve.json_parse_us",
                tracer.totalUs("serve.parseJson") / count, "us");
  result.metric("serve.validate_us",
                tracer.totalUs("serve.parseCampaignRequest") / count, "us");
  result.metric("serve.deck_plan_us", deckPlanW / count, "us");
  result.metric("serve.cache_hit_share",
                static_cast<double>(stats.hits) /
                    static_cast<double>(stats.hits + stats.misses),
                "ratio");
  result.metric("serve.cache_evictions", static_cast<double>(stats.evictions),
                "count");
  result.metric("serve.frame_us", frameW / std::max(1.0, frames), "us");
  result.metric("serve.frames_per_request", frames / count, "count");
  result.metric("serve.handle_line_ms_p50", median(handleMs), "ms");
  result.metric("serve.transport_ms_p50", median(transport), "ms");
  result.metric("sim.session_build_ms",
                builds.empty() ? 0.0 : median(builds) / 1000.0, "ms");
  result.metric("sim.sessions_built", sessionsBuilt, "count");
  result.metric("sim.rebind_us", rebindW / allSamples, "us");
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
  result.metric("spice.netlist_parse_us", parseW / count, "us");
  emitCircuitMetrics(result, weightedProbe(weighted));
  emitPaperMetrics(result, probePaper(options.seed));
  result.metric("util.pool_workers",
                util::ThreadPool::instance().workerCount(), "count");

  const double share = 1.0 / totalUs;
  result.metric("serve.share", serveUs * share, "ratio");
  result.metric("sim.share", layers.sim * share, "ratio");
  result.metric("spice.share", layers.spice * share, "ratio");
  result.metric("linalg.share", layers.linalg * share, "ratio");
  result.metric("models.share", layers.models * share, "ratio");
  result.metric("measure.share", 0.0, "ratio");
  result.metric("extract.share", 0.0, "ratio");
  result.metric("unattributed_share",
                1.0 - (serveUs + layers.sim + layers.spice + layers.linalg +
                       layers.models) *
                          share,
                "ratio");
  result.metric("trace.overhead_share",
                (totalUs / 1000.0 - handleTotal) / handleTotal, "ratio");

  result.note("traced replay",
              std::to_string(reqs.size()) + " requests, " +
                  std::to_string(static_cast<long>(allSamples)) +
                  " samples; cache hits " + std::to_string(stats.hits) +
                  ", misses " + std::to_string(stats.misses) +
                  ", evictions " + std::to_string(stats.evictions) +
                  "; spans " + std::to_string(tracer.spans().size()));
  tracer.write(".bench_build/trace-" + w.name + ".jsonl");
  return result.correct() ? 0 : 1;
}

}  // namespace

int traceServingProbe(const Options& options, Result& result) {
  Workload w = cellWarm(options.seed);
  w.tracedRounds = 1;
  return traced(w, options, result);
}

int runServing(const Options& options, Result& result) {
  const Workload w = options.workload == "cell_warm" ? cellWarm(options.seed)
                                                     : gridEdit(options.seed);
  return options.trace ? traced(w, options, result)
                       : untraced(w, options, result);
}

}  // namespace perfbench
