// Campaign-server integration (serve/server.hpp): the protocol core end to
// end -- classified error frames, streamed campaigns whose final statistics
// are BIT-equal to a same-seed in-process mc::runCampaign at 1/2/4
// workers (DC and transient analyses), warm session-cache reuse, two
// campaigns interleaving through the shared thread pool, pools outliving
// their deck-plan cache entry, and request-line framing on a real socket.
#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mc/circuit_campaign.hpp"
#include "mc/providers.hpp"
#include "spice/netlist.hpp"
#include "stats/descriptive.hpp"

namespace vsstat::serve {
namespace {

constexpr const char* kInverterDeck =
    "VDD vdd 0 0.9\n"
    "VIN in 0 0.45\n"
    "MP out in vdd pch W=600n L=40n\n"
    "MN out in 0 nch W=300n L=40n\n"
    ".model nch vs_nmos\n"
    ".model pch vs_pmos\n"
    ".end\n";

constexpr const char* kDividerDeck =
    "VDD vdd 0 0.9\n"
    "MN1 mid vdd 0 nch W=300n L=40n\n"
    "MN2 vdd vdd mid nch W=300n L=40n\n"
    ".model nch vs_nmos\n"
    ".end\n";

std::string makeRequest(const std::string& id, const char* deck, int samples,
                        unsigned threads, int streamEvery) {
  std::string req = "{\"id\":";
  appendJsonString(req, id);
  req += ",\"deck\":";
  appendJsonString(req, deck);
  req += ",\"samples\":" + std::to_string(samples);
  req += ",\"seed\":11,\"threads\":" + std::to_string(threads);
  req += ",\"stream_every\":" + std::to_string(streamEvery);
  req += ",\"measure\":{\"probes\":[\"" +
         std::string(deck == kDividerDeck ? "mid" : "out") + "\"]}}";
  return req;
}

std::vector<std::string> runLine(CampaignServer& server,
                                 const std::string& line) {
  std::vector<std::string> frames;
  server.handleLine(line,
                    [&frames](const std::string& f) { frames.push_back(f); });
  return frames;
}

JsonValue finalFrameOf(const std::vector<std::string>& frames) {
  for (const std::string& f : frames) {
    const JsonValue frame = parseJson(f);
    const std::string type = frame.find("type")->string;
    if (type == "final" || type == "error") return frame;
  }
  ADD_FAILURE() << "no terminal frame";
  return JsonValue{};
}

int countProgress(const std::vector<std::string>& frames) {
  int n = 0;
  for (const std::string& f : frames)
    if (f.find("\"type\":\"progress\"") != std::string::npos) ++n;
  return n;
}

// --- error paths -----------------------------------------------------------

TEST(CampaignServer, BadJsonGetsAnErrorFrame) {
  CampaignServer server;
  const std::vector<std::string> frames = runLine(server, "{nope");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(finalFrameOf(frames).find("code")->string, "bad_json");
}

TEST(CampaignServer, SchemaViolationGetsBadRequestWithIdEcho) {
  CampaignServer server;
  const std::vector<std::string> frames =
      runLine(server, R"({"id": "r9", "deck": "x"})");
  ASSERT_EQ(frames.size(), 1u);
  const JsonValue frame = finalFrameOf(frames);
  EXPECT_EQ(frame.find("code")->string, "bad_request");
  EXPECT_EQ(frame.find("id")->string, "r9");
}

TEST(CampaignServer, MalformedDeckGetsLineClassifiedDeckError) {
  // The last three are element checks (R <= 0, C < 0, duplicate name): the
  // deck parse must reject them itself, before any pool is built.
  const struct {
    const char* deck;
    int line;
    const char* fragment;
  } cases[] = {
      {"V1 a 0 1.0\nR1 a 0 bogus\n", 2, "bogus"},
      {"V1 a 0 1.0\nR1 a 0 1k\nR2 a 0 0\n", 3, "positive resistance"},
      {"V1 a 0 1.0\nR1 a 0 1k\nC1 a 0 -1f\n", 3, "non-negative"},
      {"V1 a 0 1.0\nR1 a 0 1k\n* note\nR1 a 0 2k\n", 4, "duplicate"},
  };
  for (const auto& c : cases) {
    CampaignServer server;
    std::string req = R"({"deck": )";
    appendJsonString(req, c.deck);
    req += R"(, "measure": {"probes": ["a"]}})";
    const std::vector<std::string> frames = runLine(server, req);
    ASSERT_EQ(frames.size(), 1u) << c.deck;
    const JsonValue frame = finalFrameOf(frames);
    EXPECT_EQ(frame.find("code")->string, "deck_error") << c.deck;
    EXPECT_DOUBLE_EQ(frame.find("line")->number, c.line) << c.deck;
    EXPECT_NE(frame.find("message")->string.find(c.fragment),
              std::string::npos)
        << frame.find("message")->string;
    EXPECT_EQ(server.cache().stats().misses, 0u) << c.deck;
  }
}

TEST(CampaignServer, UnknownProbeGetsBadRequest) {
  CampaignServer server;
  std::string req = R"({"deck": )";
  appendJsonString(req, kInverterDeck);
  req += R"(, "measure": {"probes": ["nonexistent"]}})";
  const JsonValue frame = finalFrameOf(runLine(server, req));
  EXPECT_EQ(frame.find("code")->string, "bad_request");
  EXPECT_NE(frame.find("message")->string.find("nonexistent"),
            std::string::npos);
}

TEST(CampaignServer, BlankLinesAreIgnored) {
  CampaignServer server;
  EXPECT_TRUE(runLine(server, "").empty());
  EXPECT_TRUE(runLine(server, "  \t").empty());
}

// --- streamed statistics vs in-process campaigns ---------------------------

constexpr int kSamples = 48;

/// The reference: the same campaign through the public in-process API
/// (mc::runCampaign over a deck-built fixture), same seed and axes.
mc::McResult inProcessCampaign(unsigned threads) {
  spice::ParsedNetlist parsed = spice::parseNetlist(kInverterDeck);
  const spice::NodeId out = parsed.circuit.node("out");
  const models::VsParams nmos = *parsed.vsNmos;
  const models::VsParams pmos = *parsed.vsPmos;

  mc::McOptions opt;
  opt.samples = kSamples;
  opt.seed = 11;
  opt.threads = threads;
  return mc::runCampaign<DeckFixture>(
      opt, 1,
      [](circuits::DeviceProvider& p) {
        return DeckFixture{
            std::move(spice::parseNetlist(kInverterDeck, p).circuit)};
      },
      [nmos, pmos] {
        return std::make_unique<mc::VsStatisticalProvider>(
            nmos, pmos, defaultAlphas(), defaultAlphas(), stats::Rng(1));
      },
      [out](std::size_t, sim::CampaignSession<DeckFixture>& session,
            stats::Rng&, std::vector<double>& metrics) {
        metrics[0] = session.spice().dcOperatingPoint().v(out);
      });
}

TEST(CampaignServer, StreamedFinalStatsBitEqualInProcessCampaign) {
  const mc::McResult reference = inProcessCampaign(1);
  ASSERT_EQ(reference.sampleCount(), static_cast<std::size_t>(kSamples));
  const stats::Summary summary = stats::summarize(reference.metrics[0]);
  char refHash[32];
  std::snprintf(refHash, sizeof refHash, "0x%016" PRIx64,
                metricsFingerprint(reference));

  // The worker-count sweep doubles as the scheduling-independence check:
  // in-process campaigns are bit-identical across 1/2/4 workers, so one
  // reference serves all three server runs.
  for (const unsigned threads : {1u, 2u, 4u}) {
    const mc::McResult parallel = inProcessCampaign(threads);
    EXPECT_EQ(parallel.metrics[0], reference.metrics[0])
        << threads << " workers";

    CampaignServer server;
    const std::vector<std::string> frames = runLine(
        server, makeRequest("bits", kInverterDeck, kSamples, threads, 16));
    EXPECT_GE(countProgress(frames), 3) << threads << " workers";

    const JsonValue frame = finalFrameOf(frames);
    ASSERT_EQ(frame.find("type")->string, "final") << threads << " workers";
    // %.17g serialization round-trips exactly: parsed values must be
    // BIT-equal to the in-process statistics.
    EXPECT_EQ(frame.find("mean")->number, summary.mean);
    EXPECT_EQ(frame.find("sigma")->number, summary.stddev);
    EXPECT_EQ(frame.find("median")->number, summary.median);
    EXPECT_EQ(frame.find("metrics_fnv1a")->string, refHash);
    EXPECT_DOUBLE_EQ(frame.find("ok")->number,
                     static_cast<double>(kSamples));
  }
}

TEST(CampaignServer, RepeatRequestGoesWarmWithIdenticalBits) {
  CampaignServer server;
  const std::string request =
      makeRequest("warmth", kInverterDeck, kSamples, 2, 16);

  const JsonValue cold = finalFrameOf(runLine(server, request));
  ASSERT_EQ(cold.find("type")->string, "final");
  EXPECT_EQ(cold.find("cache")->string, "cold");

  const JsonValue warm = finalFrameOf(runLine(server, request));
  ASSERT_EQ(warm.find("type")->string, "final");
  EXPECT_EQ(warm.find("cache")->string, "warm");
  EXPECT_EQ(warm.find("metrics_fnv1a")->string,
            cold.find("metrics_fnv1a")->string);

  const auto stats = server.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CampaignServer, InterleavedCampaignsMatchTheirSoloRuns) {
  // Solo baselines, one per topology.
  std::string soloInvHash;
  std::string soloDivHash;
  {
    CampaignServer solo;
    soloInvHash = finalFrameOf(runLine(solo, makeRequest("a", kInverterDeck,
                                                         kSamples, 2, 12)))
                      .find("metrics_fnv1a")
                      ->string;
    soloDivHash = finalFrameOf(runLine(solo, makeRequest("b", kDividerDeck,
                                                         kSamples, 2, 12)))
                      .find("metrics_fnv1a")
                      ->string;
  }

  // Two concurrent connections, two topologies: campaigns interleave at
  // chunk granularity on the shared worker pool and session cache.
  CampaignServer server;
  std::vector<std::string> invFrames;
  std::vector<std::string> divFrames;
  std::thread invThread([&] {
    invFrames =
        runLine(server, makeRequest("a", kInverterDeck, kSamples, 2, 12));
  });
  std::thread divThread([&] {
    divFrames =
        runLine(server, makeRequest("b", kDividerDeck, kSamples, 2, 12));
  });
  invThread.join();
  divThread.join();

  EXPECT_GE(countProgress(invFrames), 3);
  EXPECT_GE(countProgress(divFrames), 3);
  const JsonValue invFinal = finalFrameOf(invFrames);
  const JsonValue divFinal = finalFrameOf(divFrames);
  ASSERT_EQ(invFinal.find("type")->string, "final");
  ASSERT_EQ(divFinal.find("type")->string, "final");
  EXPECT_EQ(invFinal.find("id")->string, "a");
  EXPECT_EQ(divFinal.find("id")->string, "b");
  // Concurrency must not leak into results: same bits as the solo runs.
  EXPECT_EQ(invFinal.find("metrics_fnv1a")->string, soloInvHash);
  EXPECT_EQ(divFinal.find("metrics_fnv1a")->string, soloDivHash);
}

TEST(SessionCache, PoolBuildsSessionsAfterItsDeckPlanIsEvicted) {
  SessionCache cache(2);
  const CampaignRequest request = parseCampaignRequest(
      parseJson(makeRequest("evicted", kInverterDeck, kSamples, 1, 16)));
  std::shared_ptr<sim::SessionPool<DeckFixture>> pool;
  std::weak_ptr<const DeckPlan> cached;
  {
    const std::shared_ptr<const DeckPlan> deck = cache.deckPlan(request.deck);
    cached = deck;
    pool = CampaignPlan(request, deck).makePool();
  }
  // Churn the plan cache past its capacity: the inverter's plan leaves it,
  // and the pool's builder holds the only reference to its Deck.
  for (int i = 1; i <= 3; ++i)
    (void)cache.deckPlan("V1 a 0 " + std::to_string(i) + "\nR1 a 0 1k\n");
  EXPECT_TRUE(cached.expired());
  ASSERT_EQ(pool->sessionCount(), 0u);

  const mc::McResult served = CampaignPlan(request).run(*pool, nullptr, false);
  EXPECT_EQ(pool->sessionCount(), 1u);
  EXPECT_EQ(served.metrics[0], inProcessCampaign(1).metrics[0]);
}

// --- transient analysis over the wire --------------------------------------

constexpr const char* kTranDeck =
    "VDD vdd 0 0.9\n"
    "VIN in 0 PULSE(0 0.9 10p 10p 10p 60p 160p)\n"
    "MP out in vdd pch W=600n L=40n\n"
    "MN out in 0 nch W=300n L=40n\n"
    "C1 out 0 2f\n"
    ".tran 1p 120p\n"
    ".model nch vs_nmos\n"
    ".model pch vs_pmos\n"
    ".end\n";

TEST(CampaignServer, ServedTransientBitEqualsInProcessCampaign) {
  constexpr int kTranSamples = 8;
  spice::ParsedNetlist parsed = spice::parseNetlist(kTranDeck);
  const spice::NodeId out = parsed.circuit.node("out");
  const models::VsParams nmos = *parsed.vsNmos;
  const models::VsParams pmos = *parsed.vsPmos;
  mc::McOptions opt;
  opt.samples = kTranSamples;
  opt.seed = 11;
  opt.threads = 1;
  const mc::McResult reference = mc::runCampaign<DeckFixture>(
      opt, 1,
      [](circuits::DeviceProvider& p) {
        return DeckFixture{
            std::move(spice::parseNetlist(kTranDeck, p).circuit)};
      },
      [nmos, pmos] {
        return std::make_unique<mc::VsStatisticalProvider>(
            nmos, pmos, defaultAlphas(), defaultAlphas(), stats::Rng(1));
      },
      [out](std::size_t, sim::CampaignSession<DeckFixture>& session,
            stats::Rng&, std::vector<double>& metrics) {
        spice::TransientOptions topt;
        topt.dt = 1e-12;
        topt.tStop = 120e-12;
        metrics[0] = session.spice().transient(topt).finalValue(out);
      });
  ASSERT_EQ(reference.sampleCount(), static_cast<std::size_t>(kTranSamples));
  char refHash[32];
  std::snprintf(refHash, sizeof refHash, "0x%016" PRIx64,
                metricsFingerprint(reference));

  for (const unsigned threads : {1u, 2u}) {
    std::string req = "{\"id\":\"tran\",\"deck\":";
    appendJsonString(req, kTranDeck);
    req += ",\"samples\":" + std::to_string(kTranSamples) +
           ",\"seed\":11,\"threads\":" + std::to_string(threads) +
           ",\"stream_every\":4"
           ",\"measure\":{\"analysis\":\"tran\",\"probes\":[\"out\"]}}";
    CampaignServer server;
    const JsonValue frame = finalFrameOf(runLine(server, req));
    ASSERT_EQ(frame.find("type")->string, "final")
        << threads << " workers: " << frame.find("message")->string;
    EXPECT_EQ(frame.find("metrics_fnv1a")->string, refHash)
        << threads << " workers";
  }
}

// --- statistical tier over the wire ----------------------------------------

TEST(CampaignServer, StatisticalTierStreamsBlockedChunks) {
  CampaignServer server;
  std::string req = "{\"id\":\"st\",\"deck\":";
  appendJsonString(req, kInverterDeck);
  req += ",\"samples\":96,\"seed\":3,\"threads\":2"
         ",\"mode\":{\"tier\":\"statistical\",\"solver\":\"reusePivot\"}"
         ",\"stream_every\":24,\"kde_every\":48,\"kde_points\":16"
         ",\"measure\":{\"probes\":[\"out\"],\"spec\":{\"min\":0.2}}}";
  const std::vector<std::string> frames = runLine(server, req);

  // stream_every=24 rounds up to the 32-sample warm-chain block: 3 chunks.
  EXPECT_EQ(countProgress(frames), 3);
  int kdeFrames = 0;
  for (const std::string& f : frames)
    if (f.find("\"type\":\"kde\"") != std::string::npos) ++kdeFrames;
  EXPECT_GE(kdeFrames, 1);

  const JsonValue frame = finalFrameOf(frames);
  ASSERT_EQ(frame.find("type")->string, "final");
  EXPECT_EQ(frame.find("health")->string, "OK");
  ASSERT_NE(frame.find("yield"), nullptr);
  EXPECT_FALSE(frame.find("yield")->isNull());
}

// --- request-line framing on a real socket ---------------------------------

/// A server listening on a private unix socket, served from a thread.
class SocketServer {
 public:
  SocketServer()
      : path_((std::filesystem::temp_directory_path() /
               ("vsstat_test_server_" + std::to_string(::getpid()) + ".sock"))
                  .string()) {
    server_.listenUnix(path_);
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~SocketServer() {
    server_.stop();
    thread_.join();
    ::unlink(path_.c_str());
  }
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Connects a client; returns its socket.
  [[nodiscard]] int connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    return fd;
  }

 private:
  std::string path_;
  CampaignServer server_;
  std::thread thread_;
};

void sendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads frames until `count` terminal (final or error) frames arrived;
/// returns the terminal frames in order.
std::vector<JsonValue> readTerminalFrames(int fd, std::size_t count) {
  std::vector<JsonValue> terminal;
  std::string buffer;
  char chunk[4096];
  while (terminal.size() < count) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    JsonValue frame = parseJson(buffer.substr(0, newline));
    buffer.erase(0, newline + 1);
    const std::string type = frame.find("type")->string;
    if (type == "final" || type == "error")
      terminal.push_back(std::move(frame));
  }
  return terminal;
}

constexpr int kSocketSamples = 8;

TEST(CampaignServerSocket, OverLongLineGetsAnErrorAndTheConnectionServesOn) {
  SocketServer host;
  const int fd = host.connect();
  std::thread writer([fd] {
    sendAll(fd, std::string(kMaxRequestLineBytes + 1, 'x') + "\n");
    sendAll(fd,
            makeRequest("next", kInverterDeck, kSocketSamples, 1, 8) + "\n");
  });
  const std::vector<JsonValue> frames = readTerminalFrames(fd, 2);
  writer.join();
  ::close(fd);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].find("type")->string, "error");
  EXPECT_EQ(frames[0].find("code")->string, "bad_request");
  EXPECT_EQ(frames[1].find("type")->string, "final");
  EXPECT_EQ(frames[1].find("id")->string, "next");
}

TEST(CampaignServerSocket, LineSentInManySmallWritesIsServedOnce) {
  SocketServer host;
  const int fd = host.connect();
  const std::string split =
      makeRequest("split", kInverterDeck, kSocketSamples, 1, 8) + "\n";
  for (std::size_t at = 0; at < split.size(); at += 7) {
    sendAll(fd, split.substr(at, 7));
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  sendAll(fd, makeRequest("after", kInverterDeck, kSocketSamples, 1, 8) + "\n");
  const std::vector<JsonValue> frames = readTerminalFrames(fd, 2);
  ::close(fd);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].find("type")->string, "final");
  EXPECT_EQ(frames[0].find("id")->string, "split");
  EXPECT_EQ(frames[1].find("type")->string, "final");
  EXPECT_EQ(frames[1].find("id")->string, "after");
}

TEST(CampaignServerSocket, TwoLinesInOneWriteAreBothServed) {
  SocketServer host;
  const int fd = host.connect();
  sendAll(fd, makeRequest("one", kInverterDeck, kSocketSamples, 1, 8) + "\n" +
                  makeRequest("two", kDividerDeck, kSocketSamples, 1, 8) +
                  "\n");
  const std::vector<JsonValue> frames = readTerminalFrames(fd, 2);
  ::close(fd);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].find("id")->string, "one");
  EXPECT_EQ(frames[0].find("type")->string, "final");
  EXPECT_EQ(frames[1].find("id")->string, "two");
  EXPECT_EQ(frames[1].find("type")->string, "final");
}

TEST(CampaignServerSocket, StopBeforeServeReturns) {
  // A stop() that lands before serve() starts must not be lost: serve()
  // returns at once instead of blocking in accept() for a second stop().
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vsstat_test_server_stop_" + std::to_string(::getpid()) + ".sock"))
          .string();
  CampaignServer server;
  server.listenUnix(path);
  server.stop();
  std::promise<void> returned;
  std::future<void> served = returned.get_future();
  std::thread loop([&] {
    server.serve();
    returned.set_value();
  });
  const bool returnedAtOnce =
      served.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  if (!returnedAtOnce) server.stop();  // fail instead of hanging
  loop.join();
  ::unlink(path.c_str());
  EXPECT_TRUE(returnedAtOnce);
}

}  // namespace
}  // namespace vsstat::serve
