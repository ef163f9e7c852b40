// Campaign-server benchmark: the netlist-in/statistics-out daemon measured
// at the protocol layer (serve::CampaignServer::handleLine, no sockets --
// the socket loop only shuttles bytes into the same entry point).
//
// Three workloads, each measured cold and warm:
//
//   server_inv        -- the 2-transistor inverter deck: the protocol-
//                        overhead floor (parse + validate + tiny campaign);
//   server_chain24    -- a 24-stage / 48-transistor inverter-chain deck:
//                        the sample-dominated regime, where one DC Newton
//                        solve of the topology outweighs setup and the
//                        warm ratio is honest but modest;
//   server_rladder400 -- a 400-segment supply-rail resistor ladder feeding
//                        one statistically varied leakage NMOS: the
//                        parse/build-dominated regime (400+ deck lines,
//                        a 400-unknown pattern capture and ordering, but a
//                        cheap nearly linear per-sample solve) where the
//                        two-level cache pays hardest.  This is the
//                        headline warm_vs_cold_ttfs row.
//
// Cold rows run each request on a FRESH server (empty caches) and record
// the median time-to-first-stat (ttfs_ms): request arrival to the first
// streamed progress frame, including the deck hash and parse, pool
// construction, and lazy per-worker session builds.  Warm rows replay the
// identical request against a server whose deck-plan and session-pool
// caches already hold the topology (no deck parse, no session build), and
// additionally record p99 TTFS and end-to-end sequential request
// throughput (requests_per_sec).
//
//   warm_vs_cold_ttfs = median cold TTFS / median warm TTFS
//
// is the headline ratio: the caches must make the first streamed statistic
// of a repeat topology at least 2x faster (the committed BENCH_server.json
// floors the rladder row's CI band above that bar).  bit_identical asserts
// that every warm request's metrics_fnv1a fingerprint equals the cold
// run's: cache reuse must never leak into results.
//
// Output is machine-readable JSON, one object per line on stdout;
// BENCH_server.json records a reference run and CI gates regressions
// against it (scripts/check_bench_regression.py).
//
// Usage: bench_server [--quick]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using vsstat::serve::CampaignServer;

double msSince(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

constexpr const char* kInverterDeck =
    "VDD vdd 0 0.9\n"
    "VIN in 0 0.45\n"
    "MP out in vdd pch W=600n L=40n\n"
    "MN out in 0 nch W=300n L=40n\n"
    ".model nch vs_nmos\n"
    ".model pch vs_pmos\n"
    ".end\n";

/// N-stage inverter chain driven by a DC low: node n<i> is the output of
/// stage i, probed at the last stage.
std::string chainDeck(int stages) {
  std::string deck = "VDD vdd 0 0.9\nVIN n0 0 0.0\n";
  for (int i = 1; i <= stages; ++i) {
    const std::string in = "n" + std::to_string(i - 1);
    const std::string out = "n" + std::to_string(i);
    deck += "MP" + std::to_string(i) + " " + out + " " + in +
            " vdd pch W=600n L=40n\n";
    deck += "MN" + std::to_string(i) + " " + out + " " + in +
            " 0 nch W=300n L=40n\n";
  }
  deck += ".model nch vs_nmos\n.model pch vs_pmos\n.end\n";
  return deck;
}

/// Supply rail of `segments` series resistors feeding one diode-connected
/// leakage NMOS at the far end; the probed far-end voltage varies with the
/// device's statistical draw.  Parse and pattern-capture cost scale with
/// the segment count while the per-sample solve stays nearly linear.
std::string ladderDeck(int segments) {
  std::string deck = "VDD s0 0 0.9\n";
  for (int i = 1; i <= segments; ++i) {
    deck += "R" + std::to_string(i) + " s" + std::to_string(i - 1) + " s" +
            std::to_string(i) + " 0.05\n";
  }
  const std::string far = "s" + std::to_string(segments);
  deck += "MLEAK " + far + " " + far + " 0 nch W=1u L=40n\n";
  deck += ".model nch vs_nmos\n.end\n";
  return deck;
}

std::string makeRequest(const std::string& deck, const std::string& probe,
                        int samples, int streamEvery) {
  std::string req = "{\"id\":\"bench\",\"deck\":";
  vsstat::serve::appendJsonString(req, deck);
  req += ",\"samples\":" + std::to_string(samples);
  req += ",\"seed\":17,\"threads\":1";
  req += ",\"stream_every\":" + std::to_string(streamEvery);
  req += ",\"measure\":{\"probes\":[\"" + probe + "\"]}}";
  return req;
}

struct RequestOutcome {
  double ttfsMs = -1.0;   ///< request arrival -> first progress frame
  double totalMs = 0.0;   ///< request arrival -> final frame
  int progressFrames = 0;
  std::string hash;       ///< final frame's metrics_fnv1a
  bool finalOk = false;
};

RequestOutcome timeRequest(CampaignServer& server, const std::string& line) {
  RequestOutcome out;
  const Clock::time_point start = Clock::now();
  server.handleLine(line, [&out, start](const std::string& frame) {
    const Clock::time_point now = Clock::now();
    if (frame.find("\"type\":\"progress\"") != std::string::npos) {
      if (out.progressFrames++ == 0) out.ttfsMs = msSince(start, now);
    } else if (frame.find("\"type\":\"final\"") != std::string::npos) {
      const vsstat::serve::JsonValue doc = vsstat::serve::parseJson(frame);
      out.hash = doc.find("metrics_fnv1a")->string;
      out.finalOk = true;
    } else if (frame.find("\"type\":\"error\"") != std::string::npos) {
      std::fprintf(stderr, "bench_server: error frame: %s\n", frame.c_str());
    }
  });
  out.totalMs = msSince(start, Clock::now());
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile99(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      0.99 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

/// Runs the cold + warm rows for one workload; returns false on any
/// correctness violation (missing frames, fingerprint drift).
bool runWorkload(const char* name, const std::string& deck,
                 const std::string& probe, int samples, int streamEvery,
                 int coldReps, int warmReps) {
  const std::string request = makeRequest(deck, probe, samples, streamEvery);
  bool ok = true;

  // Cold: fresh server per repetition, so every request pays the
  // deck parse, pool construction, and lazy session build.
  std::vector<double> coldTtfs;
  std::string coldHash;
  double coldRequestMs = 0.0;
  int coldProgress = 0;
  for (int rep = 0; rep < coldReps; ++rep) {
    CampaignServer server;
    const RequestOutcome out = timeRequest(server, request);
    if (!out.finalOk || out.ttfsMs < 0) {
      std::fprintf(stderr, "bench_server: %s cold request failed\n", name);
      return false;
    }
    coldTtfs.push_back(out.ttfsMs);
    coldHash = out.hash;
    coldRequestMs = out.totalMs;
    coldProgress = out.progressFrames;
  }

  // Warm: one server, one priming request, then timed replays against the
  // now-cached session pool.
  CampaignServer server;
  const RequestOutcome prime = timeRequest(server, request);
  bool bitIdentical = prime.finalOk && prime.hash == coldHash;
  std::vector<double> warmTtfs;
  double warmTotalMs = 0.0;
  int warmProgress = 0;
  for (int rep = 0; rep < warmReps; ++rep) {
    const RequestOutcome out = timeRequest(server, request);
    if (!out.finalOk || out.ttfsMs < 0) {
      std::fprintf(stderr, "bench_server: %s warm request failed\n", name);
      return false;
    }
    bitIdentical = bitIdentical && out.hash == coldHash;
    warmTtfs.push_back(out.ttfsMs);
    warmTotalMs += out.totalMs;
    warmProgress = out.progressFrames;
  }
  if (coldProgress < 3 || warmProgress < 3) {
    std::fprintf(stderr,
                 "bench_server: %s streamed fewer than 3 progress frames "
                 "(cold %d, warm %d)\n",
                 name, coldProgress, warmProgress);
    ok = false;
  }
  if (!bitIdentical) {
    std::fprintf(stderr,
                 "bench_server: %s warm fingerprint diverged from cold\n",
                 name);
    ok = false;
  }

  const double coldMedian = median(coldTtfs);
  const double warmMedian = median(warmTtfs);
  const double ratio = warmMedian > 0.0 ? coldMedian / warmMedian : 0.0;
  const double reqPerSec =
      warmTotalMs > 0.0 ? 1000.0 * warmReps / warmTotalMs : 0.0;

  std::printf("{\"name\": \"%s_cold\", \"samples\": %d, \"threads\": 1, "
              "\"ttfs_ms\": %.3f, \"request_ms\": %.3f, "
              "\"progress_frames\": %d, \"metrics_fnv1a\": \"%s\"}\n",
              name, samples, coldMedian, coldRequestMs, coldProgress,
              coldHash.c_str());
  std::printf("{\"name\": \"%s_warm\", \"samples\": %d, \"threads\": 1, "
              "\"ttfs_ms\": %.3f, \"p99_ttfs_ms\": %.3f, "
              "\"requests_per_sec\": %.1f, \"warm_vs_cold_ttfs\": %.2f, "
              "\"bit_identical\": %s, \"progress_frames\": %d, "
              "\"metrics_fnv1a\": \"%s\"}\n",
              name, samples, warmMedian, percentile99(warmTtfs), reqPerSec,
              ratio, bitIdentical ? "true" : "false", warmProgress,
              coldHash.c_str());
  std::fflush(stdout);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  std::printf("# bench_server: campaign-server protocol layer "
              "(handleLine in-process; cold = fresh server per request, "
              "warm = cached session pool)%s\n",
              quick ? " [--quick]" : "");

  const int samples = quick ? 24 : 96;
  const int streamEvery = 1;
  const int coldReps = quick ? 3 : 7;
  const int warmReps = quick ? 16 : 64;

  bool ok = true;
  try {
    ok = runWorkload("server_inv", kInverterDeck, "out", samples,
                     streamEvery, coldReps, warmReps) &&
         ok;
    ok = runWorkload("server_chain24", chainDeck(24), "n24", samples,
                     streamEvery, coldReps, warmReps) &&
         ok;
    ok = runWorkload("server_rladder400", ladderDeck(400), "s400", samples,
                     streamEvery, coldReps, warmReps) &&
         ok;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_server: %s\n", e.what());
    return 1;
  }
  return ok ? 0 : 1;
}
