// Seeded mutation fuzzing of the request parser, the server's untrusted-
// input boundary for request lines.  Every mutant of the seed requests
// must either parse or throw JsonParseError (parseJson), and every parsed
// document must either validate or throw RequestValidationError
// (parseCampaignRequest) -- never crash or leak another exception type.
// An accepted request's integer fields must equal the JSON numbers they
// came from: nothing out of range is wrapped or truncated on the way in.
// Fixed seed and budget (well under 2 s in a Release build); the
// ASan/UBSan job runs it with the rest of the suite.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "serve/request.hpp"

namespace vsstat::serve {
namespace {

/// Valid request lines: minimal, full, and with every integer field set.
const char* const kSeedRequests[] = {
    R"({"deck": "V1 a 0 1.0\n", "measure": {"probes": ["a"]}})",
    R"({"id": "r7", "deck": "x", "samples": 512, "seed": 9, "threads": 4,
        "mode": {"numerics": "fast", "solver": "reusePivot",
                 "tier": "statistical"},
        "scheme": "sobol",
        "variability": {"sigma_scale": 2.0, "nmos": {"avt0": 1.5}},
        "measure": {"analysis": "tran", "probes": ["out", "q"],
                    "spec": {"min": 0.1, "max": 0.8}},
        "stream_every": 64, "kde_every": 128, "kde_points": 48})",
    R"({"deck": "VDD vdd 0 0.9\nR1 vdd out 1k\nR2 out 0 1k\n",
        "samples": 100000000, "seed": 9007199254740992, "threads": 0,
        "measure": {"probes": ["out"], "spec": {"min": null, "max": 0.5}},
        "stream_every": 2147483647, "kde_every": 0, "kde_points": 2})",
    R"({"deck": "x", "samples": 1, "seed": 0, "threads": 1024,
        "variability": {"pmos": {"amu": 800, "acinv": 0.25}},
        "measure": {"analysis": "op", "probes": ["a", "b", "c"]},
        "stream_every": 1, "kde_every": 1, "kde_points": 4096})",
    R"({"id": "A\"q\\", "deck": "V1 a 0 1\n", "scheme": "lhs",
        "measure": {"probes": ["a"]}, "kde_points": 32})",
    R"({"deck": "x", "samples": 64, "mode": {"tier": "perSample"},
        "measure": {"probes": ["n1"]}, "stream_every": 16,
        "kde_every": 32})",
};

/// Numbers at and beyond every field's range, and beyond the casts a
/// parser could make: 2^31, 2^32, 2^53 + 1, 2^63, 2^64, overflow.
const char* const kNumbers[] = {
    "1e19",       "4294967296", "4294967297", "2147483648", "2147483647",
    "-2147483649", "-1e300",    "1e300",      "9007199254740993",
    "9223372036854775808",      "18446744073709551616",   "1e999",
    "-0",         "0",          "1",          "-1",         "0.5",
    "100000001",  "1025",       "4097",       "1e-400",     "3e2"};

constexpr char kInserts[] = {'{', '}', '[', ']', ',', ':', '"', '\\',
                             ' ', '-', '.', 'e', '0', '\0'};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string text) {
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      if (text.empty()) text = "{}";
      switch (below(6)) {
        case 0:  // flip one bit
          text[below(text.size())] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // truncate
          text.resize(below(text.size() + 1));
          break;
        case 2:  // insert a structural character
          text.insert(below(text.size() + 1), 1,
                      kInserts[below(sizeof kInserts)]);
          break;
        case 3: {  // copy a span elsewhere (duplicate keys, nesting)
          const std::size_t from = below(text.size());
          const std::size_t len = below(text.size() - from + 1);
          text.insert(below(text.size() + 1), text.substr(from, len));
          break;
        }
        default:  // replace a number with an edge-case one (twice as often)
          replaceNumber(text);
          break;
      }
    }
    return text;
  }

 private:
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  static bool inNumber(char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.' ||
           c == 'e' || c == 'E' || c == '-' || c == '+';
  }

  void replaceNumber(std::string& text) {
    // Number tokens start after ':', '[', ',' or a space and are outside
    // strings often enough for the parser to see them as numbers.
    std::vector<std::size_t> starts;
    for (std::size_t i = 1; i < text.size(); ++i) {
      const char prev = text[i - 1];
      if ((prev == ':' || prev == ' ' || prev == '[' || prev == ',') &&
          (std::isdigit(static_cast<unsigned char>(text[i])) != 0 ||
           text[i] == '-'))
        starts.push_back(i);
    }
    if (starts.empty()) return;
    const std::size_t at = starts[below(starts.size())];
    std::size_t end = at;
    while (end < text.size() && inNumber(text[end])) ++end;
    text.replace(at, end - at, kNumbers[below(std::size(kNumbers))]);
  }

  std::mt19937_64 rng_;
};

/// An accepted request's integer fields equal their JSON numbers.
void expectIntegersAsSent(const JsonValue& doc, const CampaignRequest& req,
                          const std::string& line) {
  const auto sent = [&](const char* key, double got) {
    if (const JsonValue* v = doc.find(key)) {
      ASSERT_EQ(got, v->number) << key << " in " << line;
    }
  };
  sent("samples", static_cast<double>(req.samples));
  sent("seed", static_cast<double>(req.seed));
  sent("threads", static_cast<double>(req.threads));
  sent("stream_every", static_cast<double>(req.streamEvery));
  sent("kde_every", static_cast<double>(req.kdeEvery));
  sent("kde_points", static_cast<double>(req.kdePoints));
}

TEST(RequestFuzz, MutantsParseOrThrowClassifiedErrors) {
  constexpr int kMutantsPerSeed = 15000;
  Mutator mutate(20261017);
  int accepted = 0;
  int badJson = 0;
  int badRequest = 0;
  for (const char* seed : kSeedRequests) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string line = mutate(seed);
      JsonValue doc;
      try {
        doc = parseJson(line);
      } catch (const JsonParseError&) {
        ++badJson;
        continue;
      } catch (const std::exception& e) {
        FAIL() << "parseJson leaked " << typeid(e).name() << ": " << e.what()
               << "\nfor line:\n"
               << line;
      }
      try {
        const CampaignRequest req = parseCampaignRequest(doc);
        ++accepted;
        expectIntegersAsSent(doc, req, line);
      } catch (const RequestValidationError&) {
        ++badRequest;
      } catch (const std::exception& e) {
        FAIL() << "parseCampaignRequest leaked " << typeid(e).name() << ": "
               << e.what() << "\nfor line:\n"
               << line;
      }
    }
  }
  // Every outcome is exercised.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(badJson, 1000);
  EXPECT_GT(badRequest, 1000);
}

}  // namespace
}  // namespace vsstat::serve
