// Campaign-server request layer (serve/request.hpp): the hand-rolled JSON
// document model and the strict request-schema validation behind it.
#include "serve/request.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

namespace vsstat::serve {
namespace {

// --- JSON parser -----------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  EXPECT_TRUE(parseJson("true").boolean);
  EXPECT_FALSE(parseJson("false").boolean);
  EXPECT_DOUBLE_EQ(parseJson("-12.5e2").number, -1250.0);
  EXPECT_EQ(parseJson("\"hi\"").string, "hi");
}

TEST(Json, ParsesNestedDocument) {
  const JsonValue doc =
      parseJson(R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
  ASSERT_EQ(doc.kind, JsonValue::Kind::object);
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[1].number, 2.0);
  EXPECT_EQ(a->items[2].find("b")->string, "x");
  EXPECT_TRUE(doc.find("c")->find("d")->isNull());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, PreservesMemberOrder) {
  const JsonValue doc = parseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(doc.members.size(), 3u);
  EXPECT_EQ(doc.members[0].first, "z");
  EXPECT_EQ(doc.members[1].first, "a");
  EXPECT_EQ(doc.members[2].first, "m");
}

TEST(Json, DecodesEscapes) {
  EXPECT_EQ(parseJson(R"("a\nb\t\"q\"\\")").string, "a\nb\t\"q\"\\");
  EXPECT_EQ(parseJson(R"("Aé")").string, "A\xC3\xA9");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parseJson(""), JsonParseError);
  EXPECT_THROW((void)parseJson("{"), JsonParseError);
  EXPECT_THROW((void)parseJson("{\"a\":}"), JsonParseError);
  EXPECT_THROW((void)parseJson("[1,]"), JsonParseError);
  EXPECT_THROW((void)parseJson("\"unterminated"), JsonParseError);
  EXPECT_THROW((void)parseJson("tru"), JsonParseError);
  EXPECT_THROW((void)parseJson("{} trailing"), JsonParseError);
}

TEST(Json, RejectsNestingBeyondTheDepthCap) {
  // One 2 MB line of '[' would overflow the recursive descent's stack
  // without the cap; with it the parser throws its ordinary error (the
  // server's bad_json frame).
  EXPECT_THROW((void)parseJson(std::string(2'000'000, '[')), JsonParseError);
  EXPECT_THROW((void)parseJson(std::string(65, '[') + std::string(65, ']')),
               JsonParseError);
  EXPECT_NO_THROW(
      (void)parseJson(std::string(64, '[') + std::string(64, ']')));
  EXPECT_NO_THROW(
      (void)parseJson(R"({"a": {"b": {"c": [[{"d": 1}]]}}})"));
}

TEST(Json, NumberSerializationRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23, 0.0}) {
    std::string out;
    appendJsonNumber(out, v);
    const double back = parseJson(out).number;
    EXPECT_EQ(back, v) << out;  // bit-exact: %.17g round-trips doubles
  }
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  std::string out;
  appendJsonNumber(out, std::nan(""));
  EXPECT_EQ(out, "null");
  out.clear();
  appendJsonNumber(out, HUGE_VAL);
  EXPECT_EQ(out, "null");
}

TEST(Json, StringSerializationEscapes) {
  std::string out;
  appendJsonString(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

// --- request schema --------------------------------------------------------

JsonValue minimalRequest() {
  return parseJson(
      R"({"deck": "V1 a 0 1.0\n", "measure": {"probes": ["a"]}})");
}

TEST(CampaignRequestSchema, MinimalRequestGetsDefaults) {
  const CampaignRequest req = parseCampaignRequest(minimalRequest());
  EXPECT_EQ(req.samples, 1000);
  EXPECT_EQ(req.seed, 42u);
  EXPECT_EQ(req.threads, 1u);
  EXPECT_EQ(req.scheme, mc::SamplingPlan::Scheme::providerRng);
  EXPECT_EQ(req.mode.tier, spice::ToleranceTier::perSample);
  EXPECT_EQ(req.measure.analysis, MeasureSpec::Analysis::op);
  ASSERT_EQ(req.measure.probes.size(), 1u);
  EXPECT_FALSE(req.measure.spec.has_value());
  EXPECT_EQ(req.streamEvery, 256);
  // Default alphas are the paper-flavored Pelgrom set.
  EXPECT_DOUBLE_EQ(req.nmosAlphas.aVt0, defaultAlphas().aVt0);
}

TEST(CampaignRequestSchema, FullRequestParses) {
  const CampaignRequest req = parseCampaignRequest(parseJson(R"({
    "id": "r7", "deck": "x", "samples": 512, "seed": 9, "threads": 4,
    "mode": {"numerics": "fast", "solver": "reusePivot",
             "tier": "statistical"},
    "scheme": "sobol",
    "variability": {"sigma_scale": 2.0, "nmos": {"avt0": 1.5}},
    "measure": {"analysis": "tran", "probes": ["out", "q"],
                "spec": {"min": 0.1, "max": 0.8}},
    "stream_every": 64, "kde_every": 128, "kde_points": 48})"));
  EXPECT_EQ(req.id, "r7");
  EXPECT_EQ(req.samples, 512);
  EXPECT_EQ(req.mode.numerics, models::NumericsMode::fast);
  EXPECT_EQ(req.mode.solver, linalg::SolverMode::reusePivot);
  EXPECT_EQ(req.mode.tier, spice::ToleranceTier::statistical);
  EXPECT_EQ(req.scheme, mc::SamplingPlan::Scheme::sobol);
  // sigma_scale applies after per-polarity overrides, to both polarities.
  EXPECT_DOUBLE_EQ(req.nmosAlphas.aVt0, 3.0);
  EXPECT_DOUBLE_EQ(req.pmosAlphas.aVt0, 2.0 * defaultAlphas().aVt0);
  EXPECT_EQ(req.measure.analysis, MeasureSpec::Analysis::tran);
  ASSERT_EQ(req.measure.probes.size(), 2u);
  ASSERT_TRUE(req.measure.spec.has_value());
  EXPECT_DOUBLE_EQ(*req.measure.spec->lower, 0.1);
  EXPECT_DOUBLE_EQ(*req.measure.spec->upper, 0.8);
  EXPECT_EQ(req.streamEvery, 64);
  EXPECT_EQ(req.kdeEvery, 128);
  EXPECT_EQ(req.kdePoints, 48);
}

void expectBadRequest(const std::string& json, const std::string& needle) {
  try {
    (void)parseCampaignRequest(parseJson(json));
    ADD_FAILURE() << "accepted: " << json;
  } catch (const RequestValidationError& e) {
    EXPECT_EQ(e.code(), RequestError::badRequest);
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CampaignRequestSchema, RejectsSchemaViolations) {
  expectBadRequest(R"([1,2])", "must be a JSON object");
  expectBadRequest(R"({"measure": {"probes": ["a"]}})", "deck");
  expectBadRequest(R"({"deck": "", "measure": {"probes": ["a"]}})",
                   "deck must not be empty");
  expectBadRequest(R"({"deck": "x"})", "measure");
  expectBadRequest(R"({"deck": "x", "measure": {"probes": []}})", "probes");
  expectBadRequest(
      R"({"deck": "x", "samples": 0, "measure": {"probes": ["a"]}})",
      "samples");
  expectBadRequest(
      R"({"deck": "x", "samples": 2.5, "measure": {"probes": ["a"]}})",
      "integer");
  expectBadRequest(
      R"({"deck": "x", "mode": {"tier": "warp"}, "measure": {"probes": ["a"]}})",
      "tier");
  expectBadRequest(
      R"({"deck": "x", "scheme": "dartboard", "measure": {"probes": ["a"]}})",
      "dartboard");
  // Unknown keys fail loudly instead of silently running defaults.
  expectBadRequest(
      R"({"deck": "x", "samplez": 10, "measure": {"probes": ["a"]}})",
      "samplez");
  expectBadRequest(
      R"({"deck": "x", "measure": {"probes": ["a"], "specc": {}}})", "specc");
  expectBadRequest(
      R"({"deck": "x", "variability": {"nmos": {"avtO": 1}},
          "measure": {"probes": ["a"]}})",
      "avtO");
}

TEST(Request, RejectsIntegersOutsideTheirRange) {
  const auto with = [](const std::string& fields) {
    return R"({"deck": "x", "measure": {"probes": ["a"]}, )" + fields + "}";
  };
  // Beyond the casts a parser could make: converting 1e19 to a 64-bit
  // integer is undefined, and narrowing 2^32 to int wraps it to 0.
  expectBadRequest(with(R"("seed": 1e19)"), "seed must be in [0, ");
  expectBadRequest(with(R"("seed": 9007199254740994)"), "seed");  // 2^53 + 2
  expectBadRequest(with(R"("seed": -1)"), "seed");
  expectBadRequest(with(R"("samples": 1e19)"), "samples");
  expectBadRequest(with(R"("samples": 100000001)"), "samples");
  expectBadRequest(with(R"("threads": 1025)"), "threads");
  expectBadRequest(with(R"("threads": -1e300)"), "threads");
  expectBadRequest(with(R"("stream_every": 4294967296)"), "stream_every");
  expectBadRequest(with(R"("stream_every": 0)"), "stream_every");
  expectBadRequest(with(R"("kde_every": 4294967297)"), "kde_every");
  expectBadRequest(with(R"("kde_every": 2147483648)"), "kde_every");
  expectBadRequest(with(R"("kde_every": -1)"), "kde_every");
  expectBadRequest(with(R"("kde_points": 4097)"), "kde_points");

  // The ends of every range are accepted exactly.
  const CampaignRequest high = parseCampaignRequest(parseJson(
      with(R"("samples": 100000000, "seed": 9007199254740992,
              "threads": 1024, "stream_every": 2147483647,
              "kde_every": 2147483647, "kde_points": 4096)")));
  EXPECT_EQ(high.samples, 100'000'000);
  EXPECT_EQ(high.seed, std::uint64_t{1} << 53);
  EXPECT_EQ(high.threads, 1024u);
  EXPECT_EQ(high.streamEvery, 2147483647);
  EXPECT_EQ(high.kdeEvery, 2147483647);
  EXPECT_EQ(high.kdePoints, 4096);
  const CampaignRequest low = parseCampaignRequest(parseJson(
      with(R"("samples": 1, "seed": 0, "threads": 0, "stream_every": 1,
              "kde_every": 0, "kde_points": 2)")));
  EXPECT_EQ(low.samples, 1);
  EXPECT_EQ(low.seed, 0u);
  EXPECT_EQ(low.threads, 0u);
  EXPECT_EQ(low.streamEvery, 1);
  EXPECT_EQ(low.kdeEvery, 0);
  EXPECT_EQ(low.kdePoints, 2);
}

TEST(CampaignRequestSchema, WireNamesOfErrorCodes) {
  EXPECT_STREQ(toString(RequestError::badJson), "bad_json");
  EXPECT_STREQ(toString(RequestError::badRequest), "bad_request");
  EXPECT_STREQ(toString(RequestError::deckError), "deck_error");
  EXPECT_STREQ(toString(RequestError::campaignError), "campaign_error");
}

}  // namespace
}  // namespace vsstat::serve
