// Classified netlist parse errors (spice::NetlistParseError): every
// malformed deck must be rejected with the 1-based source line of the
// offending statement and an unprefixed diagnostic -- the campaign
// server's deck_error frames are only as good as these.  Also covers the
// provider-routed parse overload: routing vs_* instances through a
// NominalProvider built from the deck's own cards must reproduce the
// plain parse.
#include <gtest/gtest.h>

#include <utility>

#include "circuits/provider.hpp"
#include "models/vs_model.hpp"
#include "models/vs_params.hpp"
#include "spice/analysis.hpp"
#include "spice/netlist.hpp"

namespace vsstat::spice {
namespace {

/// Parses expecting a NetlistParseError; returns it for inspection.
NetlistParseError parseExpectingError(const std::string& deck) {
  try {
    (void)parseNetlist(deck);
  } catch (const NetlistParseError& e) {
    return e;
  }
  ADD_FAILURE() << "deck parsed without error:\n" << deck;
  return NetlistParseError(0, "unreachable");
}

TEST(NetlistErrors, EmptyNetlistReportsWholeNetlist) {
  const NetlistParseError e = parseExpectingError("");
  EXPECT_EQ(e.line(), 0);
  EXPECT_EQ(e.message(), "empty netlist");
  EXPECT_STREQ(e.what(), "netlist: empty netlist");
}

TEST(NetlistErrors, BadValueCarriesLineNumber) {
  const NetlistParseError e = parseExpectingError(
      "* comment line\n"
      "V1 a 0 1.0\n"
      "R1 a 0 bogus\n");
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(e.message().find("bogus"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("netlist line 3:"), std::string::npos);
}

TEST(NetlistErrors, UnknownModelFamily) {
  const NetlistParseError e = parseExpectingError(
      "V1 a 0 1.0\n"
      ".model broken not_a_family\n");
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(e.message().find("not_a_family"), std::string::npos);
}

TEST(NetlistErrors, MosfetReferencingUndeclaredModel) {
  const NetlistParseError e = parseExpectingError(
      "VDD vdd 0 0.9\n"
      "M1 out in vdd missing W=100n L=40n\n");
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(e.message().find("missing"), std::string::npos);
}

TEST(NetlistErrors, UnknownDirective) {
  const NetlistParseError e = parseExpectingError(
      "V1 a 0 1.0\n"
      ".frobnicate 1 2\n");
  EXPECT_EQ(e.line(), 2);
}

TEST(NetlistErrors, DuplicateElementNameIsLineClassified) {
  // Duplicate names are rejected by the Circuit, not the tokenizer; the
  // parser re-classifies them with the offending line anyway.
  const NetlistParseError e = parseExpectingError(
      "V1 a 0 1.0\n"
      "R1 a 0 1k\n"
      "R1 a 0 2k\n");
  EXPECT_EQ(e.line(), 3);
}

TEST(NetlistErrors, ContinuationLinesReportTheStatementHead) {
  // The PULSE card spreads over a continuation; the malformed token sits
  // on the continued statement, whose head starts at line 2.
  const NetlistParseError e = parseExpectingError(
      "* title comment\n"
      "VIN in 0 PULSE(0 0.9 10p\n"
      "+ 12p 12p nonsense)\n");
  EXPECT_EQ(e.line(), 2);
}

TEST(NetlistErrors, TranCardArity) {
  const NetlistParseError e = parseExpectingError(
      "V1 a 0 1.0\n"
      ".tran 1p\n");
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(e.message().find(".tran"), std::string::npos);
}

TEST(NetlistErrors, DerivesFromInvalidArgumentError) {
  // Pre-existing catch sites use InvalidArgumentError; the classified
  // error must keep flowing through them.
  EXPECT_THROW((void)parseNetlist("R1 a 0 oops\n"), InvalidArgumentError);
}

constexpr const char* kVsDeck =
    "VDD vdd 0 0.9\n"
    "VIN in 0 0.45\n"
    "MP out in vdd pch W=600n L=40n\n"
    "MN out in 0 nch W=300n L=40n\n"
    ".model nch vs_nmos\n"
    ".model pch vs_pmos vt0=0.38\n"
    ".end\n";

TEST(NetlistProviderParse, CountsVsDevicesAndExposesCards) {
  const ParsedNetlist parsed = parseNetlist(kVsDeck);
  EXPECT_EQ(parsed.vsMosfets, 2u);
  ASSERT_TRUE(parsed.vsNmos.has_value());
  ASSERT_TRUE(parsed.vsPmos.has_value());
  EXPECT_DOUBLE_EQ(parsed.vsPmos->vt0, 0.38);
}

TEST(NetlistProviderParse, NominalProviderReproducesPlainParse) {
  ParsedNetlist plain = parseNetlist(kVsDeck);
  circuits::NominalProvider provider(models::VsModel(*plain.vsNmos),
                                     models::VsModel(*plain.vsPmos));
  ParsedNetlist routed = parseNetlist(kVsDeck, provider);
  EXPECT_EQ(routed.vsMosfets, 2u);

  const OperatingPoint opPlain = dcOperatingPoint(plain.circuit);
  const OperatingPoint opRouted = dcOperatingPoint(routed.circuit);
  ASSERT_EQ(opPlain.nodeVoltages.size(), opRouted.nodeVoltages.size());
  for (std::size_t i = 0; i < opPlain.nodeVoltages.size(); ++i)
    EXPECT_DOUBLE_EQ(opPlain.nodeVoltages[i], opRouted.nodeVoltages[i]);
}

}  // namespace
}  // namespace vsstat::spice
