// Netlist parser: value suffixes, every element kind, waveforms, model
// cards with overrides, directives, and malformed-input diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "spice/netlist.hpp"
#include "util/error.hpp"

namespace vsstat::spice {
namespace {

TEST(SpiceValue, AllMagnitudeSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceValue("1"), 1.0);
  EXPECT_DOUBLE_EQ(parseSpiceValue("2.5k"), 2500.0);
  EXPECT_DOUBLE_EQ(parseSpiceValue("10meg"), 1e7);
  EXPECT_DOUBLE_EQ(parseSpiceValue("3g"), 3e9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1t"), 1e12);
  EXPECT_DOUBLE_EQ(parseSpiceValue("5m"), 5e-3);  // lone m is milli
  EXPECT_DOUBLE_EQ(parseSpiceValue("3.3u"), 3.3e-6);
  EXPECT_DOUBLE_EQ(parseSpiceValue("40n"), 40e-9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("10p"), 1e-11);
  EXPECT_DOUBLE_EQ(parseSpiceValue("2f"), 2e-15);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1.5e-12"), 1.5e-12);
  EXPECT_DOUBLE_EQ(parseSpiceValue("-0.9"), -0.9);
  // Unit words after the suffix are ignored.
  EXPECT_DOUBLE_EQ(parseSpiceValue("10pF"), 1e-11);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1kOhm"), 1000.0);
}

TEST(SpiceValue, RejectsGarbage) {
  EXPECT_THROW((void)parseSpiceValue(""), InvalidArgumentError);
  EXPECT_THROW((void)parseSpiceValue("abc"), InvalidArgumentError);
  EXPECT_THROW((void)parseSpiceValue("1x"), InvalidArgumentError);
}

TEST(Netlist, ResistiveDividerSolves) {
  const ParsedNetlist net = parseNetlist(R"(
* simple divider
.title divider example
V1 in 0 10
R1 in mid 1k
R2 mid gnd 3k
.end
)");
  EXPECT_EQ(net.title, "divider example");
  Circuit& c = const_cast<Circuit&>(net.circuit);
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_NEAR(op.v(c.node("mid")), 7.5, 1e-9);
}

TEST(Netlist, ContinuationLinesAndCommentsFold) {
  const ParsedNetlist net = parseNetlist(
      "V1 a 0\n"
      "+ 5\n"
      "* a comment between\n"
      "R1 a\n"
      "+ 0 2k\n");
  Circuit& c = const_cast<Circuit&>(net.circuit);
  const OperatingPoint op = dcOperatingPoint(c);
  EXPECT_NEAR(op.v(c.node("a")), 5.0, 1e-9);
  EXPECT_NEAR(sourceCurrent(c, "v1", op), -5.0 / 2000.0, 1e-12);
}

TEST(Netlist, PulseAndPwlWaveformsParse) {
  ParsedNetlist net = parseNetlist(R"(
V1 in 0 PULSE(0 0.9 10p 12p 12p 80p)
V2 b 0 PWL(0 0 1n 1 2n 0.5)
R1 in 0 1k
R2 b 0 1k
)");
  const SourceWaveform& pulse = net.circuit.voltageSource("v1").waveform();
  EXPECT_DOUBLE_EQ(pulse.valueAt(0.0), 0.0);
  EXPECT_NEAR(pulse.valueAt(30e-12), 0.9, 1e-9);  // inside the pulse
  const SourceWaveform& pwl = net.circuit.voltageSource("v2").waveform();
  EXPECT_NEAR(pwl.valueAt(0.5e-9), 0.5, 1e-12);
  EXPECT_NEAR(pwl.valueAt(3e-9), 0.5, 1e-12);  // holds last value
}

TEST(Netlist, CurrentSourceAndTranDirective) {
  const ParsedNetlist net = parseNetlist(R"(
I1 0 n 1m
R1 n 0 2k
.tran 1p 100p
)");
  ASSERT_TRUE(net.tran.has_value());
  EXPECT_DOUBLE_EQ(net.tran->first, 1e-12);
  EXPECT_DOUBLE_EQ(net.tran->second, 100e-12);
  Circuit& c = const_cast<Circuit&>(net.circuit);
  EXPECT_NEAR(dcOperatingPoint(c).v(c.node("n")), 2.0, 1e-9);
}

TEST(Netlist, VsInverterNetlistInverts) {
  // A complete CMOS inverter from text, with a VT0 override on the NMOS
  // card; .model lines may come after the devices that use them.
  ParsedNetlist net = parseNetlist(R"(
.title vs inverter
VDD vdd 0 0.9
VIN in 0 0
MP out in vdd pch W=600n L=40n
MN out in 0 nch W=300n L=40n
.model nch vs_nmos vt0=0.40
.model pch vs_pmos
.end
)");
  Circuit& c = net.circuit;
  c.voltageSource("vin").setDcLevel(0.0);
  EXPECT_NEAR(dcOperatingPoint(c).v(c.node("out")), 0.9, 0.01);
  c.voltageSource("vin").setDcLevel(0.9);
  EXPECT_NEAR(dcOperatingPoint(c).v(c.node("out")), 0.0, 0.01);

  // The override landed on the instance card.
  const auto& mn = c.mosfet("mn");
  const auto& vs = dynamic_cast<const models::VsModel&>(mn.model());
  EXPECT_DOUBLE_EQ(vs.params().vt0, 0.40);
}

TEST(Netlist, BsimAndAlphaFamiliesInstantiate) {
  ParsedNetlist net = parseNetlist(R"(
VD d 0 0.9
VG g 0 0.9
M1 d g 0 nb W=300n L=40n
M2 d g 0 na W=300n L=40n
.model nb bsim_nmos
.model na alpha_nmos
)");
  EXPECT_EQ(net.circuit.mosfet("m1").model().name(), "BSIM-lite");
  EXPECT_EQ(net.circuit.mosfet("m2").model().name(), "AlphaPower");
}

TEST(Netlist, DiagnosticsCarryLineNumbers) {
  const auto expectError = [](const std::string& text,
                              const std::string& fragment) {
    try {
      (void)parseNetlist(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };

  expectError("X1 a b 1k\n", "unknown element");
  expectError("R1 a b\n", "R needs");
  expectError(".bogus\n", "unknown directive");
  expectError("R1 a b 1q\n", "bad suffix");
  expectError("M1 d g 0 nox W=1u L=40n\n", "undefined model");
  expectError(".model m1 nosuch\n", "unknown model family");
  expectError(".model m1 vs_nmos\n.model m1 vs_nmos\n", "duplicate model");
  expectError(".model m1 vs_nmos zz=1\n", "unknown VS model parameter");
  expectError(".model m1 bsim_nmos vt0=1\n", "only supported for vs_");
  expectError("V1 a 0 PULSE(0 1 2)\n", "PULSE needs");
  expectError("V1 a 0 PWL(0 1 2)\n", "PWL needs");
  expectError("M1 d g 0 nch W=300n\n.model nch vs_nmos\n",
              "positive W= and L=");
  expectError("+ continuation first\n", "continuation without");

  // Line numbers point at the offending source line.
  expectError("* line 1\nR1 a b 1k\nC1 x y\n", "line 3");
}

TEST(Netlist, NodeIdsFollowFirstMentionLastTerminalFirst) {
  // Within one element line the last terminal is registered first; MNA
  // unknown order (and so every result bit) follows these ids.
  const ParsedNetlist net = parseNetlist(
      "R1 a b 1k\n"
      "M1 d g s nch W=1u L=40n\n"
      "V1 p a 0.9\n"
      "C1 q 0 1f\n"
      ".model nch vs_nmos\n");
  const std::vector<std::string> expected = {"0", "b", "a", "s", "g",
                                             "d", "p", "q"};
  ASSERT_EQ(net.circuit.nodeCount(), expected.size());
  for (std::size_t id = 0; id < expected.size(); ++id)
    EXPECT_EQ(net.circuit.nodeName(static_cast<NodeId>(id)), expected[id])
        << "node " << id;
}

TEST(Netlist, TokenizerHandlesCrlfTabsParenthesesAndEquals) {
  ParsedNetlist net = parseNetlist(
      "VIN\tin 0\tPULSE(0 0.9 10p 12p 12p 80p)\r\n"
      "R1 in\tout 1k\r\n"
      "C1 out 0 2F\r\n"
      "MN out in 0 nch W=300n L=40n\r\n"
      "MP out in vdd pch w =600n l= 40n\r\n"
      "VDD vdd 0 PWL(0,0.9,1n,0.9)\r\n"
      ".model nch vs_nmos vt0=0.41\r\n"
      ".model pch vs_pmos\r\n");
  const MosfetElement& mn = net.circuit.mosfet("mn");
  EXPECT_DOUBLE_EQ(mn.geometry().width, 300e-9);
  EXPECT_DOUBLE_EQ(mn.geometry().length, 40e-9);
  const MosfetElement& mp = net.circuit.mosfet("mp");
  EXPECT_DOUBLE_EQ(mp.geometry().width, 600e-9);
  EXPECT_DOUBLE_EQ(mp.geometry().length, 40e-9);
  EXPECT_DOUBLE_EQ(net.vsNmos->vt0, 0.41);
  const SourceWaveform& pulse = net.circuit.voltageSource("vin").waveform();
  EXPECT_NEAR(pulse.valueAt(30e-12), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(net.circuit.voltageSource("vdd").waveform().valueAt(2e-9),
                   0.9);
  // No node picked up a '\r' or a parenthesis.
  for (std::size_t id = 0; id < net.circuit.nodeCount(); ++id) {
    const std::string& name = net.circuit.nodeName(static_cast<NodeId>(id));
    EXPECT_EQ(name.find_first_of("\r\t()"), std::string::npos) << name;
  }
  EXPECT_EQ(net.circuit.nodeCount(), 4u);  // 0, in, out, vdd
}

TEST(Netlist, EmbeddedNulStaysPartOfItsToken) {
  // Node names are byte strings: "a\0b" is one node, distinct from "a".
  const std::string deck = std::string("V1 a 0 1\nR1 a a") + '\0' +
                           "b 1k\nR2 a" + '\0' + "b 0 1k\n";
  const Deck parsed = parseDeck(deck);
  ASSERT_EQ(parsed.nodeCount(), 3u);
  const std::optional<NodeId> nul = parsed.findNode(std::string("a\0b", 3));
  ASSERT_TRUE(nul.has_value());
  EXPECT_EQ(parsed.nodeName(*nul).size(), 3u);
  EXPECT_NE(*nul, *parsed.findNode("a"));
  ParsedNetlist net = parseNetlist(deck);
  EXPECT_NEAR(dcOperatingPoint(net.circuit).v(*nul), 0.5, 1e-12);
  // A NUL inside a value ends the number, and what follows is a bad suffix.
  EXPECT_THROW((void)parseDeck(std::string("R1 a 0 1") + '\0' + "k\n"),
               NetlistParseError);
}

TEST(Netlist, ContinuationAsTheFirstStatementIsRejected) {
  try {
    (void)parseDeck("* comment\n\n  + R1 a 0 1k\n");
    FAIL() << "expected a parse failure";
  } catch (const NetlistParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.message(), "continuation without a line");
  }
}

TEST(Netlist, DeckIsInstantiatedAsOftenAsNeeded) {
  const Deck deck = parseDeck(R"(
.title two builds
V1 in 0 1
R1 in mid 1k
R2 mid 0 1k
.tran 1p 10p
)");
  EXPECT_EQ(deck.title(), "two builds");
  ASSERT_TRUE(deck.tran().has_value());
  EXPECT_EQ(deck.nodeCount(), 3u);
  EXPECT_EQ(deck.findNode("0"), std::optional<NodeId>(kGround));
  EXPECT_EQ(deck.findNode("gnd"), std::optional<NodeId>(kGround));
  EXPECT_FALSE(deck.findNode("nowhere").has_value());
  for (int build = 0; build < 2; ++build) {
    Circuit c = instantiate(deck);
    ASSERT_EQ(c.nodeCount(), deck.nodeCount());
    EXPECT_EQ(c.node("mid"), *deck.findNode("mid"));
    EXPECT_NEAR(dcOperatingPoint(c).v(c.node("mid")), 0.5, 1e-12);
  }
}

TEST(Netlist, RejectsEmptyAndMissingFile) {
  EXPECT_THROW((void)parseNetlist(""), InvalidArgumentError);
  EXPECT_THROW((void)parseNetlistFile("/nonexistent/path.sp"),
               InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::spice
