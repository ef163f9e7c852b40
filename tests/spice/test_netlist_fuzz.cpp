// Seeded mutation fuzzing of the netlist parser, the server's untrusted-
// input boundary for deck text.  Every mutant of the seed decks must either
// parse or throw NetlistParseError -- never crash, hang, or leak another
// exception type -- and a deck that parses must instantiate without error:
// parseDeck checks everything a Circuit would reject, so a Deck the server
// caches can always be built.  Fixed seed and budget (well under 2 s in a
// Release build); the ASan/UBSan job runs it with the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "spice/netlist.hpp"

namespace vsstat::spice {
namespace {

/// The decks the netlist and server tests parse, plus a mesh corner.
const char* const kSeedDecks[] = {
    "* simple divider\n.title divider example\nV1 in 0 10\nR1 in mid 1k\n"
    "R2 mid gnd 3k\n.end\n",
    "V1 a 0\n+ 5\n* a comment between\nR1 a\n+ 0 2k\n",
    "V1 in 0 PULSE(0 0.9 10p 12p 12p 80p)\nV2 b 0 PWL(0 0 1n 1 2n 0.5)\n"
    "R1 in 0 1k\nR2 b 0 1k\n",
    "I1 0 n 1m\nR1 n 0 2k\n.tran 1p 100p\n",
    ".title vs inverter\nVDD vdd 0 0.9\nVIN in 0 0\n"
    "MP out in vdd pch W=600n L=40n\nMN out in 0 nch W=300n L=40n\n"
    ".model nch vs_nmos vt0=0.40\n.model pch vs_pmos\n.end\n",
    "VD d 0 0.9\nVG g 0 0.9\nM1 d g 0 nb W=300n L=40n\n"
    "M2 d g 0 na W=300n L=40n\n.model nb bsim_nmos\n.model na alpha_nmos\n",
    "VDD vdd 0 0.9\nVIN in 0 PULSE(0 0.9 10p 10p 10p 60p 160p)\n"
    "MP out in vdd pch W=600n L=40n\nMN out in 0 nch W=300n L=40n\n"
    "C1 out 0 2f\n.tran 1p 120p\n.model nch vs_nmos\n.model pch vs_pmos\n"
    ".end\n",
    "VDD vdd 0 0.9\nMN1 mid vdd 0 nch W=300n L=40n\n"
    "MN2 vdd vdd mid nch W=300n L=40n\n.model nch vs_nmos mu=250\n.end\n",
    "VGRID g0_0 0 0.9\nRH0_0 g0_0 g0_1 4.5\nRV0_0 g0_0 g1_0 4.5\n"
    "ML0_0 g0_0 g0_0 0 nch W=200n L=40n\nRV0_1 g0_1 g1_1 4.5\n"
    "ML1_1 g1_1 g1_1 0 nch W=200n L=40n\n.model nch vs_nmos\n.end\n",
    "V1 a 0 DC 1.5\nI1 a b dc 2m\nR1 b 0 1kOhm\nC1 a b 10pF\n",
};

constexpr char kInserts[] = {'+', '(', ')', '=', ',', '*', '\r', '\t', '\0',
                             ' ', '\n'};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string deck) {
    const std::size_t edits = 1 + below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      if (deck.empty()) deck = "R1 a b 1k\n";
      switch (below(5)) {
        case 0:  // flip one bit
          deck[below(deck.size())] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // truncate
          deck.resize(below(deck.size() + 1));
          break;
        case 2: {  // duplicate a line
          const std::vector<std::string> lines = split(deck);
          const std::string& line = lines[below(lines.size())];
          deck.insert(lineStart(deck, below(lines.size())), line + "\n");
          break;
        }
        case 3:  // insert a separator, comment or continuation character
          deck.insert(below(deck.size() + 1), 1,
                      kInserts[below(sizeof kInserts)]);
          break;
        default:  // start a continuation line somewhere
          deck.insert(below(deck.size() + 1), "\n+ ");
          break;
      }
    }
    return deck;
  }

 private:
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  static std::vector<std::string> split(const std::string& deck) {
    std::vector<std::string> lines(1);
    for (const char c : deck) {
      if (c == '\n') {
        lines.emplace_back();
      } else {
        lines.back() += c;
      }
    }
    return lines;
  }

  /// Offset of the start of line `index` (0-based).
  static std::size_t lineStart(const std::string& deck, std::size_t index) {
    std::size_t at = 0;
    for (std::size_t i = 0; i < index; ++i) at = deck.find('\n', at) + 1;
    return at;
  }

  std::mt19937_64 rng_;
};

TEST(NetlistFuzz, MutantsParseOrThrowClassifiedErrors) {
  constexpr int kMutantsPerSeed = 2000;
  Mutator mutate(20260417);
  int parsed = 0;
  int rejected = 0;
  for (const char* seed : kSeedDecks) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string deck = mutate(seed);
      try {
        const Deck parsedDeck = parseDeck(deck);
        ++parsed;
        // What parses must build: instantiate has no failure mode left.
        Circuit circuit;
        ASSERT_NO_THROW(circuit = instantiate(parsedDeck)) << deck;
        ASSERT_EQ(circuit.nodeCount(), parsedDeck.nodeCount()) << deck;
        for (std::size_t id = 0; id < circuit.nodeCount(); ++id) {
          const auto node = static_cast<NodeId>(id);
          ASSERT_EQ(circuit.nodeName(node), parsedDeck.nodeName(node));
          ASSERT_EQ(parsedDeck.findNode(parsedDeck.nodeName(node)),
                    std::optional<NodeId>(node));
        }
      } catch (const NetlistParseError& e) {
        ++rejected;
        // A line of the deck, or 0 for the whole netlist.
        const auto lines = std::count(deck.begin(), deck.end(), '\n') + 1;
        ASSERT_GE(e.line(), 0) << deck;
        ASSERT_LE(e.line(), lines) << deck;
      } catch (const std::exception& e) {
        FAIL() << "unclassified " << typeid(e).name() << ": " << e.what()
               << "\nfor deck:\n"
               << deck;
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace vsstat::spice
