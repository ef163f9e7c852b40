// SPICE netlist text parser -- the subset this library's circuits need.
//
// Grammar (case-insensitive keywords, '*' comments, '+' continuations):
//
//   R<name> a b <value>
//   C<name> a b <value>
//   V<name> p n [DC] <value> | PULSE(v1 v2 td tr tf pw [per]) | PWL(t v ...)
//   I<name> from to <value>
//   M<name> d g s <model> W=<value> L=<value>
//   .model <name> vs_nmos|vs_pmos|bsim_nmos|bsim_pmos|alpha_nmos|alpha_pmos
//          [key=value ...]           (VS families accept card overrides)
//   .tran <dt> <tstop>               (recorded, not executed; dt is the
//                                    transient's largest step)
//   .title <text>  .end
//
// Values accept SPICE suffixes (f p n u m k meg g t) and scientific
// notation; node "0" and "gnd" are ground.  Node ids follow first mention
// in deck order, the last terminal of each element line first ("R1 a b"
// makes b node 1 and a node 2).  MOSFETs are three-terminal in this engine
// (no bulk), matching spice::MosfetElement.
//
// Parsing is two calls: parseDeck reads the text once into a compact,
// validated, immutable Deck, and instantiate builds a Circuit from a Deck
// as often as needed -- the campaign server caches one Deck per deck text
// and every worker's session build instantiates it.  parseNetlist is the
// two calls in one.
//
// All parse failures throw NetlistParseError, a classified
// InvalidArgumentError carrying the offending 1-based source line -- a
// service front end (serve/) rejects a malformed deck with a line-accurate
// diagnostic instead of aborting.  parseDeck checks everything a Circuit
// would reject (duplicate element names, R <= 0, C < 0, bad waveforms,
// invalid model cards), so instantiating a parsed Deck without a provider
// cannot fail.
//
// Statistical builds: instantiate with a provider routes every vs_* MOSFET
// through a circuits::DeviceProvider (deck order = provider draw order),
// which is what lets a parsed deck serve as a sim::CampaignSession fixture
// -- the session replays the same order per sample to rebind mismatch
// draws in place.  bsim_* / alpha_* instances always use their literal
// deck cards.
#ifndef VSSTAT_SPICE_NETLIST_HPP
#define VSSTAT_SPICE_NETLIST_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuits/provider.hpp"
#include "models/vs_params.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "util/error.hpp"

namespace vsstat::spice {

/// Classified netlist parse failure.  `line()` is the 1-based source line
/// of the offending statement (a statement continued over '+' lines
/// reports its head line); 0 flags whole-netlist problems (empty input).
/// Derives from InvalidArgumentError so pre-existing catch sites keep
/// working unchanged.
class NetlistParseError : public InvalidArgumentError {
 public:
  NetlistParseError(int line, const std::string& message)
      : InvalidArgumentError(line > 0 ? "netlist line " +
                                            std::to_string(line) + ": " +
                                            message
                                      : "netlist: " + message),
        line_(line),
        message_(message) {}

  [[nodiscard]] int line() const noexcept { return line_; }
  /// Diagnostic without the "netlist line N:" prefix.
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  int line_;
  std::string message_;
};

namespace detail {
class DeckParser;  // defined in netlist.cpp
}

/// A parsed, validated netlist: what parseDeck reads from text and what
/// instantiate builds circuits from.  Immutable after parsing, so
/// concurrent instantiate calls read one Deck without locks.
///
/// Layout: one fixed-size record per element line (kind, line, node ids,
/// value), side tables for source waveforms and MOSFETs (both in deck
/// order), element and node names in two character arenas, and node
/// lookup through an index of node ids sorted by name.
class Deck {
 public:
  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  /// From a .tran card, if present: {dt, tstop}.
  [[nodiscard]] const std::optional<std::pair<double, double>>& tran()
      const noexcept {
    return tran_;
  }
  /// First vs_nmos / vs_pmos .model card (overrides applied), if any.
  [[nodiscard]] const std::optional<models::VsParams>& vsNmos()
      const noexcept {
    return vsNmos_;
  }
  [[nodiscard]] const std::optional<models::VsParams>& vsPmos()
      const noexcept {
    return vsPmos_;
  }
  /// MOSFET instances referencing a vs_* model (deck order).
  [[nodiscard]] std::size_t vsMosfets() const noexcept { return vsMosfets_; }

  /// Node count including ground (id 0, named "0").
  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodeNameEnd_.size();
  }
  /// Lowercase name of node `id`.
  [[nodiscard]] std::string_view nodeName(NodeId id) const;
  /// Id of the node with this lowercase name ("0" and "gnd" are ground);
  /// empty when the deck never mentions it.
  [[nodiscard]] std::optional<NodeId> findNode(std::string_view name) const;

 private:
  friend class detail::DeckParser;
  friend Circuit instantiate(const Deck& deck,
                             circuits::DeviceProvider* provider);

  Deck() = default;

  enum class Kind : std::uint8_t {
    resistor,
    capacitor,
    voltageSource,
    currentSource,
    mosfet
  };
  /// One element line.  Its name is elementNames_[begin, nameEnd), where
  /// begin is the previous record's nameEnd.
  struct Record {
    double value = 0.0;  ///< ohms (R), farads (C) or W (M)
    std::uint32_t nameEnd = 0;
    std::int32_t line = 0;        ///< 1-based line of the statement head
    NodeId nodes[3] = {0, 0, 0};  ///< a, b (R, C, V, I) or d, g, s (M)
    Kind kind = Kind::resistor;
  };
  struct Mosfet {
    double length = 0.0;      ///< L (W is the record's value)
    std::uint32_t model = 0;  ///< index into models_
  };
  struct Model {
    /// Instance card prototype, cloned per build; null when the card is
    /// invalid (then `error` says why, and a MOSFET using it is rejected).
    std::unique_ptr<const models::MosfetModel> card;
    std::string error;
    /// Polarity of a vs_* card: such instances go through the provider.
    std::optional<models::DeviceType> vs;
  };

  std::string title_;
  std::optional<std::pair<double, double>> tran_;
  std::optional<models::VsParams> vsNmos_;
  std::optional<models::VsParams> vsPmos_;
  std::size_t vsMosfets_ = 0;

  std::vector<Record> elements_;
  std::string elementNames_;
  std::vector<SourceWaveform> waveforms_;  ///< one per V / I record
  std::vector<Mosfet> mosfets_;            ///< one per M record
  std::vector<Model> models_;

  std::string nodeNames_;
  std::vector<std::uint32_t> nodeNameEnd_;  ///< node id -> end in nodeNames_
  std::vector<std::uint32_t> nodeIndex_;    ///< node ids sorted by name
};

/// Reads a complete netlist into a Deck.  The text is read once; every
/// malformed deck throws NetlistParseError at its first failing line
/// (.model lines are checked before the rest, as device lines may use a
/// model defined further down).
[[nodiscard]] Deck parseDeck(const std::string& text);

/// Builds the circuit of a parsed deck: nodes in id order, elements in
/// deck order.  With a provider, every vs_* MOSFET instance comes from
/// `provider` (deck order = draw order); the deck's vs_* cards select the
/// device polarity only.  Without one, every instance uses its deck card.
/// A provider's InvalidArgumentError becomes a NetlistParseError carrying
/// the element's line.
[[nodiscard]] Circuit instantiate(const Deck& deck,
                                  circuits::DeviceProvider* provider = nullptr);

struct ParsedNetlist {
  Circuit circuit;
  std::string title;
  /// From a .tran card, if present: {dt, tstop}.
  std::optional<std::pair<double, double>> tran;
  /// First vs_nmos / vs_pmos .model card (overrides applied), when the deck
  /// declares one.  A statistical front end uses these as the per-polarity
  /// nominal cards of its mismatch provider.
  std::optional<models::VsParams> vsNmos;
  std::optional<models::VsParams> vsPmos;
  /// Number of MOSFET instances referencing a vs_* model, in deck order --
  /// the devices a provider-routed build draws mismatch for (z-vector
  /// dimension = vsMosfets * VsFixedZProvider::kDimsPerDevice).
  std::size_t vsMosfets = 0;
};

/// Parses a complete netlist from text: instantiate(parseDeck(text)).
[[nodiscard]] ParsedNetlist parseNetlist(const std::string& text);

/// Parses a netlist, instantiating every vs_* MOSFET through `provider`
/// (deck order): instantiate(parseDeck(text), &provider).  Hand it a
/// NominalProvider built from ParsedNetlist::vsNmos/vsPmos to reproduce
/// the plain parse.
[[nodiscard]] ParsedNetlist parseNetlist(const std::string& text,
                                         circuits::DeviceProvider& provider);

/// Parses a netlist file from disk.
[[nodiscard]] ParsedNetlist parseNetlistFile(const std::string& path);

/// Parses one numeric token with SPICE magnitude suffixes:
/// "1k" = 1e3, "10meg" = 1e7, "3.3u" = 3.3e-6, "40n", "1.5e-12", ...
/// (SPICE convention: lone "m" is milli, "meg" is 1e6.)  A trailing unit
/// word after the suffix is ignored ("10pF" == "10p").
[[nodiscard]] double parseSpiceValue(const std::string& token);

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_NETLIST_HPP
