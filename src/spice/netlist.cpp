#include "spice/netlist.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "models/alpha_power.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::spice {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw NetlistParseError(line, message);
}

/// Token separators: the characters std::isspace accepts in the "C"
/// locale, plus the punctuation SPICE treats as blanks.  '=' also ends a
/// token but is a token of its own.
bool isSeparator(char c) {
  switch (c) {
    case ' ': case '\t': case '\n': case '\v': case '\f': case '\r':
    case '(': case ')': case ',':
      return true;
    default:
      return false;
  }
}

char toLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Parses a lowercase token with SPICE magnitude suffixes.  `shown` is the
/// token as the caller wrote it, for messages.
double spiceValue(std::string_view token, std::string_view shown) {
  // strtod needs a terminated copy.  An embedded NUL ends the number there
  // and then fails as a bad suffix, as it does for std::stod on the token.
  char small[64];
  std::string large;
  const char* begin = small;
  if (token.size() < sizeof small) {
    std::memcpy(small, token.data(), token.size());
    small[token.size()] = '\0';
  } else {
    large.assign(token);
    begin = large.c_str();
  }
  char* end = nullptr;
  errno = 0;
  const double base = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE)
    throw InvalidArgumentError("parseSpiceValue: not a number: '" +
                               std::string(shown) + "'");
  const std::string_view suffix =
      token.substr(static_cast<std::size_t>(end - begin));

  double scale = 1.0;
  if (!suffix.empty()) {
    if (suffix.substr(0, 3) == "meg") {
      scale = 1e6;
    } else {
      switch (suffix[0]) {
        case 't': scale = 1e12; break;
        case 'g': scale = 1e9; break;
        case 'k': scale = 1e3; break;
        case 'm': scale = 1e-3; break;
        case 'u': scale = 1e-6; break;
        case 'n': scale = 1e-9; break;
        case 'p': scale = 1e-12; break;
        case 'f': scale = 1e-15; break;
        default:
          throw InvalidArgumentError("parseSpiceValue: bad suffix '" +
                                     std::string(suffix) + "' in '" +
                                     std::string(shown) + "'");
      }
    }
    // Anything after the magnitude suffix is a unit word ("10pF", "1kohm")
    // and is ignored, per SPICE convention.
  }
  return base * scale;
}

/// key=value overrides for the VS card families.
void applyVsOverride(models::VsParams& p, std::string_view key, double value,
                     int line) {
  static constexpr std::pair<std::string_view, double models::VsParams::*>
      kFields[] = {
          {"vt0", &models::VsParams::vt0},
          {"delta0", &models::VsParams::delta0},
          {"n0", &models::VsParams::n0},
          {"cinv", &models::VsParams::cinv},
          {"vxo", &models::VsParams::vxo},
          {"mu", &models::VsParams::mu},
          {"beta", &models::VsParams::beta},
          {"rs", &models::VsParams::rs},
          {"rd", &models::VsParams::rd},
          {"cof", &models::VsParams::cof},
      };
  for (const auto& [name, field] : kFields) {
    if (name == key) {
      p.*field = value;
      return;
    }
  }
  fail(line, "unknown VS model parameter '" + std::string(key) + "'");
}

}  // namespace

double parseSpiceValue(const std::string& token) {
  require(!token.empty(), "parseSpiceValue: empty token");
  std::string lowered(token);
  std::transform(lowered.begin(), lowered.end(), lowered.begin(), toLower);
  return spiceValue(lowered, token);
}

namespace detail {

/// parseDeck's state: the text's tokens, then the Deck under construction
/// and the parse-time name indexes.
class DeckParser {
 public:
  explicit DeckParser(const std::string& text) { tokenize(text); }

  Deck run() {
    (void)node("0");  // ground is node 0
    // Models first: device lines may reference a .model defined later,
    // exactly as SPICE allows.  A deck with several errors reports the
    // first .model error before any other.
    for (const Statement& s : statements_)
      if (s.count != 0 && tok(s, 0) == ".model") model(s);
    deck_.elements_.reserve(statements_.size());
    elementIds_.reserve(statements_.size());
    nodeIds_.reserve(statements_.size());
    for (const Statement& s : statements_) {
      if (s.count == 0) continue;
      try {
        statement(s);
      } catch (const NetlistParseError&) {
        throw;
      } catch (const InvalidArgumentError& e) {
        // Waveform checks (PULSE rise/fall, PWL order) throw from the
        // SourceWaveform factories; they are line-classified like the rest.
        fail(s.line, e.what());
      }
    }

    deck_.nodeIndex_.resize(deck_.nodeNameEnd_.size());
    std::iota(deck_.nodeIndex_.begin(), deck_.nodeIndex_.end(), 0u);
    std::sort(deck_.nodeIndex_.begin(), deck_.nodeIndex_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return deck_.nodeName(static_cast<NodeId>(a)) <
                       deck_.nodeName(static_cast<NodeId>(b));
              });
    // A cached Deck keeps exactly what it holds.
    deck_.elements_.shrink_to_fit();
    deck_.elementNames_.shrink_to_fit();
    deck_.waveforms_.shrink_to_fit();
    deck_.mosfets_.shrink_to_fit();
    deck_.models_.shrink_to_fit();
    deck_.nodeNames_.shrink_to_fit();
    deck_.nodeNameEnd_.shrink_to_fit();
    return std::move(deck_);
  }

 private:
  /// A token: lower_[begin, begin + size).
  struct Token {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  /// A logical line (a statement with its '+' continuations): tokens_
  /// [first, first + count), and the 1-based line of its head.
  struct Statement {
    int line = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// One pass over the text: physical lines, '*' comments, '+'
  /// continuations and tokens.  Token bytes go lowercased into one buffer;
  /// '(' ')' ',' and blanks separate tokens, and '=' is a token of its own.
  void tokenize(const std::string& text) {
    if (text.empty()) fail(0, "empty netlist");
    if (text.size() >=
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
      fail(0, "netlist larger than 2 GiB");
    lower_ = std::make_unique_for_overwrite<char[]>(text.size());
    std::uint32_t used = 0;
    const char* const data = text.data();
    const std::size_t size = text.size();
    int line = 0;
    for (std::size_t i = 0; i < size; ++i) {  // i is at a line start
      ++line;
      while (i < size && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r'))
        ++i;
      if (i == size || data[i] == '\n') continue;  // blank line
      if (data[i] == '*') {                        // comment line
        const void* newline = std::memchr(data + i, '\n', size - i);
        if (newline == nullptr) break;
        i = static_cast<std::size_t>(static_cast<const char*>(newline) - data);
        continue;
      }
      if (data[i] == '+') {
        if (statements_.empty()) fail(line, "continuation without a line");
        ++i;  // the tokens extend the previous statement
      } else {
        statements_.push_back(
            {line, static_cast<std::uint32_t>(tokens_.size()), 0});
      }
      std::uint32_t start = used;
      const auto endToken = [&] {
        if (used != start) tokens_.push_back({start, used - start});
        start = used;
      };
      for (; i < size && data[i] != '\n'; ++i) {
        const char c = data[i];
        if (isSeparator(c)) {
          endToken();
        } else if (c == '=') {
          endToken();
          lower_[used++] = '=';
          endToken();
        } else {
          lower_[used++] = toLower(c);
        }
      }
      endToken();
      Statement& s = statements_.back();
      s.count = static_cast<std::uint32_t>(tokens_.size()) - s.first;
    }
  }

  [[nodiscard]] std::string_view tok(const Statement& s,
                                     std::size_t i) const {
    if (i >= s.count) fail(s.line, "missing token");
    const Token& t = tokens_[s.first + i];
    return {lower_.get() + t.begin, t.size};
  }

  [[nodiscard]] double value(const Statement& s, std::size_t i) const {
    const std::string_view token = tok(s, i);
    try {
      return spiceValue(token, token);
    } catch (const InvalidArgumentError& e) {
      fail(s.line, e.what());
    }
  }

  /// Id of a node name, registering it on first mention.
  NodeId node(std::string_view name) {
    if (name == "gnd") return kGround;
    const auto [it, added] = nodeIds_.try_emplace(
        name, static_cast<std::uint32_t>(deck_.nodeNameEnd_.size()));
    if (added) {
      deck_.nodeNames_.append(name);
      deck_.nodeNameEnd_.push_back(
          static_cast<std::uint32_t>(deck_.nodeNames_.size()));
    }
    return static_cast<NodeId>(it->second);
  }

  void statement(const Statement& s) {
    const std::string_view head = tok(s, 0);
    if (head == ".model") return;  // handled in the first pass
    if (head == ".title") {
      for (std::size_t i = 1; i < s.count; ++i) {
        if (i > 1) deck_.title_ += ' ';
        deck_.title_ += tok(s, i);
      }
      return;
    }
    if (head == ".tran") {
      if (s.count != 3) fail(s.line, ".tran needs <dt> <tstop>");
      deck_.tran_ = {value(s, 1), value(s, 2)};
      return;
    }
    if (head == ".end") return;
    if (head[0] == '.')
      fail(s.line, "unknown directive '" + std::string(head) + "'");

    switch (head[0]) {
      case 'r': return passive(s, Deck::Kind::resistor);
      case 'c': return passive(s, Deck::Kind::capacitor);
      case 'v': return source(s, Deck::Kind::voltageSource);
      case 'i': return source(s, Deck::Kind::currentSource);
      case 'm': return mosfet(s);
      default:
        fail(s.line, "unknown element '" + std::string(head) + "'");
    }
  }

  /// Appends the element record of statement `s` with `terminals` nodes.
  void addElement(const Statement& s, Deck::Kind kind, int terminals,
                  double value) {
    Deck::Record e;
    e.kind = kind;
    e.line = s.line;
    e.value = value;
    // Node ids follow first mention, and within one line the last terminal
    // is registered first ("R1 a b" makes b node 1 and a node 2).  That is
    // the order this parser has always produced with g++, which evaluated
    // the node lookups inside one call's arguments right to left.  MNA
    // unknown order and the fill-reducing order's tie-breaks follow node
    // ids, so keeping the order keeps every result bit.
    for (int t = terminals; t >= 1; --t)
      e.nodes[t - 1] = node(tok(s, static_cast<std::size_t>(t)));

    const std::string_view name = tok(s, 0);
    if (!elementIds_.insert(name).second)
      fail(s.line, "duplicate element name: " + std::string(name));
    deck_.elementNames_.append(name);
    e.nameEnd = static_cast<std::uint32_t>(deck_.elementNames_.size());
    deck_.elements_.push_back(e);
  }

  void passive(const Statement& s, Deck::Kind kind) {
    const bool resistor = kind == Deck::Kind::resistor;
    if (s.count != 4)
      fail(s.line, resistor ? "R needs: Rname a b value"
                            : "C needs: Cname a b value");
    const double v = value(s, 3);
    // The checks of ResistorElement and CapacitorElement (NaN fails both).
    if (resistor && !(v > 0.0))
      fail(s.line, "Resistor requires positive resistance");
    if (!resistor && !(v >= 0.0))
      fail(s.line, "Capacitor requires non-negative capacitance");
    addElement(s, kind, 2, v);
  }

  [[nodiscard]] SourceWaveform waveform(const Statement& s,
                                        std::size_t i) const {
    const std::string_view kind = tok(s, i);
    if (kind == "dc") return SourceWaveform::dc(value(s, i + 1));
    if (kind == "pulse") {
      const std::size_t args = s.count - (i + 1);
      if (args != 6 && args != 7) fail(s.line, "PULSE needs 6 or 7 arguments");
      double v[7] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
      for (std::size_t k = 0; k < args; ++k) v[k] = value(s, i + 1 + k);
      return SourceWaveform::pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6]);
    }
    if (kind == "pwl") {
      const std::size_t args = s.count - (i + 1);
      if (args < 4 || args % 2 != 0)
        fail(s.line, "PWL needs an even number (>= 4) of arguments");
      std::vector<std::pair<double, double>> points;
      points.reserve(args / 2);
      for (std::size_t k = i + 1; k < s.count; k += 2)
        points.emplace_back(value(s, k), value(s, k + 1));
      return SourceWaveform::pwl(std::move(points));
    }
    // Bare value: "V1 a b 0.9".
    return SourceWaveform::dc(value(s, i));
  }

  void source(const Statement& s, Deck::Kind kind) {
    if (s.count < 4)
      fail(s.line, kind == Deck::Kind::voltageSource
                       ? "V needs: Vname p n <spec>"
                       : "I needs: Iname from to <spec>");
    SourceWaveform w = waveform(s, 3);
    addElement(s, kind, 2, 0.0);
    deck_.waveforms_.push_back(std::move(w));
  }

  void mosfet(const Statement& s) {
    // Mname d g s model w = <v> l = <v>   ('=' is a token of its own)
    if (s.count < 5) fail(s.line, "M needs: Mname d g s model W=... L=...");
    const std::string_view modelName = tok(s, 4);
    const auto model = modelIds_.find(modelName);
    if (model == modelIds_.end())
      fail(s.line, "undefined model '" + std::string(modelName) + "'");

    double w = 0.0;
    double l = 0.0;
    for (std::size_t i = 5; i < s.count; i += 3) {
      if (i + 2 >= s.count || tok(s, i + 1) != "=")
        fail(s.line, "expected key=value after the model name");
      const std::string_view key = tok(s, i);
      if (key == "w") {
        w = value(s, i + 2);
      } else if (key == "l") {
        l = value(s, i + 2);
      } else {
        fail(s.line, "unknown MOSFET parameter '" + std::string(key) + "'");
      }
    }
    // NaN fails too: MosfetElement rejects it as a non-positive geometry.
    if (!(w > 0.0) || !(l > 0.0))
      fail(s.line, "MOSFET needs positive W= and L=");
    const Deck::Model& card = deck_.models_[model->second];
    if (!card.card) fail(s.line, card.error);
    if (card.vs) ++deck_.vsMosfets_;
    addElement(s, Deck::Kind::mosfet, 3, w);
    deck_.mosfets_.push_back({l, model->second});
  }

  void model(const Statement& s) {
    if (s.count < 3) fail(s.line, ".model needs: name family");
    const std::string_view name = tok(s, 1);
    const auto id = static_cast<std::uint32_t>(deck_.models_.size());
    if (!modelIds_.try_emplace(name, id).second)
      fail(s.line, "duplicate model '" + std::string(name) + "'");

    const std::string_view family = tok(s, 2);
    std::variant<models::VsParams, models::BsimParams, models::AlphaPowerParams>
        card;
    Deck::Model m;
    if (family == "vs_nmos") {
      card = models::defaultVsNmos();
      m.vs = models::DeviceType::Nmos;
    } else if (family == "vs_pmos") {
      card = models::defaultVsPmos();
      m.vs = models::DeviceType::Pmos;
    } else if (family == "bsim_nmos") {
      card = models::defaultBsimNmos();
    } else if (family == "bsim_pmos") {
      card = models::defaultBsimPmos();
    } else if (family == "alpha_nmos") {
      card = models::defaultAlphaNmos();
    } else if (family == "alpha_pmos") {
      card = models::defaultAlphaPmos();
    } else {
      fail(s.line, "unknown model family '" + std::string(family) + "'");
    }

    // key = value overrides (VS families only).
    for (std::size_t i = 3; i < s.count; i += 3) {
      if (i + 2 >= s.count || tok(s, i + 1) != "=")
        fail(s.line, "expected key=value");
      auto* vs = std::get_if<models::VsParams>(&card);
      if (vs == nullptr)
        fail(s.line,
             "parameter overrides are only supported for vs_* families");
      const double v = value(s, i + 2);
      applyVsOverride(*vs, tok(s, i), v, s.line);
    }
    if (m.vs) {
      // First card per polarity becomes the deck's nominal for statistical
      // front ends (Deck::vsNmos / vsPmos).
      auto& slot =
          *m.vs == models::DeviceType::Nmos ? deck_.vsNmos_ : deck_.vsPmos_;
      if (!slot) slot = std::get<models::VsParams>(card);
    }
    // The instance prototype.  An invalid card is an error only for the
    // MOSFETs that use it.
    try {
      m.card = std::visit(
          [](const auto& params) -> std::unique_ptr<models::MosfetModel> {
            using Params = std::decay_t<decltype(params)>;
            if constexpr (std::is_same_v<Params, models::VsParams>) {
              return std::make_unique<models::VsModel>(params);
            } else if constexpr (std::is_same_v<Params, models::BsimParams>) {
              return std::make_unique<models::BsimLite>(params);
            } else {
              return std::make_unique<models::AlphaPowerModel>(params);
            }
          },
          card);
    } catch (const InvalidArgumentError& e) {
      m.error = e.what();
    }
    deck_.models_.push_back(std::move(m));
  }

  std::unique_ptr<char[]> lower_;
  std::vector<Token> tokens_;
  std::vector<Statement> statements_;

  Deck deck_;
  // Parse-time name lookups, keyed by views of lower_.
  std::unordered_map<std::string_view, std::uint32_t> nodeIds_;
  std::unordered_set<std::string_view> elementIds_;
  std::unordered_map<std::string_view, std::uint32_t> modelIds_;
};

}  // namespace detail

std::string_view Deck::nodeName(NodeId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < nodeNameEnd_.size(),
          "Deck::nodeName: unknown node id");
  const auto index = static_cast<std::size_t>(id);
  const std::uint32_t begin = index == 0 ? 0 : nodeNameEnd_[index - 1];
  return std::string_view(nodeNames_).substr(begin,
                                             nodeNameEnd_[index] - begin);
}

std::optional<NodeId> Deck::findNode(std::string_view name) const {
  if (name == "gnd") return kGround;
  const auto it = std::lower_bound(
      nodeIndex_.begin(), nodeIndex_.end(), name,
      [this](std::uint32_t id, std::string_view key) {
        return nodeName(static_cast<NodeId>(id)) < key;
      });
  if (it == nodeIndex_.end() || nodeName(static_cast<NodeId>(*it)) != name)
    return std::nullopt;
  return static_cast<NodeId>(*it);
}

Deck parseDeck(const std::string& text) {
  return detail::DeckParser(text).run();
}

Circuit instantiate(const Deck& deck, circuits::DeviceProvider* provider) {
  Circuit circuit;
  for (std::size_t id = 1; id < deck.nodeCount(); ++id)
    (void)circuit.node(std::string(deck.nodeName(static_cast<NodeId>(id))));

  std::size_t waveform = 0;
  std::size_t mosfet = 0;
  std::uint32_t nameBegin = 0;
  for (const Deck::Record& e : deck.elements_) {
    const std::string name(deck.elementNames_.data() + nameBegin,
                           e.nameEnd - nameBegin);
    nameBegin = e.nameEnd;
    try {
      switch (e.kind) {
        case Deck::Kind::resistor:
          circuit.addResistor(name, e.nodes[0], e.nodes[1], e.value);
          break;
        case Deck::Kind::capacitor:
          circuit.addCapacitor(name, e.nodes[0], e.nodes[1], e.value);
          break;
        case Deck::Kind::voltageSource:
          circuit.addVoltageSource(name, e.nodes[0], e.nodes[1],
                                   deck.waveforms_[waveform++]);
          break;
        case Deck::Kind::currentSource:
          circuit.addCurrentSource(name, e.nodes[0], e.nodes[1],
                                   deck.waveforms_[waveform++]);
          break;
        case Deck::Kind::mosfet: {
          const Deck::Mosfet& m = deck.mosfets_[mosfet++];
          const Deck::Model& card = deck.models_[m.model];
          const models::DeviceGeometry nominal{e.value, m.length};
          if (card.vs && provider != nullptr) {
            // Statistical build: the provider supplies the instance card
            // (and possibly a perturbed geometry); the deck card only
            // selected the polarity.  Instances are requested in deck
            // order, which is the draw order a CampaignSession later
            // replays per sample.
            circuits::DeviceInstance inst =
                provider->make(*card.vs, name, nominal);
            circuit.addMosfet(name, e.nodes[0], e.nodes[1], e.nodes[2],
                              std::move(inst.model), inst.geometry);
          } else {
            circuit.addMosfet(name, e.nodes[0], e.nodes[1], e.nodes[2],
                              card.card->clone(), nominal);
          }
          break;
        }
      }
    } catch (const InvalidArgumentError& err) {
      throw NetlistParseError(e.line, err.what());
    }
  }
  return circuit;
}

namespace {

ParsedNetlist parsed(const Deck& deck, circuits::DeviceProvider* provider) {
  return ParsedNetlist{instantiate(deck, provider), deck.title(), deck.tran(),
                       deck.vsNmos(), deck.vsPmos(), deck.vsMosfets()};
}

}  // namespace

ParsedNetlist parseNetlist(const std::string& text) {
  return parsed(parseDeck(text), nullptr);
}

ParsedNetlist parseNetlist(const std::string& text,
                           circuits::DeviceProvider& provider) {
  return parsed(parseDeck(text), &provider);
}

ParsedNetlist parseNetlistFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgumentError("parseNetlistFile: cannot open '" + path + "'");
  }
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parseNetlist(text);
}

}  // namespace vsstat::spice
