#include "serve/request.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace vsstat::serve {

// --- JSON document ---------------------------------------------------------

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind != Kind::object) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const char* JsonValue::kindName() const noexcept {
  switch (kind) {
    case Kind::null: return "null";
    case Kind::boolean: return "boolean";
    case Kind::number: return "number";
    case Kind::string: return "string";
    case Kind::array: return "array";
    case Kind::object: return "object";
  }
  return "null";
}

namespace {

/// Recursive-descent JSON parser over a byte range.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue v = value();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError("json offset " + std::to_string(pos_) + ": " +
                         message);
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] char peek() {
    skipSpace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue value() {
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth)
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        ++depth_;
        JsonValue nested = c == '{' ? object() : array();
        --depth_;
        return nested;
      }
      case '"':
        v.kind = JsonValue::Kind::string;
        v.string = string();
        return v;
      case 't':
        if (!literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::boolean;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::boolean;
        v.boolean = false;
        return v;
      case 'n':
        if (!literal("null")) fail("bad literal");
        return v;
      default:
        return numberValue();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string string() {
    // pos_ is at the opening quote.
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are not
          // needed by this protocol -- decks and node names are ASCII).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue numberValue() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool sawDigit = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      sawDigit = sawDigit ||
                 std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0;
      ++pos_;
    }
    if (!sawDigit) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::number;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parseJson(const std::string& text) { return JsonParser(text).run(); }

void appendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void appendJsonNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  // %.17g round-trips every finite double exactly: a client parsing the
  // final frame recovers bit-identical values (the server's bit-equality
  // contract with in-process campaigns rides on this).
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

// --- request schema --------------------------------------------------------

const char* toString(RequestError code) noexcept {
  switch (code) {
    case RequestError::badJson: return "bad_json";
    case RequestError::badRequest: return "bad_request";
    case RequestError::deckError: return "deck_error";
    case RequestError::campaignError: return "campaign_error";
  }
  return "bad_request";
}

models::PelgromAlphas defaultAlphas() noexcept {
  models::PelgromAlphas a;
  a.aVt0 = 2.3;    // V nm
  a.aLeff = 3.7;   // nm
  a.aWeff = 3.7;   // nm
  a.aMu = 900.0;   // nm cm^2/(V s)
  a.aCinv = 0.3;   // nm uF/cm^2
  return a;
}

namespace {

[[noreturn]] void badRequest(const std::string& message) {
  throw RequestValidationError(RequestError::badRequest, message);
}

const JsonValue& member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) badRequest(std::string("missing required field '") + key +
                               "'");
  return *v;
}

std::string asString(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::string)
    badRequest(std::string(what) + " must be a string, got " + v.kindName());
  return v.string;
}

double asNumber(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::number)
    badRequest(std::string(what) + " must be a number, got " + v.kindName());
  return v.number;
}

/// An integer field inside [lo, hi].  The range is checked on the double,
/// before any cast: converting a double outside the target type's range
/// is undefined behaviour, and narrowing after a cast would wrap.
std::int64_t asInteger(const JsonValue& v, const char* what, std::int64_t lo,
                       std::int64_t hi) {
  const double d = asNumber(v, what);
  if (d != std::nearbyint(d))
    badRequest(std::string(what) + " must be an integer");
  if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)))
    badRequest(std::string(what) + " must be in [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "]");
  return static_cast<std::int64_t>(d);
}

// Integer field ranges (request.hpp's schema comment documents them).
constexpr std::int64_t kMaxSamples = 100'000'000;
constexpr std::int64_t kMaxSeed = std::int64_t{1} << 53;  // exact in double
constexpr std::int64_t kMaxThreads = 1024;
constexpr std::int64_t kMaxCadence = std::numeric_limits<int>::max();

void rejectUnknownKeys(const JsonValue& obj, const char* what,
                       std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.members) {
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known)
      badRequest(std::string("unknown ") + what + " field '" + key + "'");
  }
}

void parseMode(const JsonValue& v, spice::SessionOptions& mode) {
  if (v.kind != JsonValue::Kind::object) badRequest("mode must be an object");
  rejectUnknownKeys(v, "mode", {"numerics", "solver", "tier"});
  if (const JsonValue* numerics = v.find("numerics")) {
    const std::string s = asString(*numerics, "mode.numerics");
    if (s == "reference") {
      mode.numerics = models::NumericsMode::reference;
    } else if (s == "fast") {
      mode.numerics = models::NumericsMode::fast;
    } else {
      badRequest("mode.numerics must be 'reference' or 'fast'");
    }
  }
  if (const JsonValue* solver = v.find("solver")) {
    const std::string s = asString(*solver, "mode.solver");
    if (s == "fresh") {
      mode.solver = linalg::SolverMode::fresh;
    } else if (s == "reusePivot") {
      mode.solver = linalg::SolverMode::reusePivot;
    } else {
      badRequest("mode.solver must be 'fresh' or 'reusePivot'");
    }
  }
  if (const JsonValue* tier = v.find("tier")) {
    const std::string s = asString(*tier, "mode.tier");
    if (s == "perSample") {
      mode.tier = spice::ToleranceTier::perSample;
    } else if (s == "statistical") {
      mode.tier = spice::ToleranceTier::statistical;
    } else {
      badRequest("mode.tier must be 'perSample' or 'statistical'");
    }
  }
}

void parseAlphaOverrides(const JsonValue& v, const char* what,
                         models::PelgromAlphas& a) {
  if (v.kind != JsonValue::Kind::object)
    badRequest(std::string(what) + " must be an object");
  rejectUnknownKeys(v, what, {"avt0", "aleff", "aweff", "amu", "acinv"});
  if (const JsonValue* f = v.find("avt0")) a.aVt0 = asNumber(*f, "avt0");
  if (const JsonValue* f = v.find("aleff")) a.aLeff = asNumber(*f, "aleff");
  if (const JsonValue* f = v.find("aweff")) a.aWeff = asNumber(*f, "aweff");
  if (const JsonValue* f = v.find("amu")) a.aMu = asNumber(*f, "amu");
  if (const JsonValue* f = v.find("acinv")) a.aCinv = asNumber(*f, "acinv");
}

void parseVariability(const JsonValue& v, CampaignRequest& req) {
  if (v.kind != JsonValue::Kind::object)
    badRequest("variability must be an object");
  rejectUnknownKeys(v, "variability", {"sigma_scale", "nmos", "pmos"});
  if (const JsonValue* nmos = v.find("nmos"))
    parseAlphaOverrides(*nmos, "variability.nmos", req.nmosAlphas);
  if (const JsonValue* pmos = v.find("pmos"))
    parseAlphaOverrides(*pmos, "variability.pmos", req.pmosAlphas);
  if (const JsonValue* scale = v.find("sigma_scale")) {
    const double s = asNumber(*scale, "variability.sigma_scale");
    if (s < 0.0) badRequest("variability.sigma_scale must be >= 0");
    for (models::PelgromAlphas* a : {&req.nmosAlphas, &req.pmosAlphas}) {
      a->aVt0 *= s;
      a->aLeff *= s;
      a->aWeff *= s;
      a->aMu *= s;
      a->aCinv *= s;
    }
  }
}

void parseMeasure(const JsonValue& v, MeasureSpec& measure) {
  if (v.kind != JsonValue::Kind::object)
    badRequest("measure must be an object");
  rejectUnknownKeys(v, "measure", {"analysis", "probes", "spec"});
  if (const JsonValue* analysis = v.find("analysis")) {
    const std::string s = asString(*analysis, "measure.analysis");
    if (s == "op") {
      measure.analysis = MeasureSpec::Analysis::op;
    } else if (s == "tran") {
      measure.analysis = MeasureSpec::Analysis::tran;
    } else {
      badRequest("measure.analysis must be 'op' or 'tran'");
    }
  }
  const JsonValue& probes = member(v, "probes");
  if (probes.kind != JsonValue::Kind::array || probes.items.empty())
    badRequest("measure.probes must be a non-empty array of node names");
  for (const JsonValue& p : probes.items)
    measure.probes.push_back(asString(p, "measure.probes entry"));
  if (const JsonValue* spec = v.find("spec")) {
    if (spec->kind != JsonValue::Kind::object)
      badRequest("measure.spec must be an object");
    rejectUnknownKeys(*spec, "measure.spec", {"min", "max"});
    yield::SpecLimit limit;
    if (const JsonValue* lo = spec->find("min")) {
      if (!lo->isNull()) limit.lower = asNumber(*lo, "measure.spec.min");
    }
    if (const JsonValue* hi = spec->find("max")) {
      if (!hi->isNull()) limit.upper = asNumber(*hi, "measure.spec.max");
    }
    measure.spec = limit;
  }
}

}  // namespace

CampaignRequest parseCampaignRequest(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::object)
    badRequest("request must be a JSON object");
  rejectUnknownKeys(root, "request",
                    {"id", "deck", "samples", "seed", "threads", "mode",
                     "scheme", "variability", "measure", "stream_every",
                     "kde_every", "kde_points"});

  CampaignRequest req;
  req.nmosAlphas = defaultAlphas();
  req.pmosAlphas = defaultAlphas();

  if (const JsonValue* id = root.find("id")) req.id = asString(*id, "id");
  req.deck = asString(member(root, "deck"), "deck");
  if (req.deck.empty()) badRequest("deck must not be empty");

  if (const JsonValue* samples = root.find("samples"))
    req.samples = static_cast<int>(asInteger(*samples, "samples", 1,
                                             kMaxSamples));
  if (const JsonValue* seed = root.find("seed"))
    req.seed = static_cast<std::uint64_t>(asInteger(*seed, "seed", 0,
                                                    kMaxSeed));
  if (const JsonValue* threads = root.find("threads"))
    req.threads = static_cast<unsigned>(asInteger(*threads, "threads", 0,
                                                  kMaxThreads));
  if (const JsonValue* mode = root.find("mode")) parseMode(*mode, req.mode);
  if (const JsonValue* scheme = root.find("scheme")) {
    try {
      req.scheme = mc::parseScheme(asString(*scheme, "scheme"));
    } catch (const InvalidArgumentError& e) {
      badRequest(e.what());
    }
  }
  if (const JsonValue* variability = root.find("variability"))
    parseVariability(*variability, req);
  parseMeasure(member(root, "measure"), req.measure);

  if (const JsonValue* every = root.find("stream_every"))
    req.streamEvery = static_cast<int>(asInteger(*every, "stream_every", 1,
                                                 kMaxCadence));
  if (const JsonValue* every = root.find("kde_every"))
    req.kdeEvery = static_cast<int>(asInteger(*every, "kde_every", 0,
                                              kMaxCadence));
  if (const JsonValue* points = root.find("kde_points"))
    req.kdePoints = static_cast<int>(asInteger(*points, "kde_points", 2,
                                               4096));
  return req;
}

}  // namespace vsstat::serve
