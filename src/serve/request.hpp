// Campaign-server wire protocol: request schema and the minimal JSON layer
// behind it.
//
// The daemon (serve/server.hpp) speaks line-delimited JSON: one request
// object per line in, a stream of frame objects per line out (progress /
// kde / final / error -- serve/stream.hpp builds them).  This header owns
// the request side: a small self-contained JSON document model (the
// container images this library targets carry no JSON dependency, so the
// parser is hand-rolled -- strict UTF-8-agnostic byte handling, \uXXXX
// escapes preserved as-is) and the validated CampaignRequest the server
// executes.
//
// Request schema (all keys lowercase; unknown keys rejected so typos fail
// loudly instead of silently running defaults):
//
//   {"id": "r1",                      optional echo tag (default "")
//    "deck": "...\n...",              REQUIRED SPICE netlist text
//    "samples": 1000,                 sample budget, 1..1e8   (default 1000)
//    "seed": 42,                      campaign seed, 0..2^53  (default 42)
//    "threads": 1,                    worker threads, 0..1024, 0=all
//                                                             (default 1)
//    "mode": {"numerics": "reference"|"fast",
//             "solver":   "fresh"|"reusePivot",
//             "tier":     "perSample"|"statistical"},
//    "scheme": "rng"|"iid"|"lhs"|"halton"|"sobol",  (default "rng")
//    "variability": {"sigma_scale": 1.0,            scales every alpha
//                    "nmos": {"avt0":2.3,"aleff":3.7,"aweff":3.7,
//                             "amu":900.0,"acinv":0.3},   (any subset)
//                    "pmos": {...}},
//    "measure": {"analysis": "op"|"tran",           (default "op")
//                "probes": ["out", ...],            REQUIRED, >= 1 node
//                "spec": {"min": 0.1, "max": 0.5}}, (optional yield window)
//    "stream_every": 256,             progress-frame cadence in samples,
//                                     1..2^31-1
//    "kde_every": 0,                  KDE-frame cadence, 0..2^31-1 (0 = off)
//    "kde_points": 32}                KDE grid resolution, 2..4096
//
// Integer fields must be exact integers inside their ranges; the range is
// checked on the JSON number before any conversion, so an out-of-range
// value is rejected, never wrapped.
#ifndef VSSTAT_SERVE_REQUEST_HPP
#define VSSTAT_SERVE_REQUEST_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mc/samplers.hpp"
#include "models/process_variation.hpp"
#include "spice/session.hpp"
#include "util/error.hpp"
#include "yield/parametric.hpp"

namespace vsstat::serve {

// --- minimal JSON ----------------------------------------------------------

/// One JSON document node.  Object member order is preserved (insertion
/// order), numbers are doubles (the protocol's integers all fit exactly).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                                 ///< array
  std::vector<std::pair<std::string, JsonValue>> members;       ///< object

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const noexcept;

  [[nodiscard]] bool isNull() const noexcept { return kind == Kind::null; }
  [[nodiscard]] const char* kindName() const noexcept;
};

// --- input bounds ----------------------------------------------------------

/// Nesting cap of parseJson's recursive descent.  The request schema nests
/// three deep (request -> variability -> nmos); without a cap, one line of
/// millions of '[' overflows the stack and takes the daemon down.
inline constexpr int kMaxJsonDepth = 64;

/// Longest request line the server reads: 16 MiB, far above the largest
/// deck a request carries in practice.  A longer line gets a bad_request
/// error frame and is discarded up to its newline; the connection stays
/// open for the next line.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{16} << 20;

/// Thrown on malformed JSON text (wire-level, before schema validation).
class JsonParseError : public Error {
 public:
  explicit JsonParseError(const std::string& what) : Error(what) {}
};

/// Parses one complete JSON document; trailing non-whitespace is an error.
[[nodiscard]] JsonValue parseJson(const std::string& text);

/// Appends a JSON string literal (quotes + escapes) to `out`.
void appendJsonString(std::string& out, const std::string& s);

/// Appends a round-trip-exact double (%.17g; NaN/Inf become null -- JSON
/// has no representation for them and the failure taxonomy reports them
/// separately).
void appendJsonNumber(std::string& out, double v);

// --- request schema --------------------------------------------------------

/// Wire-protocol error codes (the "code" field of error frames).
enum class RequestError : std::uint8_t {
  badJson,        ///< line is not a JSON object
  badRequest,     ///< schema violation (missing/unknown/ill-typed field)
  deckError,      ///< netlist rejected (carries the deck line number)
  campaignError,  ///< campaign aborted after it started
};
[[nodiscard]] const char* toString(RequestError code) noexcept;

/// Schema validation failure; `code()` selects the error-frame code.
class RequestValidationError : public Error {
 public:
  RequestValidationError(RequestError code, const std::string& what)
      : Error(what), code_(code) {}
  [[nodiscard]] RequestError code() const noexcept { return code_; }

 private:
  RequestError code_;
};

/// What one campaign request measures per sample.
struct MeasureSpec {
  enum class Analysis : std::uint8_t {
    op,    ///< DC operating point; metric m = V(probes[m])
    tran,  ///< transient per the deck's .tran card; metric m = final V(probes[m])
  };
  Analysis analysis = Analysis::op;
  std::vector<std::string> probes;  ///< node names; metricCount = probes.size()
  /// Optional spec window on metric 0 for the streamed yield estimate.
  std::optional<yield::SpecLimit> spec;
};

/// A validated campaign request, ready to execute.
struct CampaignRequest {
  std::string id;
  std::string deck;
  int samples = 1000;
  std::uint64_t seed = 42;
  unsigned threads = 1;
  spice::SessionOptions mode;  ///< numerics / solver / tier axes
  mc::SamplingPlan::Scheme scheme = mc::SamplingPlan::Scheme::providerRng;
  models::PelgromAlphas nmosAlphas;
  models::PelgromAlphas pmosAlphas;
  MeasureSpec measure;
  int streamEvery = 256;
  int kdeEvery = 0;
  int kdePoints = 32;
};

/// Paper-flavored default Pelgrom alphas (Table II ballpark), used when a
/// request omits the variability block.
[[nodiscard]] models::PelgromAlphas defaultAlphas() noexcept;

/// Validates a parsed JSON document against the request schema.  Throws
/// RequestValidationError (code badRequest) on any violation.
[[nodiscard]] CampaignRequest parseCampaignRequest(const JsonValue& root);

}  // namespace vsstat::serve

#endif  // VSSTAT_SERVE_REQUEST_HPP
