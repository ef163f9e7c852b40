#include "measure/delay.hpp"

#include <cmath>

#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::measure {

using spice::SourceWaveform;

namespace {

GateDelays delaysFromWave(const circuits::GateFo3Bench& bench,
                          const spice::Waveform& wave);

}  // namespace

GateDelays measureGateDelays(circuits::GateFo3Bench& bench,
                             spice::SimSession& session, double dt) {
  require(&session.circuit() == &bench.circuit,
          "measureGateDelays: session is bound to a different circuit");
  spice::TransientOptions options;
  options.tStop = bench.tStop;
  options.dt = dt;
  // Campaign inner loop: record into a per-thread waveform whose capacity
  // survives across samples (with the persistent worker pool, a steady
  // state sample allocates nothing here).  Contents are fully rewritten
  // per run, so reuse never leaks state between samples.
  static thread_local spice::Waveform wave(1);
  session.transient(options, wave);
  return delaysFromWave(bench, wave);
}

GateDelays measureGateDelays(circuits::GateFo3Bench& bench, double dt) {
  spice::SimSession session(bench.circuit);
  return measureGateDelays(bench, session, dt);
}

namespace {

GateDelays delaysFromWave(const circuits::GateFo3Bench& bench,
                          const spice::Waveform& wave) {
  const double mid = 0.5 * bench.supply;

  const auto inRise = wave.crossing(bench.in, mid, /*rising=*/true);
  require(inRise.has_value(), "measureGateDelays: no input rising edge");
  const auto outFall = wave.crossing(bench.out, mid, /*rising=*/false, *inRise);
  if (!outFall) {
    // The solve succeeded; the gate simply never switched for this draw --
    // a failing CORNER (metric-domain), not a failing solver.
    throw MetricDomainError("measureGateDelays: output never fell");
  }

  const auto inFall = wave.crossing(bench.in, mid, /*rising=*/false, *inRise);
  require(inFall.has_value(), "measureGateDelays: no input falling edge");
  const auto outRise = wave.crossing(bench.out, mid, /*rising=*/true, *inFall);
  if (!outRise) {
    throw MetricDomainError("measureGateDelays: output never rose");
  }

  GateDelays d;
  d.tphl = *outFall - *inRise;
  d.tplh = *outRise - *inFall;
  if (!std::isfinite(d.tphl) || !std::isfinite(d.tplh)) {
    throw NonFiniteError("measureGateDelays: non-finite delay");
  }
  if (d.tphl <= 0.0 || d.tplh <= 0.0) {
    // A campaign must classify-and-drop this corner, so it cannot be an
    // InvalidArgumentError (those abort the whole campaign by design).
    throw MetricDomainError("measureGateDelays: negative delay");
  }
  return d;
}

}  // namespace

OscillationResult measureOscillation(circuits::RingOscillatorBench& bench,
                                     int settleCycles, int measureCycles) {
  require(settleCycles >= 0 && measureCycles >= 1,
          "measureOscillation: bad cycle counts");

  spice::TransientOptions opt;
  opt.dt = bench.suggestedDt;
  opt.tStop = bench.suggestedTStop;
  const spice::Waveform wave = spice::transient(bench.circuit, opt);

  // Successive rising mid-rail crossings at tap 0.
  const spice::NodeId tap = bench.taps.front();
  const double mid = 0.5 * bench.supply;
  std::vector<double> edges;
  double after = 0.0;
  while (true) {
    const auto t = wave.crossing(tap, mid, /*rising=*/true, after);
    if (!t) break;
    edges.push_back(*t);
    after = *t + 1e-15;
  }
  const int needed = settleCycles + measureCycles + 1;
  if (static_cast<int>(edges.size()) < needed) {
    throw ConvergenceError(
        "measureOscillation: ring produced " +
            std::to_string(edges.size()) + " edges, need " +
            std::to_string(needed),
        static_cast<int>(edges.size()));
  }

  const double tStart = edges[static_cast<std::size_t>(settleCycles)];
  const double tEnd =
      edges[static_cast<std::size_t>(settleCycles + measureCycles)];

  OscillationResult r;
  r.cyclesMeasured = measureCycles;
  r.period = (tEnd - tStart) / measureCycles;
  r.frequency = 1.0 / r.period;

  // Peak-to-peak swing over the measured window.
  double lo = bench.supply;
  double hi = 0.0;
  for (std::size_t i = 0; i < wave.sampleCount(); ++i) {
    if (wave.time(i) < tStart || wave.time(i) > tEnd) continue;
    const double v = wave.value(tap, i);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  r.swing = hi - lo;
  return r;
}

namespace {

/// Restores a voltage source's waveform on scope exit -- a throwing DC
/// solve must not leave the stimulus clobbered, especially on persistent
/// session fixtures that outlive the failing sample.
class WaveformRestorer {
 public:
  explicit WaveformRestorer(spice::VoltageSourceElement& source)
      : source_(source), original_(source.waveform()) {}
  ~WaveformRestorer() { source_.setWaveform(original_); }
  WaveformRestorer(const WaveformRestorer&) = delete;
  WaveformRestorer& operator=(const WaveformRestorer&) = delete;

 private:
  spice::VoltageSourceElement& source_;
  SourceWaveform original_;
};

}  // namespace

double measureLeakage(circuits::GateFo3Bench& bench,
                      spice::SimSession& session) {
  require(&session.circuit() == &bench.circuit,
          "measureLeakage: session is bound to a different circuit");
  auto& input = bench.circuit.voltageSource(bench.inSource);
  const WaveformRestorer restore(input);

  double total = 0.0;
  for (const double level : {0.0, bench.supply}) {
    input.setDcLevel(level);
    const spice::OperatingPoint op = session.dcOperatingPoint();
    total += std::fabs(
        spice::sourceCurrent(bench.circuit, bench.vddSource, op));
  }
  return 0.5 * total;
}

double measureLeakage(circuits::GateFo3Bench& bench) {
  spice::SimSession session(bench.circuit);
  return measureLeakage(bench, session);
}

}  // namespace vsstat::measure
