#include "measure/setup_hold.hpp"

#include <cmath>

#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::measure {

using spice::SourceWaveform;

namespace {

constexpr double kClockEdge = 70e-12;     ///< rising CLK edge time [s]
constexpr double kSlew = 8e-12;           ///< D and CLK edge slew [s]
constexpr double kSettleWindow = 70e-12;  ///< time allowed for Q [s]
constexpr double kSearchSpan = 50e-12;    ///< bisection bracket half-width
constexpr double kResolution = 0.2e-12;   ///< bisection stop resolution [s]

/// One capture trial: D rises at dEdge, CLK rises at kClockEdge.  Returns
/// true when Q ends at the captured '1'.
bool captureTrial(circuits::DffBench& bench, spice::SimSession& session,
                  spice::Waveform& wave, double dEdge, double dt) {
  const double vdd = bench.supply;
  auto& dSrc = bench.circuit.voltageSource(bench.dSource);
  auto& clkSrc = bench.circuit.voltageSource(bench.clkSource);

  const double tStop = kClockEdge + kSettleWindow;

  // Clamp the data edge into the simulated window; an edge before t=0
  // behaves as "data valid from the start".
  const double tEdge = std::max(dEdge, 1e-15);
  dSrc.setWaveform(SourceWaveform::pwl(
      {{0.0, 0.0}, {tEdge, 0.0}, {tEdge + kSlew, vdd}, {tStop, vdd}}));
  clkSrc.setWaveform(SourceWaveform::pwl({{0.0, 0.0},
                                          {kClockEdge, 0.0},
                                          {kClockEdge + kSlew, vdd},
                                          {tStop, vdd}}));

  spice::TransientOptions topt;
  topt.tStop = tStop;
  topt.dt = dt;
  session.transient(topt, wave);

  // The slave opens on the rising edge, so a captured value shows at Q
  // within the settle window and stays there.
  return std::fabs(wave.finalValue(bench.q) - vdd) < 0.1 * vdd;
}

}  // namespace

double measureSetupTime(circuits::DffBench& bench, spice::SimSession& session,
                        double dt) {
  require(&session.circuit() == &bench.circuit,
          "measureSetupTime: session is bound to a different circuit");
  const spice::WaveformRestorer restoreD(
      bench.circuit.voltageSource(bench.dSource));
  const spice::WaveformRestorer restoreClk(
      bench.circuit.voltageSource(bench.clkSource));
  spice::Waveform wave(1);
  // Offset = how long D leads the CLK edge.  Large lead must pass; D
  // arriving after the edge must fail.
  const auto passes = [&](double lead) {
    return captureTrial(bench, session, wave, kClockEdge - lead - kSlew, dt);
  };

  double lo = -kSearchSpan;  // D after edge: expect fail
  double hi = kSearchSpan;   // D well before edge: expect pass
  if (!passes(hi)) {
    throw ConvergenceError("measureSetupTime: register never captures", 0);
  }
  if (passes(lo)) return lo;  // captures even with trailing data

  while (hi - lo > kResolution) {
    const double mid = 0.5 * (lo + hi);
    (passes(mid) ? hi : lo) = mid;
  }
  return 0.5 * (lo + hi);
}

double measureSetupTime(circuits::DffBench& bench, double dt) {
  spice::SimSession session(bench.circuit);
  return measureSetupTime(bench, session, dt);
}

}  // namespace vsstat::measure
