// Gate delay and leakage measurements on the fanout-of-3 fixtures.
#ifndef VSSTAT_MEASURE_DELAY_HPP
#define VSSTAT_MEASURE_DELAY_HPP

#include "circuits/benchmarks.hpp"
#include "spice/analysis.hpp"
#include "spice/session.hpp"

namespace vsstat::measure {

struct GateDelays {
  double tphl = 0.0;     ///< input rise 50% -> output fall 50% [s]
  double tplh = 0.0;     ///< input fall 50% -> output rise 50% [s]

  [[nodiscard]] double average() const noexcept {
    return 0.5 * (tphl + tplh);
  }
};

/// Runs a transient on the fixture through `session`, a spice::SimSession
/// bound to the bench's circuit (build-once campaigns keep one per
/// worker), and extracts both propagation delays.  Throws
/// MetricDomainError if an expected output edge never appears (a
/// functional failure under extreme mismatch).
[[nodiscard]] GateDelays measureGateDelays(circuits::GateFo3Bench& bench,
                                           spice::SimSession& session,
                                           double dt = 0.25e-12);

/// One-shot variant: the overload above on a fresh default session.
[[nodiscard]] GateDelays measureGateDelays(circuits::GateFo3Bench& bench,
                                           double dt = 0.25e-12);

/// Static supply leakage of the fixture through `session`, averaged over
/// input low and input high states [A].
[[nodiscard]] double measureLeakage(circuits::GateFo3Bench& bench,
                                    spice::SimSession& session);

/// One-shot variant: the overload above on a fresh default session.
[[nodiscard]] double measureLeakage(circuits::GateFo3Bench& bench);

struct OscillationResult {
  double frequency = 0.0;  ///< [Hz], averaged over the measured cycles
  double period = 0.0;     ///< [s]
  int cyclesMeasured = 0;
  double swing = 0.0;      ///< peak-to-peak at the tap [V]
};

/// Runs the ring-oscillator transient and measures the steady oscillation
/// frequency at tap 0 (skipping `settleCycles` start-up periods).  Throws
/// ConvergenceError when the ring fails to produce enough full cycles --
/// a stuck ring under extreme mismatch is a reportable failure, not a
/// number.
[[nodiscard]] OscillationResult measureOscillation(
    circuits::RingOscillatorBench& bench, int settleCycles = 2,
    int measureCycles = 4);

}  // namespace vsstat::measure

#endif  // VSSTAT_MEASURE_DELAY_HPP
