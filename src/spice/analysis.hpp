// Circuit analyses: Newton DC operating point (with gmin and source
// stepping homotopies) and charge-conserving transient simulation.
//
// The transient integrates with backward Euler for its first step and
// the trapezoidal rule after that, under SPICE's local-truncation-error
// step control (Nagel, SPICE2, 1975): each converged step's error is
// estimated from a third divided difference of the node voltages, a step
// over tolerance is retried shorter, and the next step follows from the
// error ratio, growing at most 2x and never past TransientOptions::dt.
// The stepper lands exactly on every source breakpoint (PULSE and PWL
// corners) and on tStop, and restarts its error history at each one.  A
// step whose Newton fails is halved and retried with backward Euler.
// The step sequence depends only on the circuit, its cards and the
// options, so every run of the same inputs takes the same steps.
//
// Nothing here tunes Newton: SimSession derives every solve's iteration
// budget, update clamp and tolerances from its tier and rescue rung
// (spice/session.hpp), so the DC analyses take no options and
// TransientOptions holds only the time axis.
//
// The free functions below are one-shot sessions: each builds a
// spice::SimSession with default options (reference numerics, fresh
// pivoting, per-sample tier) and runs one analysis on it.  Callers that
// solve the same topology repeatedly should keep a SimSession instead
// (spice/session.hpp); the numbers are the same either way.  DC sweeps
// run on SimSession::dcSweepNodes only (dcSweepNode is its one-probe
// form).
#ifndef VSSTAT_SPICE_ANALYSIS_HPP
#define VSSTAT_SPICE_ANALYSIS_HPP

#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace vsstat::spice {

/// Converged DC solution.
struct OperatingPoint {
  std::vector<double> nodeVoltages;   ///< indexed by NodeId (ground included)
  std::vector<double> branchCurrents; ///< indexed by global branch index

  [[nodiscard]] double v(NodeId node) const {
    return nodeVoltages[static_cast<std::size_t>(node)];
  }
};

/// Solves the DC operating point; throws ConvergenceError when every
/// homotopy fails.  A DC solve that plain Newton cannot converge falls
/// back on two homotopies, in order: gmin stepping (a decaying shunt
/// conductance), then source stepping (sources ramped from zero).
[[nodiscard]] OperatingPoint dcOperatingPoint(Circuit& circuit);

/// Like dcOperatingPoint but warm-started from a previous solution.
[[nodiscard]] OperatingPoint dcOperatingPoint(Circuit& circuit,
                                              const OperatingPoint& guess);

/// Branch current through a named voltage source at an operating point.
[[nodiscard]] double sourceCurrent(Circuit& circuit, const std::string& name,
                                   const OperatingPoint& op);

/// The step control holds each step's estimated truncation error on the
/// node voltages to the session tier's tolerance (kTransientLteVolts,
/// spice/session.hpp).  A step that fails to converge is halved and
/// retried, down to a 1e-16 s floor.
struct TransientOptions {
  double tStop = 0.0;      ///< end time [s]
  /// Largest step [s], SPICE's TMAX: the step control never exceeds it.
  double dt = 1e-13;
};

/// Accepted-step trajectory of one transient run: the full unknown vector
/// at every accepted time point (t = 0 DC state included).  The
/// statistical tier's sample-to-sample transient warm start records the
/// previous sample's trajectory and seeds each step's Newton from it (the
/// reference waveform plus the current sample's running offset).
struct TransientTrajectory {
  /// One time per recorded point; `states` holds the points' unknown
  /// vectors back to back, `width` entries each.  Both keep their
  /// capacity across recordings, so a steady-state campaign records
  /// allocation-free even though runs differ in step count.
  std::vector<double> times;
  std::vector<double> states;
  std::size_t width = 0;

  /// Resets the length to zero, retaining the buffers' capacity.
  void beginRecording(std::size_t unknowns) noexcept {
    times.clear();
    states.clear();
    width = unknowns;
  }
  void append(double t, const linalg::Vector& x) {
    times.push_back(t);
    states.insert(states.end(), x.begin(), x.end());
  }
  /// Unknown vector of recorded point `j`.
  [[nodiscard]] const double* state(std::size_t j) const noexcept {
    return states.data() + j * width;
  }
  [[nodiscard]] bool usableFor(std::size_t unknowns) const noexcept {
    return times.size() >= 2 && width == unknowns;
  }
  void swap(TransientTrajectory& other) noexcept {
    times.swap(other.times);
    states.swap(other.states);
    std::swap(width, other.width);
  }
};

/// Runs a transient analysis; returns node-voltage waveforms (all nodes).
[[nodiscard]] Waveform transient(Circuit& circuit,
                                 const TransientOptions& options);

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_ANALYSIS_HPP
