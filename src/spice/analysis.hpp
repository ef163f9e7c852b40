// Circuit analyses: Newton DC operating point (with gmin and source
// stepping homotopies), DC sweeps, and charge-conserving transient
// simulation (backward Euler startup, trapezoidal thereafter, with
// step-halving recovery).
//
// The free functions below are one-shot sessions: each builds a
// spice::SimSession with default options (reference numerics, fresh
// pivoting, per-sample tier) and runs one analysis on it.  Callers that
// solve the same topology repeatedly should keep a SimSession instead
// (spice/session.hpp); the numbers are the same either way.
#ifndef VSSTAT_SPICE_ANALYSIS_HPP
#define VSSTAT_SPICE_ANALYSIS_HPP

#include <vector>

#include "linalg/matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace vsstat::spice {

struct NewtonOptions {
  int maxIterations = 80;
  double voltageTolerance = 1e-7;   ///< convergence: max |dV| below this [V]
  double residualTolerance = 1e-9;  ///< convergence: max |F| below this [A]
  double maxUpdate = 0.4;           ///< per-iteration voltage-step clamp [V]
};

struct DcOptions {
  NewtonOptions newton;
  bool gminStepping = true;    ///< homotopy 1: decaying shunt conductance
  bool sourceStepping = true;  ///< homotopy 2: ramp sources from zero
};

/// Converged DC solution.
struct OperatingPoint {
  std::vector<double> nodeVoltages;   ///< indexed by NodeId (ground included)
  std::vector<double> branchCurrents; ///< indexed by global branch index

  [[nodiscard]] double v(NodeId node) const {
    return nodeVoltages[static_cast<std::size_t>(node)];
  }
};

/// Solves the DC operating point; throws ConvergenceError when every
/// homotopy fails.
[[nodiscard]] OperatingPoint dcOperatingPoint(Circuit& circuit,
                                              const DcOptions& options = {});

/// Like dcOperatingPoint but warm-started from a previous solution.
[[nodiscard]] OperatingPoint dcOperatingPoint(Circuit& circuit,
                                              const OperatingPoint& guess,
                                              const DcOptions& options);

/// Branch current through a named voltage source at an operating point.
[[nodiscard]] double sourceCurrent(Circuit& circuit, const std::string& name,
                                   const OperatingPoint& op);

/// Sweeps the DC level of a named voltage source; each point warm-starts
/// from the previous solution.  The source's original waveform is restored
/// afterwards.
[[nodiscard]] std::vector<OperatingPoint> dcSweep(
    Circuit& circuit, const std::string& sourceName,
    const std::vector<double>& levels, const DcOptions& options = {});

struct TransientOptions {
  double tStop = 0.0;      ///< end time [s]
  double dt = 1e-13;       ///< nominal step [s]
  double dtMin = 1e-16;    ///< recovery floor for step halving [s]
  NewtonOptions newton;
  DcOptions dcOptions;     ///< for the t=0 operating point
};

/// Accepted-step trajectory of one transient run: the full unknown vector
/// at every accepted time point (t = 0 DC state included).  The
/// statistical tier's sample-to-sample transient warm start records the
/// previous sample's trajectory and seeds each step's Newton from it (the
/// reference waveform plus the current sample's running offset).
struct TransientTrajectory {
  /// times.size() is the logical length; states may retain MORE entries
  /// than that (beginRecording keeps previously grown state buffers so a
  /// steady-state campaign records allocation-free).
  std::vector<double> times;
  std::vector<linalg::Vector> states;

  /// Resets the logical length to zero, retaining every state buffer.
  void beginRecording() noexcept { times.clear(); }
  void append(double t, const linalg::Vector& x) {
    if (times.size() < states.size()) {
      states[times.size()] = x;  // reuses the retained buffer's capacity
    } else {
      states.push_back(x);
    }
    times.push_back(t);
  }
  [[nodiscard]] bool usableFor(std::size_t unknowns) const noexcept {
    return times.size() >= 2 && states.size() >= times.size() &&
           states.front().size() == unknowns;
  }
  void swap(TransientTrajectory& other) noexcept {
    times.swap(other.times);
    states.swap(other.states);
  }
};

/// Runs a transient analysis; returns node-voltage waveforms (all nodes).
[[nodiscard]] Waveform transient(Circuit& circuit,
                                 const TransientOptions& options);

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_ANALYSIS_HPP
