// Small-signal AC analysis.
//
// The circuit is linearized at its DC operating point: G = dF/dv is the
// Newton Jacobian in DC mode and C = dQ/dv is recovered exactly as the
// difference between a backward-Euler(h=1) assembly and the DC assembly at
// the same iterate (elements stamp companion terms as c0 * dq/dv, so the
// difference isolates dq/dv with c0 = 1).  Each sweep point then solves the
// complex linear system (G + j*2*pi*f*C) x = b, where b places the unit AC
// excitation on the chosen source.
#ifndef VSSTAT_SPICE_AC_HPP
#define VSSTAT_SPICE_AC_HPP

#include <string>
#include <vector>

#include "linalg/complex.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"

namespace vsstat::spice {

struct AcOptions {
  double excitationMagnitude = 1.0;  ///< AC source amplitude [V]
};

/// Small-signal solution at one frequency.
struct AcPoint {
  double frequencyHz = 0.0;
  linalg::ComplexVector nodeVoltages;   ///< indexed by NodeId (ground = 0+0j)
  linalg::ComplexVector branchCurrents; ///< indexed by global branch index

  [[nodiscard]] linalg::Complex v(NodeId node) const {
    return nodeVoltages[static_cast<std::size_t>(node)];
  }
  /// |V(node)| in dB (20 log10).
  [[nodiscard]] double magnitudeDb(NodeId node) const;
  /// Phase of V(node) in degrees, in (-180, 180].
  [[nodiscard]] double phaseDeg(NodeId node) const;
};

/// Frequency sweep result plus the operating point it was linearized at.
struct AcSweep {
  OperatingPoint op;
  std::vector<AcPoint> points;

  /// |V(node)| per sweep point.
  [[nodiscard]] std::vector<double> magnitude(NodeId node) const;
};

/// Linearized (G, C) system at a fixed operating point; reusable across
/// frequencies and excitations.  This is the building block acAnalysis()
/// uses; it is public so callers can form custom excitations (e.g. noise
/// or loop-gain probes).
class SmallSignalSystem {
 public:
  /// Linearizes the circuit at the given operating point.
  SmallSignalSystem(const Circuit& circuit, const OperatingPoint& op);

  /// Solves (G + j*2*pi*f*C) x = b.  b must have unknownCount entries
  /// (node rows first, then branch rows).
  [[nodiscard]] linalg::ComplexVector solve(
      double frequencyHz, const linalg::ComplexVector& excitation) const;

  /// Excitation vector for a named voltage source with the given AC
  /// amplitude.
  [[nodiscard]] linalg::ComplexVector voltageExcitation(
      Circuit& circuit, const std::string& sourceName,
      double magnitude = 1.0) const;

  [[nodiscard]] const linalg::Matrix& conductance() const noexcept {
    return g_;
  }
  [[nodiscard]] const linalg::Matrix& capacitance() const noexcept {
    return c_;
  }
  [[nodiscard]] std::size_t numNodes() const noexcept { return numNodes_; }
  [[nodiscard]] std::size_t numUnknowns() const noexcept {
    return numUnknowns_;
  }

 private:
  std::size_t numNodes_ = 0;
  std::size_t numUnknowns_ = 0;
  linalg::Matrix g_;  ///< dF/dv at the operating point
  linalg::Matrix c_;  ///< dQ/dv at the operating point
};

/// Full AC analysis: DC operating point, linearization, frequency sweep
/// with a unit (or options.excitationMagnitude) AC drive replacing the
/// named voltage source's small-signal value.
[[nodiscard]] AcSweep acAnalysis(Circuit& circuit,
                                 const std::string& sourceName,
                                 const std::vector<double>& frequenciesHz,
                                 const AcOptions& options = {});

/// Logarithmically spaced frequency grid, `pointsPerDecade` points per
/// decade from fStart to fStop inclusive.
[[nodiscard]] std::vector<double> logFrequencyGrid(double fStartHz,
                                                   double fStopHz,
                                                   int pointsPerDecade);

/// Lowest frequency in the sweep where |V(node)| has dropped 3 dB below
/// its value at the first sweep point; throws InvalidArgumentError when the
/// response never crosses (sweep too narrow).  Log-interpolated between
/// sweep points.
[[nodiscard]] double bandwidth3dB(const AcSweep& sweep, NodeId node);

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_AC_HPP
