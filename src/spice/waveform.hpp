// Time-series record of a transient analysis plus crossing-time queries,
// the primitive behind all delay/setup/hold measurements.
#ifndef VSSTAT_SPICE_WAVEFORM_HPP
#define VSSTAT_SPICE_WAVEFORM_HPP

#include <optional>
#include <vector>

#include "spice/element.hpp"

namespace vsstat::spice {

class Waveform {
 public:
  explicit Waveform(std::size_t nodeCount);

  /// Re-arms the record for a new run: drops all samples, keeps the sample
  /// storage capacity.  Campaign inner loops reuse one Waveform across
  /// samples this way instead of allocating a fresh record per transient.
  void reset(std::size_t nodeCount);

  /// Appends one time sample; `nodeVoltages` is indexed by NodeId and must
  /// include ground at index 0.  Times must be non-decreasing.
  void addSample(double time, const std::vector<double>& nodeVoltages);

  /// Starts a smooth piece at the last recorded sample (at the next one on
  /// an empty record): the samples from there to the next piece's start
  /// lie on one smooth curve.  A transient starts one at t = 0 and one at
  /// each source breakpoint, where slopes may jump.  Samples outside every
  /// piece form a polyline.
  void beginPiece();

  [[nodiscard]] std::size_t sampleCount() const noexcept {
    return times_.size();
  }
  [[nodiscard]] std::size_t nodeCount() const noexcept { return nodeCount_; }
  [[nodiscard]] double time(std::size_t i) const { return times_.at(i); }
  [[nodiscard]] double value(NodeId node, std::size_t i) const;

  /// Linear interpolation at an arbitrary time (clamped to the record).
  [[nodiscard]] double valueAt(NodeId node, double t) const;

  /// First time after `after` where the node crosses `level` in the given
  /// direction.  Within a smooth piece the crossing is the root of the
  /// cubic through the four nearest samples of that piece (a quadratic
  /// through three in a shorter piece), so it stays accurate on the long
  /// steps of a transient's step control; elsewhere it interpolates
  /// linearly between the two samples.
  [[nodiscard]] std::optional<double> crossing(NodeId node, double level,
                                               bool rising,
                                               double after = 0.0) const;

  /// Last recorded value of a node.
  [[nodiscard]] double finalValue(NodeId node) const;

  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }

 private:
  /// Root of the interpolant through the samples around segment (i-1, i).
  [[nodiscard]] double crossingIn(NodeId node, double level,
                                  std::size_t i) const;

  std::size_t nodeCount_;
  std::vector<double> times_;
  std::vector<double> values_;  // row-major: sample * nodeCount + node
  std::vector<std::size_t> pieceStarts_;  // ascending sample indices
};

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_WAVEFORM_HPP
