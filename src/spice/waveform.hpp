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

  [[nodiscard]] std::size_t sampleCount() const noexcept {
    return times_.size();
  }
  [[nodiscard]] std::size_t nodeCount() const noexcept { return nodeCount_; }
  [[nodiscard]] double time(std::size_t i) const { return times_.at(i); }
  [[nodiscard]] double value(NodeId node, std::size_t i) const;

  /// Linear interpolation at an arbitrary time (clamped to the record).
  [[nodiscard]] double valueAt(NodeId node, double t) const;

  /// First time after `after` where the node crosses `level` in the given
  /// direction (linear interpolation between samples).
  [[nodiscard]] std::optional<double> crossing(NodeId node, double level,
                                               bool rising,
                                               double after = 0.0) const;

  /// Last recorded value of a node.
  [[nodiscard]] double finalValue(NodeId node) const;

  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }

 private:
  std::size_t nodeCount_;
  std::vector<double> times_;
  std::vector<double> values_;  // row-major: sample * nodeCount + node
};

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_WAVEFORM_HPP
