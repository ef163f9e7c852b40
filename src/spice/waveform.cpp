#include "spice/waveform.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vsstat::spice {

Waveform::Waveform(std::size_t nodeCount) : nodeCount_(nodeCount) {
  require(nodeCount > 0, "Waveform: need at least the ground node");
}

void Waveform::reset(std::size_t nodeCount) {
  require(nodeCount > 0, "Waveform: need at least the ground node");
  nodeCount_ = nodeCount;
  times_.clear();
  values_.clear();
}

void Waveform::addSample(double time, const std::vector<double>& nodeVoltages) {
  require(nodeVoltages.size() == nodeCount_, "Waveform: sample arity mismatch");
  require(times_.empty() || time >= times_.back(),
          "Waveform: samples must be time-ordered");
  times_.push_back(time);
  values_.insert(values_.end(), nodeVoltages.begin(), nodeVoltages.end());
}

double Waveform::value(NodeId node, std::size_t i) const {
  require(node >= 0 && static_cast<std::size_t>(node) < nodeCount_,
          "Waveform: node out of range");
  require(i < times_.size(), "Waveform: sample index out of range");
  return values_[i * nodeCount_ + static_cast<std::size_t>(node)];
}

double Waveform::valueAt(NodeId node, double t) const {
  require(!times_.empty(), "Waveform: empty record");
  if (t <= times_.front()) return value(node, 0);
  if (t >= times_.back()) return value(node, times_.size() - 1);
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  if (span <= 0.0) return value(node, hi);
  const double f = (t - times_[lo]) / span;
  return value(node, lo) * (1.0 - f) + value(node, hi) * f;
}

std::optional<double> Waveform::crossing(NodeId node, double level,
                                         bool rising, double after) const {
  for (std::size_t i = 1; i < times_.size(); ++i) {
    if (times_[i] < after) continue;
    const double v0 = value(node, i - 1);
    const double v1 = value(node, i);
    const bool crossed = rising ? (v0 < level && v1 >= level)
                                : (v0 > level && v1 <= level);
    if (!crossed) continue;
    const double span = v1 - v0;
    const double f = span != 0.0 ? (level - v0) / span : 0.0;
    const double t = times_[i - 1] + f * (times_[i] - times_[i - 1]);
    if (t >= after) return t;
  }
  return std::nullopt;
}

double Waveform::finalValue(NodeId node) const {
  require(!times_.empty(), "Waveform: empty record");
  return value(node, times_.size() - 1);
}

}  // namespace vsstat::spice
