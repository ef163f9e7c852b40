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
  pieceStarts_.clear();
}

void Waveform::addSample(double time, const std::vector<double>& nodeVoltages) {
  require(nodeVoltages.size() == nodeCount_, "Waveform: sample arity mismatch");
  require(times_.empty() || time >= times_.back(),
          "Waveform: samples must be time-ordered");
  times_.push_back(time);
  values_.insert(values_.end(), nodeVoltages.begin(), nodeVoltages.end());
}

void Waveform::beginPiece() {
  pieceStarts_.push_back(times_.empty() ? 0 : times_.size() - 1);
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
    const double t = crossingIn(node, level, i);
    if (t >= after) return t;
  }
  return std::nullopt;
}

double Waveform::crossingIn(NodeId node, double level, std::size_t i) const {
  const double t0 = times_[i - 1];
  const double t1 = times_[i];
  const double v0 = value(node, i - 1);
  const double v1 = value(node, i);
  const double span = v1 - v0;
  const double linear = t0 + (span != 0.0 ? (level - v0) / span : 0.0) *
                                 (t1 - t0);

  // The smooth piece holding the segment: from the last start at or
  // before i - 1 to the next start (the shared breakpoint sample) or the
  // record's end.
  const auto next =
      std::upper_bound(pieceStarts_.begin(), pieceStarts_.end(), i - 1);
  if (next == pieceStarts_.begin()) return linear;
  const std::size_t first = *(next - 1);
  const std::size_t last =
      next != pieceStarts_.end() ? *next : times_.size() - 1;
  if (last < i) return linear;

  // The most centred stencil of up to four samples of the piece that
  // contains the segment.
  std::size_t points = std::min<std::size_t>(4, last - first + 1);
  if (points < 3) return linear;
  const std::size_t lo = std::max(first, i + 1 >= points ? i + 1 - points : 0);
  const std::size_t hi = std::min(last + 1 - points, i - 1);
  const std::size_t start =
      std::clamp(i >= points / 2 ? i - points / 2 : 0, lo, hi);
  double ts[4];
  double vs[4];
  for (std::size_t k = 0; k < points; ++k) {
    ts[k] = times_[start + k];
    vs[k] = value(node, start + k) - level;
  }
  const auto poly = [&](double t) {
    double sum = 0.0;
    for (std::size_t k = 0; k < points; ++k) {
      double w = vs[k];
      for (std::size_t m = 0; m < points; ++m)
        if (m != k) w *= (t - ts[m]) / (ts[k] - ts[m]);
      sum += w;
    }
    return sum;
  };
  // The samples bracket the level, so bisection keeps a root of the
  // interpolant; 60 halvings reach the last bits of the segment.
  double a = t0;
  double b = t1;
  const double fa = v0 - level;
  for (int k = 0; k < 60 && a < b; ++k) {
    const double m = 0.5 * (a + b);
    if (m <= a || m >= b) break;
    if ((poly(m) < 0.0) == (fa < 0.0)) {
      a = m;
    } else {
      b = m;
    }
  }
  return 0.5 * (a + b);
}

double Waveform::finalValue(NodeId node) const {
  require(!times_.empty(), "Waveform: empty record");
  return value(node, times_.size() - 1);
}

}  // namespace vsstat::spice
