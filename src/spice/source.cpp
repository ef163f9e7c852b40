#include "spice/source.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vsstat::spice {

SourceWaveform SourceWaveform::dc(double value) {
  SourceWaveform s;
  s.kind_ = Kind::Dc;
  s.dcValue_ = value;
  return s;
}

SourceWaveform SourceWaveform::pulse(double v1, double v2, double delay,
                                     double rise, double fall, double width,
                                     double period) {
  require(rise > 0.0 && fall > 0.0, "pulse: rise/fall must be > 0");
  require(width >= 0.0, "pulse: width must be >= 0");
  SourceWaveform s;
  s.kind_ = Kind::Pulse;
  s.v1_ = v1;
  s.v2_ = v2;
  s.delay_ = delay;
  s.rise_ = rise;
  s.fall_ = fall;
  s.width_ = width;
  s.period_ = period;
  return s;
}

SourceWaveform SourceWaveform::pwl(
    std::vector<std::pair<double, double>> points) {
  require(!points.empty(), "pwl: need at least one point");
  for (std::size_t i = 1; i < points.size(); ++i) {
    require(points[i].first >= points[i - 1].first,
            "pwl: points must be time-sorted");
  }
  SourceWaveform s;
  s.kind_ = Kind::Pwl;
  s.points_ = std::move(points);
  return s;
}

double SourceWaveform::valueAt(double time) const {
  switch (kind_) {
    case Kind::Dc:
      return dcValue_;

    case Kind::Pulse: {
      double t = time - delay_;
      if (t < 0.0) return v1_;
      if (period_ > 0.0) t = std::fmod(t, period_);
      if (t < rise_) return v1_ + (v2_ - v1_) * t / rise_;
      t -= rise_;
      if (t < width_) return v2_;
      t -= width_;
      if (t < fall_) return v2_ + (v1_ - v2_) * t / fall_;
      return v1_;
    }

    case Kind::Pwl: {
      if (time <= points_.front().first) return points_.front().second;
      if (time >= points_.back().first) return points_.back().second;
      const auto it = std::upper_bound(
          points_.begin(), points_.end(), time,
          [](double t, const std::pair<double, double>& p) { return t < p.first; });
      const auto& hi = *it;
      const auto& lo = *(it - 1);
      const double span = hi.first - lo.first;
      if (span <= 0.0) return hi.second;
      return lo.second + (hi.second - lo.second) * (time - lo.first) / span;
    }
  }
  return 0.0;  // unreachable
}

void SourceWaveform::appendBreakpoints(double tStop,
                                       std::vector<double>& out) const {
  const auto add = [&](double t) {
    if (t > 0.0 && t < tStop) out.push_back(t);
  };
  switch (kind_) {
    case Kind::Dc:
      return;

    case Kind::Pulse: {
      const double corners[] = {0.0, rise_, rise_ + width_,
                                rise_ + width_ + fall_};
      if (period_ <= 0.0) {
        for (const double c : corners) add(delay_ + c);
        return;
      }
      // valueAt wraps every period, so corners past it are never reached.
      const double periods = std::ceil((tStop - delay_) / period_);
      require(periods <= 1e6, "pulse: more than 1e6 periods before tStop");
      for (double k = 0.0; k < periods; k += 1.0) {
        for (const double c : corners)
          if (c < period_) add(delay_ + k * period_ + c);
      }
      return;
    }

    case Kind::Pwl:
      for (const auto& p : points_) add(p.first);
      return;
  }
}

void SourceWaveform::setDcLevel(double value) {
  kind_ = Kind::Dc;
  dcValue_ = value;
  points_.clear();
}

}  // namespace vsstat::spice
