// Independent source waveforms: DC, PULSE and PWL (the subset of SPICE
// source types the paper's benchmark circuits need).
#ifndef VSSTAT_SPICE_SOURCE_HPP
#define VSSTAT_SPICE_SOURCE_HPP

#include <utility>
#include <vector>

namespace vsstat::spice {

/// Value-semantic source waveform.
class SourceWaveform {
 public:
  /// Constant value.
  [[nodiscard]] static SourceWaveform dc(double value);

  /// SPICE PULSE(v1 v2 delay rise fall width period).  `period <= 0` means
  /// a single pulse.
  [[nodiscard]] static SourceWaveform pulse(double v1, double v2, double delay,
                                            double rise, double fall,
                                            double width, double period = 0.0);

  /// Piecewise-linear waveform; points must be time-sorted.  Holds the first
  /// value before the first point and the last value after the last point.
  [[nodiscard]] static SourceWaveform pwl(
      std::vector<std::pair<double, double>> points);

  [[nodiscard]] double valueAt(double time) const;

  /// Value used by DC analyses (time-zero value).
  [[nodiscard]] double dcValue() const { return valueAt(0.0); }

  /// Appends the times in (0, tStop) where the waveform's slope jumps:
  /// the four PULSE corners of every period, and the PWL points.  The
  /// transient stepper lands on each one.  Throws InvalidArgumentError
  /// for a PULSE with more than 1e6 periods before tStop.
  void appendBreakpoints(double tStop, std::vector<double>& out) const;

  /// Replaces a DC waveform's level (used by DC sweeps); converts any
  /// waveform into a DC one.
  void setDcLevel(double value);

 private:
  enum class Kind { Dc, Pulse, Pwl };

  SourceWaveform() = default;

  Kind kind_ = Kind::Dc;
  double dcValue_ = 0.0;
  // PULSE fields
  double v1_ = 0.0, v2_ = 0.0, delay_ = 0.0, rise_ = 0.0, fall_ = 0.0,
         width_ = 0.0, period_ = 0.0;
  std::vector<std::pair<double, double>> points_;
};

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_SOURCE_HPP
