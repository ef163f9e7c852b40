#include "spice/source.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace vsstat::spice {
namespace {

TEST(DcSource, ConstantEverywhere) {
  const SourceWaveform s = SourceWaveform::dc(0.9);
  EXPECT_DOUBLE_EQ(s.valueAt(0.0), 0.9);
  EXPECT_DOUBLE_EQ(s.valueAt(1e-9), 0.9);
  EXPECT_DOUBLE_EQ(s.dcValue(), 0.9);
}

TEST(PulseSource, PiecewiseShape) {
  // v1=0, v2=1, delay=1ns, rise=1ns, width=2ns, fall=1ns.
  const SourceWaveform s =
      SourceWaveform::pulse(0.0, 1.0, 1e-9, 1e-9, 1e-9, 2e-9);
  EXPECT_DOUBLE_EQ(s.valueAt(0.0), 0.0);          // before delay
  EXPECT_DOUBLE_EQ(s.valueAt(1.5e-9), 0.5);        // mid-rise
  EXPECT_DOUBLE_EQ(s.valueAt(2.0e-9), 1.0);        // top start
  EXPECT_DOUBLE_EQ(s.valueAt(3.9e-9), 1.0);        // still high
  EXPECT_DOUBLE_EQ(s.valueAt(4.5e-9), 0.5);        // mid-fall
  EXPECT_DOUBLE_EQ(s.valueAt(6.0e-9), 0.0);        // back low
}

TEST(PulseSource, PeriodicRepeats) {
  const SourceWaveform s =
      SourceWaveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-9, 10e-9);
  EXPECT_NEAR(s.valueAt(0.5e-9), s.valueAt(10.5e-9), 1e-9);
  EXPECT_NEAR(s.valueAt(1.5e-9), s.valueAt(21.5e-9), 1e-9);
}

TEST(PulseSource, RejectsZeroEdges) {
  EXPECT_THROW(SourceWaveform::pulse(0.0, 1.0, 0.0, 0.0, 1e-9, 1e-9),
               InvalidArgumentError);
}

TEST(PwlSource, InterpolatesLinearly) {
  const SourceWaveform s = SourceWaveform::pwl({{0.0, 0.0}, {2.0, 4.0}});
  EXPECT_DOUBLE_EQ(s.valueAt(-1.0), 0.0);  // clamps before
  EXPECT_DOUBLE_EQ(s.valueAt(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.valueAt(2.0), 4.0);
  EXPECT_DOUBLE_EQ(s.valueAt(9.0), 4.0);   // clamps after
}

TEST(PwlSource, RejectsUnsortedPoints) {
  EXPECT_THROW(SourceWaveform::pwl({{1.0, 0.0}, {0.5, 1.0}}),
               InvalidArgumentError);
  EXPECT_THROW(SourceWaveform::pwl({}), InvalidArgumentError);
}

TEST(Breakpoints, ListCornersInsideTheRun) {
  std::vector<double> out;
  SourceWaveform::dc(1.0).appendBreakpoints(10e-9, out);
  EXPECT_TRUE(out.empty());

  // delay 1, rise 1, width 2, fall 1, period 10 [ns]; tStop 15 ns.
  SourceWaveform::pulse(0.0, 1.0, 1e-9, 1e-9, 1e-9, 2e-9, 10e-9)
      .appendBreakpoints(15e-9, out);
  const std::vector<double> pulseCorners = {1e-9,  2e-9,  4e-9,
                                            5e-9,  11e-9, 12e-9, 14e-9};
  ASSERT_EQ(out.size(), pulseCorners.size());
  for (std::size_t k = 0; k < out.size(); ++k)
    EXPECT_NEAR(out[k], pulseCorners[k], 1e-21);

  // PWL points on or outside (0, tStop) are not breakpoints.
  out.clear();
  SourceWaveform::pwl({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}, {3.0, 1.0}})
      .appendBreakpoints(3.0, out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
}

TEST(Breakpoints, RejectMoreThanAMillionPulsePeriods) {
  std::vector<double> out;
  EXPECT_THROW(SourceWaveform::pulse(0.0, 1.0, 0.0, 1e-15, 1e-15, 1e-15,
                                     4e-15)
                   .appendBreakpoints(1e-6, out),
               InvalidArgumentError);
}

TEST(SetDcLevel, ConvertsAnyWaveformToDc) {
  SourceWaveform s = SourceWaveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-9);
  s.setDcLevel(0.45);
  EXPECT_DOUBLE_EQ(s.valueAt(0.0), 0.45);
  EXPECT_DOUBLE_EQ(s.valueAt(5e-9), 0.45);
}

}  // namespace
}  // namespace vsstat::spice
