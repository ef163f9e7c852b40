#include "spice/waveform.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace vsstat::spice {
namespace {

Waveform ramp() {
  // node 1 ramps 0 -> 1 V over 10 ns; node 2 falls 1 -> 0.
  Waveform w(3);
  for (int i = 0; i <= 10; ++i) {
    const double t = i * 1e-9;
    w.addSample(t, {0.0, 0.1 * i, 1.0 - 0.1 * i});
  }
  return w;
}

TEST(Waveform, StoresSamples) {
  const Waveform w = ramp();
  EXPECT_EQ(w.sampleCount(), 11u);
  EXPECT_DOUBLE_EQ(w.value(1, 5), 0.5);
  EXPECT_DOUBLE_EQ(w.finalValue(2), 0.0);
}

TEST(Waveform, InterpolatesBetweenSamples) {
  const Waveform w = ramp();
  EXPECT_NEAR(w.valueAt(1, 2.5e-9), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(w.valueAt(1, -1.0), 0.0);    // clamp low
  EXPECT_DOUBLE_EQ(w.valueAt(1, 1.0), 1.0);     // clamp high
}

TEST(Waveform, FindsRisingCrossing) {
  const Waveform w = ramp();
  const auto t = w.crossing(1, 0.45, /*rising=*/true);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 4.5e-9, 1e-15);
}

TEST(Waveform, FindsFallingCrossing) {
  const Waveform w = ramp();
  const auto t = w.crossing(2, 0.45, /*rising=*/false);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.5e-9, 1e-15);
}

TEST(Waveform, CrossingRespectsAfter) {
  Waveform w(2);
  // node 1: two rising crossings of 0.5 (at t=1 and t=3).
  w.addSample(0.0, {0.0, 0.0});
  w.addSample(1.0, {0.0, 1.0});
  w.addSample(2.0, {0.0, 0.0});
  w.addSample(3.0, {0.0, 1.0});
  const auto second = w.crossing(1, 0.5, true, 1.5);
  ASSERT_TRUE(second.has_value());
  EXPECT_NEAR(*second, 2.5, 1e-12);
}

TEST(Waveform, CrossingInsideASmoothPieceFollowsTheCubic) {
  // v = t^3 sampled at t = 0..4: the cubic through the four nearest
  // samples is the curve itself; a chord would put the crossing at 1.34.
  Waveform w(2);
  w.beginPiece();
  for (int i = 0; i <= 4; ++i) w.addSample(i, {0.0, 1.0 * i * i * i});
  const auto t = w.crossing(1, 3.375, /*rising=*/true);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.5, 1e-12);
}

TEST(Waveform, PieceStartKeepsAKinkOutOfTheInterpolant) {
  // Slope 1 up to t = 2, slope 3 after: the piece started at t = 2 holds
  // only the straight samples, so the crossing stays on the line.
  Waveform w(2);
  w.beginPiece();
  for (int i = 0; i <= 2; ++i) w.addSample(i, {0.0, 1.0 * i});
  w.beginPiece();
  for (int i = 3; i <= 4; ++i) w.addSample(i, {0.0, 2.0 + 3.0 * (i - 2)});
  const auto late = w.crossing(1, 3.5, /*rising=*/true);
  ASSERT_TRUE(late.has_value());
  EXPECT_NEAR(*late, 2.5, 1e-12);
  const auto early = w.crossing(1, 1.5, /*rising=*/true);
  ASSERT_TRUE(early.has_value());
  EXPECT_NEAR(*early, 1.5, 1e-12);
}

TEST(Waveform, NoCrossingReturnsNullopt) {
  const Waveform w = ramp();
  EXPECT_FALSE(w.crossing(1, 2.0, true).has_value());
  EXPECT_FALSE(w.crossing(1, 0.5, false).has_value());
}

TEST(Waveform, RejectsTimeReversal) {
  Waveform w(1);
  w.addSample(1.0, {0.0});
  EXPECT_THROW(w.addSample(0.5, {0.0}), InvalidArgumentError);
}

TEST(Waveform, RejectsArityMismatch) {
  Waveform w(2);
  EXPECT_THROW(w.addSample(0.0, {1.0}), InvalidArgumentError);
}

}  // namespace
}  // namespace vsstat::spice
