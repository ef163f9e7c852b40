// "Measurement" of target variances from the golden design kit.
//
// The paper extracts its statistics from an industrial BSIM kit rather
// than silicon; this module plays that role: per geometry it Monte-Carlo
// samples the golden BsimLite mismatch model and reports the variance of
// each electrical target.  An analytic (first-order propagation) variant
// is provided for fast tests and for separating MC noise from BPV error.
#ifndef VSSTAT_EXTRACT_GOLDEN_METER_HPP
#define VSSTAT_EXTRACT_GOLDEN_METER_HPP

#include <cstdint>
#include <vector>

#include "extract/bpv.hpp"
#include "models/bsim_params.hpp"

namespace vsstat::extract {

/// The golden "industrial design kit": nominal cards + mismatch truth.
struct GoldenKit {
  models::BsimParams nmos;
  models::BsimParams pmos;
  models::BsimMismatch nmosMismatch;
  models::BsimMismatch pmosMismatch;
  double vdd = 0.9;

  /// The default 40-nm-class kit used throughout the reproduction.
  [[nodiscard]] static GoldenKit default40nm();
};

struct GoldenMeterOptions {
  int samples = 1000;          ///< MC samples per geometry (paper: > 1000)
  std::uint64_t seed = 1234;   ///< campaign seed
  unsigned threads = 0;        ///< 0 == hardware concurrency
};

/// Monte-Carlo variance measurement at one geometry for the given polarity:
/// an mc::runCampaign with one device draw per sample and an index-order
/// reduction, so the variances are bit-identical for any thread count.
[[nodiscard]] GeometryMeasurement measureGoldenVariance(
    const GoldenKit& kit, models::DeviceType type,
    const models::DeviceGeometry& geom, const GoldenMeterOptions& options);

/// Sweep over a geometry set.
[[nodiscard]] std::vector<GeometryMeasurement> measureGoldenVariances(
    const GoldenKit& kit, models::DeviceType type,
    const std::vector<models::DeviceGeometry>& geoms,
    const GoldenMeterOptions& options);

/// First-order analytic variance of the golden kit's targets (no MC noise).
[[nodiscard]] GeometryMeasurement analyticGoldenVariance(
    const GoldenKit& kit, models::DeviceType type,
    const models::DeviceGeometry& geom);

/// The extraction geometry set used for Table II (widths spanning the
/// paper's Fig. 2 sweep at L = 40 nm, plus longer-L points that separate
/// the 1/sqrt(WL) and sqrt(L/W) scaling laws).
[[nodiscard]] std::vector<models::DeviceGeometry> extractionGeometries();

}  // namespace vsstat::extract

#endif  // VSSTAT_EXTRACT_GOLDEN_METER_HPP
