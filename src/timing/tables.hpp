// Cell timing characterization: delay and output slew of an inverter at
// one (input slew, load capacitance) operating point, measured by
// transient simulation of the cell.
//
// This is the substrate the paper's SSTA discussion (Sec. IV-B, ref [14])
// presumes: statistical timing operates on characterized cells, not on
// transistor-level simulations of whole paths.  The statistical layer
// lives in timing/ssta.hpp; these points carry the nominal behaviour.
#ifndef VSSTAT_TIMING_TABLES_HPP
#define VSSTAT_TIMING_TABLES_HPP

#include "models/device.hpp"

namespace vsstat::timing {

/// One operating point of one concrete inverter (fixed device cards).
struct DelayPoint {
  double fallDelay = 0.0;  ///< tpHL [s]
  double riseDelay = 0.0;  ///< tpLH [s]
  double fallSlew = 0.0;   ///< output 90-10% [s]
  double riseSlew = 0.0;   ///< output 10-90% [s]

  [[nodiscard]] double averageDelay() const noexcept {
    return 0.5 * (fallDelay + riseDelay);
  }
};

/// Measures one (slew, load) point of the given device pair with one
/// transient: a PULSE input shaped to the requested slew and a pure
/// capacitive load.  The models are cloned, so repeated calls see
/// identical devices.  This is the primitive behind the statistical stage
/// characterization (timing/statistical_cell.hpp).  `dt` is the largest
/// transient step: the 10-90 % slews lie on the edges' slow tails, where
/// the step control alone would allow 1e-3 slew errors at a 5 ps largest
/// step, so the default caps steps at 0.25 ps (slews within 2e-4 of a
/// 0.01 ps-step run).
[[nodiscard]] DelayPoint measureInverterPoint(
    const models::MosfetModel& pmosModel,
    const models::DeviceGeometry& pmosGeom,
    const models::MosfetModel& nmosModel,
    const models::DeviceGeometry& nmosGeom, double vdd, double inputSlew,
    double loadFarads, double dt = 0.25e-12);

}  // namespace vsstat::timing

#endif  // VSSTAT_TIMING_TABLES_HPP
