#include "timing/tables.hpp"

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::timing {

DelayPoint measureInverterPoint(const models::MosfetModel& pmosModel,
                                const models::DeviceGeometry& pmosGeom,
                                const models::MosfetModel& nmosModel,
                                const models::DeviceGeometry& nmosGeom,
                                double vdd, double inputSlew,
                                double loadFarads, double dt) {
  require(vdd > 0.0 && inputSlew > 0.0 && loadFarads > 0.0 && dt > 0.0,
          "measureInverterPoint: all parameters must be positive");

  // PULSE edge time for the requested 10-90% slew: the source ramps
  // linearly over tEdge, of which the 10-90% window is 0.8.
  const double tEdge = inputSlew / 0.8;
  const double tHigh = 12.0 * inputSlew + 60e-12;

  spice::Circuit run;
  const spice::NodeId rin = run.node("in");
  const spice::NodeId rout = run.node("out");
  const spice::NodeId rvdd = run.node("vdd");
  run.addMosfet("MP", rout, rin, rvdd, pmosModel.clone(), pmosGeom);
  run.addMosfet("MN", rout, rin, run.ground(), nmosModel.clone(), nmosGeom);
  run.addVoltageSource("VDD", rvdd, run.ground(),
                       spice::SourceWaveform::dc(vdd));
  run.addVoltageSource(
      "VIN", rin, run.ground(),
      spice::SourceWaveform::pulse(0.0, vdd, 10e-12, tEdge, tEdge, tHigh));
  run.addCapacitor("CL", rout, run.ground(), loadFarads);

  spice::TransientOptions tran;
  tran.dt = dt;
  tran.tStop = 10e-12 + 2.0 * tEdge + tHigh + 12.0 * inputSlew + 100e-12;
  const spice::Waveform wave = spice::transient(run, tran);

  const auto cross = [&](spice::NodeId node, double level, bool rising,
                         double after) {
    const auto t = wave.crossing(node, level, rising, after);
    if (!t) {
      throw ConvergenceError("measureInverterPoint: missing output edge", 0);
    }
    return *t;
  };

  DelayPoint p;
  // Input rise -> output fall.
  const double inRise50 = cross(rin, 0.5 * vdd, true, 0.0);
  const double outFall50 = cross(rout, 0.5 * vdd, false, inRise50);
  const double outFall90 = cross(rout, 0.9 * vdd, false, inRise50 - 5e-12);
  const double outFall10 = cross(rout, 0.1 * vdd, false, outFall90);
  p.fallDelay = outFall50 - inRise50;
  p.fallSlew = outFall10 - outFall90;

  // Input fall -> output rise.
  const double inFall50 = cross(rin, 0.5 * vdd, false, outFall50);
  const double outRise50 = cross(rout, 0.5 * vdd, true, inFall50);
  const double outRise10 = cross(rout, 0.1 * vdd, true, inFall50 - 5e-12);
  const double outRise90 = cross(rout, 0.9 * vdd, true, outRise10);
  p.riseDelay = outRise50 - inFall50;
  p.riseSlew = outRise90 - outRise10;
  return p;
}

}  // namespace vsstat::timing
