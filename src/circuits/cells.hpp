// Standard-cell builders: static CMOS inverter and NAND2.  Each builder
// instantiates its transistors through a DeviceProvider and wires them into
// an existing Circuit under a unique name prefix.
#ifndef VSSTAT_CIRCUITS_CELLS_HPP
#define VSSTAT_CIRCUITS_CELLS_HPP

#include <string>

#include "circuits/provider.hpp"
#include "spice/circuit.hpp"

namespace vsstat::circuits {

/// Transistor sizing of a cell, nanometres (paper notation).
struct CellSizing {
  double wPmosNm = 600.0;
  double wNmosNm = 300.0;
  double lengthNm = 40.0;

  [[nodiscard]] CellSizing scaled(double factor) const noexcept {
    return CellSizing{wPmosNm * factor, wNmosNm * factor, lengthNm};
  }
};

/// Static CMOS inverter between `in` and `out`.
void addInverter(spice::Circuit& circuit, DeviceProvider& provider,
                 const std::string& prefix, spice::NodeId in,
                 spice::NodeId out, spice::NodeId vdd,
                 const CellSizing& sizing);

/// Two-input static CMOS NAND.  Series NMOS stack a(top input, nearer the
/// output) / b(bottom), parallel PMOS pull-ups.
void addNand2(spice::Circuit& circuit, DeviceProvider& provider,
              const std::string& prefix, spice::NodeId a, spice::NodeId b,
              spice::NodeId out, spice::NodeId vdd, const CellSizing& sizing);

/// NMOS pass transistor (gate `ctl`) between `x` and `y`.
void addNmosPass(spice::Circuit& circuit, DeviceProvider& provider,
                 const std::string& name, spice::NodeId x, spice::NodeId y,
                 spice::NodeId ctl, double widthNm, double lengthNm);

}  // namespace vsstat::circuits

#endif  // VSSTAT_CIRCUITS_CELLS_HPP
