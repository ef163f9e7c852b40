#include "circuits/cells.hpp"

namespace vsstat::circuits {

using models::DeviceType;
using models::geometryNm;
using spice::Circuit;
using spice::NodeId;

void addInverter(Circuit& circuit, DeviceProvider& provider,
                 const std::string& prefix, NodeId in, NodeId out, NodeId vdd,
                 const CellSizing& sizing) {
  {
    DeviceInstance p = provider.make(DeviceType::Pmos, prefix + ".MP",
                                     geometryNm(sizing.wPmosNm, sizing.lengthNm));
    circuit.addMosfet(prefix + ".MP", out, in, vdd, std::move(p.model),
                      p.geometry);
  }
  {
    DeviceInstance n = provider.make(DeviceType::Nmos, prefix + ".MN",
                                     geometryNm(sizing.wNmosNm, sizing.lengthNm));
    circuit.addMosfet(prefix + ".MN", out, in, circuit.ground(),
                      std::move(n.model), n.geometry);
  }
}

void addNand2(Circuit& circuit, DeviceProvider& provider,
              const std::string& prefix, NodeId a, NodeId b, NodeId out,
              NodeId vdd, const CellSizing& sizing) {
  const NodeId mid = circuit.node(prefix + ".mid");

  {
    DeviceInstance pa = provider.make(DeviceType::Pmos, prefix + ".MPA",
                                      geometryNm(sizing.wPmosNm, sizing.lengthNm));
    circuit.addMosfet(prefix + ".MPA", out, a, vdd, std::move(pa.model),
                      pa.geometry);
  }
  {
    DeviceInstance pb = provider.make(DeviceType::Pmos, prefix + ".MPB",
                                      geometryNm(sizing.wPmosNm, sizing.lengthNm));
    circuit.addMosfet(prefix + ".MPB", out, b, vdd, std::move(pb.model),
                      pb.geometry);
  }
  {
    DeviceInstance na = provider.make(DeviceType::Nmos, prefix + ".MNA",
                                      geometryNm(sizing.wNmosNm, sizing.lengthNm));
    circuit.addMosfet(prefix + ".MNA", out, a, mid, std::move(na.model),
                      na.geometry);
  }
  {
    DeviceInstance nb = provider.make(DeviceType::Nmos, prefix + ".MNB",
                                      geometryNm(sizing.wNmosNm, sizing.lengthNm));
    circuit.addMosfet(prefix + ".MNB", mid, b, circuit.ground(),
                      std::move(nb.model), nb.geometry);
  }
}

void addNmosPass(Circuit& circuit, DeviceProvider& provider,
                 const std::string& name, NodeId x, NodeId y, NodeId ctl,
                 double widthNm, double lengthNm) {
  DeviceInstance n =
      provider.make(DeviceType::Nmos, name, geometryNm(widthNm, lengthNm));
  // Drain/source assignment is nominal; the compact models are symmetric
  // and the engine handles bias reversal.
  circuit.addMosfet(name, x, ctl, y, std::move(n.model), n.geometry);
}

}  // namespace vsstat::circuits
