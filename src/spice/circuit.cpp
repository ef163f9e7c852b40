#include "spice/circuit.hpp"

#include <utility>

#include "spice/elements.hpp"
#include "util/error.hpp"

namespace vsstat::spice {

Circuit::Circuit() {
  names_.push_back("0");
  byName_.emplace("0", kGround);
  byName_.emplace("gnd", kGround);
}

NodeId Circuit::node(const std::string& name) {
  const auto it = byName_.find(name);
  if (it != byName_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(name);
  byName_.emplace(name, id);
  return id;
}

const std::string& Circuit::nodeName(NodeId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
          "nodeName: unknown node id");
  return names_[static_cast<std::size_t>(id)];
}

void Circuit::registerElement(std::unique_ptr<Element> e) {
  // The message is built only on failure: this runs once per element of
  // every build.
  if (!elementByName_.emplace(e->name(), e.get()).second)
    throw InvalidArgumentError("duplicate element name: " + e->name());
  e->setBases(branchTotal_, chargeTotal_);
  branchTotal_ += e->branchCount();
  chargeTotal_ += e->chargeSlots();
  elements_.push_back(std::move(e));
}

void Circuit::addResistor(const std::string& name, NodeId a, NodeId b,
                          double ohms) {
  registerElement(std::make_unique<ResistorElement>(name, a, b, ohms));
}

void Circuit::addCapacitor(const std::string& name, NodeId a, NodeId b,
                           double farads) {
  registerElement(std::make_unique<CapacitorElement>(name, a, b, farads));
}

void Circuit::addCurrentSource(const std::string& name, NodeId from, NodeId to,
                               SourceWaveform waveform) {
  registerElement(std::make_unique<CurrentSourceElement>(name, from, to,
                                                         std::move(waveform)));
}

VoltageSourceElement& Circuit::addVoltageSource(const std::string& name,
                                                NodeId pos, NodeId neg,
                                                SourceWaveform waveform) {
  auto e = std::make_unique<VoltageSourceElement>(name, pos, neg,
                                                  std::move(waveform));
  VoltageSourceElement& ref = *e;
  registerElement(std::move(e));
  return ref;
}

MosfetElement& Circuit::addMosfet(const std::string& name, NodeId drain,
                                  NodeId gate, NodeId source,
                                  std::unique_ptr<models::MosfetModel> model,
                                  const models::DeviceGeometry& geometry) {
  auto e = std::make_unique<MosfetElement>(name, drain, gate, source,
                                           std::move(model), geometry);
  MosfetElement& ref = *e;
  registerElement(std::move(e));
  return ref;
}

VoltageSourceElement& Circuit::voltageSource(const std::string& name) {
  // Messages are built only on failure: these lookups sit in campaign
  // inner loops (one per sweep), and eager concatenation was a measurable
  // per-sample allocation.
  const auto it = elementByName_.find(name);
  if (it == elementByName_.end())
    throw InvalidArgumentError("no element named " + name);
  auto* v = dynamic_cast<VoltageSourceElement*>(it->second);
  if (v == nullptr) throw InvalidArgumentError(name + " is not a voltage source");
  return *v;
}

MosfetElement& Circuit::mosfet(const std::string& name) {
  const auto it = elementByName_.find(name);
  if (it == elementByName_.end())
    throw InvalidArgumentError("no element named " + name);
  auto* m = dynamic_cast<MosfetElement*>(it->second);
  if (m == nullptr) throw InvalidArgumentError(name + " is not a MOSFET");
  return *m;
}

std::size_t Circuit::unknownCount() const noexcept {
  return (names_.size() - 1) + static_cast<std::size_t>(branchTotal_);
}

}  // namespace vsstat::spice
