#include "mc/providers.hpp"

#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "spice/elements.hpp"

namespace vsstat::mc {

namespace {

models::VsModel variedModel(const models::VsParams& card,
                            const models::VariationDelta& delta) {
  return models::VsModel(models::applyToVs(card, delta));
}

models::BsimLite variedModel(const models::BsimParams& card,
                             const models::VariationDelta& delta) {
  return models::BsimLite(models::applyToBsim(card, delta));
}

template <class Card>
circuits::DeviceInstance makeVaried(const Card& card,
                                    const models::DeviceGeometry& nominal,
                                    const models::VariationDelta& delta) {
  using Model = decltype(variedModel(card, delta));
  circuits::DeviceInstance inst;
  inst.model = std::make_unique<Model>(variedModel(card, delta));
  inst.geometry = models::applyGeometry(nominal, delta);
  return inst;
}

}  // namespace

circuits::DeviceInstance variedInstance(const models::VsParams& card,
                                        const models::DeviceGeometry& nominal,
                                        const models::VariationDelta& delta) {
  return makeVaried(card, nominal, delta);
}

template <class Card, class Base>
circuits::DeviceInstance VariedCardProvider<Card, Base>::make(
    models::DeviceType type, const std::string& /*instanceName*/,
    const models::DeviceGeometry& nominal) {
  return makeVaried(card(type), nominal, draw(type, nominal));
}

template <class Card, class Base>
void VariedCardProvider<Card, Base>::resample(
    models::DeviceType type, const std::string& /*instanceName*/,
    const models::DeviceGeometry& nominal, spice::MosfetElement& element) {
  const models::VariationDelta delta = draw(type, nominal);
  element.rebind(variedModel(card(type), delta),
                 models::applyGeometry(nominal, delta));
}

template class VariedCardProvider<models::VsParams, circuits::DeviceProvider>;
template class VariedCardProvider<models::VsParams, circuits::FixedZProvider>;
template class VariedCardProvider<models::BsimParams, circuits::DeviceProvider>;

models::VariationDelta VsFixedZProvider::drawDelta(
    const models::ParameterSigmas& sigmas) {
  models::VariationDelta d;
  d.dVt0 = sigmas.sVt0 * nextZ();
  d.dLeff = sigmas.sLeff * nextZ();
  d.dWeff = sigmas.sWeff * nextZ();
  d.dMu = sigmas.sMu * nextZ();
  d.dCinv = sigmas.sCinv * nextZ();
  return d;
}

}  // namespace vsstat::mc
