#include "core/statistical_vs.hpp"

#include <sstream>

#include "mc/providers.hpp"
#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "util/error.hpp"

namespace vsstat::core {

StatisticalVsKit::StatisticalVsKit(models::VsParams nmos,
                                   models::VsParams pmos,
                                   models::PelgromAlphas nmosAlphas,
                                   models::PelgromAlphas pmosAlphas,
                                   double vdd)
    : nmos_(nmos), pmos_(pmos), nmosAlphas_(nmosAlphas),
      pmosAlphas_(pmosAlphas), vdd_(vdd) {
  require(nmos_.type == models::DeviceType::Nmos,
          "StatisticalVsKit: first card must be NMOS");
  require(pmos_.type == models::DeviceType::Pmos,
          "StatisticalVsKit: second card must be PMOS");
  require(vdd_ > 0.0, "StatisticalVsKit: vdd must be positive");
}

StatisticalVsKit StatisticalVsKit::characterize(
    const extract::GoldenKit& golden, const CharacterizeOptions& options) {
  // Fit and BPV run at the golden kit's supply, on their default settings.
  extract::FitOptions fitOpt;
  fitOpt.vdd = golden.vdd;

  // Reference geometry for the nominal fit, as in the paper's Fig. 1.
  const models::DeviceGeometry fitGeom = models::geometryNm(300, 40);

  const auto characterizeOne = [&](models::DeviceType type) {
    const models::VsParams seed = type == models::DeviceType::Nmos
                                      ? models::defaultVsNmos()
                                      : models::defaultVsPmos();
    const models::BsimParams& goldenCard =
        type == models::DeviceType::Nmos ? golden.nmos : golden.pmos;

    // Step 1 (Fig. 1): fit the nominal VS card to the golden I-V/C-V.
    const models::BsimLite goldenModel(goldenCard);
    const extract::IvFitResult fit =
        extract::fitVsToGolden(seed, goldenModel, fitGeom, fitOpt);

    // Step 2: measure target variances across the geometry set.
    const std::vector<models::DeviceGeometry> geoms =
        extract::extractionGeometries();
    std::vector<extract::GeometryMeasurement> meas;
    if (options.analyticGoldenVariance) {
      meas.reserve(geoms.size());
      for (const auto& g : geoms)
        meas.push_back(extract::analyticGoldenVariance(golden, type, g));
    } else {
      extract::GoldenMeterOptions gm;
      gm.samples = options.samplesPerGeometry;
      gm.seed = options.seed + (type == models::DeviceType::Nmos ? 0 : 0x9E37);
      meas = extract::measureGoldenVariances(golden, type, geoms, gm);
    }

    // Step 3 (Eq. 10): backward propagation of variance.  Cinv is
    // "measured directly" from the golden kit (the paper measures oxide
    // thickness), so its coefficient is handed to BPV rather than solved.
    extract::BpvOptions bpvOpt;
    bpvOpt.vdd = golden.vdd;
    bpvOpt.aCinvDirect = type == models::DeviceType::Nmos
                             ? golden.nmosMismatch.aCox
                             : golden.pmosMismatch.aCox;
    const extract::BpvResult bpv = extract::solveBpv(fit.card, meas, bpvOpt);
    return std::make_pair(fit.card, bpv.alphas);
  };

  const auto [nCard, nAlphas] = characterizeOne(models::DeviceType::Nmos);
  const auto [pCard, pAlphas] = characterizeOne(models::DeviceType::Pmos);
  return StatisticalVsKit(nCard, pCard, nAlphas, pAlphas, golden.vdd);
}

models::ParameterSigmas StatisticalVsKit::sigmas(
    models::DeviceType t, const models::DeviceGeometry& geom) const {
  return models::sigmasFor(alphas(t), geom);
}

circuits::DeviceInstance StatisticalVsKit::makeInstance(
    models::DeviceType t, const models::DeviceGeometry& geom,
    stats::Rng& rng) const {
  return mc::variedInstance(nominal(t), geom,
                            models::sampleDelta(sigmas(t, geom), rng));
}

std::unique_ptr<circuits::DeviceProvider> StatisticalVsKit::makeProvider(
    stats::Rng rng) const {
  return std::make_unique<mc::VsStatisticalProvider>(nmos_, pmos_, nmosAlphas_,
                                                     pmosAlphas_, rng);
}

std::unique_ptr<circuits::DeviceProvider>
StatisticalVsKit::makeNominalProvider() const {
  const models::VsModel n(nmos_);
  const models::VsModel p(pmos_);
  return std::make_unique<circuits::NominalProvider>(n, p);
}

std::string StatisticalVsKit::summary() const {
  std::ostringstream os;
  const auto printCard = [&os](const char* label, const models::VsParams& c) {
    os << label << ": VT0=" << c.vt0 << " V, delta0=" << c.delta0
       << ", n0=" << c.n0 << ", vxo=" << c.vxo / 1e5 << "e5 m/s"
       << ", mu=" << c.mu * 1e4 << " cm^2/Vs"
       << ", Cinv=" << c.cinv * 1e2 << " uF/cm^2, beta=" << c.beta << "\n";
  };
  const auto printAlphas = [&os](const char* label,
                                 const models::PelgromAlphas& a) {
    os << label << " alphas: a1(VT0)=" << a.aVt0 << " V nm, a2(Leff)="
       << a.aLeff << " nm, a3(Weff)=" << a.aWeff << " nm, a4(mu)=" << a.aMu
       << " nm cm^2/Vs, a5(Cinv)=" << a.aCinv << " nm uF/cm^2\n";
  };
  os << "StatisticalVsKit @ Vdd=" << vdd_ << " V\n";
  printCard("  NMOS card", nmos_);
  printAlphas("  NMOS", nmosAlphas_);
  printCard("  PMOS card", pmos_);
  printAlphas("  PMOS", pmosAlphas_);
  return os.str();
}

}  // namespace vsstat::core
