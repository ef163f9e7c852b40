// Microbenchmark (google-benchmark): raw compact-model evaluation cost,
// VS vs BsimLite, plus the Newton DC solve of an inverter.  Supports the
// Table IV interpretation: how much of the campaign speedup is intrinsic
// model cost.  evaluate() is each family's one value entry point
// (drainCurrent is its .id); the banked Newton-load lanes are timed by
// bench_device_bank's gated micro_vs_load_* rows.
#include <benchmark/benchmark.h>

#include <memory>

#include "models/bsim_lite.hpp"
#include "models/vs_model.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"

using namespace vsstat;

namespace {

const models::DeviceGeometry kGeom = models::geometryNm(600, 40);

void BM_VsFullEvaluate(benchmark::State& state) {
  const models::VsModel model(models::defaultVsNmos());
  double vgs = 0.0;
  for (auto _ : state) {
    vgs = vgs < 0.9 ? vgs + 0.01 : 0.0;  // sweep bias to defeat caching
    benchmark::DoNotOptimize(model.evaluate(kGeom, vgs, 0.45));
  }
}
BENCHMARK(BM_VsFullEvaluate);

void BM_BsimFullEvaluate(benchmark::State& state) {
  const models::BsimLite model(models::defaultBsimNmos());
  double vgs = 0.0;
  for (auto _ : state) {
    vgs = vgs < 0.9 ? vgs + 0.01 : 0.0;
    benchmark::DoNotOptimize(model.evaluate(kGeom, vgs, 0.45));
  }
}
BENCHMARK(BM_BsimFullEvaluate);

template <typename Model, typename Params>
spice::Circuit makeInverter(Params nmos, Params pmos) {
  spice::Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.addVoltageSource("VDD", vdd, c.ground(), spice::SourceWaveform::dc(0.9));
  c.addVoltageSource("VIN", in, c.ground(), spice::SourceWaveform::dc(0.45));
  c.addMosfet("MP", out, in, vdd, std::make_unique<Model>(pmos),
              models::geometryNm(600, 40));
  c.addMosfet("MN", out, in, c.ground(), std::make_unique<Model>(nmos),
              models::geometryNm(300, 40));
  return c;
}

void BM_VsInverterDcop(benchmark::State& state) {
  spice::Circuit c = makeInverter<models::VsModel>(models::defaultVsNmos(),
                                                   models::defaultVsPmos());
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::dcOperatingPoint(c));
  }
}
BENCHMARK(BM_VsInverterDcop);

void BM_BsimInverterDcop(benchmark::State& state) {
  spice::Circuit c = makeInverter<models::BsimLite>(
      models::defaultBsimNmos(), models::defaultBsimPmos());
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::dcOperatingPoint(c));
  }
}
BENCHMARK(BM_BsimInverterDcop);

}  // namespace

BENCHMARK_MAIN();
