// Micro-benchmarks (google-benchmark): the numerical kernels behind the
// optimizer — Cholesky, exact NLML + gradient, GP train/predict, and the
// NARGP Monte-Carlo fused prediction.
#include <benchmark/benchmark.h>

#include "gp/gp_regressor.h"
#include "linalg/cholesky.h"
#include "linalg/rng.h"
#include "linalg/sampling.h"
#include "mf/nargp.h"

namespace {

using namespace mfbo;
using linalg::Matrix;
using linalg::Rng;
using linalg::Vector;

Matrix randomSpd(std::size_t n, Rng& rng) {
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.normal();
  Matrix spd = linalg::gramTN(g, g);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

void BM_Cholesky(benchmark::State& state) {
  Rng rng(1);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = randomSpd(n, rng);
  for (auto _ : state) {
    auto chol = linalg::Cholesky::factor(a);
    benchmark::DoNotOptimize(chol.logDet());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Cholesky)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Complexity();

struct GpData {
  std::vector<Vector> x;
  Vector y;
};

GpData makeData(std::size_t n, std::size_t d, Rng& rng) {
  GpData data;
  data.y = Vector(n);
  const auto box = linalg::Box::unitCube(d);
  data.x = linalg::latinHypercube(n, box, rng);
  for (std::size_t i = 0; i < n; ++i) data.y[i] = rng.normal();
  return data;
}

void BM_NlmlWithGradient(benchmark::State& state) {
  Rng rng(2);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const GpData data = makeData(n, d, rng);
  gp::SeArdKernel kernel(d);
  for (auto _ : state) {
    Vector grad;
    benchmark::DoNotOptimize(gp::negLogMarginalLikelihood(
        kernel, std::log(0.1), data.x, data.y, &grad));
  }
}
// {30, 5} and {33, 36} are sizes the service's sessions fit: the 5-D power
// amplifier and the 36-D charge pump (paper §5).
BENCHMARK(BM_NlmlWithGradient)
    ->Args({30, 5})
    ->Args({33, 36})
    ->Args({50, 5})
    ->Args({100, 5})
    ->Args({100, 36})
    ->Args({200, 36});

void BM_GpTrain(benchmark::State& state) {
  Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const GpData data = makeData(n, d, rng);
  std::vector<double> y(data.y.begin(), data.y.end());
  for (auto _ : state) {
    gp::GpConfig cfg;
    cfg.n_restarts = 1;
    cfg.lbfgs.max_iterations = 30;
    gp::GpRegressor model(std::make_unique<gp::SeArdKernel>(d), cfg);
    model.fit(data.x, y);
    benchmark::DoNotOptimize(model.noiseSd());
  }
}
BENCHMARK(BM_GpTrain)->Args({50, 5})->Args({100, 5})->Args({60, 36});

void BM_GpPredict(benchmark::State& state) {
  Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const GpData data = makeData(n, 5, rng);
  std::vector<double> y(data.y.begin(), data.y.end());
  gp::GpConfig cfg;
  cfg.n_restarts = 0;
  cfg.lbfgs.max_iterations = 10;
  gp::GpRegressor model(std::make_unique<gp::SeArdKernel>(5), cfg);
  model.fit(data.x, y);
  const Vector q = rng.uniformVector(5);
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(q).mean);
}
BENCHMARK(BM_GpPredict)->Arg(50)->Arg(100)->Arg(200);

void BM_NargpPredictHigh(benchmark::State& state) {
  Rng rng(5);
  const std::size_t n_low = 60;
  const std::size_t n_high = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const auto box = linalg::Box::unitCube(d);
  std::vector<Vector> xl = linalg::latinHypercube(n_low, box, rng);
  std::vector<Vector> xh = linalg::latinHypercube(n_high, box, rng);
  std::vector<double> yl, yh;
  for (const auto& x : xl) yl.push_back(std::sin(3.0 * x.sum()));
  for (const auto& x : xh)
    yh.push_back(std::sin(3.0 * x.sum()) * x.sum());
  mf::NargpConfig cfg;
  cfg.low.n_restarts = 0;
  cfg.high.n_restarts = 0;
  cfg.low.lbfgs.max_iterations = 15;
  cfg.high.lbfgs.max_iterations = 15;
  cfg.n_mc = 50;
  mf::NargpModel model(d, cfg);
  model.fit(xl, yl, xh, yh);
  const Vector q = rng.uniformVector(d);
  for (auto _ : state) benchmark::DoNotOptimize(model.predictHigh(q).mean);
}
// The 36-D row is the charge pump's design space (paper §5.2).
BENCHMARK(BM_NargpPredictHigh)
    ->Args({20, 5})
    ->Args({60, 5})
    ->Args({120, 5})
    ->Args({60, 36});

}  // namespace

BENCHMARK_MAIN();
