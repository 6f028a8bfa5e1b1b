// Unit and property tests for mfbo::gp — kernels, NLML, and the regressor.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "gp/gp_regressor.h"
#include "gp/kernel.h"
#include "linalg/rng.h"
#include "linalg/sampling.h"

namespace {

using namespace mfbo::gp;
using mfbo::linalg::Box;
using mfbo::linalg::Cholesky;
using mfbo::linalg::Rng;

// ---------------------------------------------------------------- kernels --

TEST(SeArdKernel, SelfCovarianceIsSignalVariance) {
  SeArdKernel k(3, /*sigma_f=*/2.0, /*lengthscale=*/0.7);
  Rng rng(1);
  Vector x = rng.uniformVector(3);
  EXPECT_NEAR(k.eval(x, x), 4.0, 1e-12);
}

TEST(SeArdKernel, SymmetricAndDecaysWithDistance) {
  SeArdKernel k(2);
  Vector a{0.0, 0.0}, b{0.5, 0.1}, c{2.0, 2.0};
  EXPECT_DOUBLE_EQ(k.eval(a, b), k.eval(b, a));
  EXPECT_GT(k.eval(a, b), k.eval(a, c));
  EXPECT_GT(k.eval(a, a), k.eval(a, b));
}

TEST(SeArdKernel, KnownValue) {
  // 1-d, sf=1, l=1: k(0, 1) = exp(-0.5).
  SeArdKernel k(1, 1.0, 1.0);
  EXPECT_NEAR(k.eval(Vector{0.0}, Vector{1.0}), std::exp(-0.5), 1e-14);
}

TEST(SeArdKernel, ArdLengthscalesActPerDimension) {
  SeArdKernel k(2);
  // l_0 small, l_1 large: movement along dim 0 should matter far more.
  k.setParams(Vector{0.0, std::log(0.1), std::log(10.0)});
  Vector origin{0.0, 0.0};
  const double along0 = k.eval(origin, Vector{0.3, 0.0});
  const double along1 = k.eval(origin, Vector{0.0, 0.3});
  EXPECT_LT(along0, along1);
}

TEST(SeArdKernel, ParamsRoundTrip) {
  SeArdKernel k(4);
  Vector p{0.3, -0.1, 0.2, -0.5, 1.0};
  k.setParams(p);
  EXPECT_LT(mfbo::linalg::maxAbsDiff(k.params(), p), 1e-15);
  EXPECT_EQ(k.numParams(), 5u);
  EXPECT_EQ(k.paramName(0), "log_sigma_f");
  EXPECT_EQ(k.paramName(2), "log_l1");
}

TEST(SeArdKernel, GramIsSpd) {
  Rng rng(3);
  SeArdKernel k(3);
  std::vector<Vector> x;
  for (int i = 0; i < 12; ++i) x.push_back(rng.uniformVector(3));
  Matrix gram = k.gram(x);
  // SPD up to jitter.
  EXPECT_NO_THROW(Cholesky::factorWithJitter(gram));
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j)
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
}

TEST(NargpKernel, ReducesToSumWhenYlMatches) {
  // When y_l coordinates coincide, k1 = 1 so k = k2 + k3 with matching x.
  NargpKernel k(2);
  Vector a{0.1, 0.2, 0.7};
  Vector b{0.4, 0.9, 0.7};  // same y_l = 0.7
  // Compare with manual evaluation using the kernel's own parameters.
  const Vector p = k.params();
  const double sf2 = std::exp(p[1]), l2_0 = std::exp(p[2]),
               l2_1 = std::exp(p[3]);
  const double sf3 = std::exp(p[4]), l3_0 = std::exp(p[5]),
               l3_1 = std::exp(p[6]);
  auto se = [](double sf, double q) { return sf * sf * std::exp(-0.5 * q); };
  const double q2 = std::pow((a[0] - b[0]) / l2_0, 2) +
                    std::pow((a[1] - b[1]) / l2_1, 2);
  const double q3 = std::pow((a[0] - b[0]) / l3_0, 2) +
                    std::pow((a[1] - b[1]) / l3_1, 2);
  EXPECT_NEAR(k.eval(a, b), se(sf2, q2) + se(sf3, q3), 1e-12);
}

TEST(NargpKernel, YlDifferenceReducesCovariance) {
  NargpKernel k(2);
  Vector a{0.1, 0.2, 0.0};
  Vector same_yl{0.3, 0.4, 0.0};
  Vector diff_yl{0.3, 0.4, 2.0};
  EXPECT_GT(k.eval(a, same_yl), k.eval(a, diff_yl));
}

TEST(NargpKernel, ParamsRoundTripAndNames) {
  NargpKernel k(3);
  EXPECT_EQ(k.numParams(), 9u);
  Rng rng(5);
  Vector p = rng.normalVector(9);
  k.setParams(p);
  EXPECT_LT(mfbo::linalg::maxAbsDiff(k.params(), p), 1e-15);
  EXPECT_EQ(k.paramName(0), "log_l_rho");
  EXPECT_EQ(k.paramName(1), "log_sf2");
  EXPECT_EQ(k.paramName(5), "log_sf3");
}

TEST(NargpKernel, GramIsSpd) {
  Rng rng(7);
  NargpKernel k(2);
  std::vector<Vector> z;
  for (int i = 0; i < 10; ++i) z.push_back(rng.uniformVector(3));
  EXPECT_NO_THROW(Cholesky::factorWithJitter(k.gram(z)));
}

// Finite-difference check of accumulateWeightedGrad for both kernels:
// Σ w_ij k_ij differentiated numerically must match the accumulated grad.
template <typename K>
void checkWeightedGrad(K& kernel, std::size_t input_dim, unsigned seed) {
  Rng rng(seed);
  std::vector<Vector> x;
  for (int i = 0; i < 7; ++i) x.push_back(rng.uniformVector(input_dim));
  Matrix w(7, 7);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      w(i, j) = rng.normal();
      w(j, i) = w(i, j);
    }
  const Vector p0 = kernel.params();
  auto contraction = [&](const Vector& p) {
    kernel.setParams(p);
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      for (std::size_t j = 0; j < x.size(); ++j)
        acc += w(i, j) * kernel.eval(x[i], x[j]);
    return acc;
  };
  Vector grad(kernel.numParams());
  kernel.setParams(p0);
  kernel.accumulateWeightedGrad(x, w, grad);
  const double h = 1e-6;
  for (std::size_t t = 0; t < kernel.numParams(); ++t) {
    Vector pp = p0, pm = p0;
    pp[t] += h;
    pm[t] -= h;
    const double fd = (contraction(pp) - contraction(pm)) / (2.0 * h);
    EXPECT_NEAR(grad[t], fd, 1e-5 * std::max(1.0, std::abs(fd)))
        << "param " << t << " (" << kernel.paramName(t) << ")";
  }
  kernel.setParams(p0);
}

TEST(SeArdKernel, WeightedGradMatchesFiniteDifference) {
  SeArdKernel k(3);
  k.setParams(Vector{0.2, -0.4, 0.1, -0.8});
  checkWeightedGrad(k, 3, 11);
}

TEST(NargpKernel, WeightedGradMatchesFiniteDifference) {
  NargpKernel k(2);
  k.setParams(Vector{-0.3, 0.2, -0.5, 0.4, -0.2, 0.1, -0.6});
  checkWeightedGrad(k, 3, 13);
}

// ------------------------------------------------ cached inverse scales --
//
// Both kernels cache 1/l = exp(−log l) when their parameters change. The
// references below recompute every exp from the log-space parameters in
// the kernels' own order of evaluation, so a cache that is refreshed at
// the right times matches them bit for bit (EXPECT_EQ on doubles).

double seArdReference(const Vector& p, const Vector& a, const Vector& b) {
  double q = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    const double inv_l = std::exp(-p[1 + i]);
    const double scaled = diff * inv_l;
    q += scaled * scaled;
  }
  return std::exp(2.0 * p[0] - 0.5 * q);
}

// NargpKernel parameter layout: [log l_ρ, log σ_f2, log l2_1..d, log σ_f3,
// log l3_1..d].
double nargpK1Reference(const Vector& p, double y_a, double y_b) {
  const double dy = (y_a - y_b) * std::exp(-p[0]);
  return std::exp(-0.5 * dy * dy);
}

void nargpXPartsReference(const Vector& p, std::size_t d, const Vector& a,
                          const Vector& b, double& k2, double& k3) {
  double q2 = 0.0, q3 = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    const double s2 = diff * std::exp(-p[2 + i]);
    const double s3 = diff * std::exp(-p[3 + d + i]);
    q2 += s2 * s2;
    q3 += s3 * s3;
  }
  k2 = std::exp(2.0 * p[1] - 0.5 * q2);
  k3 = std::exp(2.0 * p[2 + d] - 0.5 * q3);
}

double nargpReference(const Vector& p, std::size_t d, const Vector& a,
                      const Vector& b) {
  const double dy = a[d] - b[d];
  const double inv_lr = std::exp(-p[0]);
  const double k1 = std::exp(-0.5 * dy * dy * inv_lr * inv_lr);
  double k2 = 0.0, k3 = 0.0;
  nargpXPartsReference(p, d, a, b, k2, k3);
  return k1 * k2 + k3;
}

std::vector<Vector> randomPoints(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<Vector> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(rng.uniformVector(dim));
  return pts;
}

void expectSeArdMatchesReference(const SeArdKernel& k, const Vector& p,
                                 const std::vector<Vector>& pts) {
  ASSERT_EQ(k.params().raw(), p.raw());
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = 0; j < pts.size(); ++j)
      EXPECT_EQ(k.eval(pts[i], pts[j]), seArdReference(p, pts[i], pts[j]))
          << "pair " << i << "," << j;
  const Vector c = k.cross(pts, pts[0]);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(c[i], seArdReference(p, pts[0], pts[i])) << "row " << i;
}

void expectNargpMatchesReference(const NargpKernel& k, const Vector& p,
                                 const std::vector<Vector>& z) {
  ASSERT_EQ(k.params().raw(), p.raw());
  const std::size_t d = k.xDim();
  for (std::size_t i = 0; i < z.size(); ++i)
    for (std::size_t j = 0; j < z.size(); ++j)
      EXPECT_EQ(k.eval(z[i], z[j]), nargpReference(p, d, z[i], z[j]))
          << "pair " << i << "," << j;
  // Pre-sized outputs are reused by crossXParts; they must be overwritten.
  Vector c2(z.size(), -1.0), c3(z.size(), -1.0);
  for (const Vector& x_star : z) {
    k.crossXParts(z, x_star, c2, c3);
    for (std::size_t i = 0; i < z.size(); ++i) {
      double k2 = 0.0, k3 = 0.0;
      nargpXPartsReference(p, d, x_star, z[i], k2, k3);
      EXPECT_EQ(c2[i], k2) << "row " << i;
      EXPECT_EQ(c3[i], k3) << "row " << i;
    }
  }
  for (std::size_t i = 0; i < z.size(); ++i)
    for (std::size_t j = 0; j < z.size(); ++j)
      EXPECT_EQ(k.k1Scalar(z[i][d], z[j][d]),
                nargpK1Reference(p, z[i][d], z[j][d]));
  EXPECT_EQ(k.selfVariance(),
            std::exp(2.0 * p[1]) + std::exp(2.0 * p[2 + d]));
}

TEST(SeArdKernel, CachedInverseScalesMatchLogSpaceReference) {
  Rng rng(31);
  const std::size_t d = 4;
  const std::vector<Vector> pts = randomPoints(6, d, rng);
  SeArdKernel k(d, 1.3, 0.6);
  expectSeArdMatchesReference(k, k.params(), pts);  // after construction

  const Vector p = rng.normalVector(k.numParams());
  k.setParams(p);
  expectSeArdMatchesReference(k, p, pts);

  const std::unique_ptr<Kernel> copy = k.clone();
  const Vector q = rng.normalVector(k.numParams());
  copy->setParams(q);
  expectSeArdMatchesReference(static_cast<const SeArdKernel&>(*copy), q, pts);
  expectSeArdMatchesReference(k, p, pts);  // the original keeps its cache
}

TEST(NargpKernel, CachedInverseScalesMatchLogSpaceReference) {
  Rng rng(37);
  const std::size_t d = 3;
  const std::vector<Vector> z = randomPoints(6, d + 1, rng);
  NargpKernel k(d);
  expectNargpMatchesReference(k, k.params(), z);  // after construction

  const Vector p = rng.normalVector(k.numParams());
  k.setParams(p);
  expectNargpMatchesReference(k, p, z);

  const std::unique_ptr<Kernel> copy = k.clone();
  const Vector q = rng.normalVector(k.numParams());
  copy->setParams(q);
  expectNargpMatchesReference(static_cast<const NargpKernel&>(*copy), q, z);
  expectNargpMatchesReference(k, p, z);  // the original keeps its cache
}

// The gradient keeps its own exp(−2·log l), a different double from the
// square of the cached 1/l; these references are its log-space formulas.
Vector seArdGradReference(const Vector& p, const std::vector<Vector>& x,
                          const Matrix& w) {
  const std::size_t d = p.size() - 1;
  Vector grad(p.size());
  std::vector<double> inv_l2(d), scaled_sq(d);
  for (std::size_t t = 0; t < d; ++t) inv_l2[t] = std::exp(-2.0 * p[1 + t]);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double q = 0.0;
      for (std::size_t t = 0; t < d; ++t) {
        const double diff = x[i][t] - x[j][t];
        scaled_sq[t] = diff * diff * inv_l2[t];
        q += scaled_sq[t];
      }
      const double k = std::exp(2.0 * p[0] - 0.5 * q);
      const double weight = (i == j) ? w(i, j) : 2.0 * w(i, j);
      grad[0] += weight * 2.0 * k;
      for (std::size_t t = 0; t < d; ++t)
        grad[1 + t] += weight * k * scaled_sq[t];
    }
  return grad;
}

Vector nargpGradReference(const Vector& p, std::size_t d,
                          const std::vector<Vector>& x, const Matrix& w) {
  Vector grad(p.size());
  const double inv_lr2 = std::exp(-2.0 * p[0]);
  std::vector<double> inv_l2_sq(d), inv_l3_sq(d), s2(d), s3(d);
  for (std::size_t t = 0; t < d; ++t) {
    inv_l2_sq[t] = std::exp(-2.0 * p[2 + t]);
    inv_l3_sq[t] = std::exp(-2.0 * p[3 + d + t]);
  }
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double dy = x[i][d] - x[j][d];
      const double ry = dy * dy * inv_lr2;
      const double k1 = std::exp(-0.5 * ry);
      double q2 = 0.0, q3 = 0.0;
      for (std::size_t t = 0; t < d; ++t) {
        const double diff = x[i][t] - x[j][t];
        s2[t] = diff * diff * inv_l2_sq[t];
        s3[t] = diff * diff * inv_l3_sq[t];
        q2 += s2[t];
        q3 += s3[t];
      }
      const double k2 = std::exp(2.0 * p[1] - 0.5 * q2);
      const double k3 = std::exp(2.0 * p[2 + d] - 0.5 * q3);
      const double weight = (i == j) ? w(i, j) : 2.0 * w(i, j);
      const double k12 = k1 * k2;
      std::size_t g = 0;
      grad[g++] += weight * k12 * ry;
      grad[g++] += weight * 2.0 * k12;
      for (std::size_t t = 0; t < d; ++t) grad[g++] += weight * k12 * s2[t];
      grad[g++] += weight * 2.0 * k3;
      for (std::size_t t = 0; t < d; ++t) grad[g++] += weight * k3 * s3[t];
    }
  return grad;
}

Matrix symmetricWeights(std::size_t n, Rng& rng) {
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      w(i, j) = rng.normal();
      w(j, i) = w(i, j);
    }
  return w;
}

TEST(SeArdKernel, WeightedGradIsBitEqualToLogSpaceReference) {
  Rng rng(41);
  const std::vector<Vector> x = randomPoints(6, 3, rng);
  const Matrix w = symmetricWeights(6, rng);
  SeArdKernel k(3);
  const Vector p{0.2, -0.4, 0.1, -0.8};
  k.setParams(p);
  Vector grad(k.numParams());
  k.accumulateWeightedGrad(x, w, grad);
  EXPECT_EQ(grad.raw(), seArdGradReference(p, x, w).raw());
}

TEST(NargpKernel, WeightedGradIsBitEqualToLogSpaceReference) {
  Rng rng(43);
  const std::vector<Vector> x = randomPoints(6, 3, rng);
  const Matrix w = symmetricWeights(6, rng);
  NargpKernel k(2);
  const Vector p{-0.3, 0.2, -0.5, 0.4, -0.2, 0.1, -0.6};
  k.setParams(p);
  Vector grad(k.numParams());
  k.accumulateWeightedGrad(x, w, grad);
  EXPECT_EQ(grad.raw(), nargpGradReference(p, 2, x, w).raw());
}

// ------------------------------------------------------------------- NLML --

TEST(Nlml, MatchesDirectFormula) {
  // Compare against the textbook NLML computed with explicit inverse.
  Rng rng(17);
  SeArdKernel kernel(2);
  std::vector<Vector> x;
  Vector y(6);
  for (int i = 0; i < 6; ++i) {
    x.push_back(rng.uniformVector(2));
    y[static_cast<std::size_t>(i)] = rng.normal();
  }
  const double log_sn = std::log(0.2);
  const double got = negLogMarginalLikelihood(kernel, log_sn, x, y);

  Matrix k = kernel.gram(x);
  for (std::size_t i = 0; i < 6; ++i) k(i, i) += std::exp(2.0 * log_sn);
  Cholesky chol = Cholesky::factor(k);
  const Vector alpha = chol.solve(y);
  const double expected = 0.5 * dot(y, alpha) + 0.5 * chol.logDet() +
                          3.0 * std::log(2.0 * M_PI);
  EXPECT_NEAR(got, expected, 1e-10);
}

TEST(Nlml, GradientMatchesFiniteDifference) {
  Rng rng(19);
  SeArdKernel kernel(2);
  std::vector<Vector> x;
  Vector y(8);
  for (int i = 0; i < 8; ++i) {
    x.push_back(rng.uniformVector(2));
    y[static_cast<std::size_t>(i)] =
        std::sin(3.0 * x.back()[0]) + 0.1 * rng.normal();
  }
  const Vector p0 = kernel.params();
  const double log_sn0 = std::log(0.15);

  Vector grad;
  negLogMarginalLikelihood(kernel, log_sn0, x, y, &grad);
  ASSERT_EQ(grad.size(), kernel.numParams() + 1);

  auto eval_at = [&](const Vector& kp, double log_sn) {
    kernel.setParams(kp);
    const double v = negLogMarginalLikelihood(kernel, log_sn, x, y);
    kernel.setParams(p0);
    return v;
  };
  const double h = 1e-6;
  for (std::size_t t = 0; t < kernel.numParams(); ++t) {
    Vector pp = p0, pm = p0;
    pp[t] += h;
    pm[t] -= h;
    const double fd = (eval_at(pp, log_sn0) - eval_at(pm, log_sn0)) / (2 * h);
    EXPECT_NEAR(grad[t], fd, 1e-4 * std::max(1.0, std::abs(fd)))
        << "kernel param " << t;
  }
  const double fd_noise =
      (eval_at(p0, log_sn0 + h) - eval_at(p0, log_sn0 - h)) / (2 * h);
  EXPECT_NEAR(grad[kernel.numParams()], fd_noise,
              1e-4 * std::max(1.0, std::abs(fd_noise)));
}

TEST(Nlml, ThrowsOnEmptyData) {
  SeArdKernel kernel(1);
  EXPECT_THROW(negLogMarginalLikelihood(kernel, 0.0, {}, Vector{}),
               mfbo::ContractViolation);
}

// -------------------------------------------------------------- regressor --

GpRegressor makeFitted1d(std::size_t n, double noise_sd, unsigned seed,
                         double (*f)(double)) {
  Rng rng(seed);
  std::vector<Vector> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = static_cast<double>(i) / static_cast<double>(n - 1);
    x.push_back(Vector{xi});
    y.push_back(f(xi) + noise_sd * rng.normal());
  }
  GpConfig cfg;
  cfg.seed = seed;
  GpRegressor gp(std::make_unique<SeArdKernel>(1), cfg);
  gp.fit(std::move(x), std::move(y));
  return gp;
}

TEST(GpRegressor, InterpolatesNoiselessData) {
  auto f = [](double x) { return std::sin(6.0 * x); };
  GpRegressor gp = makeFitted1d(15, 0.0, 23, f);
  for (double xq : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Prediction p = gp.predict(Vector{xq});
    EXPECT_NEAR(p.mean, f(xq), 5e-2) << "x=" << xq;
  }
}

TEST(GpRegressor, PredictionUncertaintyGrowsAwayFromData) {
  auto f = [](double x) { return x * x; };
  GpRegressor gp = makeFitted1d(10, 0.01, 29, f);
  const Prediction near = gp.predict(Vector{0.5});
  const Prediction far = gp.predict(Vector{3.0});
  EXPECT_LT(near.var, far.var);
}

TEST(GpRegressor, RecoversFunctionUnderNoise) {
  auto f = [](double x) { return std::cos(4.0 * x); };
  GpRegressor gp = makeFitted1d(40, 0.05, 31, f);
  double rmse = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double xq = static_cast<double>(i) / 49.0;
    const double err = gp.predict(Vector{xq}).mean - f(xq);
    rmse += err * err;
  }
  rmse = std::sqrt(rmse / 50.0);
  EXPECT_LT(rmse, 0.1);
}

TEST(GpRegressor, LearnedNoiseIsReasonable) {
  auto f = [](double x) { return 2.0 * x; };
  GpRegressor gp = makeFitted1d(60, 0.1, 37, f);
  // Output standardization: raw sd of y ≈ sd(2x) ≈ 0.58, so noise 0.1 raw
  // ≈ 0.17 standardized. Accept a generous bracket.
  EXPECT_GT(gp.noiseSd(), 0.01);
  EXPECT_LT(gp.noiseSd(), 0.8);
}

TEST(GpRegressor, AddPointUpdatesPosterior) {
  auto f = [](double x) { return std::sin(5.0 * x); };
  GpRegressor gp = makeFitted1d(8, 0.0, 41, f);
  const double x_new = 0.62;
  const Prediction before = gp.predict(Vector{x_new});
  gp.addPoint(Vector{x_new}, f(x_new), /*retrain=*/false);
  const Prediction after = gp.predict(Vector{x_new});
  EXPECT_LT(after.var, before.var);
  EXPECT_NEAR(after.mean, f(x_new), 0.05);
  EXPECT_EQ(gp.size(), 9u);
}

TEST(GpRegressor, AddPointWithRetrainStillInterpolates) {
  auto f = [](double x) { return x * std::sin(8.0 * x); };
  GpRegressor gp = makeFitted1d(10, 0.0, 43, f);
  gp.addPoint(Vector{0.33}, f(0.33), /*retrain=*/true);
  EXPECT_NEAR(gp.predict(Vector{0.33}).mean, f(0.33), 0.05);
}

TEST(GpRegressor, BestObservedIsMinimum) {
  GpRegressor gp(std::make_unique<SeArdKernel>(1));
  gp.fit({Vector{0.0}, Vector{0.5}, Vector{1.0}}, {3.0, -2.0, 7.0});
  EXPECT_DOUBLE_EQ(gp.bestObserved(), -2.0);
}

TEST(GpRegressor, ThrowsOnMisuse) {
  GpRegressor gp(std::make_unique<SeArdKernel>(2));
  EXPECT_THROW(gp.predict(Vector{0.0, 0.0}), std::logic_error);
  EXPECT_THROW(gp.fit({}, {}), mfbo::ContractViolation);
  EXPECT_THROW(gp.fit({Vector{0.0}}, {1.0}), mfbo::ContractViolation);
  EXPECT_THROW(gp.fit({Vector{0.0, 0.0}}, {1.0, 2.0}),
               mfbo::ContractViolation);
}

TEST(GpRegressor, CopyIsIndependent) {
  auto f = [](double x) { return x; };
  GpRegressor gp = makeFitted1d(6, 0.0, 47, f);
  GpRegressor copy = gp;
  copy.addPoint(Vector{0.9}, 5.0, false);
  EXPECT_EQ(gp.size(), 6u);
  EXPECT_EQ(copy.size(), 7u);
  // Original predictions unchanged by mutating the copy.
  EXPECT_NEAR(gp.predict(Vector{0.5}).mean, 0.5, 0.05);
}

TEST(GpRegressor, HandlesConstantTargets) {
  GpRegressor gp(std::make_unique<SeArdKernel>(1));
  gp.fit({Vector{0.0}, Vector{0.5}, Vector{1.0}}, {2.0, 2.0, 2.0});
  const Prediction p = gp.predict(Vector{0.7});
  EXPECT_NEAR(p.mean, 2.0, 0.2);
  EXPECT_TRUE(std::isfinite(p.var));
}

TEST(GpRegressor, DuplicateInputsDoNotCrash) {
  GpRegressor gp(std::make_unique<SeArdKernel>(1));
  gp.fit({Vector{0.3}, Vector{0.3}, Vector{0.8}}, {1.0, 1.1, -0.5});
  EXPECT_NO_THROW(gp.predict(Vector{0.3}));
}

TEST(GpRegressor, WorksInHigherDimensions) {
  Rng rng(53);
  auto f = [](const Vector& x) {
    return x[0] * x[0] + std::sin(3.0 * x[1]) - 0.5 * x[2];
  };
  std::vector<Vector> x;
  std::vector<double> y;
  Box cube = Box::unitCube(3);
  for (const auto& xi : mfbo::linalg::latinHypercube(40, cube, rng)) {
    x.push_back(xi);
    y.push_back(f(xi));
  }
  GpConfig cfg;
  cfg.seed = 53;
  GpRegressor gp(std::make_unique<SeArdKernel>(3), cfg);
  gp.fit(x, y);
  double rmse = 0.0;
  const auto queries = mfbo::linalg::latinHypercube(20, cube, rng);
  for (const auto& q : queries) {
    const double err = gp.predict(q).mean - f(q);
    rmse += err * err;
  }
  rmse = std::sqrt(rmse / static_cast<double>(queries.size()));
  EXPECT_LT(rmse, 0.15);
}

}  // namespace
