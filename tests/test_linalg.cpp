// Unit and property tests for the mfbo::linalg substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/sampling.h"
#include "linalg/stats.h"
#include "linalg/vector.h"

namespace {

using namespace mfbo::linalg;

// ---------------------------------------------------------------- Vector --

TEST(Vector, ConstructionAndAccess) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  v[1] = 5.0;
  EXPECT_DOUBLE_EQ(v[1], 5.0);
}

TEST(Vector, ZeroInitialized) {
  Vector v(4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(v[i], 0.0);
}

TEST(Vector, Arithmetic) {
  Vector a{1.0, 2.0};
  Vector b{3.0, -1.0};
  Vector sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 4.0);
  EXPECT_DOUBLE_EQ(sum[1], 1.0);
  Vector diff = a - b;
  EXPECT_DOUBLE_EQ(diff[0], -2.0);
  EXPECT_DOUBLE_EQ(diff[1], 3.0);
  Vector scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled[0], 2.0);
  EXPECT_DOUBLE_EQ(scaled[1], 4.0);
  Vector neg = -a;
  EXPECT_DOUBLE_EQ(neg[0], -1.0);
}

TEST(Vector, DotAndNorm) {
  Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.squaredNorm(), 25.0);
  Vector b{1.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 7.0);
}

TEST(Vector, Reductions) {
  Vector v{4.0, -2.0, 7.0, 1.0};
  EXPECT_DOUBLE_EQ(v.sum(), 10.0);
  EXPECT_DOUBLE_EQ(v.mean(), 2.5);
  EXPECT_DOUBLE_EQ(v.max(), 7.0);
  EXPECT_DOUBLE_EQ(v.min(), -2.0);
  EXPECT_EQ(v.argmax(), 2u);
  EXPECT_EQ(v.argmin(), 1u);
}

TEST(Vector, AllFinite) {
  Vector v{1.0, 2.0};
  EXPECT_TRUE(v.allFinite());
  v[0] = std::nan("");
  EXPECT_FALSE(v.allFinite());
  v[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(v.allFinite());
}

TEST(Vector, CwiseProductAndMaxAbsDiff) {
  Vector a{2.0, 3.0};
  Vector b{4.0, -1.0};
  Vector p = cwiseProduct(a, b);
  EXPECT_DOUBLE_EQ(p[0], 8.0);
  EXPECT_DOUBLE_EQ(p[1], -3.0);
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 4.0);
}

// ---------------------------------------------------------------- Matrix --

TEST(Matrix, IdentityAndAccess) {
  Matrix id = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  EXPECT_EQ(id.rows(), 3u);
  EXPECT_EQ(id.cols(), 3u);
}

TEST(Matrix, RowColAccess) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  Vector r = m.row(1);
  EXPECT_DOUBLE_EQ(r[0], 4.0);
  EXPECT_DOUBLE_EQ(r[2], 6.0);
  Vector c = m.col(1);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 5.0);
  m.setRow(0, Vector{7.0, 8.0, 9.0});
  EXPECT_DOUBLE_EQ(m(0, 2), 9.0);
  m.setCol(0, Vector{-1.0, -2.0});
  EXPECT_DOUBLE_EQ(m(1, 0), -2.0);
}

TEST(Matrix, Transpose) {
  Matrix m(2, 3);
  m(0, 2) = 5.0;
  m(1, 0) = 7.0;
  Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 7.0);
}

TEST(Matrix, MatMatProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatVecProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  Vector v{1.0, 0.0, -1.0};
  Vector out = a * v;
  EXPECT_DOUBLE_EQ(out[0], -2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, GramTNMatchesExplicitTranspose) {
  Rng rng(7);
  Matrix a(4, 3), b(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
    for (std::size_t c = 0; c < 2; ++c) b(r, c) = rng.normal();
  }
  Matrix expected = a.transpose() * b;
  Matrix got = gramTN(a, b);
  EXPECT_LT(Matrix::maxAbsDiff(expected, got), 1e-14);
}

TEST(Matrix, IdentityIsMultiplicativeIdentity) {
  Rng rng(3);
  Matrix a(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
  EXPECT_LT(Matrix::maxAbsDiff(a * Matrix::identity(3), a), 1e-15);
  EXPECT_LT(Matrix::maxAbsDiff(Matrix::identity(3) * a, a), 1e-15);
}

// -------------------------------------------------------------------- LU --

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  Vector b{3.0, 5.0};
  Vector x = luSolve(a, b);
  // 2x + y = 3, x + 3y = 5 -> x = 0.8, y = 1.4
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal: only solvable with row exchange.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  Vector x = luSolve(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, ThrowsOnSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(luSolve(a, Vector{1.0, 1.0}), std::runtime_error);
}

TEST(Lu, ResidualIsSmallOnRandomSystems) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.index(12);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    // Diagonal dominance keeps the random systems well-conditioned.
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    Vector b = rng.normalVector(n);
    Vector x = luSolve(a, b);
    Vector residual = a * x - b;
    EXPECT_LT(residual.norm(), 1e-9) << "trial " << trial << " n=" << n;
  }
}

TEST(Lu, FactorReusableAcrossRhs) {
  Rng rng(13);
  Matrix a(5, 5);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c) a(r, c) = rng.normal();
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 5.0;
  LuFactor lu(a);
  for (int k = 0; k < 4; ++k) {
    Vector b = rng.normalVector(5);
    Vector x = lu.solve(b);
    EXPECT_LT((a * x - b).norm(), 1e-10);
  }
}

// -------------------------------------------------------------- Cholesky --

Matrix randomSpd(std::size_t n, Rng& rng, double diag_boost = 0.5) {
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.normal();
  Matrix spd = gramTN(g, g);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += diag_boost;
  return spd;
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(17);
  Matrix a = randomSpd(6, rng);
  Cholesky chol = Cholesky::factor(a);
  const Matrix& l = chol.lower();
  Matrix rebuilt = l * l.transpose();
  EXPECT_LT(Matrix::maxAbsDiff(a, rebuilt), 1e-10);
}

TEST(Cholesky, SolveMatchesLu) {
  Rng rng(19);
  Matrix a = randomSpd(8, rng);
  Vector b = rng.normalVector(8);
  Vector x_chol = Cholesky::factor(a).solve(b);
  Vector x_lu = luSolve(a, b);
  EXPECT_LT(maxAbsDiff(x_chol, x_lu), 1e-9);
}

TEST(Cholesky, LogDetMatchesKnownValue) {
  // diag(4, 9) -> det = 36, log det = log 36.
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(1, 1) = 9.0;
  EXPECT_NEAR(Cholesky::factor(a).logDet(), std::log(36.0), 1e-12);
}

TEST(Cholesky, InverseTimesMatrixIsIdentity) {
  Rng rng(23);
  Matrix a = randomSpd(5, rng);
  Matrix inv = Cholesky::factor(a).inverse();
  EXPECT_LT(Matrix::maxAbsDiff(a * inv, Matrix::identity(5)), 1e-9);
}

// Reference for inverse(): column c is the single-column solve of e_c.
Matrix inverseByColumnSolves(const Cholesky& chol) {
  const std::size_t n = chol.dim();
  Matrix ref(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    Vector e(n);
    e[c] = 1.0;
    ref.setCol(c, chol.solve(e));
  }
  return ref;
}

void expectInverseBitEqualToColumnSolves(const Cholesky& chol) {
  const std::size_t n = chol.dim();
  const Matrix inv = chol.inverse();
  const Matrix ref = inverseByColumnSolves(chol);
  ASSERT_EQ(inv.rows(), n);
  ASSERT_EQ(inv.cols(), n);
  EXPECT_EQ(std::memcmp(inv.data(), ref.data(), n * n * sizeof(double)), 0)
      << "n=" << n << " max |diff| " << Matrix::maxAbsDiff(inv, ref);
}

TEST(Cholesky, InverseMatchesColumnSolvesBitForBit) {
  Rng rng(29);
  for (std::size_t n = 1; n <= 64; ++n)
    expectInverseBitEqualToColumnSolves(Cholesky::factor(randomSpd(n, rng)));

  // A rank-3 Gram matrix of 24 points is singular, so only the jitter
  // ladder factors it.
  Matrix g(3, 24);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 24; ++c) g(r, c) = rng.normal();
  const Cholesky jittered = Cholesky::factorWithJitter(gramTN(g, g));
  EXPECT_GT(jittered.jitterUsed(), 0.0);
  expectInverseBitEqualToColumnSolves(jittered);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky::factor(a), std::runtime_error);
}

TEST(Cholesky, JitterRescuesNearSingular) {
  // Rank-one (singular) Gram matrix: exact factorization fails, jittered
  // succeeds and records the jitter actually used.
  Matrix a(3, 3, 1.0);
  EXPECT_THROW(Cholesky::factor(a), std::runtime_error);
  Cholesky chol = Cholesky::factorWithJitter(a);
  EXPECT_GT(chol.jitterUsed(), 0.0);
  Vector b{1.0, 1.0, 1.0};
  Vector x = chol.solve(b);
  EXPECT_TRUE(x.allFinite());
}

TEST(Cholesky, TriangularSolvesCompose) {
  Rng rng(29);
  Matrix a = randomSpd(6, rng);
  Cholesky chol = Cholesky::factor(a);
  Vector b = rng.normalVector(6);
  Vector via_parts = chol.solveUpper(chol.solveLower(b));
  Vector direct = chol.solve(b);
  EXPECT_LT(maxAbsDiff(via_parts, direct), 1e-14);
}

TEST(Cholesky, SolveLowerIntoReusesStorageAndMatchesSolveLower) {
  Rng rng(31);
  Cholesky chol = Cholesky::factor(randomSpd(5, rng));
  Vector y;  // resized on first use
  for (int rep = 0; rep < 3; ++rep) {
    const Vector b = rng.normalVector(5);
    chol.solveLowerInto(b, y);
    const double* storage = y.data();
    chol.solveLowerInto(b, y);  // right size already: same buffer
    EXPECT_EQ(y.data(), storage);
    EXPECT_EQ(y.raw(), chol.solveLower(b).raw());
  }
}

// ------------------------------------------------------------------- Rng --

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(5);
  std::vector<double> draws(20000);
  for (double& d : draws) d = rng.normal(1.5, 2.0);
  EXPECT_NEAR(mean(draws), 1.5, 0.06);
  EXPECT_NEAR(stddev(draws), 2.0, 0.06);
}

TEST(Rng, DistinctIndicesAreDistinctAndExclude) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    auto idx = rng.distinctIndices(3, 10, 4);
    std::set<std::size_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.count(4), 0u);
    for (std::size_t i : idx) EXPECT_LT(i, 10u);
  }
}

TEST(Rng, DistinctIndicesThrowsWhenImpossible) {
  Rng rng(9);
  EXPECT_THROW(rng.distinctIndices(3, 3, 1), mfbo::ContractViolation);
}

TEST(Rng, ForkProducesDifferentStream) {
  Rng parent(77);
  Rng child = parent.fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    if (parent.uniform() != child.uniform()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

// ----------------------------------------------------------------- Stats --

TEST(Stats, NormalPdfCdfKnownValues) {
  EXPECT_NEAR(normalPdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normalCdf(-1.959963984540054), 0.025, 1e-9);
}

TEST(Stats, LogNormalCdfMatchesHighPrecisionReferences) {
  // References computed with 40-digit arithmetic (mpmath): the three
  // branches (log1p above 0, erfc log in the middle, Mills-ratio
  // asymptotic below −25) must all track log Φ to high relative accuracy.
  const struct {
    double x, reference;
  } cases[] = {
      {-100.0, -5005.5242086942050886},
      {-30.0, -454.32124395634319711},
      {-25.5, -329.28414898717953476},
      {-25.0, -316.63940800802025894},
      {-24.5, -304.24427074096371117},
      {-8.0, -35.013437159914549896},
      {-1.0, -1.8410216450092635058},
      {0.0, -0.69314718055994530942},
      {1.0, -0.17275377902344988953},
      {8.0, -6.2209605742717860585e-16},
  };
  for (const auto& c : cases)
    EXPECT_NEAR(logNormalCdf(c.x), c.reference,
                1e-12 * std::max(1.0, std::abs(c.reference)))
        << "x=" << c.x;
}

TEST(Stats, LogNormalCdfStrictlyIncreasing) {
  // Strict monotonicity across all branch crossovers — ranking is exactly
  // what the log-space acquisition relies on where the linear CDF is flat 0.
  double prev = logNormalCdf(-300.0);
  for (double x = -299.5; x <= 10.0; x += 0.5) {
    const double cur = logNormalCdf(x);
    EXPECT_GT(cur, prev) << "x=" << x;
    prev = cur;
  }
}

TEST(Stats, LogNormalCdfAgreesWithLinearCdfWhereItDoesNotUnderflow) {
  for (double x : {-8.0, -3.0, -0.5, 0.0, 0.5, 3.0})
    EXPECT_NEAR(logNormalCdf(x), std::log(normalCdf(x)), 1e-12) << "x=" << x;
}

TEST(Stats, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-8) << "p=" << p;
  }
  EXPECT_THROW(normalQuantile(0.0), mfbo::ContractViolation);
  EXPECT_THROW(normalQuantile(1.0), mfbo::ContractViolation);
}

TEST(Stats, MeanVarianceMedian) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(median(v), 4.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
}

TEST(Stats, SummaryRespectsDirection) {
  std::vector<double> v{1.0, 2.0, 3.0};
  RunSummary lo = summarizeRuns(v, /*lower_is_better=*/true);
  EXPECT_DOUBLE_EQ(lo.best, 1.0);
  EXPECT_DOUBLE_EQ(lo.worst, 3.0);
  RunSummary hi = summarizeRuns(v, /*lower_is_better=*/false);
  EXPECT_DOUBLE_EQ(hi.best, 3.0);
  EXPECT_DOUBLE_EQ(hi.worst, 1.0);
}

TEST(Stats, StandardizerRoundTrips) {
  std::vector<double> sample{10.0, 12.0, 8.0, 11.0, 9.0};
  Standardizer st(sample);
  for (double y : sample) {
    EXPECT_NEAR(st.unapply(st.apply(y)), y, 1e-12);
  }
  // Standardized sample has zero mean, unit sd.
  std::vector<double> z;
  for (double y : sample) z.push_back(st.apply(y));
  EXPECT_NEAR(mean(z), 0.0, 1e-12);
  EXPECT_NEAR(stddev(z), 1.0, 1e-12);
}

TEST(Stats, StandardizerDegenerateSample) {
  std::vector<double> sample{5.0, 5.0, 5.0};
  Standardizer st(sample);
  EXPECT_DOUBLE_EQ(st.sd(), 1.0);
  EXPECT_DOUBLE_EQ(st.apply(5.0), 0.0);
}

TEST(Stats, VarianceUnapplyScalesQuadratically) {
  std::vector<double> sample{0.0, 2.0, 4.0, 6.0};
  Standardizer st(sample);
  EXPECT_NEAR(st.unapplyVariance(1.0), st.sd() * st.sd(), 1e-12);
}

// -------------------------------------------------------------- Sampling --

TEST(Box, ConstructionValidates) {
  EXPECT_THROW(Box(Vector{1.0}, Vector{0.0}), mfbo::ContractViolation);
  EXPECT_THROW(Box(Vector{0.0, 0.0}, Vector{1.0}), mfbo::ContractViolation);
}

TEST(Box, ClampContainsRoundTrip) {
  Box box(Vector{-1.0, 0.0}, Vector{1.0, 2.0});
  Vector inside{0.5, 1.0};
  EXPECT_TRUE(box.contains(inside));
  Vector outside{3.0, -1.0};
  EXPECT_FALSE(box.contains(outside));
  Vector clamped = box.clamp(outside);
  EXPECT_TRUE(box.contains(clamped));
  EXPECT_DOUBLE_EQ(clamped[0], 1.0);
  EXPECT_DOUBLE_EQ(clamped[1], 0.0);
}

TEST(Box, UnitMapsRoundTrip) {
  Box box(Vector{-2.0, 1.0}, Vector{2.0, 5.0});
  Vector x{0.0, 2.0};
  Vector u = box.toUnit(x);
  EXPECT_DOUBLE_EQ(u[0], 0.5);
  EXPECT_DOUBLE_EQ(u[1], 0.25);
  Vector back = box.fromUnit(u);
  EXPECT_LT(maxAbsDiff(back, x), 1e-14);
}

TEST(Sampling, LatinHypercubeStratification) {
  Rng rng(31);
  const std::size_t n = 16;
  Box box = Box::unitCube(3);
  auto samples = latinHypercube(n, box, rng);
  ASSERT_EQ(samples.size(), n);
  // Property: in every dimension, each of the n strata contains exactly one
  // sample.
  for (std::size_t d = 0; d < 3; ++d) {
    std::set<std::size_t> strata;
    for (const auto& s : samples) {
      EXPECT_GE(s[d], 0.0);
      EXPECT_LE(s[d], 1.0);
      strata.insert(static_cast<std::size_t>(s[d] * static_cast<double>(n)));
    }
    EXPECT_EQ(strata.size(), n) << "dimension " << d;
  }
}

TEST(Sampling, LatinHypercubeRespectsBox) {
  Rng rng(37);
  Box box(Vector{-5.0, 10.0}, Vector{-1.0, 20.0});
  for (const auto& s : latinHypercube(25, box, rng))
    EXPECT_TRUE(box.contains(s));
}

TEST(Sampling, UniformSamplesInBox) {
  Rng rng(41);
  Box box(Vector{0.0, -1.0}, Vector{0.1, 1.0});
  for (const auto& s : uniformSamples(100, box, rng))
    EXPECT_TRUE(box.contains(s));
}

TEST(Sampling, GaussianJitterStaysInBoxAndNearCenter) {
  Rng rng(43);
  Box box = Box::unitCube(2);
  Vector center{0.5, 0.5};
  double sum_dist = 0.0;
  for (int i = 0; i < 200; ++i) {
    Vector x = gaussianJitterInBox(center, 0.05, box, rng);
    EXPECT_TRUE(box.contains(x));
    sum_dist += (x - center).norm();
  }
  // Mean displacement should be around 0.05·sqrt(2)·sqrt(pi/2)-ish; well
  // below 0.2 proves the scatter is genuinely local.
  EXPECT_LT(sum_dist / 200.0, 0.2);
}

}  // namespace
