// Contract-checking layer: MFBO_CHECK / MFBO_CHECK_FINITE semantics, the
// always-on dimension checks on Vector / Matrix accessors, and the failure
// paths of the LU and Cholesky factorizations (singular, non-finite, and
// zero-dimension inputs).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace {

using mfbo::ContractViolation;
using mfbo::linalg::Cholesky;
using mfbo::linalg::LuFactor;
using mfbo::linalg::luSolve;
using mfbo::linalg::Matrix;
using mfbo::linalg::Vector;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- the macros --

TEST(Check, PassingConditionIsANoop) {
  EXPECT_NO_THROW(MFBO_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(MFBO_CHECK(true, "never formatted ", 42));
}

TEST(Check, FailureThrowsContractViolationWithLocationAndMessage) {
  try {
    MFBO_CHECK(2 + 2 == 5, "arithmetic still works: ", 2 + 2, " != ", 5);
    FAIL() << "MFBO_CHECK did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic still works: 4 != 5"), std::string::npos)
        << what;
    EXPECT_GT(e.line(), 0);
  }
}

TEST(Check, ContractViolationIsALogicError) {
  // Callers that handle caller-bug exceptions generically keep working.
  EXPECT_THROW(MFBO_CHECK(false), std::logic_error);
}

TEST(CheckFinite, PassesThroughFiniteValues) {
  EXPECT_EQ(MFBO_CHECK_FINITE(1.5), 1.5);
  EXPECT_EQ(MFBO_CHECK_FINITE(-0.0), 0.0);
  const double nested = 2.0 * MFBO_CHECK_FINITE(3.0) + 1.0;
  EXPECT_EQ(nested, 7.0);
}

TEST(CheckFinite, ThrowsOnNanAndInfinity) {
  EXPECT_THROW(MFBO_CHECK_FINITE(kNan), ContractViolation);
  EXPECT_THROW(MFBO_CHECK_FINITE(kInf), ContractViolation);
  EXPECT_THROW(MFBO_CHECK_FINITE(-kInf, "context ", 7), ContractViolation);
}

TEST(CheckFinite, EvaluatesItsArgumentExactlyOnce) {
  int evaluations = 0;
  auto next = [&evaluations] { return static_cast<double>(++evaluations); };
  EXPECT_EQ(MFBO_CHECK_FINITE(next()), 1.0);
  EXPECT_EQ(evaluations, 1);
}

// --------------------------------------------- vector / matrix accessors --

TEST(VectorContracts, ElementAccessIsBoundsCheckedInAllBuilds) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v[2], 3.0);
  EXPECT_THROW(v[3], ContractViolation);
  const Vector& cv = v;
  EXPECT_THROW(cv[17], ContractViolation);
  const Vector empty;
  EXPECT_THROW(empty[0], ContractViolation);
}

TEST(VectorContracts, ReductionsRequireNonEmpty) {
  const Vector empty;
  EXPECT_THROW(empty.mean(), ContractViolation);
  EXPECT_THROW(empty.min(), ContractViolation);
  EXPECT_THROW(empty.max(), ContractViolation);
  EXPECT_THROW(empty.argmin(), ContractViolation);
  EXPECT_THROW(empty.argmax(), ContractViolation);
}

TEST(VectorContracts, ArithmeticValidatesDimensions) {
  Vector a{1.0, 2.0};
  const Vector b{1.0, 2.0, 3.0};
  EXPECT_THROW(a += b, ContractViolation);
  EXPECT_THROW(dot(a, b), ContractViolation);
  EXPECT_THROW(cwiseProduct(a, b), ContractViolation);
}

TEST(MatrixContracts, RowAccessorsValidate) {
  const Matrix m(2, 3, 1.0);
  EXPECT_EQ(m.row(1).size(), 3u);
  EXPECT_THROW(m.row(2), ContractViolation);
  EXPECT_THROW(m.col(3), ContractViolation);
}

TEST(MatrixContracts, SetRowValidatesIndexAndDimension) {
  Matrix m(2, 3);
  EXPECT_NO_THROW(m.setRow(0, Vector{1.0, 2.0, 3.0}));
  EXPECT_THROW(m.setRow(2, Vector{1.0, 2.0, 3.0}), ContractViolation);
  EXPECT_THROW(m.setRow(0, Vector{1.0, 2.0}), ContractViolation);
}

TEST(MatrixContracts, SetColValidatesIndexAndDimension) {
  Matrix m(2, 3);
  EXPECT_NO_THROW(m.setCol(2, Vector{1.0, 2.0}));
  EXPECT_THROW(m.setCol(3, Vector{1.0, 2.0}), ContractViolation);
  EXPECT_THROW(m.setCol(0, Vector{1.0, 2.0, 3.0}), ContractViolation);
}

TEST(MatrixContracts, ProductsValidateInnerDimensions) {
  const Matrix a(2, 3, 1.0);
  const Matrix b(2, 2, 1.0);
  EXPECT_THROW(a * b, ContractViolation);
  EXPECT_THROW((a * Vector{1.0, 2.0}), ContractViolation);
  Matrix c(2, 2, 1.0);
  EXPECT_THROW(c += a, ContractViolation);
}

// --------------------------------------------------------- LU failure paths --

Matrix matrix2x2(double a, double b, double c, double d) {
  Matrix m(2, 2);
  m(0, 0) = a;
  m(0, 1) = b;
  m(1, 0) = c;
  m(1, 1) = d;
  return m;
}

TEST(LuContracts, SingularMatrixIsARuntimeErrorNotAContractViolation) {
  // A numerically singular but well-formed input is a legitimate runtime
  // failure (the caller cannot always know the rank up front).
  const Matrix singular = matrix2x2(1.0, 2.0, 2.0, 4.0);
  EXPECT_THROW(LuFactor{singular}, std::runtime_error);
  EXPECT_THROW(luSolve(singular, Vector{1.0, 1.0}), std::runtime_error);
}

TEST(LuContracts, NonFiniteInputViolatesTheContract) {
  EXPECT_THROW(LuFactor{matrix2x2(1.0, kNan, 0.0, 1.0)}, ContractViolation);
  EXPECT_THROW(LuFactor{matrix2x2(kInf, 0.0, 0.0, 1.0)}, ContractViolation);
  EXPECT_THROW(luSolve(matrix2x2(1.0, 0.0, -kInf, 1.0), Vector{1.0, 1.0}),
               ContractViolation);
}

TEST(LuContracts, ZeroDimensionAndNonSquareInputsAreRejected) {
  EXPECT_THROW(LuFactor{Matrix(0, 0)}, ContractViolation);
  EXPECT_THROW(LuFactor{Matrix(2, 3)}, ContractViolation);
}

TEST(LuContracts, SolveValidatesRhsDimension) {
  const LuFactor lu(matrix2x2(2.0, 0.0, 0.0, 2.0));
  EXPECT_THROW(lu.solve(Vector{1.0, 2.0, 3.0}), ContractViolation);
}

// --------------------------------------------------- Cholesky failure paths --

TEST(CholeskyContracts, NotPositiveDefiniteIsARuntimeError) {
  const Matrix indefinite = matrix2x2(1.0, 2.0, 2.0, 1.0);
  EXPECT_THROW(Cholesky::factor(indefinite), std::runtime_error);
}

TEST(CholeskyContracts, NonFiniteInputViolatesTheContract) {
  EXPECT_THROW(Cholesky::factor(matrix2x2(kNan, 0.0, 0.0, 1.0)),
               ContractViolation);
  EXPECT_THROW(Cholesky::factorWithJitter(matrix2x2(1.0, kInf, kInf, 1.0)),
               ContractViolation);
}

TEST(CholeskyContracts, ZeroDimensionAndNonSquareInputsAreRejected) {
  EXPECT_THROW(Cholesky::factor(Matrix(0, 0)), ContractViolation);
  EXPECT_THROW(Cholesky::factorWithJitter(Matrix(0, 0)), ContractViolation);
  EXPECT_THROW(Cholesky::factor(Matrix(2, 3)), ContractViolation);
}

TEST(CholeskyContracts, SolvesValidateRhsDimension) {
  const Cholesky chol = Cholesky::factor(matrix2x2(4.0, 0.0, 0.0, 4.0));
  EXPECT_THROW(chol.solve(Vector{1.0}), ContractViolation);
  EXPECT_THROW(chol.solveLower(Vector{1.0, 2.0, 3.0}), ContractViolation);
  EXPECT_THROW(chol.solveUpper(Vector{1.0}), ContractViolation);
}

TEST(CholeskyContracts, JitterLadderStillWorksOnValidInput) {
  // Rank-deficient but finite: the jitter ladder must rescue it, not throw.
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  const Cholesky chol = Cholesky::factorWithJitter(a);
  EXPECT_GT(chol.jitterUsed(), 0.0);
}

}  // namespace
