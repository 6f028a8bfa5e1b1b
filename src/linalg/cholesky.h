// mfbo::linalg — Cholesky factorization for symmetric positive-definite
// matrices, with progressive jitter for the near-singular covariance
// matrices that exact GP regression routinely produces.
#pragma once

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mfbo::linalg {

/// Lower-triangular Cholesky factor L of an SPD matrix A = L·Lᵀ.
///
/// GP covariance matrices frequently sit on the edge of positive
/// definiteness (duplicated inputs, tiny noise). factorWithJitter retries
/// with exponentially growing diagonal jitter, matching standard GP library
/// practice (GPy, GPML).
class Cholesky {
 public:
  /// Factor A exactly. Throws std::runtime_error if A is not SPD.
  static Cholesky factor(const Matrix& a);

  /// Factor A + jitter·I, escalating jitter from @p initial_jitter by 10×
  /// up to @p max_jitter until the factorization succeeds.
  /// Throws std::runtime_error if even the largest jitter fails.
  static Cholesky factorWithJitter(const Matrix& a,
                                   double initial_jitter = 1e-10,
                                   double max_jitter = 1e-4);

  /// Extend the factor by one row/column in O(n²): given the new column
  /// [b; c] of the extended matrix A' = [[A, b], [bᵀ, c]] (with @p b the
  /// cross terms against the existing rows and @p c the new diagonal,
  /// both *without* jitter — the jitter already baked into this factor is
  /// added to @p c internally so the extension stays consistent with the
  /// original factorization), grows L so that L·Lᵀ = A' + jitter·I.
  ///
  /// Returns false — leaving the factor untouched — when the extension is
  /// not positive definite at the current jitter level (a duplicated GP
  /// input, accumulated roundoff). The caller must then refactor the full
  /// extended matrix, typically through factorWithJitter's escalation
  /// ladder; appendRow never escalates jitter itself because a larger
  /// jitter on the new diagonal alone would no longer factor A + jitter·I.
  bool appendRow(const Vector& b, double c);

  /// Solve A x = b via two triangular solves.
  Vector solve(const Vector& b) const;

  /// Solve L y = b (forward substitution).
  Vector solveLower(const Vector& b) const;
  /// solveLower into caller storage: @p y is resized to dim() only when its
  /// size differs, so a scratch vector reused across calls allocates once.
  /// @p y must not alias @p b.
  void solveLowerInto(const Vector& b, Vector& y) const;

  /// Solve Lᵀ x = y (backward substitution).
  Vector solveUpper(const Vector& y) const;

  /// log|A| = 2·Σ log L_ii — used directly in the GP marginal likelihood.
  double logDet() const;

  /// Explicit A⁻¹, bit-for-bit equal to solve(e_c) for every column c.
  ///
  /// All n right-hand sides are solved at once on one row-major buffer: a
  /// forward pass L·Y = I, then an in-place backward pass Lᵀ·X = Y. The
  /// innermost loop runs over the columns, so the n independent solves
  /// overlap instead of each being one serial dependency chain, and every
  /// entry still sees the single-column loop's operations in the same
  /// order. The forward pass skips the terms that meet a structural zero
  /// of I; they would subtract ±0 from a +0 (or 1) accumulator, which
  /// leaves it unchanged.
  Matrix inverse() const;

  const Matrix& lower() const { return l_; }
  std::size_t dim() const { return l_.rows(); }
  /// Jitter that was actually added to the diagonal (0 for factor()).
  double jitterUsed() const { return jitter_; }

 private:
  Cholesky(Matrix l, double jitter) : l_(std::move(l)), jitter_(jitter) {}
  /// Attempt the factorization; returns false on a non-positive pivot.
  static bool tryFactor(const Matrix& a, double jitter, Matrix& l_out);

  Matrix l_;
  double jitter_ = 0.0;
};

}  // namespace mfbo::linalg
