// mfbo::gp — covariance functions.
//
// Two kernels cover the whole paper:
//  * SeArdKernel — the squared-exponential with per-dimension length scales
//    of eq. (2); used for every single-fidelity GP.
//  * NargpKernel — the nonlinear-fusion composite of eq. (9),
//    k_h(z, z') = k1(y_l, y_l')·k2(x, x') + k3(x, x'), evaluated on the
//    augmented input z = [x; f_l(x)].
//
// All hyperparameters live in log space so the trainer can optimize them
// unconstrained; gradients are with respect to the log parameters.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mfbo::gp {

using linalg::Matrix;
using linalg::Vector;

/// Abstract stationary covariance function with trainable log-parameters.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Dimensionality of the inputs this kernel accepts.
  virtual std::size_t inputDim() const = 0;
  /// Number of trainable (log-space) hyperparameters.
  virtual std::size_t numParams() const = 0;
  /// Current log-space hyperparameters.
  virtual Vector params() const = 0;
  /// Overwrite the log-space hyperparameters (size must match numParams()).
  virtual void setParams(const Vector& p) = 0;
  /// Human-readable name of parameter @p i (for diagnostics).
  virtual std::string paramName(std::size_t i) const = 0;

  /// Covariance k(a, b).
  virtual double eval(const Vector& a, const Vector& b) const = 0;

  /// Accumulate Σ_{ij} w_ij · ∂k(x_i, x_j)/∂θ into @p grad (size
  /// numParams()); w is symmetric. This is the contraction the exact NLML
  /// gradient needs: ∂NLML/∂θ = ½ tr(W · ∂K/∂θ) with W = K⁻¹ − ααᵀ.
  virtual void accumulateWeightedGrad(const std::vector<Vector>& x,
                                      const Matrix& w, Vector& grad) const = 0;

  /// Gram matrix K(X, X).
  Matrix gram(const std::vector<Vector>& x) const;
  /// Cross-covariances (k(x*, x_1), ..., k(x*, x_N)).
  Vector cross(const std::vector<Vector>& x, const Vector& x_star) const;

  virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Squared-exponential kernel with automatic relevance determination
/// (paper eq. 2): k(a,b) = σ_f² exp(−½ Σ_i (a_i−b_i)²/l_i²).
///
/// Parameters (log space): [log σ_f, log l_1, ..., log l_d].
///
/// The inverse length scales 1/l_i = exp(−log l_i) are cached next to the
/// log scales, refreshed by the constructor and setParams, so eval makes
/// no exp per dimension. Both halves share one buffer: a kernel copy (one
/// per NLML restart) allocates once. The gradient computes its own
/// exp(−2·log l_i), which is not the same double as (1/l_i)².
class SeArdKernel final : public Kernel {
 public:
  /// Unit signal variance and all length scales = @p lengthscale.
  explicit SeArdKernel(std::size_t dim, double sigma_f = 1.0,
                       double lengthscale = 0.5);

  std::size_t inputDim() const override { return dim_; }
  std::size_t numParams() const override { return 1 + dim_; }
  Vector params() const override;
  void setParams(const Vector& p) override;
  std::string paramName(std::size_t i) const override;

  double eval(const Vector& a, const Vector& b) const override;
  void accumulateWeightedGrad(const std::vector<Vector>& x, const Matrix& w,
                              Vector& grad) const override;

  double sigmaF() const;
  double lengthscale(std::size_t i) const;

  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<SeArdKernel>(*this);
  }

 private:
  /// Recompute the inverse half of scales_ from the log half.
  void refreshInverseScales();
  const double* logL() const { return scales_.data(); }
  const double* invL() const { return scales_.data() + dim_; }

  std::size_t dim_;
  double log_sigma_f_;
  std::vector<double> scales_;  // [log l_1..d | 1/l_1..d]
};

/// Nonlinear-fusion kernel of eq. (9) over augmented inputs z = [x; y_l]
/// (the low-fidelity posterior mean appended as the last coordinate):
///
///   k(z, z') = k1(y_l, y_l') · k2(x, x') + k3(x, x')
///
/// k1 is SE over the single y_l coordinate with unit variance (its scale
/// would be redundant with k2's σ_f); k2 and k3 are SE-ARD over x.
///
/// Parameters (log space):
///   [log l_ρ,  log σ_f2, log l2_1..d,  log σ_f3, log l3_1..d]
///
/// As in SeArdKernel, the inverse scales 1/l_ρ, 1/l2_i and 1/l3_i are
/// cached at construction and setParams, so eval, crossXParts and
/// k1Scalar make no exp per dimension or per MC sample. The l2/l3 log
/// scales and their inverses share one buffer (one allocation per copy);
/// the gradient keeps its own exp(−2·log l).
class NargpKernel final : public Kernel {
 public:
  /// @p x_dim is the dimensionality of the design variables (so inputDim()
  /// is x_dim + 1).
  explicit NargpKernel(std::size_t x_dim);

  std::size_t inputDim() const override { return x_dim_ + 1; }
  std::size_t numParams() const override { return 3 + 2 * x_dim_; }
  Vector params() const override;
  void setParams(const Vector& p) override;
  std::string paramName(std::size_t i) const override;

  double eval(const Vector& a, const Vector& b) const override;
  void accumulateWeightedGrad(const std::vector<Vector>& x, const Matrix& w,
                              Vector& grad) const override;

  std::size_t xDim() const { return x_dim_; }

  // Fast-path accessors for the NARGP Monte-Carlo prediction: the x-parts
  // k2/k3 of the cross-covariances are shared by every MC sample of y_l,
  // so the model computes them once and combines with k1 per sample.

  /// k1(y_a, y_b) — the 1-d SE factor over the y_l coordinate.
  double k1Scalar(double y_a, double y_b) const;
  /// Fill c2[i] = k2(x_star, z_i.x) and c3[i] = k3(x_star, z_i.x) for the
  /// augmented training inputs @p z (x_star has xDim() entries).
  void crossXParts(const std::vector<Vector>& z, const Vector& x_star,
                   Vector& c2, Vector& c3) const;
  /// k(z, z) for any augmented point: σ_f2² + σ_f3².
  double selfVariance() const;

  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<NargpKernel>(*this);
  }

 private:
  // Split of the composite evaluation used by both eval and the gradient.
  struct Parts {
    double k1, k2, k3;
  };
  Parts evalParts(const Vector& a, const Vector& b) const;

  /// Recompute inv_l_rho_ and the inverse half of scales_ from the logs.
  void refreshInverseScales();
  const double* logL2() const { return scales_.data(); }
  const double* logL3() const { return scales_.data() + x_dim_; }
  const double* invL2() const { return scales_.data() + 2 * x_dim_; }
  const double* invL3() const { return scales_.data() + 3 * x_dim_; }

  std::size_t x_dim_;
  double log_l_rho_;   // k1 length scale over y_l
  double inv_l_rho_;   // exp(−log_l_rho_)
  double log_sf2_;     // k2 signal std
  double log_sf3_;     // k3 signal std
  // [log l2_1..d | log l3_1..d | 1/l2_1..d | 1/l3_1..d]: k2 and k3 length
  // scales over x and their inverses.
  std::vector<double> scales_;
};

}  // namespace mfbo::gp
