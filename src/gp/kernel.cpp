#include "gp/kernel.h"

#include <cmath>

#include "common/check.h"

namespace mfbo::gp {

Matrix Kernel::gram(const std::vector<Vector>& x) const {
  const std::size_t n = x.size();
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = eval(x[i], x[j]);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

Vector Kernel::cross(const std::vector<Vector>& x,
                     const Vector& x_star) const {
  Vector out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = eval(x_star, x[i]);
  return out;
}

// ------------------------------------------------------------- SeArdKernel

SeArdKernel::SeArdKernel(std::size_t dim, double sigma_f, double lengthscale)
    : dim_(dim),
      log_sigma_f_(std::log(sigma_f)),
      scales_(2 * dim, std::log(lengthscale)) {
  MFBO_CHECK(dim >= 1, "dim must be >= 1");
  MFBO_CHECK(sigma_f > 0.0 && lengthscale > 0.0,
             "scales must be positive, got sigma_f=", sigma_f,
             " lengthscale=", lengthscale);
  refreshInverseScales();
}

void SeArdKernel::refreshInverseScales() {
  for (std::size_t i = 0; i < dim_; ++i)
    scales_[dim_ + i] = std::exp(-scales_[i]);
}

Vector SeArdKernel::params() const {
  Vector p(numParams());
  p[0] = log_sigma_f_;
  for (std::size_t i = 0; i < dim_; ++i) p[1 + i] = logL()[i];
  return p;
}

void SeArdKernel::setParams(const Vector& p) {
  MFBO_CHECK(p.size() == numParams(), "got ", p.size(), " params, expected ",
             numParams());
  log_sigma_f_ = p[0];
  for (std::size_t i = 0; i < dim_; ++i) scales_[i] = p[1 + i];
  refreshInverseScales();
}

std::string SeArdKernel::paramName(std::size_t i) const {
  MFBO_CHECK(i < numParams(), "param index ", i, " out of range");
  if (i == 0) return "log_sigma_f";
  return "log_l" + std::to_string(i - 1);
}

double SeArdKernel::sigmaF() const { return std::exp(log_sigma_f_); }

double SeArdKernel::lengthscale(std::size_t i) const {
  MFBO_CHECK(i < dim_, "lengthscale index ", i, " out of range [0,", dim_,
             ")");
  return std::exp(logL()[i]);
}

double SeArdKernel::eval(const Vector& a, const Vector& b) const {
  MFBO_DCHECK(a.size() == inputDim() && b.size() == inputDim(),
              "input dim mismatch: ", a.size(), ", ", b.size(),
              " vs kernel dim ", inputDim());
  const double* inv_l = invL();
  double q = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    const double scaled = diff * inv_l[i];
    q += scaled * scaled;
  }
  return std::exp(2.0 * log_sigma_f_ - 0.5 * q);
}

void SeArdKernel::accumulateWeightedGrad(const std::vector<Vector>& x,
                                         const Matrix& w,
                                         Vector& grad) const {
  MFBO_CHECK(grad.size() == numParams(), "grad size ", grad.size(),
             " does not match param count ", numParams());
  MFBO_CHECK(w.rows() == x.size() && w.cols() == x.size(),
             "weight matrix is ", w.rows(), "x", w.cols(), ", expected ",
             x.size(), "x", x.size());
  const std::size_t n = x.size();
  const std::size_t d = dim_;
  std::vector<double> inv_l2(d);
  for (std::size_t i = 0; i < d; ++i) inv_l2[i] = std::exp(-2.0 * logL()[i]);
  std::vector<double> scaled_sq(d);
  double* g = grad.data();

  // Rows are read through raw pointers after one size check each (rows
  // j ≤ i were checked as row j). The q sum stays serial and in order;
  // the per-dimension update of g is element-wise.
  for (std::size_t i = 0; i < n; ++i) {
    MFBO_CHECK(x[i].size() == d, "input ", i, " has dim ", x[i].size(),
               ", expected ", d);
    const double* xi = x[i].data();
    for (std::size_t j = 0; j <= i; ++j) {
      const double* xj = x[j].data();
      double q = 0.0;
      for (std::size_t t = 0; t < d; ++t) {
        const double diff = xi[t] - xj[t];
        scaled_sq[t] = diff * diff * inv_l2[t];
        q += scaled_sq[t];
      }
      const double k = std::exp(2.0 * log_sigma_f_ - 0.5 * q);
      const double weight = (i == j) ? w(i, j) : 2.0 * w(i, j);
      // ∂k/∂log σ_f = 2k ; ∂k/∂log l_t = k · (Δ_t/l_t)². weight·k·s
      // evaluates as (weight·k)·s, so hoisting weight·k keeps the bits.
      g[0] += weight * 2.0 * k;
      const double wk = weight * k;
      for (std::size_t t = 0; t < d; ++t) g[1 + t] += wk * scaled_sq[t];
    }
  }
}

// ------------------------------------------------------------- NargpKernel

NargpKernel::NargpKernel(std::size_t x_dim)
    : x_dim_(x_dim),
      log_l_rho_(std::log(0.5)),
      inv_l_rho_(0.0),
      log_sf2_(std::log(1.0)),
      log_sf3_(std::log(0.3)),
      scales_(4 * x_dim, std::log(0.5)) {
  MFBO_CHECK(x_dim >= 1, "x_dim must be >= 1");
  refreshInverseScales();
}

void NargpKernel::refreshInverseScales() {
  inv_l_rho_ = std::exp(-log_l_rho_);
  for (std::size_t i = 0; i < 2 * x_dim_; ++i)
    scales_[2 * x_dim_ + i] = std::exp(-scales_[i]);
}

Vector NargpKernel::params() const {
  Vector p(numParams());
  std::size_t k = 0;
  p[k++] = log_l_rho_;
  p[k++] = log_sf2_;
  for (std::size_t i = 0; i < x_dim_; ++i) p[k++] = logL2()[i];
  p[k++] = log_sf3_;
  for (std::size_t i = 0; i < x_dim_; ++i) p[k++] = logL3()[i];
  return p;
}

void NargpKernel::setParams(const Vector& p) {
  MFBO_CHECK(p.size() == numParams(), "got ", p.size(), " params, expected ",
             numParams());
  std::size_t k = 0;
  log_l_rho_ = p[k++];
  log_sf2_ = p[k++];
  for (std::size_t i = 0; i < x_dim_; ++i) scales_[i] = p[k++];
  log_sf3_ = p[k++];
  for (std::size_t i = 0; i < x_dim_; ++i) scales_[x_dim_ + i] = p[k++];
  refreshInverseScales();
}

std::string NargpKernel::paramName(std::size_t i) const {
  MFBO_CHECK(i < numParams(), "param index ", i, " out of range");
  if (i == 0) return "log_l_rho";
  if (i == 1) return "log_sf2";
  if (i < 2 + x_dim_) return "log_l2_" + std::to_string(i - 2);
  if (i == 2 + x_dim_) return "log_sf3";
  return "log_l3_" + std::to_string(i - 3 - x_dim_);
}

NargpKernel::Parts NargpKernel::evalParts(const Vector& a,
                                          const Vector& b) const {
  MFBO_DCHECK(a.size() == inputDim() && b.size() == inputDim(),
              "input dim mismatch: ", a.size(), ", ", b.size(),
              " vs kernel dim ", inputDim());
  const double dy = a[x_dim_] - b[x_dim_];
  const double k1 = std::exp(-0.5 * dy * dy * inv_l_rho_ * inv_l_rho_);

  const double* inv_l2 = invL2();
  const double* inv_l3 = invL3();
  double q2 = 0.0, q3 = 0.0;
  for (std::size_t i = 0; i < x_dim_; ++i) {
    const double diff = a[i] - b[i];
    const double s2 = diff * inv_l2[i];
    const double s3 = diff * inv_l3[i];
    q2 += s2 * s2;
    q3 += s3 * s3;
  }
  const double k2 = std::exp(2.0 * log_sf2_ - 0.5 * q2);
  const double k3 = std::exp(2.0 * log_sf3_ - 0.5 * q3);
  return {k1, k2, k3};
}

double NargpKernel::k1Scalar(double y_a, double y_b) const {
  const double dy = (y_a - y_b) * inv_l_rho_;
  return std::exp(-0.5 * dy * dy);
}

void NargpKernel::crossXParts(const std::vector<Vector>& z,
                              const Vector& x_star, Vector& c2,
                              Vector& c3) const {
  MFBO_CHECK(x_star.size() >= x_dim_, "x_star dim ", x_star.size(),
             " smaller than x_dim ", x_dim_);
  const std::size_t n = z.size();
  // Every entry is overwritten below, so storage of the right size is
  // reused as is.
  if (c2.size() != n) c2 = Vector(n);
  if (c3.size() != n) c3 = Vector(n);
  const double* inv_l2 = invL2();
  const double* inv_l3 = invL3();
  for (std::size_t i = 0; i < n; ++i) {
    double q2 = 0.0, q3 = 0.0;
    for (std::size_t t = 0; t < x_dim_; ++t) {
      const double diff = x_star[t] - z[i][t];
      const double s2 = diff * inv_l2[t];
      const double s3 = diff * inv_l3[t];
      q2 += s2 * s2;
      q3 += s3 * s3;
    }
    c2[i] = std::exp(2.0 * log_sf2_ - 0.5 * q2);
    c3[i] = std::exp(2.0 * log_sf3_ - 0.5 * q3);
  }
}

double NargpKernel::selfVariance() const {
  return std::exp(2.0 * log_sf2_) + std::exp(2.0 * log_sf3_);
}

double NargpKernel::eval(const Vector& a, const Vector& b) const {
  const Parts p = evalParts(a, b);
  return p.k1 * p.k2 + p.k3;
}

void NargpKernel::accumulateWeightedGrad(const std::vector<Vector>& x,
                                         const Matrix& w,
                                         Vector& grad) const {
  MFBO_CHECK(grad.size() == numParams(), "grad size ", grad.size(),
             " does not match param count ", numParams());
  MFBO_CHECK(w.rows() == x.size() && w.cols() == x.size(),
             "weight matrix is ", w.rows(), "x", w.cols(), ", expected ",
             x.size(), "x", x.size());
  const std::size_t n = x.size();
  const double inv_lr2 = std::exp(-2.0 * log_l_rho_);
  std::vector<double> inv_l2_sq(x_dim_), inv_l3_sq(x_dim_);
  for (std::size_t i = 0; i < x_dim_; ++i) {
    inv_l2_sq[i] = std::exp(-2.0 * logL2()[i]);
    inv_l3_sq[i] = std::exp(-2.0 * logL3()[i]);
  }
  std::vector<double> s2(x_dim_), s3(x_dim_);
  const std::size_t d = x_dim_;
  double* g = grad.data();

  // Raw row pointers after one size check per row, as in SeArdKernel.
  for (std::size_t i = 0; i < n; ++i) {
    MFBO_CHECK(x[i].size() == d + 1, "input ", i, " has dim ", x[i].size(),
               ", expected ", d + 1);
    const double* xi = x[i].data();
    for (std::size_t j = 0; j <= i; ++j) {
      const double* xj = x[j].data();
      const double dy = xi[d] - xj[d];
      const double ry = dy * dy * inv_lr2;  // (Δy/l_ρ)²
      const double k1 = std::exp(-0.5 * ry);
      double q2 = 0.0, q3 = 0.0;
      for (std::size_t t = 0; t < d; ++t) {
        const double diff = xi[t] - xj[t];
        s2[t] = diff * diff * inv_l2_sq[t];
        s3[t] = diff * diff * inv_l3_sq[t];
        q2 += s2[t];
        q3 += s3[t];
      }
      const double k2 = std::exp(2.0 * log_sf2_ - 0.5 * q2);
      const double k3 = std::exp(2.0 * log_sf3_ - 0.5 * q3);
      const double weight = (i == j) ? w(i, j) : 2.0 * w(i, j);
      const double k12 = k1 * k2;
      const double wk12 = weight * k12;
      const double wk3 = weight * k3;

      g[0] += wk12 * ry;                        // ∂/∂log l_ρ
      g[1] += weight * 2.0 * k12;               // ∂/∂log σ_f2
      for (std::size_t t = 0; t < d; ++t)
        g[2 + t] += wk12 * s2[t];               // ∂/∂log l2_t
      g[2 + d] += weight * 2.0 * k3;            // ∂/∂log σ_f3
      for (std::size_t t = 0; t < d; ++t)
        g[3 + d + t] += wk3 * s3[t];            // ∂/∂log l3_t
    }
  }
}

}  // namespace mfbo::gp
