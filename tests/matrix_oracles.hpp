#pragma once
// Frozen scalar oracles for the blocked linear algebra in opt/matrix: the
// dense, textbook Cholesky factorization and triangular solves, the
// row-oriented forward substitution, and CholeskyFactor::factorize as n
// successive extends. The library's blocked kernels must reproduce these bit
// for bit; only tests call them.

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "opt/matrix.hpp"

namespace lens::opt::oracle {

/// Cholesky factorization A = L * L^T (column-oriented). Returns the dense
/// lower-triangular factor L. Throws std::domain_error when A is not
/// (numerically) positive definite.
inline Matrix cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: matrix not square");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      throw std::domain_error("cholesky: matrix not positive definite");
    }
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
  }
  return l;
}

/// Solve L * x = b where L is dense lower triangular (forward substitution).
inline std::vector<double> solve_lower(const Matrix& l, const std::vector<double>& b) {
  const std::size_t n = b.size();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l(i, j) * x[j];
    x[i] = acc / l(i, i);
  }
  return x;
}

/// Solve L^T * x = b where L is dense lower triangular (back substitution).
inline std::vector<double> solve_lower_transpose(const Matrix& l, const std::vector<double>& b) {
  const std::size_t n = b.size();
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l(j, ii) * x[j];
    x[ii] = acc / l(ii, ii);
  }
  return x;
}

/// Solve A * x = b from a dense Cholesky factor L of A.
inline std::vector<double> cholesky_solve(const Matrix& l, const std::vector<double>& b) {
  return solve_lower_transpose(l, solve_lower(l, b));
}

/// log(det(A)) from its dense Cholesky factor L: 2 * sum(log(L_ii)).
inline double log_det_from_cholesky(const Matrix& l) {
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

/// The scalar row-oriented forward substitution against a packed factor.
inline std::vector<double> solve_lower_reference(const CholeskyFactor& f,
                                                 const std::vector<double>& b) {
  std::vector<double> x(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= f.at(i, j) * x[j];
    x[i] = acc / f.at(i, i);
  }
  return x;
}

/// CholeskyFactor::factorize as n successive extends. Stops at the first
/// row whose extend throws and reports it in `failed_row` (a.rows() when
/// every row settles); the returned factor holds the rows before it.
inline CholeskyFactor factorize_by_extends(const Matrix& a, std::size_t& failed_row) {
  CholeskyFactor f;
  std::vector<double> row;
  for (failed_row = 0; failed_row < a.rows(); ++failed_row) {
    row.resize(failed_row);
    for (std::size_t j = 0; j < failed_row; ++j) row[j] = a(failed_row, j);
    try {
      f.extend(row, a(failed_row, failed_row));
    } catch (const std::domain_error&) {
      break;
    }
  }
  return f;
}

}  // namespace lens::opt::oracle
