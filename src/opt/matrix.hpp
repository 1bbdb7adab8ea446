#pragma once
// Small dense linear-algebra kernel used by the Gaussian-process layer.
//
// This is deliberately minimal: row-major double matrices, the handful of
// operations a GP needs (products, Cholesky factorization, triangular
// solves), and nothing else. All sizes are checked; violations throw
// std::invalid_argument so caller bugs surface immediately.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "opt/lanes.hpp"

namespace lens::opt {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Create a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Create from nested initializer-style data; all rows must be equal length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Checked element access.
  double at(std::size_t r, std::size_t c) const;

  const std::vector<double>& data() const { return data_; }

  /// Row r as cols() contiguous doubles.
  const double* row_data(std::size_t r) const { return data_.data() + r * cols_; }

  /// Matrix product this * rhs.
  Matrix multiply(const Matrix& rhs) const;

  /// Matrix-vector product this * v.
  std::vector<double> multiply(const std::vector<double>& v) const;

  /// Transpose.
  Matrix transposed() const;

  /// Reshape to rows x cols with every entry `fill`, reusing the storage.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Make room for `entries` entries: no assign() up to that size allocates.
  void reserve(std::size_t entries) { data_.reserve(entries); }

  /// Add `value` to every diagonal element (jitter / ridge term).
  void add_diagonal(double value);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor L of a symmetric positive-definite A
/// (A = L L^T), stored packed (row i holds i+1 doubles) so appending a row
/// moves O(n) memory instead of reallocating a dense square.
///
/// The incremental entry point is extend(): given the cross-covariance row
/// a(n, 0..n-1) and the diagonal a(n, n) of a bordered matrix
///
///     A' = [ A    r ]
///          [ r^T  d ]
///
/// it appends row n to L in O(n^2) via one forward substitution,
///
///     L'(n, 0..n-1) = L^{-1} r,   L'(n, n) = sqrt(d - ||L'(n, :)||^2),
///
/// producing *exactly* the floats a full factorize(A') would. Every entry,
/// on either path, is one chain: L(i, j) starts from a(i, j), subtracts
/// L(j, t) * L(i, t) in ascending t < j and divides by L(j, j); the pivot
/// starts from a(i, i) and subtracts L(i, t)^2 in ascending t. factorize()
/// settles four rows at a time (one solve_lower_many() against the settled
/// factor, then the in-block entries and pivots in ascending order), which
/// keeps every chain and so matches n successive extends bit for bit. This
/// is what makes the GP layer's incremental appends and a checkpoint
/// restore's frozen-hyper refit agree bit for bit (see DESIGN.md "Posterior
/// maintenance").
class CholeskyFactor {
 public:
  CholeskyFactor() = default;

  /// Full factorization of a square SPD matrix (only the lower triangle of
  /// `a` is read). Throws std::invalid_argument when `a` is not square,
  /// std::domain_error at the first row whose pivot is not positive and
  /// finite (the matrix is not numerically positive definite).
  static CholeskyFactor factorize(const Matrix& a);

  /// factorize() into this factor's storage, reusing its capacity: the same
  /// floats, and no allocation once the capacity suffices. Throws as
  /// factorize() does, leaving the factor empty.
  void refactorize(const Matrix& a);

  /// Bordered-block append: grow the factor from n x n to (n+1) x (n+1).
  /// `cross_row` is a(n, 0..n-1) (size must equal size()), `diag` is a(n,n).
  /// O(n^2). Throws std::domain_error when the new pivot is not positive
  /// (the bordered matrix is not positive definite); the factor is left
  /// unchanged in that case.
  void extend(const std::vector<double>& cross_row, double diag);

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Make room for an n x n factor: no refactorize() or extend() up to that
  /// size allocates.
  void reserve(std::size_t n) { data_.reserve(n * (n + 1) / 2); }

  /// Lower-triangular element L(i, j); zero above the diagonal.
  double at(std::size_t i, std::size_t j) const;

  /// Solve L x = b (forward substitution), O(n^2): solve_lower_many() with
  /// one right-hand side.
  std::vector<double> solve_lower(const std::vector<double>& b) const;

  /// Solve L x_q = b_q in place for `count` right-hand sides stored as
  /// columns: entry t of right-hand side q is b[t * ld + q] (ld >= count).
  /// The sweep takes four right-hand sides at a time over 4-row panels of
  /// L: the panel's partial sums over the settled prefix are 4 x 4
  /// independent accumulator chains (side-by-side right-hand sides share a
  /// DoublePair), then a 4 x 4 triangle finishes them. Every x_q[i] is the
  /// textbook row-oriented chain — b_q[i] minus L(i, t) * x_q[t] in
  /// ascending t, then one divide by L(i, i) — so each column is
  /// bit-identical to solve_lower() of that column alone.
  void solve_lower_many(double* b, std::size_t ld, std::size_t count) const;

  /// acc[i] += L(i, j) * z[j] for j = 0..i, one term at a time in ascending
  /// j: the mean + L z of a posterior draw when acc holds the mean. Both
  /// sizes must equal size().
  void add_lower_product(const std::vector<double>& z, std::vector<double>& acc) const;

  /// Solve L^T x = b (back substitution), O(n^2).
  std::vector<double> solve_lower_transpose(const std::vector<double>& b) const;

  /// Solve A x = b where A = L L^T, O(n^2).
  std::vector<double> solve(const std::vector<double>& b) const;

  /// log(det(A)) = 2 * sum(log(L_ii)).
  double log_det() const;

  /// Dense lower-triangular copy (tests / interop with Matrix consumers).
  Matrix dense() const;

 private:
  double& el(std::size_t i, std::size_t j) { return data_[i * (i + 1) / 2 + j]; }
  double el(std::size_t i, std::size_t j) const { return data_[i * (i + 1) / 2 + j]; }
  /// Settle rows [n_, n_ + R) of `a` into the factor (the rows' storage is
  /// already allocated); throws at the first non-positive pivot.
  template <std::size_t R>
  void settle_rows(const Matrix& a);
  /// solve_lower_many() for exactly R right-hand sides, on the selected
  /// lane variant when R is 4.
  template <std::size_t R>
  void solve_lower_group(double* b, std::size_t ld) const;

  std::size_t n_ = 0;
  std::vector<double> data_;  // packed rows: row i at offset i(i+1)/2, length i+1
};

/// Dot product; sizes must match.
double dot(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace lens::opt
