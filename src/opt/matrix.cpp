#include "opt/matrix.hpp"

#include <cmath>
#include <type_traits>

namespace lens::opt {

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  const std::size_t cols = rows.front().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != cols) {
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    }
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at: index out of range");
  return (*this)(r, c);
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix::multiply: shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aik * rhs(k, j);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::multiply(const std::vector<double>& v) const {
  if (cols_ != v.size()) throw std::invalid_argument("Matrix::multiply(vec): shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

void Matrix::add_diagonal(double value) {
  const std::size_t n = rows_ < cols_ ? rows_ : cols_;
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

namespace {
template <typename Lanes>
constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(double);

// Lanes [W h, W h + W) of a row of R right-hand sides (W lanes per vector);
// a lane past R reads as 0.0 and is never stored back.
template <typename Lanes, std::size_t R>
[[gnu::always_inline]] inline void load_row(Lanes& v, const double* row, std::size_t h) {
  constexpr std::size_t W = kLanes<Lanes>;
  if (W * h + W <= R) {
    load_lanes(v, row + W * h);
  } else {
    v = Lanes{};
    for (std::size_t l = 0; W * h + l < R; ++l) v[l] = row[W * h + l];
  }
}

template <typename Lanes, std::size_t R>
[[gnu::always_inline]] inline void store_row(double* row, std::size_t h, const Lanes& v) {
  constexpr std::size_t W = kLanes<Lanes>;
  if (W * h + W <= R) {
    store_lanes(row + W * h, v);
  } else {
    for (std::size_t l = 0; W * h + l < R; ++l) row[W * h + l] = v[l];
  }
}

// Forward substitution of R right-hand sides (entry t of side q at
// b[t * ld + q]) against the packed n x n factor `data`. 4-row panels: each
// (row, right-hand side) pair is its own accumulator chain over the settled
// prefix x[0..i), subtracting in ascending t exactly as the row-oriented
// loop; the right-hand sides of one row sit side by side, W per vector. The
// 4x4 triangle then finishes each chain in ascending t before its divide.
// Inlined into each variant below, so it compiles for that variant's ISA.
template <typename Lanes, std::size_t R>
[[gnu::always_inline]] inline void solve_lower_group_body(const double* data, std::size_t n,
                                                          double* b, std::size_t ld) {
  constexpr std::size_t kVectors = (R + kLanes<Lanes> - 1) / kLanes<Lanes>;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* l[4] = {&data[i * (i + 1) / 2], &data[(i + 1) * (i + 2) / 2],
                          &data[(i + 2) * (i + 3) / 2], &data[(i + 3) * (i + 4) / 2]};
    Lanes acc[4][kVectors];
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t h = 0; h < kVectors; ++h) {
        load_row<Lanes, R>(acc[p][h], b + (i + p) * ld, h);
      }
    }
    for (std::size_t t = 0; t < i; ++t) {
      Lanes x[kVectors];
      for (std::size_t h = 0; h < kVectors; ++h) load_row<Lanes, R>(x[h], b + t * ld, h);
      for (std::size_t p = 0; p < 4; ++p) {
        for (std::size_t h = 0; h < kVectors; ++h) acc[p][h] -= l[p][t] * x[h];
      }
    }
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t s = 0; s < p; ++s) {
        for (std::size_t h = 0; h < kVectors; ++h) {
          Lanes x;
          load_row<Lanes, R>(x, b + (i + s) * ld, h);
          acc[p][h] -= l[p][i + s] * x;
        }
      }
      for (std::size_t h = 0; h < kVectors; ++h) {
        store_row<Lanes, R>(b + (i + p) * ld, h, acc[p][h] / l[p][i + p]);
      }
    }
  }
  for (; i < n; ++i) {
    const double* l = &data[i * (i + 1) / 2];
    Lanes acc[kVectors];
    for (std::size_t h = 0; h < kVectors; ++h) load_row<Lanes, R>(acc[h], b + i * ld, h);
    for (std::size_t t = 0; t < i; ++t) {
      for (std::size_t h = 0; h < kVectors; ++h) {
        Lanes x;
        load_row<Lanes, R>(x, b + t * ld, h);
        acc[h] -= l[t] * x;
      }
    }
    for (std::size_t h = 0; h < kVectors; ++h) {
      store_row<Lanes, R>(b + i * ld, h, acc[h] / l[i]);
    }
  }
}

template <std::size_t R>
void solve_lower_group_two_lane(const double* data, std::size_t n, double* b, std::size_t ld) {
  solve_lower_group_body<DoublePair, R>(data, n, b, ld);
}

#if LENS_FOUR_LANE_AVX2
[[gnu::target("avx2")]] void solve_lower_group_four_lane(const double* data, std::size_t n,
                                                         double* b, std::size_t ld) {
  solve_lower_group_body<DoubleQuad, 4>(data, n, b, ld);
}
#endif

// Calls fn(std::integral_constant<std::size_t, R>{}) with R = min(width, 4),
// so the four-wide kernels are also compiled for every tail width.
template <typename Fn>
void with_width(std::size_t width, Fn&& fn) {
  switch (width) {
    case 1: fn(std::integral_constant<std::size_t, 1>{}); break;
    case 2: fn(std::integral_constant<std::size_t, 2>{}); break;
    case 3: fn(std::integral_constant<std::size_t, 3>{}); break;
    default: fn(std::integral_constant<std::size_t, 4>{}); break;
  }
}
}  // namespace

CholeskyFactor CholeskyFactor::factorize(const Matrix& a) {
  CholeskyFactor f;
  f.refactorize(a);
  return f;
}

void CholeskyFactor::refactorize(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("CholeskyFactor::factorize: matrix not square");
  }
  n_ = 0;
  data_.resize(a.rows() * (a.rows() + 1) / 2);
  try {
    while (n_ < a.rows()) {
      with_width(a.rows() - n_, [&](auto rows) { settle_rows<decltype(rows)::value>(a); });
    }
  } catch (const std::domain_error&) {
    n_ = 0;
    data_.clear();
    throw;
  }
}

template <std::size_t R>
void CholeskyFactor::settle_rows(const Matrix& a) {
  const std::size_t i0 = n_;
  // Columns [0, i0): right-hand side q is a(i0 + q, 0..i0), solved against
  // the settled factor — exactly the forward substitution extend() runs.
  std::vector<double> panel(i0 * R);
  for (std::size_t t = 0; t < i0; ++t) {
    for (std::size_t q = 0; q < R; ++q) panel[t * R + q] = a(i0 + q, t);
  }
  solve_lower_group<R>(panel.data(), R);
  for (std::size_t q = 0; q < R; ++q) {
    for (std::size_t t = 0; t < i0; ++t) el(i0 + q, t) = panel[t * R + q];
  }
  // In-block entries L(i0+q, i0+p), p < q, and the pivots (p == q): their
  // sums over the settled columns are independent chains, run in one pass;
  // each then continues over the block's own columns in ascending order.
  double acc[R][R] = {};
  for (std::size_t q = 0; q < R; ++q) {
    for (std::size_t p = 0; p <= q; ++p) acc[q][p] = a(i0 + q, i0 + p);
  }
  for (std::size_t t = 0; t < i0; ++t) {
    for (std::size_t q = 0; q < R; ++q) {
      for (std::size_t p = 0; p <= q; ++p) acc[q][p] -= el(i0 + p, t) * el(i0 + q, t);
    }
  }
  for (std::size_t q = 0; q < R; ++q) {
    const std::size_t r = i0 + q;
    for (std::size_t p = 0; p < q; ++p) {
      const std::size_t j = i0 + p;
      for (std::size_t t = i0; t < j; ++t) acc[q][p] -= el(j, t) * el(r, t);
      el(r, j) = acc[q][p] / el(j, j);
    }
    for (std::size_t t = i0; t < r; ++t) acc[q][q] -= el(r, t) * el(r, t);
    if (acc[q][q] <= 0.0 || !std::isfinite(acc[q][q])) {
      throw std::domain_error("cholesky: matrix not positive definite");
    }
    el(r, r) = std::sqrt(acc[q][q]);
  }
  n_ += R;
}

void CholeskyFactor::extend(const std::vector<double>& cross_row, double diag) {
  if (cross_row.size() != n_) {
    throw std::invalid_argument("CholeskyFactor::extend: cross_row size mismatch");
  }
  // Forward substitution against the existing factor yields the new
  // off-diagonal row; it performs the identical multiply/subtract/divide
  // sequence the full column-wise algorithm would for row n_.
  std::vector<double> row = solve_lower(cross_row);
  double pivot = diag;
  for (std::size_t k = 0; k < n_; ++k) pivot -= row[k] * row[k];
  if (pivot <= 0.0 || !std::isfinite(pivot)) {
    throw std::domain_error("cholesky: matrix not positive definite");
  }
  data_.insert(data_.end(), row.begin(), row.end());
  data_.push_back(std::sqrt(pivot));
  ++n_;
}

double CholeskyFactor::at(std::size_t i, std::size_t j) const {
  if (i >= n_ || j >= n_) throw std::out_of_range("CholeskyFactor::at: index out of range");
  return j <= i ? el(i, j) : 0.0;
}

std::vector<double> CholeskyFactor::solve_lower(const std::vector<double>& b) const {
  if (b.size() != n_) throw std::invalid_argument("CholeskyFactor::solve_lower: size mismatch");
  std::vector<double> x = b;
  solve_lower_many(x.data(), 1, 1);
  return x;
}

void CholeskyFactor::solve_lower_many(double* b, std::size_t ld, std::size_t count) const {
  if (ld < count) {
    throw std::invalid_argument("CholeskyFactor::solve_lower_many: ld smaller than count");
  }
  for (std::size_t q = 0; q < count; q += 4) {
    with_width(count - q,
               [&](auto width) { solve_lower_group<decltype(width)::value>(b + q, ld); });
  }
}

template <std::size_t R>
void CholeskyFactor::solve_lower_group(double* b, std::size_t ld) const {
#if LENS_FOUR_LANE_AVX2
  if (R == 4 && lane_variant() == LaneVariant::kFourLaneAvx2) {
    solve_lower_group_four_lane(data_.data(), n_, b, ld);
    return;
  }
#endif
  solve_lower_group_two_lane<R>(data_.data(), n_, b, ld);
}

void CholeskyFactor::add_lower_product(const std::vector<double>& z,
                                       std::vector<double>& acc) const {
  if (z.size() != n_ || acc.size() != n_) {
    throw std::invalid_argument("CholeskyFactor::add_lower_product: size mismatch");
  }
  const double* l = data_.data();
  for (std::size_t i = 0; i < n_; ++i, l += i) {
    double sum = acc[i];
    for (std::size_t j = 0; j <= i; ++j) sum += l[j] * z[j];
    acc[i] = sum;
  }
}

std::vector<double> CholeskyFactor::solve_lower_transpose(const std::vector<double>& b) const {
  if (b.size() != n_) {
    throw std::invalid_argument("CholeskyFactor::solve_lower_transpose: size mismatch");
  }
  std::vector<double> x(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= el(j, ii) * x[j];
    x[ii] = acc / el(ii, ii);
  }
  return x;
}

std::vector<double> CholeskyFactor::solve(const std::vector<double>& b) const {
  return solve_lower_transpose(solve_lower(b));
}

double CholeskyFactor::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < n_; ++i) acc += std::log(el(i, i));
  return 2.0 * acc;
}

Matrix CholeskyFactor::dense() const {
  Matrix out(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) out(i, j) = el(i, j);
  }
  return out;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace lens::opt
