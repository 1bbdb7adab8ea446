#include "opt/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "par/parallel.hpp"

namespace lens::opt {

namespace {
// One coordinate's term of each statistic, summed from 0.0 in ascending
// coordinate order. Hamming terms are 0.0 or 1.0, so its double sum is the
// exact count.
struct SquaredDistanceTerm {
  static double term(double a, double b) {
    const double d = a - b;
    return d * d;
  }
};
struct HammingTerm {
  static double term(double a, double b) { return std::abs(a - b) > 1e-9 ? 1.0 : 0.0; }
};

// statistic(xs[i], z) for every row, four rows per feature pass. Each row
// keeps its own accumulator in ascending feature order, so every lane is
// the scalar statistic bit for bit; the four independent chains are what
// the compiler vectorizes.
template <typename Term>
void statistic_row(const std::vector<std::vector<double>>& xs, const std::vector<double>& z,
                   double* out) {
  const std::size_t n = xs.size();
  const std::size_t dim = z.size();
  for (const std::vector<double>& row : xs) {
    if (row.size() != dim) throw std::invalid_argument("kernel: dimension mismatch");
  }
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = xs[i].data();
    const double* r1 = xs[i + 1].data();
    const double* r2 = xs[i + 2].data();
    const double* r3 = xs[i + 3].data();
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t f = 0; f < dim; ++f) {
      const double zf = z[f];
      a0 += Term::term(r0[f], zf);
      a1 += Term::term(r1[f], zf);
      a2 += Term::term(r2[f], zf);
      a3 += Term::term(r3[f], zf);
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < n; ++i) {
    double a = 0.0;
    for (std::size_t f = 0; f < dim; ++f) a += Term::term(xs[i][f], z[f]);
    out[i] = a;
  }
}

void statistic_row(PairStatistic statistic, const std::vector<std::vector<double>>& xs,
                   const std::vector<double>& z, double* out) {
  if (statistic == PairStatistic::kHammingCount) {
    statistic_row<HammingTerm>(xs, z, out);
  } else {
    statistic_row<SquaredDistanceTerm>(xs, z, out);
  }
}
}  // namespace

std::size_t hamming_distance(const std::vector<double>& x, const std::vector<double>& y,
                             double tolerance) {
  if (x.size() != y.size()) throw std::invalid_argument("hamming_distance: size mismatch");
  std::size_t count = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i] - y[i]) > tolerance) ++count;
  }
  return count;
}

double squared_distance(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("squared_distance: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += SquaredDistanceTerm::term(x[i], y[i]);
  return acc;
}

Matrix pair_statistics(PairStatistic statistic, const std::vector<std::vector<double>>& xs,
                       const std::vector<std::vector<double>>& queries) {
  Matrix out;
  pair_statistics(statistic, xs, queries, out);
  return out;
}

void pair_statistics(PairStatistic statistic, const std::vector<std::vector<double>>& xs,
                     const std::vector<std::vector<double>>& queries, Matrix& out) {
  out.assign(queries.size(), xs.size());
  if (xs.empty()) return;
  par::parallel_for(queries.size(), [&](std::size_t q) {
    statistic_row(statistic, xs, queries[q], &out(q, 0));
  });
}

Kernel::Kernel(KernelFamily family, double signal_variance, double length_scale)
    : family_(family), signal_variance_(signal_variance), length_scale_(length_scale) {
  if (family != KernelFamily::kRbf && family != KernelFamily::kMatern52 &&
      family != KernelFamily::kHamming) {
    throw std::invalid_argument("kernel: unknown family");
  }
  if (signal_variance <= 0.0 || length_scale <= 0.0) {
    throw std::invalid_argument("kernel: hyper-parameters must be positive");
  }
}

void Kernel::values(const double* statistics, std::size_t count, std::size_t dim,
                    double* out) const {
  switch (family_) {
    case KernelFamily::kRbf: {
      const double ll = length_scale_ * length_scale_;
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = signal_variance_ * std::exp(-0.5 * statistics[i] / ll);
      }
      return;
    }
    case KernelFamily::kMatern52:
      for (std::size_t i = 0; i < count; ++i) {
        const double r = std::sqrt(statistics[i]);
        const double s = std::sqrt(5.0) * r / length_scale_;
        out[i] = signal_variance_ * (1.0 + s + s * s / 3.0) * std::exp(-s);
      }
      return;
    case KernelFamily::kHamming: {
      const double denom = length_scale_ * std::max(static_cast<double>(dim), 1.0);
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = signal_variance_ * std::exp(-statistics[i] / denom);
      }
      return;
    }
  }
}

double Kernel::operator()(const std::vector<double>& x, const std::vector<double>& y) const {
  const double s = statistic() == PairStatistic::kHammingCount
                       ? static_cast<double>(hamming_distance(x, y))
                       : squared_distance(x, y);
  double k = 0.0;
  values(&s, 1, x.size(), &k);
  return k;
}

Matrix Kernel::gram(const std::vector<std::vector<double>>& xs) const {
  Matrix k;
  gram(pair_statistics(statistic(), xs, xs), xs.empty() ? 0 : xs.front().size(), k);
  return k;
}

void Kernel::gram(const Matrix& statistics, std::size_t dim, Matrix& out) const {
  const std::size_t n = statistics.rows();
  out.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    values(statistics.row_data(i), i + 1, dim, &out(i, 0));
    for (std::size_t j = 0; j < i; ++j) out(j, i) = out(i, j);
  }
}

std::vector<double> Kernel::cross(const std::vector<std::vector<double>>& xs,
                                  const std::vector<double>& z) const {
  std::vector<double> out(xs.size());
  cross_into(xs, z, out.data());
  return out;
}

void Kernel::cross_into(const std::vector<std::vector<double>>& xs,
                        const std::vector<double>& z, double* out) const {
  statistic_row(statistic(), xs, z, out);
  values(out, xs.size(), z.size(), out);
}

Kernel::GramRow Kernel::gram_row(const std::vector<std::vector<double>>& xs,
                                 const std::vector<double>& z) const {
  return {cross(xs, z), (*this)(z, z)};
}

}  // namespace lens::opt
