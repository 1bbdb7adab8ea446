#pragma once
// Covariance kernels for Gaussian-process regression.
//
// Kernels operate on real vectors (here: [0,1]-normalized architecture
// genotypes or scaled feature vectors). Every family is a function of one
// pair statistic that has no hyper-parameters — the squared Euclidean
// distance (RBF, Matern-5/2) or the count of differing coordinates
// (Hamming) — so one statistic matrix serves every (signal_variance,
// length_scale) setting GaussianProcess tunes by marginal likelihood.

#include <cstddef>
#include <vector>

#include "opt/matrix.hpp"

namespace lens::opt {

/// The hyper-parameter-free pair statistic a kernel family is a function of.
enum class PairStatistic { kSquaredDistance, kHammingCount };

/// S(q, i) = statistic(xs[i], queries[q]): a queries.size() x xs.size()
/// matrix. Rows run in parallel, each as a blocked sweep of four rows of
/// `xs` per feature pass whose accumulators keep the scalar order, so every
/// entry equals squared_distance() / hamming_distance() bit for bit (the
/// statistic is symmetric in its two points). Throws std::invalid_argument
/// when a row of `xs` and a query differ in dimension.
Matrix pair_statistics(PairStatistic statistic, const std::vector<std::vector<double>>& xs,
                       const std::vector<std::vector<double>>& queries);

/// pair_statistics() into `out`, reusing its storage.
void pair_statistics(PairStatistic statistic, const std::vector<std::vector<double>>& xs,
                     const std::vector<std::vector<double>>& queries, Matrix& out);

/// Kernel family selector.
///   kRbf:      k = s^2 * exp(-r^2 / (2 l^2))
///   kMatern52: k = s^2 * (1 + sqrt(5) r / l + 5 r^2 / (3 l^2)) * exp(-sqrt(5) r / l),
///              the default for architecture-distance modelling (less smooth
///              than RBF, which suits discrete genotype spaces better)
///   kHamming:  k = s^2 * exp(-H / (l * d)), where H is the count of
///              coordinates differing by more than 1e-9 and d the dimension;
///              for genotype coordinates that are categories (kernel size,
///              filter count index) rather than points on a metric axis
/// with r the Euclidean distance, s^2 the signal variance and l the length
/// scale.
enum class KernelFamily { kRbf, kMatern52, kHamming };

/// A positive-definite covariance kernel k(x, y): one family's formula at
/// one (signal variance, length scale) setting.
class Kernel {
 public:
  /// Throws std::invalid_argument on an unknown family or a non-positive
  /// hyper-parameter.
  Kernel(KernelFamily family, double signal_variance, double length_scale);

  /// The pair statistic this kernel is a function of.
  PairStatistic statistic() const {
    return family_ == KernelFamily::kHamming ? PairStatistic::kHammingCount
                                             : PairStatistic::kSquaredDistance;
  }

  /// The family's formula: out[i] = k as a function of statistics[i], the
  /// pair statistic of two `dim`-dimensional points. operator(), gram(),
  /// cross_into() and gram_row() all evaluate the kernel through here. Each
  /// statistics[i] is read before out[i] is written, so it may run in place.
  void values(const double* statistics, std::size_t count, std::size_t dim,
              double* out) const;

  /// Covariance between two points.
  double operator()(const std::vector<double>& x, const std::vector<double>& y) const;

  /// Signal variance k(x, x).
  double variance() const { return signal_variance_; }
  double signal_variance() const { return signal_variance_; }
  double length_scale() const { return length_scale_; }

  /// Gram matrix K where K_ij = k(X_i, X_j).
  Matrix gram(const std::vector<std::vector<double>>& xs) const;

  /// Gram matrix from a symmetric statistic matrix of `dim`-dimensional
  /// points (pair_statistics(statistic(), xs, xs)) into `out`, reusing its
  /// storage: K_ij = k(S_ij). Each lower-triangle entry is evaluated once
  /// and mirrored.
  void gram(const Matrix& statistics, std::size_t dim, Matrix& out) const;

  /// Cross-covariance vector k(X_i, z) for all rows of X.
  std::vector<double> cross(const std::vector<std::vector<double>>& xs,
                            const std::vector<double>& z) const;

  /// Write k(X_i, z) into out[0..xs.size()): the blocked statistic sweep of
  /// pair_statistics() for one query, then values().
  void cross_into(const std::vector<std::vector<double>>& xs, const std::vector<double>& z,
                  double* out) const;

  /// One bordered Gram row: the cross-covariances against the existing
  /// points plus the self-covariance k(z, z). Appending a point to a
  /// factorized Gram matrix needs exactly this O(n·d) row — not the full
  /// O(n^2·d) gram() — and every entry goes through the same values() the
  /// full Gram uses, so incremental and full factorizations see
  /// bit-identical entries.
  struct GramRow {
    std::vector<double> cross;  ///< k(X_i, z) for every existing row
    double self = 0.0;          ///< k(z, z)
  };
  GramRow gram_row(const std::vector<std::vector<double>>& xs,
                   const std::vector<double>& z) const;

 private:
  KernelFamily family_;
  double signal_variance_;
  double length_scale_;
};

/// Squared Euclidean distance between two equal-length vectors.
double squared_distance(const std::vector<double>& x, const std::vector<double>& y);

/// Count of coordinates differing by more than `tolerance`.
std::size_t hamming_distance(const std::vector<double>& x, const std::vector<double>& y,
                             double tolerance = 1e-9);

}  // namespace lens::opt
