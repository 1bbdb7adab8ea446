// Unit tests for kernels and Gaussian-process regression (opt/kernel, opt/gp).
//
// The oracle namespace below freezes the earlier scalar paths — a kernel
// evaluated per pair from its distance, the per-objective grid search over
// Gram matrices built by operator(), and the per-row posterior draw — so the
// shared-statistic grid search, the covariance tiles and the multi-RHS
// solves are pinned to them bit for bit.

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>

#include <gtest/gtest.h>

#include "lane_variants.hpp"
#include "matrix_oracles.hpp"
#include "opt/gp.hpp"
#include "opt/kernel.hpp"

namespace lens::opt {
namespace {

/// Bit-level double equality (stricter than ==: distinguishes ±0.0).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

namespace oracle {
using opt::oracle::cholesky;
using opt::oracle::cholesky_solve;
using opt::oracle::log_det_from_cholesky;
using opt::oracle::solve_lower;

/// k(x, y) of each family, evaluated from the pair's distance.
double kernel(KernelFamily family, double sv, double l, const std::vector<double>& x,
              const std::vector<double>& y) {
  if (family == KernelFamily::kHamming) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (std::abs(x[i] - y[i]) > 1e-9) ++count;
    }
    const double d = static_cast<double>(x.size());
    return sv * std::exp(-static_cast<double>(count) / (l * std::max(d, 1.0)));
  }
  double d2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    d2 += d * d;
  }
  if (family == KernelFamily::kRbf) return sv * std::exp(-0.5 * d2 / (l * l));
  const double s = std::sqrt(5.0) * std::sqrt(d2) / l;
  return sv * (1.0 + s + s * s / 3.0) * std::exp(-s);
}

/// Gram matrix by per-pair evaluation of the upper triangle, mirrored.
Matrix gram(KernelFamily family, double sv, double l, const std::vector<std::vector<double>>& xs) {
  Matrix k(xs.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = i; j < xs.size(); ++j) {
      k(i, j) = kernel(family, sv, l, xs[i], xs[j]);
      k(j, i) = k(i, j);
    }
  }
  return k;
}

/// A fitted model as the per-objective grid search left it.
struct Model {
  KernelFamily family = KernelFamily::kMatern52;
  GpHyperparameters hp;
  std::vector<std::vector<double>> x;
  double y_mean = 0.0;
  double y_std = 1.0;
  Matrix l;                   // dense Cholesky factor of K + (noise + 1e-9) I
  std::vector<double> alpha;
  double lml = 0.0;
};

/// Factor, alpha and LML of one hyper-parameter triple (lml = -inf when
/// the Gram matrix does not factorize or the LML is not finite).
void factor_and_score(Model& model, const std::vector<double>& y_normalized) {
  Matrix k = gram(model.family, model.hp.signal_variance, model.hp.length_scale, model.x);
  k.add_diagonal(model.hp.noise_variance + 1e-9);
  model.lml = -std::numeric_limits<double>::infinity();
  try {
    model.l = cholesky(k);
  } catch (const std::domain_error&) {
    return;
  }
  model.alpha = cholesky_solve(model.l, y_normalized);
  const double n = static_cast<double>(model.x.size());
  const double lml = -0.5 * dot(y_normalized, model.alpha) -
                     0.5 * log_det_from_cholesky(model.l) -
                     0.5 * n * std::log(2.0 * std::numbers::pi);
  if (std::isfinite(lml)) model.lml = lml;
}

/// One objective's fit: standardize, score the 72-point grid (or the
/// configured point), keep the first strict maximum, refit the winner.
Model fit(const GpConfig& config, const std::vector<std::vector<double>>& x,
          const std::vector<double>& y) {
  Model model;
  model.family = config.family;
  model.x = x;
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double var = 0.0;
  for (double v : y) var += (v - mean) * (v - mean);
  var /= static_cast<double>(y.size());
  model.y_mean = mean;
  model.y_std = var > 1e-12 ? std::sqrt(var) : 1.0;
  std::vector<double> y_normalized(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y_normalized[i] = (y[i] - mean) / model.y_std;

  std::vector<GpHyperparameters> grid;
  if (config.tune_hyperparameters) {
    for (double l : {0.1, 0.2, 0.4, 0.8, 1.6, 3.2}) {
      for (double s : {0.5, 1.0, 2.0}) {
        for (double n : {1e-4, 1e-3, 1e-2, 1e-1}) grid.push_back({s, l, n});
      }
    }
  } else {
    grid.push_back({config.signal_variance, config.length_scale, config.noise_variance});
  }
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_index = 0;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    model.hp = grid[g];
    factor_and_score(model, y_normalized);
    if (model.lml > best) {
      best = model.lml;
      best_index = g;
    }
  }
  if (!std::isfinite(best)) throw std::domain_error("oracle fit: no usable hyper-parameters");
  model.hp = grid[best_index];
  factor_and_score(model, y_normalized);
  return model;
}

/// Posterior mean and variance at one point.
GaussianProcess::Prediction predict(const Model& model, const std::vector<double>& q) {
  std::vector<double> k_star;
  for (const auto& xt : model.x) {
    k_star.push_back(kernel(model.family, model.hp.signal_variance, model.hp.length_scale, xt, q));
  }
  const std::vector<double> v = solve_lower(model.l, k_star);
  const double var_n = std::max(model.hp.signal_variance - dot(v, v), 1e-12);
  return {model.y_mean + model.y_std * dot(k_star, model.alpha),
          model.y_std * model.y_std * var_n};
}

/// The per-row posterior draw: cross-covariances and a forward solve per
/// query point, dot-product covariance rows, then the jittered factor.
std::vector<double> draw(const Model& model, const std::vector<std::vector<double>>& xs,
                         const std::vector<double>& z) {
  const std::size_t m = xs.size();
  const double sv = model.hp.signal_variance;
  const double l = model.hp.length_scale;
  std::vector<std::vector<double>> vs(m);
  std::vector<double> mean(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> k_star;
    for (const auto& xt : model.x) k_star.push_back(kernel(model.family, sv, l, xt, xs[i]));
    mean[i] = dot(k_star, model.alpha);
    vs[i] = solve_lower(model.l, k_star);
  }
  Matrix cov(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      cov(i, j) = kernel(model.family, sv, l, xs[i], xs[j]) - dot(vs[i], vs[j]);
      cov(j, i) = cov(i, j);
    }
  }
  Matrix factor;
  for (double jitter = 1e-8;;) {
    Matrix attempt = cov;
    attempt.add_diagonal(jitter);
    try {
      factor = cholesky(attempt);
      break;
    } catch (const std::domain_error&) {
      jitter *= 10.0;
      if (jitter > 1.0) throw;
    }
  }
  std::vector<double> out(m);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = mean[i];
    for (std::size_t j = 0; j <= i; ++j) acc += factor(i, j) * z[j];
    out[i] = model.y_mean + model.y_std * acc;
  }
  return out;
}

/// The prior draw of an unfitted model.
std::vector<double> prior_draw(const GpConfig& config, const std::vector<std::vector<double>>& xs,
                               const std::vector<double>& z) {
  Matrix k = gram(config.family, config.signal_variance, config.length_scale, xs);
  k.add_diagonal(1e-8);
  const Matrix factor = cholesky(k);
  std::vector<double> out(xs.size(), 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) out[i] += factor(i, j) * z[j];
  }
  return out;
}

/// m standard normals from a fresh distribution, as sample_at draws them.
std::vector<double> normals(std::size_t m, std::mt19937_64& rng) {
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> z(m);
  for (double& v : z) v = gauss(rng);
  return z;
}
}  // namespace oracle

TEST(Kernel, RbfBasicProperties) {
  const Kernel k(KernelFamily::kRbf, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(k({0.0}, {0.0}), 2.0);  // k(x,x) = signal variance
  EXPECT_DOUBLE_EQ(k.variance(), 2.0);
  // Symmetry and decay.
  EXPECT_DOUBLE_EQ(k({0.0}, {1.0}), k({1.0}, {0.0}));
  EXPECT_LT(k({0.0}, {1.0}), k({0.0}, {0.5}));
  // Known value: exp(-0.5 * 1 / 0.25) = exp(-2).
  EXPECT_NEAR(k({0.0}, {1.0}), 2.0 * std::exp(-2.0), 1e-12);
}

TEST(Kernel, Matern52BasicProperties) {
  const Kernel k(KernelFamily::kMatern52, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(k({0.0, 0.0}, {0.0, 0.0}), 1.0);
  EXPECT_GT(k({0.0}, {0.1}), k({0.0}, {0.5}));
  EXPECT_GT(k({0.0}, {0.5}), 0.0);
}

TEST(Kernel, RejectsNonPositiveHyperparameters) {
  EXPECT_THROW(Kernel(KernelFamily::kRbf, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Kernel(KernelFamily::kRbf, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Kernel(KernelFamily::kMatern52, -2.0, 1.0), std::invalid_argument);
}

TEST(Kernel, RejectsUnknownFamily) {
  const auto unknown = static_cast<KernelFamily>(7);
  EXPECT_THROW(Kernel(unknown, 1.0, 0.5), std::invalid_argument);
  GpConfig config;
  config.family = unknown;
  EXPECT_THROW(GaussianProcess{config}, std::invalid_argument);
}

TEST(Kernel, GramMatrixIsSymmetricWithVarianceDiagonal) {
  const Kernel k(KernelFamily::kMatern52, 1.5, 0.7);
  const std::vector<std::vector<double>> xs = {{0.0, 0.1}, {0.5, 0.5}, {0.9, 0.2}};
  const Matrix g = k.gram(xs);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(g(i, i), 1.5);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
  }
}

TEST(Kernel, SquaredDistanceMismatchThrows) {
  EXPECT_THROW(squared_distance({1.0}, {1.0, 2.0}), std::invalid_argument);
}

/// Random row set in [0,1]^dim, grid-snapped so the Hamming kernel sees
/// genuine coordinate matches (not just fuzz).
std::vector<std::vector<double>> random_rows(std::size_t n, std::size_t dim,
                                             unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::vector<double>> xs;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> xi(dim);
    for (double& v : xi) v = std::round(unit(rng) * 8.0) / 8.0;
    xs.push_back(std::move(xi));
  }
  return xs;
}

TEST(Kernel, BlockedCrossIntoMatchesScalarOracleBitForBit) {
  // cross_into runs the blocked four-row statistic sweep, then the family's
  // formula; the oracle evaluates each pair from its distance. Sizes cover
  // every tail length mod 4, so both the blocked panels and the tail run.
  const Kernel rbf(KernelFamily::kRbf, 1.7, 0.6);
  const Kernel matern(KernelFamily::kMatern52, 1.0, 0.4);
  const Kernel hamming(KernelFamily::kHamming, 2.0, 0.3);
  const std::vector<std::pair<const Kernel*, KernelFamily>> kernels = {
      {&rbf, KernelFamily::kRbf}, {&matern, KernelFamily::kMatern52},
      {&hamming, KernelFamily::kHamming}};
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    const std::vector<std::vector<double>> xs = random_rows(n, 7, 600 + n);
    const std::vector<double> z = random_rows(1, 7, 700 + n)[0];
    for (const auto& [k, family] : kernels) {
      const std::vector<double> blocked = k->cross(xs, z);
      ASSERT_EQ(blocked.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double expected =
            oracle::kernel(family, k->signal_variance(), k->length_scale(), xs[i], z);
        EXPECT_TRUE(same_bits(blocked[i], expected))
            << "family=" << static_cast<int>(family) << " n=" << n << " i=" << i;
        EXPECT_TRUE(same_bits((*k)(xs[i], z), expected));
      }
    }
  }
}

TEST(Kernel, PairStatisticsMatchScalarDistances) {
  const std::vector<std::vector<double>> xs = random_rows(11, 6, 40);
  const std::vector<std::vector<double>> qs = random_rows(5, 6, 41);
  const Matrix d2 = pair_statistics(PairStatistic::kSquaredDistance, xs, qs);
  const Matrix h = pair_statistics(PairStatistic::kHammingCount, xs, qs);
  ASSERT_EQ(d2.rows(), qs.size());
  ASSERT_EQ(d2.cols(), xs.size());
  for (std::size_t q = 0; q < qs.size(); ++q) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_TRUE(same_bits(d2(q, i), squared_distance(xs[i], qs[q])));
      EXPECT_TRUE(same_bits(h(q, i), static_cast<double>(hamming_distance(xs[i], qs[q]))));
    }
  }
  EXPECT_THROW(pair_statistics(PairStatistic::kSquaredDistance, xs, {{0.5}}),
               std::invalid_argument);
}

TEST(Kernel, BlockedCrossIntoPropagatesDimensionMismatch) {
  // A mismatched row inside a blocked panel must surface the same exception
  // the scalar operator() raises, from the same (lowest) row.
  const Kernel k(KernelFamily::kRbf, 1.0, 0.5);
  std::vector<std::vector<double>> xs = random_rows(9, 5, 81);
  xs[5].push_back(0.25);  // wrong dimension mid-panel
  std::vector<double> out(xs.size());
  EXPECT_THROW(k.cross_into(xs, random_rows(1, 5, 82)[0], out.data()),
               std::invalid_argument);
}

TEST(Kernel, GramRowMatchesPerElementOperatorBitForBit) {
  const Kernel k(KernelFamily::kMatern52, 1.2, 0.5);
  const std::vector<std::vector<double>> xs = random_rows(13, 6, 90);
  const std::vector<double> z = random_rows(1, 6, 91)[0];
  const Kernel::GramRow row = k.gram_row(xs, z);
  ASSERT_EQ(row.cross.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(same_bits(row.cross[i], k(xs[i], z))) << "i=" << i;
  }
  EXPECT_TRUE(same_bits(row.self, k(z, z)));
}

TEST(Gp, UnfittedReturnsPrior) {
  GaussianProcess gp;
  const auto p = gp.predict({0.3});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_GT(p.variance, 0.0);
  EXPECT_FALSE(gp.is_fitted());
}

TEST(Gp, FitRejectsBadInput) {
  GaussianProcess gp;
  EXPECT_THROW(gp.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(gp.fit({{1.0}}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(gp.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Gp, InterpolatesTrainingPointsWithLowNoise) {
  GpConfig config;
  config.tune_hyperparameters = false;
  config.noise_variance = 1e-8;
  config.length_scale = 0.4;
  GaussianProcess gp(config);
  const std::vector<std::vector<double>> x = {{0.0}, {0.25}, {0.5}, {0.75}, {1.0}};
  std::vector<double> y;
  for (const auto& xi : x) y.push_back(std::sin(6.0 * xi[0]));
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-4);
    EXPECT_LT(p.variance, 1e-4);
  }
}

TEST(Gp, VarianceGrowsAwayFromData) {
  GpConfig config;
  config.tune_hyperparameters = false;
  config.length_scale = 0.2;
  GaussianProcess gp(config);
  gp.fit({{0.0}, {0.1}}, {1.0, 2.0});
  const double var_near = gp.predict({0.05}).variance;
  const double var_far = gp.predict({0.9}).variance;
  EXPECT_GT(var_far, var_near);
}

TEST(Gp, TunedFitApproximatesSmoothFunction) {
  GaussianProcess gp;  // tuned
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    const double xi = unit(rng);
    x.push_back({xi});
    y.push_back(3.0 * xi * xi - xi + 0.5);
  }
  gp.fit(x, y);
  double worst = 0.0;
  for (double q = 0.05; q < 1.0; q += 0.1) {
    const double truth = 3.0 * q * q - q + 0.5;
    worst = std::max(worst, std::abs(gp.predict({q}).mean - truth));
  }
  EXPECT_LT(worst, 0.15);
}

TEST(Gp, ConstantTargetsAreHandled) {
  GaussianProcess gp;
  gp.fit({{0.0}, {0.5}, {1.0}}, {2.0, 2.0, 2.0});
  EXPECT_NEAR(gp.predict({0.25}).mean, 2.0, 1e-6);
}

TEST(Gp, SampleAtMatchesPosteriorStatistically) {
  GpConfig config;
  config.tune_hyperparameters = false;
  config.noise_variance = 1e-6;
  GaussianProcess gp(config);
  gp.fit({{0.0}, {1.0}}, {0.0, 4.0});
  std::mt19937_64 rng(17);
  const std::vector<std::vector<double>> query = {{0.0}, {0.5}, {1.0}};
  double sum_mid = 0.0;
  const int draws = 400;
  for (int i = 0; i < draws; ++i) {
    const auto s = gp.sample_at(query, rng);
    // Training points are pinned by the low noise.
    EXPECT_NEAR(s[0], 0.0, 0.2);
    EXPECT_NEAR(s[2], 4.0, 0.2);
    sum_mid += s[1];
  }
  const double mean_mid = sum_mid / draws;
  EXPECT_NEAR(mean_mid, gp.predict({0.5}).mean, 0.3);
}

TEST(Gp, PriorSampleHasKernelScale) {
  GaussianProcess gp;
  std::mt19937_64 rng(23);
  const auto s = gp.sample_at({{0.1}, {0.9}}, rng);
  ASSERT_EQ(s.size(), 2u);
  for (double v : s) EXPECT_LT(std::abs(v), 10.0);  // unit-variance prior
}

TEST(Gp, ObserveValidatesInput) {
  GaussianProcess unfitted;
  EXPECT_THROW(unfitted.observe({0.5}, 1.0), std::logic_error);

  GpConfig config;
  config.tune_hyperparameters = false;
  GaussianProcess gp(config);
  gp.fit({{0.0, 0.0}, {1.0, 1.0}}, {0.0, 1.0});
  EXPECT_THROW(gp.observe({0.5}, 1.0), std::invalid_argument);  // wrong dimension
  gp.observe({0.5, 0.5}, 0.5);
  EXPECT_EQ(gp.size(), 3u);
}

TEST(Gp, ObserveRejectsDegenerateAppendAndStaysUsable) {
  GpConfig config;
  config.tune_hyperparameters = false;
  config.noise_variance = 0.0;  // only the 1e-9 jitter guards the diagonal
  GaussianProcess gp(config);
  gp.fit({{0.25}}, {1.0});
  // Appending the identical point makes the Gram matrix singular up to the
  // jitter; with zero noise the bordered pivot collapses below the PD
  // threshold. Whatever the verdict, the model must stay consistent.
  try {
    gp.observe({0.25}, 1.0);
    EXPECT_EQ(gp.size(), 2u);
  } catch (const std::domain_error&) {
    EXPECT_EQ(gp.size(), 1u);           // rejected append left the fit intact
    EXPECT_NO_THROW(gp.predict({0.3}));
  }
}

// Parameterized over kernel families: growing a model with observe() must
// reproduce a from-scratch fit() bit for bit (the incremental-posterior
// determinism contract the MOBO engine relies on).
class GpIncrementalTest : public ::testing::TestWithParam<KernelFamily> {};

TEST_P(GpIncrementalTest, ObserveMatchesFullFitBitForBit) {
  GpConfig config;
  config.family = GetParam();
  config.tune_hyperparameters = false;
  config.signal_variance = 1.3;
  config.length_scale = 0.6;
  config.noise_variance = 1e-3;

  std::mt19937_64 rng(41 + static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t dim = 4;
  const std::size_t warm = 5;
  const std::size_t total = 24;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < total; ++i) {
    std::vector<double> xi(dim);
    // Snap to a coarse grid so the Hamming kernel sees genuine matches.
    for (double& v : xi) v = std::round(unit(rng) * 8.0) / 8.0;
    x.push_back(xi);
    y.push_back(std::cos(3.0 * xi[0]) + 0.25 * xi[1] - xi[2] * xi[3]);
  }

  GaussianProcess incremental(config);
  incremental.fit({x.begin(), x.begin() + warm}, {y.begin(), y.begin() + warm});
  for (std::size_t i = warm; i < total; ++i) {
    incremental.observe(x[i], y[i]);

    GaussianProcess full(config);
    full.fit({x.begin(), x.begin() + static_cast<std::ptrdiff_t>(i) + 1},
             {y.begin(), y.begin() + static_cast<std::ptrdiff_t>(i) + 1});

    ASSERT_EQ(incremental.size(), full.size());
    ASSERT_TRUE(same_bits(incremental.log_marginal_likelihood(), full.log_marginal_likelihood()))
        << "n=" << i + 1;
    for (std::size_t q = 0; q < 6; ++q) {
      std::vector<double> query(dim);
      for (double& v : query) v = std::round(unit(rng) * 8.0) / 8.0;
      const auto a = incremental.predict(query);
      const auto b = full.predict(query);
      ASSERT_TRUE(same_bits(a.mean, b.mean)) << "n=" << i + 1 << " q=" << q;
      ASSERT_TRUE(same_bits(a.variance, b.variance)) << "n=" << i + 1 << " q=" << q;
    }
    // Joint Thompson draws must agree too (same factor, same RNG stream).
    std::mt19937_64 rng_a(999), rng_b(999);
    const auto sample_a = incremental.sample_at({x[0], x[1], {0.5, 0.5, 0.5, 0.5}}, rng_a);
    const auto sample_b = full.sample_at({x[0], x[1], {0.5, 0.5, 0.5, 0.5}}, rng_b);
    for (std::size_t s = 0; s < sample_a.size(); ++s) {
      ASSERT_TRUE(same_bits(sample_a[s], sample_b[s])) << "n=" << i + 1 << " s=" << s;
    }
  }
}

class GpLanes : public LaneVariantTest<> {};

TEST_P(GpLanes, BatchedObjectiveDrawsMatchSequentialSampleAtBitForBit) {
  // sample_objectives_at flattens the per-objective posterior draws into
  // wide parallel sections; it must consume the shared RNG in exactly the
  // order of the sequential per-objective loop and reproduce every draw
  // bit for bit — including an unfitted GP falling back to its prior.
  GpConfig config;
  config.tune_hyperparameters = false;
  std::vector<GaussianProcess> gps;
  gps.reserve(3);
  std::mt19937_64 data_rng(31);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t k = 0; k < 3; ++k) {
    gps.emplace_back(config);
    if (k == 2) continue;  // the third objective stays unfitted (prior path)
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < 12 + 5 * k; ++i) {
      std::vector<double> xi(4);
      for (double& v : xi) v = unit(data_rng);
      y.push_back(std::sin(3.0 * xi[0]) + static_cast<double>(k) * xi[1]);
      x.push_back(std::move(xi));
    }
    gps[k].fit(x, y);
  }
  std::vector<std::vector<double>> query;
  for (std::size_t i = 0; i < 9; ++i) {  // odd size: exercises chunk tails
    std::vector<double> xi(4);
    for (double& v : xi) v = unit(data_rng);
    query.push_back(std::move(xi));
  }

  std::mt19937_64 rng_sequential(424242);
  std::vector<std::vector<double>> expected;
  for (const GaussianProcess& gp : gps) {
    expected.push_back(gp.sample_at(query, rng_sequential));
  }
  std::mt19937_64 rng_batched(424242);
  const std::vector<std::vector<double>> batched =
      sample_objectives_at(gps, query, rng_batched);

  ASSERT_EQ(batched.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(batched[k].size(), expected[k].size()) << "objective " << k;
    for (std::size_t i = 0; i < expected[k].size(); ++i) {
      EXPECT_TRUE(same_bits(batched[k][i], expected[k][i]))
          << "objective " << k << " point " << i;
    }
  }
  // Both paths must leave the generator in the same state.
  EXPECT_EQ(rng_sequential(), rng_batched());
}

INSTANTIATE_TEST_SUITE_P(Lanes, GpLanes, ::testing::ValuesIn(kLaneVariants),
                         [](const auto& info) { return lane_variant_label(info.param); });

/// Shared inputs in [0,1]^dim (snapped to eighths) and three objectives'
/// targets on very different scales.
struct Objectives {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> ys = std::vector<std::vector<double>>(3);
};

Objectives three_objectives(std::vector<std::vector<double>> x) {
  Objectives data;
  for (const std::vector<double>& xi : x) {
    data.ys[0].push_back(std::cos(3.0 * xi[0]) + 0.25 * xi[1]);
    data.ys[1].push_back(10.0 * xi[0] * xi[2] - xi[1]);
    data.ys[2].push_back(std::exp(xi[1]) + 100.0 * xi[2] * xi[2]);
  }
  data.x = std::move(x);
  return data;
}

/// Every observable of a fitted model against the oracle's: hyper-parameters,
/// LML, alpha, predictions and a Thompson draw, all bit for bit.
void expect_matches_oracle(const GaussianProcess& gp, const oracle::Model& want,
                           const std::vector<std::vector<double>>& queries,
                           const std::string& what) {
  EXPECT_TRUE(same_bits(gp.signal_variance(), want.hp.signal_variance)) << what;
  EXPECT_TRUE(same_bits(gp.length_scale(), want.hp.length_scale)) << what;
  EXPECT_TRUE(same_bits(gp.noise_variance(), want.hp.noise_variance)) << what;
  EXPECT_TRUE(same_bits(gp.log_marginal_likelihood(), want.lml)) << what;
  ASSERT_EQ(gp.alpha().size(), want.alpha.size()) << what;
  for (std::size_t i = 0; i < want.alpha.size(); ++i) {
    EXPECT_TRUE(same_bits(gp.alpha()[i], want.alpha[i])) << what << " alpha " << i;
  }
  for (const std::vector<double>& q : queries) {
    const GaussianProcess::Prediction got = gp.predict(q);
    const GaussianProcess::Prediction expected = oracle::predict(want, q);
    EXPECT_TRUE(same_bits(got.mean, expected.mean)) << what;
    EXPECT_TRUE(same_bits(got.variance, expected.variance)) << what;
  }
  std::mt19937_64 rng_got(77), rng_expected(77);
  const std::vector<double> got = gp.sample_at(queries, rng_got);
  const std::vector<double> expected =
      oracle::draw(want, queries, oracle::normals(queries.size(), rng_expected));
  ASSERT_EQ(got.size(), expected.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i], expected[i])) << what << " draw " << i;
  }
  EXPECT_EQ(rng_got(), rng_expected()) << what;
}

// Every kernel family, on each lane variant.
class GpSharedFitTest : public LaneVariantTest<std::tuple<KernelFamily, LaneVariant>> {
 protected:
  KernelFamily family() const { return std::get<KernelFamily>(GetParam()); }
};

TEST_P(GpSharedFitTest, SharedFitMatchesSeparateOracleFitsBitForBit) {
  // One grid search for three objectives over shared X must give each the
  // model its own per-objective grid search gives, and so must fit() (the
  // one-objective case); tuned and configured-point fits alike.
  const Objectives data = three_objectives(random_rows(23, 5, 1900));
  const std::vector<std::vector<double>> queries = random_rows(7, 5, 1901);
  for (const bool tune : {true, false}) {
    GpConfig config;
    config.family = family();
    config.tune_hyperparameters = tune;
    config.signal_variance = 1.3;
    config.length_scale = 0.7;
    const std::vector<GaussianProcess> shared = fit_objectives(config, data.x, data.ys);
    ASSERT_EQ(shared.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      const oracle::Model want = oracle::fit(config, data.x, data.ys[k]);
      const std::string what = "tune=" + std::to_string(tune) + " k=" + std::to_string(k);
      expect_matches_oracle(shared[k], want, queries, "shared " + what);
      GaussianProcess separate(config);
      separate.fit(data.x, data.ys[k]);
      expect_matches_oracle(separate, want, queries, "separate " + what);
    }
  }
}

TEST_P(GpSharedFitTest, BatchedDrawsOverSharedInputsMatchOracleDraws) {
  // The MOBO case: objectives fitted over the same X share the pool's pair
  // statistics, plus one unfitted model (prior draw, its own group). Pool
  // sizes 1-9 cover every covariance-tile tail; 256 is the engine's pool.
  GpConfig config;
  config.family = family();
  const Objectives data = three_objectives(random_rows(21, 5, 2000));
  std::vector<GaussianProcess> gps = fit_objectives(config, data.x, data.ys);
  gps.emplace_back(config);
  std::vector<oracle::Model> want;
  for (std::size_t k = 0; k < 3; ++k) want.push_back(oracle::fit(config, data.x, data.ys[k]));

  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 256u}) {
    const std::vector<std::vector<double>> pool = random_rows(m, 5, 2100 + m);
    std::mt19937_64 rng_batched(m), rng_oracle(m);
    const std::vector<std::vector<double>> batched =
        sample_objectives_at(gps, pool, rng_batched);
    ASSERT_EQ(batched.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
      const std::vector<double> z = oracle::normals(m, rng_oracle);
      const std::vector<double> expected =
          k < 3 ? oracle::draw(want[k], pool, z) : oracle::prior_draw(config, pool, z);
      ASSERT_EQ(batched[k].size(), m);
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_TRUE(same_bits(batched[k][i], expected[i]))
            << "m=" << m << " objective " << k << " point " << i;
      }
    }
    EXPECT_EQ(rng_batched(), rng_oracle()) << "m=" << m;
  }
}

std::string family_and_lanes(
    const ::testing::TestParamInfo<std::tuple<KernelFamily, LaneVariant>>& info) {
  static const char* const kFamilies[] = {"Rbf", "Matern52", "Hamming"};
  return kFamilies[static_cast<int>(std::get<KernelFamily>(info.param))] +
         lane_variant_label(std::get<LaneVariant>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndLanes, GpSharedFitTest,
    ::testing::Combine(::testing::Values(KernelFamily::kRbf, KernelFamily::kMatern52,
                                         KernelFamily::kHamming),
                       ::testing::ValuesIn(kLaneVariants)),
    family_and_lanes);

TEST(GpWorkspace, ReuseForSmallerProblemsMatchesAFreshWorkspace) {
  // One workspace serves a large fit and draw, then a smaller fit and a
  // draw over fewer points (a pool that is not a multiple of four): every
  // result must equal the one a fresh workspace gives, so nothing a larger
  // call left in its buffers leaks into a smaller one.
  GpConfig config;
  GpWorkspace reused;
  const Objectives large = three_objectives(random_rows(37, 4, 2300));
  const std::vector<GaussianProcess> large_gps =
      fit_objectives(config, large.x, large.ys, &reused);
  std::mt19937_64 rng_large(5);
  ASSERT_EQ(sample_objectives_at(large_gps, random_rows(41, 4, 2301), rng_large, &reused).size(),
            3u);

  const Objectives small = three_objectives(random_rows(13, 4, 2302));
  const std::vector<std::vector<double>> pool = random_rows(9, 4, 2303);
  const std::vector<GaussianProcess> got = fit_objectives(config, small.x, small.ys, &reused);
  const std::vector<GaussianProcess> want = fit_objectives(config, small.x, small.ys);
  std::mt19937_64 rng_got(6), rng_want(6);
  const std::vector<std::vector<double>> drawn = sample_objectives_at(got, pool, rng_got, &reused);
  const std::vector<std::vector<double>> expected = sample_objectives_at(want, pool, rng_want);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(same_bits(got[k].log_marginal_likelihood(), want[k].log_marginal_likelihood()))
        << "objective " << k;
    ASSERT_EQ(drawn[k].size(), pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      EXPECT_TRUE(same_bits(drawn[k][i], expected[k][i])) << "objective " << k << " point " << i;
    }
  }
  EXPECT_EQ(rng_got(), rng_want());
}

TEST(GpSharedFit, TiedGridPointsKeepTheFirstInGridOrder) {
  // Points 4000 apart: every off-diagonal kernel value underflows to 0 at
  // every length scale, so the six length scales tie exactly and the first
  // (0.1) must win for every objective, as in the per-objective search.
  for (const KernelFamily family : {KernelFamily::kRbf, KernelFamily::kMatern52}) {
    std::vector<std::vector<double>> x;
    for (std::size_t i = 0; i < 9; ++i) {
      x.push_back({4000.0 * static_cast<double>(i), 0.125 * static_cast<double>(i % 3), 0.5});
    }
    const Objectives data = three_objectives(x);
    GpConfig config;
    config.family = family;
    const std::vector<GaussianProcess> shared = fit_objectives(config, data.x, data.ys);
    for (std::size_t k = 0; k < 3; ++k) {
      const oracle::Model want = oracle::fit(config, data.x, data.ys[k]);
      ASSERT_TRUE(same_bits(want.hp.length_scale, 0.1));
      GpConfig longest = config;  // the winner's triple at the last length scale
      longest.tune_hyperparameters = false;
      longest.signal_variance = want.hp.signal_variance;
      longest.length_scale = 3.2;
      longest.noise_variance = want.hp.noise_variance;
      ASSERT_TRUE(same_bits(oracle::fit(longest, data.x, data.ys[k]).lml, want.lml))
          << "the length scales must tie";
      expect_matches_oracle(shared[k], want, {{2000.0, 0.25, 0.5}, {0.0, 0.0, 0.5}},
                            "family=" + std::to_string(static_cast<int>(family)) +
                                " k=" + std::to_string(k));
    }
  }
}

TEST(GpSharedFit, GridPointsWhoseFactorizationFailsAreSkipped) {
  // One point 1e154 away: for Matern-5/2 the cross terms s*s overflow to
  // inf times exp(-s) = 0, a NaN, at every length scale up to 1.6, so those
  // grid points fail to factorize; at 3.2 the terms are exact zeros.
  std::vector<std::vector<double>> x = random_rows(10, 3, 2200);
  x.push_back({1e154, 0.5, 0.5});
  const Objectives data = three_objectives(x);
  GpConfig config;
  config.family = KernelFamily::kMatern52;
  const std::vector<GaussianProcess> shared = fit_objectives(config, data.x, data.ys);
  for (std::size_t k = 0; k < 3; ++k) {
    const oracle::Model want = oracle::fit(config, data.x, data.ys[k]);
    ASSERT_TRUE(same_bits(want.hp.length_scale, 3.2));
    expect_matches_oracle(shared[k], want, random_rows(5, 3, 2201), "k=" + std::to_string(k));
  }

  // Failures inside a run of grid points that share one Gram: Hamming
  // counts with a 1e-9 tolerance are not transitive. a, b and c below are
  // each within tolerance of the next while a and c differ, so their block
  // s^2 [[1, 1, x], [1, 1, 1], [x, 1, 1]] has a negative eigenvalue: the
  // smaller noises of a (signal, length) run fail to factorize and the
  // largest succeeds, so the Gram's diagonal must be rewritten from its
  // saved copy after each failure.
  std::vector<std::vector<double>> h = random_rows(8, 3, 2202);
  for (const double a : {0.0, 0.6e-9, 1.2e-9}) h.push_back({a, 0.5, 0.5});
  const Objectives hamming = three_objectives(h);
  config.family = KernelFamily::kHamming;
  const std::vector<GaussianProcess> hamming_fit = fit_objectives(config, hamming.x, hamming.ys);
  for (std::size_t k = 0; k < 3; ++k) {
    const oracle::Model want = oracle::fit(config, hamming.x, hamming.ys[k]);
    for (const double noise : {1e-4, 1e-3, 1e-2}) {
      GpConfig failing = config;  // the winner's run at a smaller noise
      failing.tune_hyperparameters = false;
      failing.signal_variance = want.hp.signal_variance;
      failing.length_scale = want.hp.length_scale;
      failing.noise_variance = noise;
      ASSERT_LT(noise, want.hp.noise_variance);
      EXPECT_THROW(oracle::fit(failing, hamming.x, hamming.ys[k]), std::domain_error)
          << "noise " << noise << " must fail in the winner's run";
    }
    expect_matches_oracle(hamming_fit[k], want, random_rows(5, 3, 2203),
                          "hamming k=" + std::to_string(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, GpIncrementalTest,
                         ::testing::Values(KernelFamily::kRbf, KernelFamily::kMatern52,
                                           KernelFamily::kHamming));

// Parameterized: both kernel families interpolate equally well.
class GpKernelFamilyTest : public ::testing::TestWithParam<KernelFamily> {};

TEST_P(GpKernelFamilyTest, FitsLinearFunction) {
  GpConfig config;
  config.family = GetParam();
  GaussianProcess gp(config);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) {
    const double xi = i / 10.0;
    x.push_back({xi});
    y.push_back(2.0 * xi - 1.0);
  }
  gp.fit(x, y);
  EXPECT_NEAR(gp.predict({0.35}).mean, -0.3, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Families, GpKernelFamilyTest,
                         ::testing::Values(KernelFamily::kRbf, KernelFamily::kMatern52));

}  // namespace
}  // namespace lens::opt
