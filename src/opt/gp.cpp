#include "opt/gp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "par/parallel.hpp"

namespace lens::opt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

struct GridPoint {
  double signal, length, noise;
};

// The hyper-parameter grid searched by log marginal likelihood. It is small
// by design: genotypes live in [0,1]^d so length scales beyond a few units
// make the GP a constant, and normalized targets pin the signal variance
// near 1. An untuned fit's grid is its configured point.
std::vector<GridPoint> hyperparameter_grid(const GpConfig& config) {
  if (!config.tune_hyperparameters) {
    return {{config.signal_variance, config.length_scale, config.noise_variance}};
  }
  static constexpr double kLengthScales[] = {0.1, 0.2, 0.4, 0.8, 1.6, 3.2};
  static constexpr double kSignalVariances[] = {0.5, 1.0, 2.0};
  static constexpr double kNoiseVariances[] = {1e-4, 1e-3, 1e-2, 1e-1};
  std::vector<GridPoint> grid;
  for (double l : kLengthScales) {
    for (double s : kSignalVariances) {
      for (double n : kNoiseVariances) grid.push_back({s, l, n});
    }
  }
  return grid;
}

// Log marginal likelihood of standardized targets y, given alpha = A^{-1} y
// and log det A.
double lml_of(const std::vector<double>& y, const std::vector<double>& alpha, double log_det) {
  const double n = static_cast<double>(y.size());
  return -0.5 * dot(y, alpha) - 0.5 * log_det - 0.5 * n * std::log(2.0 * std::numbers::pi);
}

// m standard normals from a fresh distribution. Each draw constructs its
// own: std::normal_distribution caches a second polar-method variate, so a
// shared instance would consume the generator differently whenever m is odd.
std::vector<double> standard_normals(std::size_t m, std::mt19937_64& rng) {
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> z(m);
  for (double& v : z) v = gauss(rng);
  return z;
}
}  // namespace

GaussianProcess::GaussianProcess(GpConfig config)
    : config_(config),
      kernel_(config.family, config.signal_variance, config.length_scale),
      noise_variance_(config.noise_variance) {}

void GaussianProcess::fit(std::vector<std::vector<double>> x, std::vector<double> y) {
  std::vector<std::vector<double>> ys;
  ys.push_back(std::move(y));
  *this = std::move(fit_objectives(config_, std::move(x), std::move(ys)).front());
}

std::vector<GaussianProcess> fit_objectives(const GpConfig& config,
                                            std::vector<std::vector<double>> x,
                                            std::vector<std::vector<double>> ys) {
  const auto mismatched = [&](const std::vector<double>& y) { return y.size() != x.size(); };
  if (x.empty() || ys.empty() || std::any_of(ys.begin(), ys.end(), mismatched)) {
    throw std::invalid_argument("GaussianProcess::fit: empty or mismatched data");
  }
  const std::size_t dim = x.front().size();
  for (const auto& row : x) {
    if (row.size() != dim) throw std::invalid_argument("GaussianProcess::fit: ragged X");
  }
  const std::size_t num = ys.size();
  std::vector<GaussianProcess> gps;
  gps.reserve(num);
  for (std::vector<double>& y : ys) {
    gps.emplace_back(config);
    gps.back().y_ = std::move(y);
    gps.back().standardize_targets();
  }

  // Every Gram matrix below depends on X only through its pair statistics.
  const Matrix statistics = pair_statistics(gps.front().kernel_.statistic(), x, x);
  const std::vector<GridPoint> grid = hyperparameter_grid(config);
  const auto gram_at = [&](const GridPoint& p) {
    Matrix k = Kernel(config.family, p.signal, p.length).gram(statistics, dim);
    k.add_diagonal(p.noise + 1e-9);
    return k;
  };

  // One factorization per grid point scores every objective: the
  // log-determinant is shared and each objective pays one solve. A failed
  // factor or a non-finite LML scores -inf. Grid points run in parallel and
  // each objective keeps its first maximum in grid order, so the winners
  // are the same for any thread count.
  std::vector<std::size_t> winner(num, 0);
  if (config.tune_hyperparameters) {
    const std::vector<std::vector<double>> lmls =
        par::parallel_map(grid.size(), [&](std::size_t g) {
          std::vector<double> lml(num, -kInf);
          CholeskyFactor factor;
          try {
            factor = CholeskyFactor::factorize(gram_at(grid[g]));
          } catch (const std::domain_error&) {
            return lml;
          }
          const double log_det = factor.log_det();
          for (std::size_t k = 0; k < num; ++k) {
            const std::vector<double>& y = gps[k].y_normalized_;
            const double value = lml_of(y, factor.solve(y), log_det);
            if (std::isfinite(value)) lml[k] = value;
          }
          return lml;
        });
    for (std::size_t k = 0; k < num; ++k) {
      double best = -kInf;
      for (std::size_t g = 0; g < grid.size(); ++g) {
        if (lmls[g][k] > best) {
          best = lmls[g][k];
          winner[k] = g;
        }
      }
      if (!std::isfinite(best)) {
        throw std::domain_error("GaussianProcess::fit: no usable hyper-parameters");
      }
    }
  }

  // Factorize each distinct winner once more (no grid factor outlives its
  // grid point), then commit every objective against its winner's factor.
  std::vector<std::size_t> distinct;
  for (std::size_t g : winner) {
    if (std::find(distinct.begin(), distinct.end(), g) == distinct.end()) distinct.push_back(g);
  }
  std::vector<CholeskyFactor> factors;
  try {
    factors = par::parallel_map(distinct.size(), [&](std::size_t w) {
      return CholeskyFactor::factorize(gram_at(grid[distinct[w]]));
    });
  } catch (const std::domain_error&) {
    throw std::domain_error("GaussianProcess::fit: Gram matrix not positive definite");
  }
  par::parallel_for(num, [&](std::size_t k) {
    GaussianProcess& gp = gps[k];
    const auto w = std::find(distinct.begin(), distinct.end(), winner[k]) - distinct.begin();
    const GridPoint& p = grid[winner[k]];
    gp.kernel_ = Kernel(config.family, p.signal, p.length);
    gp.noise_variance_ = p.noise;
    gp.factor_ = factors[static_cast<std::size_t>(w)];
    gp.alpha_ = gp.factor_.solve(gp.y_normalized_);
    gp.log_marginal_likelihood_ = lml_of(gp.y_normalized_, gp.alpha_, gp.factor_.log_det());
    if (!std::isfinite(gp.log_marginal_likelihood_)) {
      throw std::domain_error("GaussianProcess::fit: Gram matrix not positive definite");
    }
  });
  for (std::size_t k = 0; k + 1 < num; ++k) gps[k].x_ = x;
  gps.back().x_ = std::move(x);
  return gps;
}

void GaussianProcess::standardize_targets() {
  double mean = 0.0;
  for (double v : y_) mean += v;
  mean /= static_cast<double>(y_.size());
  double var = 0.0;
  for (double v : y_) var += (v - mean) * (v - mean);
  var /= static_cast<double>(y_.size());
  y_mean_ = mean;
  y_std_ = var > 1e-12 ? std::sqrt(var) : 1.0;
  y_normalized_.resize(y_.size());
  for (std::size_t i = 0; i < y_.size(); ++i) y_normalized_[i] = (y_[i] - y_mean_) / y_std_;
}

GaussianProcess GaussianProcess::from_snapshot(GpConfig base, const GpHyperparameters& hp,
                                               std::vector<std::vector<double>> x,
                                               std::vector<double> y) {
  base.tune_hyperparameters = false;
  base.signal_variance = hp.signal_variance;
  base.length_scale = hp.length_scale;
  base.noise_variance = hp.noise_variance;
  GaussianProcess gp(base);
  gp.fit(std::move(x), std::move(y));
  return gp;
}

void GaussianProcess::observe(std::vector<double> x, double y) {
  if (!is_fitted()) {
    throw std::logic_error("GaussianProcess::observe: model must be fitted first");
  }
  if (x.size() != x_.front().size()) {
    throw std::invalid_argument("GaussianProcess::observe: dimension mismatch");
  }
  // Only the bordered Gram row is evaluated; extend() appends it to the
  // cached factor in O(n^2) or throws (leaving the model untouched) exactly
  // when a full refactorization of the bordered matrix would fail.
  const Kernel::GramRow row = kernel_.gram_row(x_, x);
  factor_.extend(row.cross, row.self + (noise_variance_ + 1e-9));
  x_.push_back(std::move(x));
  y_.push_back(y);
  standardize_targets();
  alpha_ = factor_.solve(y_normalized_);
  log_marginal_likelihood_ = lml_of(y_normalized_, alpha_, factor_.log_det());
}

GaussianProcess::Prediction GaussianProcess::predict(const std::vector<double>& x) const {
  if (!is_fitted()) {
    return {0.0, kernel_.variance()};
  }
  const std::vector<double> k_star = kernel_.cross(x_, x);
  const double mean_n = dot(k_star, alpha_);
  const std::vector<double> v = factor_.solve_lower(k_star);
  double var_n = kernel_.variance() - dot(v, v);
  var_n = std::max(var_n, 1e-12);
  return {y_mean_ + y_std_ * mean_n, y_std_ * y_std_ * var_n};
}

std::vector<double> GaussianProcess::sample_at(
    const std::vector<std::vector<double>>& xs, std::mt19937_64& rng) const {
  return draw({this}, xs, {standard_normals(xs.size(), rng)}).front();
}

std::vector<std::vector<double>> sample_objectives_at(
    const std::vector<GaussianProcess>& gps, const std::vector<std::vector<double>>& xs,
    std::mt19937_64& rng) {
  // Every objective's z vector is drawn serially in objective order — the
  // exact generator consumption order of the per-objective sample_at loop.
  std::vector<std::vector<double>> z;
  for (std::size_t k = 0; k < gps.size(); ++k) z.push_back(standard_normals(xs.size(), rng));
  std::vector<const GaussianProcess*> models;
  for (const GaussianProcess& gp : gps) models.push_back(&gp);
  return GaussianProcess::draw(models, xs, z);
}

std::vector<std::vector<double>> GaussianProcess::draw(
    const std::vector<const GaussianProcess*>& models,
    const std::vector<std::vector<double>>& xs, const std::vector<std::vector<double>>& z) {
  const std::size_t num = models.size();
  const std::size_t m = xs.size();
  const std::size_t dim = m == 0 ? 0 : xs.front().size();
  const std::size_t blocks = (m + 3) / 4;

  // Models with the same statistic and training inputs share the query
  // block's pair statistics: cross(t, i) against training point t, and
  // pool(i, j) within the block.
  struct Group {
    PairStatistic statistic;
    const std::vector<std::vector<double>>* x;
    Matrix cross;
    Matrix pool;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> group_of(num);
  for (std::size_t k = 0; k < num; ++k) {
    const GaussianProcess& gp = *models[k];
    const PairStatistic statistic = gp.kernel_.statistic();
    std::size_t g = 0;
    while (g < groups.size() && !(groups[g].statistic == statistic && *groups[g].x == gp.x_)) ++g;
    if (g == groups.size()) groups.push_back({statistic, &gp.x_, {}, {}});
    group_of[k] = g;
  }
  for (Group& group : groups) {
    group.cross = pair_statistics(group.statistic, xs, *group.x);
    group.pool = pair_statistics(group.statistic, xs, xs);
  }

  // Cross-solves, one (objective, 4-point block) per index: the block's
  // cross-covariances fill an n x 4 panel (zero-padded past m), the
  // posterior mean takes one ascending dot product per point, and the
  // panel is solved in place into V = L^{-1} K(train, block). The panels
  // and each objective's covariance matrix (allocated by its first block)
  // are allocated here, so their zero fill runs in the parallel section.
  std::vector<std::vector<double>> panels(num * blocks);
  std::vector<std::vector<double>> mean(num, std::vector<double>(m));
  std::vector<Matrix> cov(num);
  par::parallel_for(num * blocks, [&](std::size_t idx) {
    const std::size_t k = idx / blocks;
    const GaussianProcess& gp = *models[k];
    if (!gp.is_fitted()) return;  // prior draws need no cross-covariances
    const std::size_t n = gp.size();
    const std::size_t i0 = 4 * (idx % blocks);
    const std::size_t width = std::min<std::size_t>(4, m - i0);
    if (i0 == 0) cov[k] = Matrix(m, m);
    const Matrix& cross = groups[group_of[k]].cross;
    std::vector<double>& v = panels[idx];
    v.assign(4 * n, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      gp.kernel_.values(cross.row_data(t) + i0, width, dim, &v[4 * t]);
    }
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t q = 0; q < width; ++q) acc[q] += v[4 * t + q] * gp.alpha_[t];
    }
    for (std::size_t q = 0; q < width; ++q) mean[k][i0 + q] = acc[q];
    gp.factor_.solve_lower_many(v.data(), 4, width);
  });

  // Posterior covariance k(i, j) - v_i . v_j in 4x4 register tiles, one
  // (objective, row block) per index covering the tiles right of the
  // diagonal. Every entry still sums v_i[t] * v_j[t] in ascending t from
  // 0.0, so it equals the scalar dot product bit for bit; each tile writes
  // its entries and their mirror images, which no other index touches.
  par::parallel_for(num * blocks, [&](std::size_t idx) {
    const std::size_t k = idx / blocks;
    const GaussianProcess& gp = *models[k];
    if (!gp.is_fitted()) return;
    const std::size_t n = gp.size();
    const std::size_t bi = idx % blocks;
    const Matrix& pool = groups[group_of[k]].pool;
    const double* vi = panels[idx].data();
    for (std::size_t bj = bi; bj < blocks; ++bj) {
      const double* vj = panels[k * blocks + bj].data();
      DoublePair acc[4][2] = {};
      for (std::size_t t = 0; t < n; ++t) {
        DoublePair row[2];
        std::memcpy(row, vj + 4 * t, sizeof row);
        for (std::size_t p = 0; p < 4; ++p) {
          acc[p][0] += vi[4 * t + p] * row[0];
          acc[p][1] += vi[4 * t + p] * row[1];
        }
      }
      const std::size_t i0 = 4 * bi;
      const std::size_t j0 = 4 * bj;
      const std::size_t width = std::min<std::size_t>(4, m - j0);
      for (std::size_t p = 0; p < 4 && i0 + p < m; ++p) {
        double k_ij[4] = {};
        gp.kernel_.values(pool.row_data(i0 + p) + j0, width, dim, k_ij);
        for (std::size_t q = 0; q < width; ++q) {
          const double c = k_ij[q] - acc[p][q / 2][q % 2];
          cov[k](i0 + p, j0 + q) = c;
          cov[k](j0 + q, i0 + p) = c;
        }
      }
    }
  });

  // The O(m^3) factorizations, one objective per index. An unfitted model
  // draws from its prior: mean 0, covariance the kernel Gram over xs.
  std::vector<std::vector<double>> out(num);
  par::parallel_for(num, [&](std::size_t k) {
    const GaussianProcess& gp = *models[k];
    if (!gp.is_fitted()) cov[k] = gp.kernel_.gram(groups[group_of[k]].pool, dim);
    out[k] = gp.finish_draw(cov[k], mean[k], z[k]);
  });
  return out;
}

std::vector<double> GaussianProcess::finish_draw(Matrix& cov, const std::vector<double>& mean,
                                                 const std::vector<double>& z) const {
  const std::size_t m = mean.size();
  // Jitter escalation: posterior covariances of near-duplicate query points
  // are frequently semi-definite. Each attempt factorizes cov + jitter I,
  // with the jittered diagonal written in place.
  std::vector<double> diagonal(m);
  for (std::size_t i = 0; i < m; ++i) diagonal[i] = cov(i, i);
  CholeskyFactor l;
  double jitter = 1e-8;
  for (;;) {
    for (std::size_t i = 0; i < m; ++i) cov(i, i) = diagonal[i] + jitter;
    try {
      l = CholeskyFactor::factorize(cov);
      break;
    } catch (const std::domain_error&) {
      jitter *= 10.0;
      if (jitter > 1.0) {
        throw std::domain_error("GaussianProcess::sample_at: covariance irreparably indefinite");
      }
    }
  }
  std::vector<double> out(m);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = mean[i];
    for (std::size_t j = 0; j <= i; ++j) acc += l.at(i, j) * z[j];
    out[i] = y_mean_ + y_std_ * acc;
  }
  return out;
}

}  // namespace lens::opt
