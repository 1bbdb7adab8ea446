#include "opt/gp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
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

// out[p][q] = the sum of vi[4t + p] * vj[4t + q] in ascending t from 0.0:
// the dot products of one 4x4 covariance tile, each row's four q held in
// vectors of `Lanes`. Inlined into each variant below, so it compiles for
// that variant's ISA.
template <typename Lanes>
[[gnu::always_inline]] inline void tile_dots_body(const double* vi, const double* vj,
                                                  std::size_t n, double (&out)[4][4]) {
  constexpr std::size_t kWidth = sizeof(Lanes) / sizeof(double);
  constexpr std::size_t kVectors = 4 / kWidth;
  Lanes acc[4][kVectors] = {};
  for (std::size_t t = 0; t < n; ++t) {
    Lanes row[kVectors];
    for (std::size_t h = 0; h < kVectors; ++h) load_lanes(row[h], vj + 4 * t + kWidth * h);
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t h = 0; h < kVectors; ++h) acc[p][h] += vi[4 * t + p] * row[h];
    }
  }
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t h = 0; h < kVectors; ++h) store_lanes(&out[p][kWidth * h], acc[p][h]);
  }
}

using TileDots = void (*)(const double*, const double*, std::size_t, double (&)[4][4]);

void tile_dots_two_lane(const double* vi, const double* vj, std::size_t n,
                        double (&out)[4][4]) {
  tile_dots_body<DoublePair>(vi, vj, n, out);
}

#if LENS_FOUR_LANE_AVX2
[[gnu::target("avx2")]] void tile_dots_four_lane(const double* vi, const double* vj,
                                                 std::size_t n, double (&out)[4][4]) {
  tile_dots_body<DoubleQuad>(vi, vj, n, out);
}
#endif

TileDots tile_dots(LaneVariant variant) {
#if LENS_FOUR_LANE_AVX2
  if (variant == LaneVariant::kFourLaneAvx2) return tile_dots_four_lane;
#endif
  (void)variant;
  return tile_dots_two_lane;
}
}  // namespace

struct GpWorkspace::Buffers {
  /// One task's square matrix, its diagonal as built, and a factor: a draw
  /// objective's covariance, or a grid run's Gram.
  struct Scratch {
    Matrix matrix;
    std::vector<double> diagonal;
    CholeskyFactor factor;

    void save_diagonal() {
      diagonal.resize(matrix.rows());
      for (std::size_t i = 0; i < diagonal.size(); ++i) diagonal[i] = matrix(i, i);
    }
    /// matrix(i, i) = diagonal[i] + shift: add_diagonal(shift)'s arithmetic
    /// on the matrix as built, written in place.
    void shift_diagonal(double shift) {
      for (std::size_t i = 0; i < diagonal.size(); ++i) matrix(i, i) = diagonal[i] + shift;
    }
  };

  /// Puts a lent Scratch back on the idle list.
  struct GiveBack {
    Buffers* buffers;
    void operator()(Scratch* scratch) const {
      const std::lock_guard<std::mutex> lock(buffers->mutex);
      buffers->idle.emplace_back(scratch);
    }
  };
  using Lease = std::unique_ptr<Scratch, GiveBack>;

  /// An idle Scratch, or a new one when all are lent, so a workspace holds
  /// no more of them than were ever lent at once. The draw and the grid
  /// search lend from the same list.
  Lease lend() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (idle.empty()) return Lease(new Scratch, GiveBack{this});
    Lease lease(idle.back().release(), GiveBack{this});
    idle.pop_back();
    return lease;
  }

  /// Pair statistics: the grid search's X x X in the first; a draw's cross
  /// and pool matrices of model group g in [2g] and [2g + 1].
  std::vector<Matrix> statistics;
  /// A draw's n x 4 cross-solve panels, one per (objective, 4-point block),
  /// 4 n_max doubles apart (n_max the largest training set).
  std::vector<double> panels;
  std::mutex mutex;  // guards idle
  std::vector<std::unique_ptr<Scratch>> idle;
};

namespace {
using Scratch = GpWorkspace::Buffers::Scratch;

// Jitter-escalated factorization of a draw's covariance (scratch.matrix, its
// diagonal overwritten) plus the mean + L z combine, in original units: the
// O(m^3) tail of one draw.
std::vector<double> finish_draw(Scratch& scratch, std::vector<double> mean,
                                const std::vector<double>& z, double y_mean, double y_std) {
  // Jitter escalation: posterior covariances of near-duplicate query points
  // are frequently semi-definite. Each attempt factorizes cov + jitter I,
  // with the jittered diagonal written in place.
  scratch.save_diagonal();
  double jitter = 1e-8;
  for (;;) {
    scratch.shift_diagonal(jitter);
    try {
      scratch.factor.refactorize(scratch.matrix);
      break;
    } catch (const std::domain_error&) {
      jitter *= 10.0;
      if (jitter > 1.0) {
        throw std::domain_error("GaussianProcess::sample_at: covariance irreparably indefinite");
      }
    }
  }
  scratch.factor.add_lower_product(z, mean);
  for (double& v : mean) v = y_mean + y_std * v;
  return mean;
}
}  // namespace

GpWorkspace::GpWorkspace() = default;
GpWorkspace::~GpWorkspace() = default;
GpWorkspace::GpWorkspace(GpWorkspace&&) noexcept = default;
GpWorkspace& GpWorkspace::operator=(GpWorkspace&&) noexcept = default;

GpWorkspace::Buffers& GpWorkspace::buffers() {
  if (!buffers_) buffers_ = std::make_unique<Buffers>();
  return *buffers_;
}

void GpWorkspace::reserve(std::size_t points, std::size_t queries, std::size_t objectives) {
  Buffers& b = buffers();
  if (b.statistics.size() < 2) b.statistics.resize(2);
  b.statistics[0].reserve(std::max(points, queries) * points);
  b.statistics[1].reserve(queries * queries);
  b.panels.reserve(objectives * ((queries + 3) / 4) * 4 * points);
  const std::size_t side = std::max(points, queries);
  std::vector<Buffers::Lease> scratch;
  for (std::size_t k = 0; k < objectives; ++k) {
    scratch.push_back(b.lend());
    scratch.back()->matrix.reserve(side * side);
    scratch.back()->diagonal.reserve(side);
    scratch.back()->factor.reserve(side);
  }
}

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
                                            std::vector<std::vector<double>> ys,
                                            GpWorkspace* workspace) {
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
  GpWorkspace own;
  GpWorkspace::Buffers& buffers = (workspace != nullptr ? *workspace : own).buffers();
  if (buffers.statistics.empty()) buffers.statistics.emplace_back();
  const Matrix& statistics = buffers.statistics.front();
  pair_statistics(gps.front().kernel_.statistic(), x, x, buffers.statistics.front());
  const std::vector<GridPoint> grid = hyperparameter_grid(config);
  // Grid point p's Gram, noise-free, with its diagonal saved.
  const auto build_gram = [&](const GridPoint& p, Scratch& scratch) {
    Kernel(config.family, p.signal, p.length).gram(statistics, dim, scratch.matrix);
    scratch.save_diagonal();
  };

  // Grid points that differ only in noise share every off-diagonal Gram
  // entry, and the grid lists them in runs: each run builds its Gram once
  // and writes each noise onto the saved diagonal before factorizing. One
  // factorization scores every objective: the log-determinant is shared and
  // each objective pays one solve. A failed factor or a non-finite LML
  // scores -inf. Runs are scored in parallel and each objective keeps its
  // first maximum in grid order, so the winners are the same for any
  // thread count.
  std::vector<std::size_t> runs = {0};
  for (std::size_t g = 1; g < grid.size(); ++g) {
    if (grid[g].signal != grid[g - 1].signal || grid[g].length != grid[g - 1].length) {
      runs.push_back(g);
    }
  }
  runs.push_back(grid.size());
  std::vector<std::size_t> winner(num, 0);
  if (config.tune_hyperparameters) {
    std::vector<std::vector<double>> lmls(grid.size(), std::vector<double>(num, -kInf));
    par::parallel_for(runs.size() - 1, [&](std::size_t r) {
      const GpWorkspace::Buffers::Lease scratch = buffers.lend();
      build_gram(grid[runs[r]], *scratch);
      for (std::size_t g = runs[r]; g < runs[r + 1]; ++g) {
        scratch->shift_diagonal(grid[g].noise + 1e-9);
        try {
          scratch->factor.refactorize(scratch->matrix);
        } catch (const std::domain_error&) {
          continue;
        }
        const double log_det = scratch->factor.log_det();
        for (std::size_t k = 0; k < num; ++k) {
          const std::vector<double>& y = gps[k].y_normalized_;
          const double value = lml_of(y, scratch->factor.solve(y), log_det);
          if (std::isfinite(value)) lmls[g][k] = value;
        }
      }
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
      const GridPoint& p = grid[distinct[w]];
      const GpWorkspace::Buffers::Lease scratch = buffers.lend();
      build_gram(p, *scratch);
      scratch->shift_diagonal(p.noise + 1e-9);
      return CholeskyFactor::factorize(scratch->matrix);
    });
  } catch (const std::domain_error&) {
    throw std::domain_error("GaussianProcess::fit: Gram matrix not positive definite");
  }
  // The last objective to use a winner's factor takes it; any earlier one
  // copies it.
  for (std::size_t k = 0; k < num; ++k) {
    const auto w = static_cast<std::size_t>(
        std::find(distinct.begin(), distinct.end(), winner[k]) - distinct.begin());
    const bool last = std::find(winner.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                                winner.end(), winner[k]) == winner.end();
    gps[k].factor_ = last ? std::move(factors[w]) : factors[w];
  }
  par::parallel_for(num, [&](std::size_t k) {
    GaussianProcess& gp = gps[k];
    const GridPoint& p = grid[winner[k]];
    gp.kernel_ = Kernel(config.family, p.signal, p.length);
    gp.noise_variance_ = p.noise;
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
  GpWorkspace workspace;
  return draw({this}, xs, {standard_normals(xs.size(), rng)}, workspace).front();
}

std::vector<std::vector<double>> sample_objectives_at(
    const std::vector<GaussianProcess>& gps, const std::vector<std::vector<double>>& xs,
    std::mt19937_64& rng, GpWorkspace* workspace) {
  // Every objective's z vector is drawn serially in objective order — the
  // exact generator consumption order of the per-objective sample_at loop.
  std::vector<std::vector<double>> z;
  for (std::size_t k = 0; k < gps.size(); ++k) z.push_back(standard_normals(xs.size(), rng));
  std::vector<const GaussianProcess*> models;
  for (const GaussianProcess& gp : gps) models.push_back(&gp);
  GpWorkspace own;
  return GaussianProcess::draw(models, xs, z, workspace != nullptr ? *workspace : own);
}

std::vector<std::vector<double>> GaussianProcess::draw(
    const std::vector<const GaussianProcess*>& models,
    const std::vector<std::vector<double>>& xs, const std::vector<std::vector<double>>& z,
    GpWorkspace& workspace) {
  const std::size_t num = models.size();
  const std::size_t m = xs.size();
  if (m == 0) return std::vector<std::vector<double>>(num);
  const std::size_t dim = xs.front().size();
  const std::size_t blocks = (m + 3) / 4;
  GpWorkspace::Buffers& buffers = workspace.buffers();

  // Models with the same statistic and training inputs share the query
  // block's pair statistics: cross(t, i) against training point t, and
  // pool(i, j) within the block.
  struct Group {
    PairStatistic statistic;
    const std::vector<std::vector<double>>* x;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> group_of(num);
  for (std::size_t k = 0; k < num; ++k) {
    const GaussianProcess& gp = *models[k];
    const PairStatistic statistic = gp.kernel_.statistic();
    std::size_t g = 0;
    while (g < groups.size() && !(groups[g].statistic == statistic && *groups[g].x == gp.x_)) ++g;
    if (g == groups.size()) groups.push_back({statistic, &gp.x_});
    group_of[k] = g;
  }
  if (buffers.statistics.size() < 2 * groups.size()) {
    buffers.statistics.resize(2 * groups.size());
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    pair_statistics(groups[g].statistic, xs, *groups[g].x, buffers.statistics[2 * g]);
    pair_statistics(groups[g].statistic, xs, xs, buffers.statistics[2 * g + 1]);
  }
  const auto cross_of = [&](std::size_t k) -> const Matrix& {
    return buffers.statistics[2 * group_of[k]];
  };
  const auto pool_of = [&](std::size_t k) -> const Matrix& {
    return buffers.statistics[2 * group_of[k] + 1];
  };

  // Cross-solves, one (objective, 4-point block) per index: the block's
  // cross-covariances fill an n x 4 panel (zero-padded past m), the
  // posterior mean takes one ascending dot product per point, and the
  // panel is solved in place into V = L^{-1} K(train, block). Each
  // objective's covariance is reshaped by its first block, so the panels'
  // and the covariances' fill runs in the parallel section.
  std::size_t stride = 0;
  for (const GaussianProcess* gp : models) stride = std::max(stride, 4 * gp->size());
  if (buffers.panels.size() < num * blocks * stride) buffers.panels.resize(num * blocks * stride);
  const auto panel = [&](std::size_t idx) { return buffers.panels.data() + idx * stride; };
  std::vector<GpWorkspace::Buffers::Lease> cov;
  for (std::size_t k = 0; k < num; ++k) cov.push_back(buffers.lend());
  std::vector<std::vector<double>> mean(num, std::vector<double>(m));
  par::parallel_for(num * blocks, [&](std::size_t idx) {
    const std::size_t k = idx / blocks;
    const GaussianProcess& gp = *models[k];
    if (!gp.is_fitted()) return;  // prior draws need no cross-covariances
    const std::size_t n = gp.size();
    const std::size_t i0 = 4 * (idx % blocks);
    const std::size_t width = std::min<std::size_t>(4, m - i0);
    if (i0 == 0) cov[k]->matrix.assign(m, m);
    const Matrix& cross = cross_of(k);
    double* v = panel(idx);
    std::fill(v, v + 4 * n, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      gp.kernel_.values(cross.row_data(t) + i0, width, dim, &v[4 * t]);
    }
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t q = 0; q < width; ++q) acc[q] += v[4 * t + q] * gp.alpha_[t];
    }
    for (std::size_t q = 0; q < width; ++q) mean[k][i0 + q] = acc[q];
    gp.factor_.solve_lower_many(v, 4, width);
  });

  // Posterior covariance k(i, j) - v_i . v_j in 4x4 tiles, one (objective,
  // row block) per index covering the tiles right of the diagonal. Every
  // entry still sums v_i[t] * v_j[t] in ascending t from 0.0, so it equals
  // the scalar dot product bit for bit on either lane variant; each tile
  // writes its entries and their mirror images, which no other index
  // touches.
  const TileDots dots_of = tile_dots(lane_variant());
  par::parallel_for(num * blocks, [&](std::size_t idx) {
    const std::size_t k = idx / blocks;
    const GaussianProcess& gp = *models[k];
    if (!gp.is_fitted()) return;
    const std::size_t n = gp.size();
    const std::size_t bi = idx % blocks;
    const Matrix& pool = pool_of(k);
    Matrix& covariance = cov[k]->matrix;
    const double* vi = panel(idx);
    for (std::size_t bj = bi; bj < blocks; ++bj) {
      double dots[4][4];
      dots_of(vi, panel(k * blocks + bj), n, dots);
      const std::size_t i0 = 4 * bi;
      const std::size_t j0 = 4 * bj;
      const std::size_t width = std::min<std::size_t>(4, m - j0);
      for (std::size_t p = 0; p < 4 && i0 + p < m; ++p) {
        double k_ij[4] = {};
        gp.kernel_.values(pool.row_data(i0 + p) + j0, width, dim, k_ij);
        for (std::size_t q = 0; q < width; ++q) {
          const double c = k_ij[q] - dots[p][q];
          covariance(i0 + p, j0 + q) = c;
          covariance(j0 + q, i0 + p) = c;
        }
      }
    }
  });

  // The O(m^3) factorizations, one objective per index. An unfitted model
  // draws from its prior: mean 0, covariance the kernel Gram over xs.
  std::vector<std::vector<double>> out(num);
  par::parallel_for(num, [&](std::size_t k) {
    const GaussianProcess& gp = *models[k];
    if (!gp.is_fitted()) gp.kernel_.gram(pool_of(k), dim, cov[k]->matrix);
    out[k] = finish_draw(*cov[k], std::move(mean[k]), z[k], gp.y_mean_, gp.y_std_);
  });
  return out;
}

}  // namespace lens::opt
