#pragma once
// Gaussian-process regression with marginal-likelihood hyper-parameter
// selection and joint posterior sampling (the Thompson-sampling primitive
// used by the MOBO engine, paper Alg. 2 line 9: f_k = GP_k(D)).

#include <cstddef>
#include <memory>
#include <random>
#include <vector>

#include "opt/kernel.hpp"
#include "opt/matrix.hpp"

namespace lens::opt {

/// The tuned hyper-parameter triple of a fitted GP — everything the
/// checkpoint subsystem needs to persist besides the raw observations,
/// because a frozen-hyper refit over the same data reproduces the posterior
/// bit-for-bit (see DESIGN.md "Posterior maintenance").
struct GpHyperparameters {
  double signal_variance = 1.0;
  double length_scale = 0.5;
  double noise_variance = 1e-3;
};

/// Configuration for a GaussianProcess.
struct GpConfig {
  KernelFamily family = KernelFamily::kMatern52;
  /// Observation noise variance in *normalized* target units.
  double noise_variance = 1e-3;
  /// When true, (signal variance, length scale, noise) are selected by grid
  /// search over the log marginal likelihood at every fit().
  bool tune_hyperparameters = true;
  /// Initial / fallback hyper-parameters.
  double signal_variance = 1.0;
  double length_scale = 0.5;
};

/// Scratch memory of the GP layer's O(n^3) calls, kept from one call to the
/// next: a draw's statistic matrices, cross-solve panels, covariances and
/// their factors, and the grid search's Gram and factor buffers. Freeing
/// them after every call lets the allocator return several MB to the OS,
/// which the next call faults back in. What a workspace held never changes
/// a result. One call at a time: concurrent calls need one workspace each.
class GpWorkspace {
 public:
  GpWorkspace();
  ~GpWorkspace();
  GpWorkspace(GpWorkspace&&) noexcept;
  GpWorkspace& operator=(GpWorkspace&&) noexcept;

  /// Size every buffer up front for fits of up to `points` training points
  /// and draws of `objectives` models over up to `queries` points, so no
  /// later call reallocates (which would leave the old buffers as holes in
  /// the heap). Reserved memory is touched only as calls use it.
  void reserve(std::size_t points, std::size_t queries, std::size_t objectives);

  /// The buffers (defined in gp.cpp), created on first use.
  struct Buffers;
  Buffers& buffers();

 private:
  std::unique_ptr<Buffers> buffers_;
};

/// Gaussian-process regressor over real vectors.
///
/// Targets are internally standardized (zero mean, unit variance), so the
/// kernel hyper-parameter grids are data-scale independent. All public
/// results (predict, sample_at) are reported back in the original units.
class GaussianProcess {
 public:
  explicit GaussianProcess(GpConfig config = {});

  /// Fit to a dataset. X is a list of equal-length feature vectors, y the
  /// targets. Replaces any previous fit; the model is unchanged when it
  /// throws (std::invalid_argument on empty, mismatched or ragged input,
  /// std::domain_error when no hyper-parameters give a usable Gram matrix).
  /// The one-objective case of fit_objectives().
  void fit(std::vector<std::vector<double>> x, std::vector<double> y);

  /// Append one observation to a fitted model in O(n^2): the cached
  /// Cholesky factor grows by one bordered row (only the new Gram row is
  /// evaluated), targets are re-standardized over the full history, and
  /// alpha / the log marginal likelihood are recomputed from the extended
  /// factor. Hyper-parameters are left untouched, and with them frozen the
  /// resulting posterior is bit-identical to a full fit() over the same
  /// data — the incremental path of the determinism contract (DESIGN.md
  /// "Posterior maintenance"). Throws std::logic_error on an unfitted
  /// model, std::invalid_argument on a dimension mismatch, and
  /// std::domain_error (model unchanged) when the extended Gram matrix is
  /// not positive definite.
  void observe(std::vector<double> x, double y);

  /// True once fit() has been called with at least one point.
  bool is_fitted() const { return !x_.empty(); }

  /// Number of training points.
  std::size_t size() const { return x_.size(); }

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;  ///< posterior variance (original units^2)
  };

  /// Posterior mean/variance at a single point. On an unfitted GP this is
  /// the prior (mean 0, kernel variance).
  Prediction predict(const std::vector<double>& x) const;

  /// One joint draw from the posterior over the given query points
  /// (original units). This is the Thompson sample used by the acquisition:
  /// the one-objective case of sample_objectives_at().
  std::vector<double> sample_at(const std::vector<std::vector<double>>& xs,
                                std::mt19937_64& rng) const;

  /// Log marginal likelihood of the current fit (normalized-unit targets).
  double log_marginal_likelihood() const { return log_marginal_likelihood_; }

  /// Posterior weights (K + noise I)^{-1} y of the fit (normalized targets).
  const std::vector<double>& alpha() const { return alpha_; }

  double signal_variance() const { return kernel_.signal_variance(); }
  double length_scale() const { return kernel_.length_scale(); }
  double noise_variance() const { return noise_variance_; }

  /// Export the current hyper-parameter triple (checkpointing).
  GpHyperparameters hyperparameters() const {
    return {signal_variance(), length_scale(), noise_variance()};
  }

  /// Rebuild a fitted GP from checkpointed state: a frozen-hyper fit of
  /// `hp` over (x, y). The resulting posterior (factor, alpha, LML) is
  /// bit-identical to the incremental observe() chain that produced the
  /// snapshot — the restore path of the determinism contract. Throws
  /// std::domain_error when the Gram matrix is not positive definite under
  /// the saved hyper-parameters (corrupted snapshot).
  static GaussianProcess from_snapshot(GpConfig base, const GpHyperparameters& hp,
                                       std::vector<std::vector<double>> x,
                                       std::vector<double> y);

 private:
  /// Recompute y_mean_/y_std_/y_normalized_ from the raw targets, in the
  /// exact summation order every fit uses (bit-identity with observe()).
  void standardize_targets();
  /// Joint posterior draws of several models over one query block from
  /// pre-drawn standard-normal vectors (z[k] for models[k]): the single
  /// draw path behind sample_at and sample_objectives_at.
  static std::vector<std::vector<double>> draw(
      const std::vector<const GaussianProcess*>& models,
      const std::vector<std::vector<double>>& xs, const std::vector<std::vector<double>>& z,
      GpWorkspace& workspace);

  friend std::vector<GaussianProcess> fit_objectives(const GpConfig& config,
                                                     std::vector<std::vector<double>> x,
                                                     std::vector<std::vector<double>> ys,
                                                     GpWorkspace* workspace);
  friend std::vector<std::vector<double>> sample_objectives_at(
      const std::vector<GaussianProcess>& gps, const std::vector<std::vector<double>>& xs,
      std::mt19937_64& rng, GpWorkspace* workspace);

  GpConfig config_;
  Kernel kernel_;
  double noise_variance_ = 1e-3;

  std::vector<std::vector<double>> x_;
  std::vector<double> y_;            // raw targets (original units)
  std::vector<double> y_normalized_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;

  CholeskyFactor factor_;        // Cholesky factor of K + noise I
  std::vector<double> alpha_;    // (K + noise I)^{-1} y_normalized
  double log_marginal_likelihood_ = 0.0;
};

/// Fit one GP per target vector (ys[k] over the shared inputs x) with one
/// grid search: the statistic matrix of x is computed once, and each grid
/// point's Gram matrix is built from it and factorized once for every
/// objective (shared log-determinant, one solve per objective). Grid points
/// that differ only in noise share one Gram build. Each objective keeps its
/// first maximum in grid order, then only the distinct winners are
/// factorized again. Every model is bit-identical to a separate fit() of
/// its own targets, at any thread count. An untuned config scores nothing:
/// its grid is the configured point. Scratch comes from `workspace`, or
/// from a workspace of the call's own when it is null.
std::vector<GaussianProcess> fit_objectives(const GpConfig& config,
                                            std::vector<std::vector<double>> x,
                                            std::vector<std::vector<double>> ys,
                                            GpWorkspace* workspace = nullptr);

/// Batched joint Thompson draws: one posterior sample per objective GP over
/// the shared query block, bit-identical to the serial loop
///     for (k) out[k] = gps[k].sample_at(xs, rng);
/// including the order in which `rng` is consumed (all z vectors are drawn
/// serially in objective order up front). Models with equal training
/// inputs share one pool x train and one pool x pool statistic matrix; the
/// cross-solves and covariance tiles of all objectives run as
/// (objective x 4-point block) parallel sections, and the O(m^3)
/// covariance factorizations run concurrently across objectives. Scratch
/// comes from `workspace`, or from a workspace of the call's own when it is
/// null.
std::vector<std::vector<double>> sample_objectives_at(
    const std::vector<GaussianProcess>& gps, const std::vector<std::vector<double>>& xs,
    std::mt19937_64& rng, GpWorkspace* workspace = nullptr);

}  // namespace lens::opt
