#include "opt/acquisition.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "par/parallel.hpp"

namespace lens::opt {

std::size_t select_candidate(const std::vector<GaussianProcess>& gps,
                             const std::vector<std::vector<double>>& pool,
                             const ObjectiveNormalizer& normalizer,
                             const AcquisitionConfig& config, std::mt19937_64& rng,
                             GpWorkspace* workspace) {
  if (pool.empty()) throw std::invalid_argument("select_candidate: empty pool");
  if (gps.empty()) throw std::invalid_argument("select_candidate: no objectives");
  const std::size_t num_objectives = gps.size();
  const std::size_t pool_size = pool.size();

  // One objective-value estimate per (objective, candidate). Per-candidate
  // predictions are pure and write distinct slots, so all objectives are
  // scored in one num_objectives * pool_size-wide parallel section; the
  // Thompson path consumes `rng` serially up front inside
  // sample_objectives_at, keeping results identical for any thread count
  // (and bit-identical to the per-objective sample_at loop it batches).
  std::vector<std::vector<double>> sampled;
  if (config.kind == AcquisitionKind::kThompsonScalarized) {
    sampled = sample_objectives_at(gps, pool, rng, workspace);
  } else {
    sampled.assign(num_objectives, std::vector<double>(pool_size));
    par::parallel_for(num_objectives * pool_size, [&](std::size_t idx) {
      const std::size_t k = idx / pool_size;
      const std::size_t i = idx % pool_size;
      const auto p = gps[k].predict(pool[i]);
      sampled[k][i] = config.kind == AcquisitionKind::kMeanScalarized
                          ? p.mean
                          : p.mean - config.lcb_beta * std::sqrt(p.variance);
    });
  }

  const std::vector<double> weights = random_simplex_weights(num_objectives, rng);
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_index = 0;
  std::vector<double> objective_vector(num_objectives);
  for (std::size_t i = 0; i < pool_size; ++i) {
    for (std::size_t k = 0; k < num_objectives; ++k) objective_vector[k] = sampled[k][i];
    const double g = augmented_chebyshev(normalizer.normalize(objective_vector), weights,
                                         config.chebyshev_rho);
    if (g < best) {
      best = g;
      best_index = i;
    }
  }
  return best_index;
}

}  // namespace lens::opt
