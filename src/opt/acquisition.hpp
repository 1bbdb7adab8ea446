#pragma once
// Acquisition strategies over a finite candidate pool (paper Alg. 2
// lines 8-11: sample f_k from each GP posterior, build the acquisition,
// return the maximizer as the next query point).

#include <random>
#include <vector>

#include "opt/gp.hpp"
#include "opt/scalarization.hpp"

namespace lens::opt {

/// How the per-objective posterior samples are reduced to a single ranking.
enum class AcquisitionKind {
  /// Random-weight augmented-Chebyshev scalarization of joint Thompson
  /// samples (Dragonfly-style multi-objective TS). Default.
  kThompsonScalarized,
  /// Pure exploitation of posterior means with random scalarization
  /// weights; useful as an ablation baseline.
  kMeanScalarized,
  /// LCB (mean - beta * std) per objective, then scalarized.
  kLowerConfidenceBound,
};

struct AcquisitionConfig {
  AcquisitionKind kind = AcquisitionKind::kThompsonScalarized;
  double chebyshev_rho = 0.05;
  double lcb_beta = 2.0;
};

/// Pick the index of the most promising pool candidate.
///
/// `gps` holds one fitted GP per objective, `pool` the candidate encodings,
/// `normalizer` the observed objective ranges used to put sampled objective
/// values on comparable scales. Throws when the pool is empty or the GP
/// count is zero. The Thompson draw's scratch comes from `workspace` (see
/// sample_objectives_at).
std::size_t select_candidate(const std::vector<GaussianProcess>& gps,
                             const std::vector<std::vector<double>>& pool,
                             const ObjectiveNormalizer& normalizer,
                             const AcquisitionConfig& config, std::mt19937_64& rng,
                             GpWorkspace* workspace = nullptr);

}  // namespace lens::opt
