#include "core/accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lens::core {

SurrogateAccuracyModel::SurrogateAccuracyModel(SurrogateAccuracyConfig config)
    : config_(config) {
  if (!(config_.noise_std >= 0.0) || !std::isfinite(config_.noise_std)) {
    throw std::invalid_argument("SurrogateAccuracyModel: noise_std must be finite and >= 0");
  }
}

double SurrogateAccuracyModel::test_error_percent(const Genotype& genotype,
                                                  const dnn::Architecture& arch) const {
  const double log_params = std::log10(static_cast<double>(std::max<std::uint64_t>(
      arch.total_params(), 1)));

  int conv_layers = 0;
  int fc_layers = 0;
  double kernel_sum = 0.0;
  for (const dnn::LayerInfo& info : arch.layers()) {
    if (info.spec.kind == dnn::LayerKind::kConv) {
      ++conv_layers;
      kernel_sum += info.spec.kernel;
    } else if (info.spec.kind == dnn::LayerKind::kDense) {
      ++fc_layers;
    }
  }
  const double mean_kernel = conv_layers > 0 ? kernel_sum / conv_layers : 3.0;

  double error = config_.base_error;
  error -= config_.capacity_gain * std::max(0.0, log_params - config_.capacity_baseline);
  error -= config_.depth_gain * conv_layers;
  if (mean_kernel > 3.0) error -= config_.kernel_gain * std::min(1.0, (mean_kernel - 3.0) / 2.0);
  if (fc_layers >= 3) error -= config_.fc2_gain;  // hidden fc1 + fc2 + classifier
  if (log_params > config_.overcapacity_knee) {
    error += config_.overcapacity_slope * (log_params - config_.overcapacity_knee);
  }

  // Deterministic, genotype-seeded "training noise". Zero noise adds
  // nothing: a zero-stddev draw would add +0.0, and std::normal_distribution
  // requires a positive stddev.
  if (config_.noise_std > 0.0) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ config_.seed;
    for (int v : genotype) {
      h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    std::mt19937_64 rng(h);
    std::normal_distribution<double> gauss(0.0, config_.noise_std);
    error += gauss(rng);
  }

  return std::clamp(error, config_.min_error, config_.max_error);
}

}  // namespace lens::core
