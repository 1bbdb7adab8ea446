#pragma once
// Accuracy objective models.
//
// The paper trains each candidate on CIFAR-10 for 10 epochs and reports test
// error. Doing that for 300-iteration searches is out of scope here (see
// DESIGN.md), so the default is a surrogate: a deterministic test-error
// model over architecture statistics, calibrated to the 10-epoch CIFAR-10
// error band, with architecture-seeded noise standing in for training
// stochasticity. A real from-scratch trainer (lens::nn +
// core::TrainedAccuracyEvaluator) covers the end-to-end path at small scale.

#include <random>

#include "core/search_space.hpp"
#include "dnn/architecture.hpp"

namespace lens::core {

/// Interface for the error objective (test error, %; minimization).
class AccuracyModel {
 public:
  virtual ~AccuracyModel() = default;

  /// Estimated test error in percent for the decoded architecture.
  virtual double test_error_percent(const Genotype& genotype,
                                    const dnn::Architecture& arch) const = 0;
};

/// Deterministic capacity/depth-based surrogate.
///
/// Error decreases with log-capacity and conv depth (diminishing returns),
/// gains a mild bonus for larger kernels and a second FC layer, and pays an
/// under-training penalty for very large models (a 10-epoch budget cannot
/// saturate them). A genotype-hashed noise term (std ~= noise_std) emulates
/// run-to-run training variance while keeping experiments reproducible.
struct SurrogateAccuracyConfig {
  double base_error = 56.0;       ///< error of a minimal architecture
  double capacity_gain = 9.5;     ///< % per decade of parameters above baseline
  double capacity_baseline = 5.0; ///< log10(params) where capacity starts paying
                                  ///< (5.0 fits the paper's space; lower it for
                                  ///< small training-sized spaces)
  double depth_gain = 0.8;        ///< % per conv layer
  double kernel_gain = 1.0;       ///< bonus when mean kernel > 3
  double fc2_gain = 0.8;          ///< bonus for the optional second FC
  double overcapacity_knee = 7.5; ///< log10(params) where under-training bites
  double overcapacity_slope = 4.0;
  double min_error = 11.0;
  double max_error = 65.0;
  double noise_std = 1.2;
  unsigned seed = 1234;           ///< decorrelates replicate "training runs"
};

class SurrogateAccuracyModel final : public AccuracyModel {
 public:
  explicit SurrogateAccuracyModel(SurrogateAccuracyConfig config = {});

  double test_error_percent(const Genotype& genotype,
                            const dnn::Architecture& arch) const override;

 private:
  SurrogateAccuracyConfig config_;
};

}  // namespace lens::core
