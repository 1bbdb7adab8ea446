#pragma once
// SGD with momentum and decoupled weight decay.

#include <vector>

#include "nn/layer.hpp"

namespace lens::nn {

struct SgdConfig {
  // With momentum 0.9 the effective step is ~10x the learning rate; 0.01
  // trains the ShapeSet-scale networks to convergence without divergence.
  double learning_rate = 0.01;
  double momentum = 0.9;
  double weight_decay = 1e-4;
};

/// Stateful SGD optimizer over a fixed parameter set.
class Sgd {
 public:
  Sgd(std::vector<ParamTensor*> parameters, SgdConfig config = {});

  /// Apply one update from the accumulated gradients, then zero them.
  void step();

  /// Zero all gradients without updating.
  void zero_grad();

  double learning_rate() const { return config_.learning_rate; }

 private:
  std::vector<ParamTensor*> parameters_;
  std::vector<std::vector<float>> velocity_;
  SgdConfig config_;
};

}  // namespace lens::nn
