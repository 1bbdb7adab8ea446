#pragma once
// Per-layer performance prediction models (paper §IV-C).
//
// Algorithm 1 calls L_Predict / P_Predict through the LayerPerformanceModel
// interface. Two implementations:
//  - SimulatorOracle: queries the ground-truth simulator directly (ideal
//    predictors; used in tests and upper-bound studies).
//  - RegressionPredictor: the paper's actual pipeline — per-layer-type ridge
//    regression models trained on profiling datasets, with Neurosurgeon-
//    style engineered features. Latency is fit in log space (it spans four
//    orders of magnitude); power is fit linearly.

#include <map>
#include <vector>

#include "dnn/layer.hpp"
#include "ml/features.hpp"
#include "ml/ridge.hpp"
#include "ml/roofline.hpp"
#include "perf/profiler.hpp"
#include "perf/simulator.hpp"

namespace lens::perf {

/// Interface Algorithm 1 uses to estimate a layer's on-device cost.
class LayerPerformanceModel {
 public:
  virtual ~LayerPerformanceModel() = default;

  /// Estimated latency (ms) and average power (mW) of one layer.
  virtual LayerMeasurement predict(const dnn::LayerSpec& layer,
                                   const dnn::TensorShape& input) const = 0;
};

/// Ideal predictor: returns the simulator's ground truth.
class SimulatorOracle final : public LayerPerformanceModel {
 public:
  explicit SimulatorOracle(DeviceSimulator simulator) : simulator_(std::move(simulator)) {}

  LayerMeasurement predict(const dnn::LayerSpec& layer,
                           const dnn::TensorShape& input) const override {
    return simulator_.measure(layer, input);
  }

  const DeviceSimulator& simulator() const { return simulator_; }

 private:
  DeviceSimulator simulator_;
};

/// Engineered feature vector for a (layer, input) pair; shared by training
/// and inference so the two can never drift apart.
std::vector<double> layer_features(const dnn::LayerSpec& layer, const dnn::TensorShape& input);

/// Held-out quality of one layer-kind's models.
struct PredictorValidation {
  double latency_r2 = 0.0;
  double power_r2 = 0.0;
  double latency_mape = 0.0;  ///< %
  double power_mape = 0.0;    ///< %
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
};

/// Trained per-layer-type regression predictor.
class RegressionPredictor final : public LayerPerformanceModel {
 public:
  /// Profile the device (simulator stands in for the physical board), fit
  /// one latency + one power model per layer kind, and record held-out
  /// validation metrics.
  static RegressionPredictor train(const DeviceSimulator& simulator,
                                   ProfilerConfig config = {});

  LayerMeasurement predict(const dnn::LayerSpec& layer,
                           const dnn::TensorShape& input) const override;

  /// Held-out metrics per layer kind (R^2, MAPE).
  const std::map<dnn::LayerKind, PredictorValidation>& validation() const {
    return validation_;
  }

 private:
  struct KindModels {
    ml::FeatureScaler scaler;
    ml::RidgeRegression log_latency;
    ml::RidgeRegression power;
  };

  std::map<dnn::LayerKind, KindModels> models_;
  std::map<dnn::LayerKind, PredictorValidation> validation_;
};

/// Roofline-family predictor: per layer kind, latency is fit with the
/// two-branch RooflineRegression over (FLOPs, moved bytes) and power with a
/// per-branch level (compute-bound vs memory-bound draw). This is the
/// recommended predictor — it matches the physics of batch-1 inference and
/// reaches held-out R^2 well above the plain ridge-on-log-features model
/// (kept above as an ablation baseline).
class RooflinePredictor final : public LayerPerformanceModel {
 public:
  /// Profile the device and fit per-kind roofline + power-level models.
  static RooflinePredictor train(const DeviceSimulator& simulator, ProfilerConfig config = {});

  LayerMeasurement predict(const dnn::LayerSpec& layer,
                           const dnn::TensorShape& input) const override;

  const std::map<dnn::LayerKind, PredictorValidation>& validation() const {
    return validation_;
  }

 private:
  struct KindModels {
    ml::RooflineRegression latency;
    double compute_bound_power_mw = 0.0;
    double memory_bound_power_mw = 0.0;
  };

  std::map<dnn::LayerKind, KindModels> models_;
  std::map<dnn::LayerKind, PredictorValidation> validation_;
};

}  // namespace lens::perf
