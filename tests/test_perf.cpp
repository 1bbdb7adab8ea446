// Tests for device profiles, the roofline simulator, the profiler sweeps,
// and the trained regression predictors.

#include <gtest/gtest.h>

#include "dnn/presets.hpp"
#include "perf/device.hpp"
#include "perf/predictor.hpp"
#include "perf/profiler.hpp"
#include "perf/simulator.hpp"

namespace lens::perf {
namespace {

TEST(Device, ProfilesAreOrdered) {
  const DeviceProfile gpu = jetson_tx2_gpu();
  const DeviceProfile cpu = jetson_tx2_cpu();
  EXPECT_GT(gpu.conv_gflops, cpu.conv_gflops);
  EXPECT_GT(gpu.dense_bandwidth_gbps, cpu.dense_bandwidth_gbps);
  EXPECT_GT(gpu.compute_bound_power_mw, cpu.compute_bound_power_mw);
  EXPECT_EQ(gpu.mode, ComputeMode::kGpu);
  EXPECT_EQ(cpu.mode, ComputeMode::kCpu);
}

TEST(Simulator, MeasurementsAreDeterministic) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  const dnn::LayerSpec conv = dnn::LayerSpec::conv(64, 3);
  const dnn::TensorShape in{32, 32, 16};
  const LayerMeasurement a = sim.measure(conv, in);
  const LayerMeasurement b = sim.measure(conv, in);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  EXPECT_DOUBLE_EQ(a.power_mw, b.power_mw);
}

TEST(Simulator, DifferentLayersGetDifferentJitter) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  const LayerMeasurement a = sim.measure(dnn::LayerSpec::conv(64, 3), {32, 32, 16});
  const LayerMeasurement b = sim.measure(dnn::LayerSpec::conv(64, 5), {32, 32, 16});
  EXPECT_NE(a.latency_ms, b.latency_ms);
}

TEST(Simulator, LatencyGrowsWithWork) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  const double small = sim.measure(dnn::LayerSpec::conv(32, 3), {16, 16, 16}).latency_ms;
  const double big = sim.measure(dnn::LayerSpec::conv(256, 3), {64, 64, 128}).latency_ms;
  EXPECT_GT(big, small * 10.0);
}

TEST(Simulator, CpuSlowerThanGpu) {
  const DeviceSimulator gpu(jetson_tx2_gpu());
  const DeviceSimulator cpu(jetson_tx2_cpu());
  const dnn::LayerSpec conv = dnn::LayerSpec::conv(128, 3);
  const dnn::TensorShape in{56, 56, 64};
  EXPECT_GT(cpu.measure(conv, in).latency_ms, 3.0 * gpu.measure(conv, in).latency_ms);
}

TEST(Simulator, ComputeVsMemoryBoundPower) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  // Large conv: compute bound -> high power.
  const LayerMeasurement conv = sim.measure(dnn::LayerSpec::conv(256, 3), {56, 56, 256});
  // Huge dense: memory bound -> lower power.
  const LayerMeasurement fc = sim.measure(dnn::LayerSpec::dense(4096), {1, 1, 9216});
  EXPECT_GT(conv.power_mw, fc.power_mw);
}

TEST(Simulator, EnergyIsConsistent) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  const LayerMeasurement m = sim.measure(dnn::LayerSpec::conv(64, 3), {28, 28, 32});
  EXPECT_NEAR(m.energy_mj(), m.power_mw * m.latency_ms / 1e3, 1e-12);
}

TEST(Simulator, BytesTouchedAccountsWeightsAndActivations) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  const dnn::LayerSpec fc = dnn::LayerSpec::dense(4096);
  const dnn::TensorShape in{1, 1, 9216};
  // weights 9216*4096 + 4096 bias, in 9216, out 4096, all * 4 bytes.
  const std::uint64_t expected =
      4ULL * (9216ULL * 4096ULL + 4096ULL + 9216ULL + 4096ULL);
  EXPECT_EQ(sim.bytes_touched(fc, in), expected);
}

TEST(Simulator, AlexNetCalibration) {
  // The headline calibration targets from DESIGN.md: total GPU latency in
  // the tens of ms with the FC layers around half of it (paper Fig. 1).
  const DeviceSimulator sim(jetson_tx2_gpu());
  const dnn::Architecture a = dnn::alexnet();
  double total = 0.0;
  double fc = 0.0;
  for (const dnn::LayerInfo& info : a.layers()) {
    const double lat = sim.measure(info.spec, info.input).latency_ms;
    total += lat;
    if (info.spec.kind == dnn::LayerKind::kDense) fc += lat;
  }
  EXPECT_GT(total, 15.0);
  EXPECT_LT(total, 60.0);
  EXPECT_GT(fc / total, 0.40);
  EXPECT_LT(fc / total, 0.60);
}

TEST(Profiler, GeneratesRequestedSampleCount) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  ProfilerConfig config;
  config.samples_per_kind = 25;
  LayerProfiler profiler(sim, config);
  for (dnn::LayerKind kind :
       {dnn::LayerKind::kConv, dnn::LayerKind::kMaxPool, dnn::LayerKind::kDense}) {
    const auto samples = profiler.profile_kind(kind);
    EXPECT_EQ(samples.size(), 25u);
    for (const ProfiledSample& s : samples) {
      EXPECT_EQ(s.layer.kind, kind);
      EXPECT_GT(s.measurement.latency_ms, 0.0);
      EXPECT_GT(s.measurement.power_mw, 0.0);
    }
  }
}

TEST(Profiler, RandomConfigsAreAlwaysApplicable) {
  const DeviceSimulator sim(jetson_tx2_cpu());
  LayerProfiler profiler(sim, {.samples_per_kind = 1, .seed = 77});
  for (int i = 0; i < 200; ++i) {
    auto [layer, input] = profiler.random_config(dnn::LayerKind::kConv);
    EXPECT_NO_THROW(dnn::output_shape(layer, input));
  }
  for (int i = 0; i < 200; ++i) {
    auto [layer, input] = profiler.random_config(dnn::LayerKind::kMaxPool);
    EXPECT_NO_THROW(dnn::output_shape(layer, input));
  }
}

TEST(Profiler, RejectsZeroSamples) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  EXPECT_THROW(LayerProfiler(sim, {.samples_per_kind = 0}), std::invalid_argument);
}

TEST(Features, DependOnKindSpecificStructure) {
  const auto conv_features = layer_features(dnn::LayerSpec::conv(64, 3), {32, 32, 16});
  const auto conv_features_k5 = layer_features(dnn::LayerSpec::conv(64, 5), {32, 32, 16});
  EXPECT_NE(conv_features, conv_features_k5);
  const auto fc_features = layer_features(dnn::LayerSpec::dense(128), {1, 1, 256});
  EXPECT_NE(conv_features.size(), fc_features.size());
}

TEST(Predictor, OracleMatchesSimulatorExactly) {
  DeviceSimulator sim(jetson_tx2_gpu());
  const SimulatorOracle oracle(sim);
  const dnn::LayerSpec conv = dnn::LayerSpec::conv(96, 5);
  const dnn::TensorShape in{27, 27, 96};
  const LayerMeasurement truth = sim.measure(conv, in);
  const LayerMeasurement predicted = oracle.predict(conv, in);
  EXPECT_DOUBLE_EQ(predicted.latency_ms, truth.latency_ms);
  EXPECT_DOUBLE_EQ(predicted.power_mw, truth.power_mw);
}

class RooflinePredictorQualityTest : public ::testing::TestWithParam<bool> {};

TEST_P(RooflinePredictorQualityTest, HeldOutQualityIsHigh) {
  // Paper §IV-C: the prediction models must be accurate enough to rank
  // deployment options. The roofline family matches the device physics, so
  // held-out quality should be near-perfect (residual = measurement jitter).
  const bool use_gpu = GetParam();
  const DeviceSimulator sim(use_gpu ? jetson_tx2_gpu() : jetson_tx2_cpu());
  const RooflinePredictor predictor =
      RooflinePredictor::train(sim, {.samples_per_kind = 300, .seed = 5});
  for (const auto& [kind, v] : predictor.validation()) {
    EXPECT_GT(v.latency_r2, 0.95) << "kind " << static_cast<int>(kind);
    EXPECT_LT(v.latency_mape, 15.0) << "kind " << static_cast<int>(kind);
    // Pool/dense layers are memory-bound across the entire sweep, so their
    // true power variance is pure measurement jitter and R^2 is meaningless
    // (predicting the mean of noise); relative error is the real check.
    EXPECT_LT(v.power_mape, 10.0) << "kind " << static_cast<int>(kind);
    if (kind == dnn::LayerKind::kConv) {
      EXPECT_GT(v.power_r2, 0.50) << "conv has two genuine power levels";
    }
    EXPECT_GT(v.train_samples, 0u);
    EXPECT_GT(v.test_samples, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, RooflinePredictorQualityTest, ::testing::Bool());

TEST(RidgePredictor, BaselineQualityIsReasonable) {
  // The plain log-ridge family is the ablation baseline: weaker than the
  // roofline model (it cannot express the max() kink) but still orders
  // layers correctly at a coarse level.
  const DeviceSimulator sim(jetson_tx2_gpu());
  const RegressionPredictor predictor =
      RegressionPredictor::train(sim, {.samples_per_kind = 300, .seed = 5});
  for (const auto& [kind, v] : predictor.validation()) {
    EXPECT_GT(v.latency_r2, 0.25) << "kind " << static_cast<int>(kind);
    EXPECT_GT(v.train_samples, 0u);
    EXPECT_GT(v.test_samples, 0u);
  }
}

TEST(Predictor, PredictionsArePositiveAndOrdered) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  const RooflinePredictor predictor =
      RooflinePredictor::train(sim, {.samples_per_kind = 300, .seed = 6});
  const LayerMeasurement small = predictor.predict(dnn::LayerSpec::conv(24, 3), {14, 14, 24});
  const LayerMeasurement big = predictor.predict(dnn::LayerSpec::conv(256, 7), {112, 112, 128});
  EXPECT_GT(small.latency_ms, 0.0);
  EXPECT_GT(big.latency_ms, small.latency_ms);
  EXPECT_GT(small.power_mw, 0.0);
}

TEST(Predictor, AlexNetTotalsCloseToGroundTruth) {
  const DeviceSimulator sim(jetson_tx2_gpu());
  const RooflinePredictor predictor =
      RooflinePredictor::train(sim, {.samples_per_kind = 400, .seed = 8});
  const dnn::Architecture a = dnn::alexnet();
  double truth = 0.0;
  double predicted = 0.0;
  for (const dnn::LayerInfo& info : a.layers()) {
    truth += sim.measure(info.spec, info.input).latency_ms;
    predicted += predictor.predict(info.spec, info.input).latency_ms;
  }
  EXPECT_NEAR(predicted, truth, 0.15 * truth);  // within 15% end to end
}

}  // namespace
}  // namespace lens::perf
