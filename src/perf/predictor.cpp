#include "perf/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "par/substream.hpp"

namespace lens::perf {

std::vector<double> layer_features(const dnn::LayerSpec& layer,
                                   const dnn::TensorShape& input) {
  const dnn::TensorShape out = dnn::output_shape(layer, input);
  const double flops = static_cast<double>(dnn::layer_flops(layer, input));
  const double params = static_cast<double>(dnn::layer_params(layer, input));
  const double in_elems = static_cast<double>(input.elements());
  const double out_elems = static_cast<double>(out.elements());
  const double moved = 4.0 * (params + in_elems + out_elems);

  // Shared log-domain magnitude features plus per-kind structural features.
  std::vector<double> f = {
      ml::log1p_feature(flops),
      ml::log1p_feature(moved),
      ml::log1p_feature(in_elems),
      ml::log1p_feature(out_elems),
      ml::log1p_feature(params),
  };
  switch (layer.kind) {
    case dnn::LayerKind::kConv:
      f.push_back(static_cast<double>(layer.kernel));
      f.push_back(static_cast<double>(layer.stride));
      f.push_back(static_cast<double>(layer.filters) / 100.0);
      f.push_back(static_cast<double>(input.channels) / 100.0);
      break;
    case dnn::LayerKind::kMaxPool:
      f.push_back(static_cast<double>(layer.kernel));
      f.push_back(static_cast<double>(layer.stride));
      break;
    case dnn::LayerKind::kDense:
      f.push_back(static_cast<double>(layer.units) / 1000.0);
      break;
  }
  return f;
}

RegressionPredictor RegressionPredictor::train(const DeviceSimulator& simulator,
                                               ProfilerConfig config) {
  RegressionPredictor predictor;
  LayerProfiler profiler(simulator, config);
  // Named substream of the profiler seed (splitmix64-mixed — see
  // par/substream.hpp; xor-ing a small salt yields correlated streams).
  std::mt19937_64 split_rng(par::substream_seed(config.seed, 0x5eedULL));

  for (dnn::LayerKind kind :
       {dnn::LayerKind::kConv, dnn::LayerKind::kMaxPool, dnn::LayerKind::kDense}) {
    const std::vector<ProfiledSample> samples = profiler.profile_kind(kind);

    ml::Dataset log_latency;
    ml::Dataset power;
    for (const ProfiledSample& s : samples) {
      std::vector<double> f = layer_features(s.layer, s.input);
      log_latency.add(f, std::log(s.measurement.latency_ms));
      power.add(std::move(f), s.measurement.power_mw);
    }
    auto [lat_train, lat_test] = ml::train_test_split(log_latency, 0.25, split_rng);
    // Reuse the same split indices would be ideal; an independent split of
    // the power dataset is statistically equivalent here.
    auto [pow_train, pow_test] = ml::train_test_split(power, 0.25, split_rng);

    KindModels models;
    models.scaler.fit(lat_train.x);
    models.log_latency.fit(models.scaler.transform(lat_train.x), lat_train.y);
    models.power.fit(models.scaler.transform(pow_train.x), pow_train.y);

    PredictorValidation v;
    v.train_samples = lat_train.size();
    v.test_samples = lat_test.size();
    {
      const std::vector<double> pred =
          models.log_latency.predict(models.scaler.transform(lat_test.x));
      std::vector<double> pred_ms(pred.size());
      std::vector<double> true_ms(pred.size());
      for (std::size_t i = 0; i < pred.size(); ++i) {
        pred_ms[i] = std::exp(pred[i]);
        true_ms[i] = std::exp(lat_test.y[i]);
      }
      v.latency_r2 = ml::r2_score(true_ms, pred_ms);
      v.latency_mape = ml::mape(true_ms, pred_ms);
    }
    {
      const std::vector<double> pred =
          models.power.predict(models.scaler.transform(pow_test.x));
      v.power_r2 = ml::r2_score(pow_test.y, pred);
      v.power_mape = ml::mape(pow_test.y, pred);
    }
    predictor.models_.emplace(kind, std::move(models));
    predictor.validation_.emplace(kind, v);
  }
  return predictor;
}

RooflinePredictor RooflinePredictor::train(const DeviceSimulator& simulator,
                                           ProfilerConfig config) {
  RooflinePredictor predictor;
  LayerProfiler profiler(simulator, config);
  std::mt19937_64 split_rng(par::substream_seed(config.seed, 0x0f10ULL));

  for (dnn::LayerKind kind :
       {dnn::LayerKind::kConv, dnn::LayerKind::kMaxPool, dnn::LayerKind::kDense}) {
    const std::vector<ProfiledSample> samples = profiler.profile_kind(kind);

    // Random hold-out split over sample indices.
    std::vector<std::size_t> order(samples.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), split_rng);
    const std::size_t test_count = samples.size() / 4;

    std::vector<double> train_flops, train_bytes, train_latency;
    std::vector<const ProfiledSample*> train_samples, test_samples;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const ProfiledSample& s = samples[order[i]];
      if (i < test_count) {
        test_samples.push_back(&s);
      } else {
        train_samples.push_back(&s);
        train_flops.push_back(static_cast<double>(dnn::layer_flops(s.layer, s.input)));
        train_bytes.push_back(static_cast<double>(simulator.bytes_touched(s.layer, s.input)));
        train_latency.push_back(s.measurement.latency_ms);
      }
    }

    KindModels models;
    models.latency.fit(train_flops, train_bytes, train_latency);

    // Power levels: mean measured power per latency-model branch.
    double compute_sum = 0.0, memory_sum = 0.0, all_sum = 0.0;
    std::size_t compute_count = 0, memory_count = 0;
    for (const ProfiledSample* s : train_samples) {
      const double f = static_cast<double>(dnn::layer_flops(s->layer, s->input));
      const double b = static_cast<double>(simulator.bytes_touched(s->layer, s->input));
      all_sum += s->measurement.power_mw;
      if (models.latency.compute_bound(f, b)) {
        compute_sum += s->measurement.power_mw;
        ++compute_count;
      } else {
        memory_sum += s->measurement.power_mw;
        ++memory_count;
      }
    }
    const double global_mean = all_sum / static_cast<double>(train_samples.size());
    models.compute_bound_power_mw =
        compute_count > 0 ? compute_sum / static_cast<double>(compute_count) : global_mean;
    models.memory_bound_power_mw =
        memory_count > 0 ? memory_sum / static_cast<double>(memory_count) : global_mean;

    // Held-out validation.
    PredictorValidation v;
    v.train_samples = train_samples.size();
    v.test_samples = test_samples.size();
    std::vector<double> lat_true, lat_pred, pow_true, pow_pred;
    for (const ProfiledSample* s : test_samples) {
      const double f = static_cast<double>(dnn::layer_flops(s->layer, s->input));
      const double b = static_cast<double>(simulator.bytes_touched(s->layer, s->input));
      lat_true.push_back(s->measurement.latency_ms);
      lat_pred.push_back(models.latency.predict(f, b));
      pow_true.push_back(s->measurement.power_mw);
      pow_pred.push_back(models.latency.compute_bound(f, b) ? models.compute_bound_power_mw
                                                            : models.memory_bound_power_mw);
    }
    v.latency_r2 = ml::r2_score(lat_true, lat_pred);
    v.latency_mape = ml::mape(lat_true, lat_pred);
    v.power_r2 = ml::r2_score(pow_true, pow_pred);
    v.power_mape = ml::mape(pow_true, pow_pred);

    predictor.models_.emplace(kind, std::move(models));
    predictor.validation_.emplace(kind, v);
  }
  return predictor;
}

LayerMeasurement RooflinePredictor::predict(const dnn::LayerSpec& layer,
                                            const dnn::TensorShape& input) const {
  const auto it = models_.find(layer.kind);
  if (it == models_.end()) {
    throw std::logic_error("RooflinePredictor: no model for layer kind");
  }
  const KindModels& m = it->second;
  const double f = static_cast<double>(dnn::layer_flops(layer, input));
  // bytes_touched without a simulator instance: weights + in + out, fp32 —
  // same formula DeviceSimulator::bytes_touched uses.
  const dnn::TensorShape out = dnn::output_shape(layer, input);
  const double b = 4.0 * (static_cast<double>(dnn::layer_params(layer, input)) +
                          static_cast<double>(input.elements()) +
                          static_cast<double>(out.elements()));
  LayerMeasurement result;
  result.latency_ms = m.latency.predict(f, b);
  result.power_mw =
      m.latency.compute_bound(f, b) ? m.compute_bound_power_mw : m.memory_bound_power_mw;
  return result;
}

LayerMeasurement RegressionPredictor::predict(const dnn::LayerSpec& layer,
                                              const dnn::TensorShape& input) const {
  const auto it = models_.find(layer.kind);
  if (it == models_.end()) {
    throw std::logic_error("RegressionPredictor: no model for layer kind");
  }
  const KindModels& m = it->second;
  const std::vector<double> f = m.scaler.transform(layer_features(layer, input));
  LayerMeasurement out;
  out.latency_ms = std::exp(m.log_latency.predict(f));
  out.power_mw = std::max(0.0, m.power.predict(f));
  return out;
}

}  // namespace lens::perf
