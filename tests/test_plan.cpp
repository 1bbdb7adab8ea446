// Tests for compiled deployment plans (core/plan.hpp): compile/price must
// reproduce the historical single-stage Algorithm-1 evaluation bit for bit.
// A frozen reference implementation of the pre-refactor evaluate() lives in
// this file; randomized architectures are checked against it field-for-field
// with exact (EXPECT_EQ) comparisons across memory budgets, cloud models,
// and log-spaced throughput sweeps.

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "core/search_space.hpp"
#include "dnn/presets.hpp"
#include "perf/predictor.hpp"
#include "runtime/threshold.hpp"

namespace lens::core {
namespace {

/// Frozen copy of the pre-refactor DeploymentEvaluator::evaluate — the
/// ground truth the compile/price split must match exactly.
DeploymentEvaluation legacy_evaluate(const perf::LayerPerformanceModel& model,
                                     const comm::CommModel& comm,
                                     const EvaluatorConfig& config,
                                     const dnn::Architecture& arch, double tu_mbps) {
  DeploymentEvaluation result;
  const std::size_t n = arch.num_layers();

  result.layer_latency_ms.reserve(n);
  result.layer_energy_mj.reserve(n);
  for (const dnn::LayerInfo& info : arch.layers()) {
    const perf::LayerMeasurement m = model.predict(info.spec, info.input);
    result.layer_latency_ms.push_back(m.latency_ms);
    result.layer_energy_mj.push_back(m.energy_mj());
  }

  std::vector<double> cloud_suffix_ms(n + 1, 0.0);
  if (config.cloud_model != nullptr) {
    for (std::size_t i = n; i-- > 0;) {
      const dnn::LayerInfo& info = arch.layers()[i];
      cloud_suffix_ms[i] = cloud_suffix_ms[i + 1] +
                           config.cloud_model->predict(info.spec, info.input).latency_ms;
    }
  }

  {
    DeploymentOption o;
    o.kind = DeploymentKind::kAllCloud;
    o.tx_bytes = arch.input_bytes(config.sizes);
    o.edge_latency_ms = 0.0;
    o.edge_energy_mj = 0.0;
    o.cloud_latency_ms = cloud_suffix_ms[0];
    o.latency_ms = comm.comm_latency_ms(o.tx_bytes, tu_mbps) + o.cloud_latency_ms;
    o.energy_mj = comm.tx_energy_mj(o.tx_bytes, tu_mbps);
    result.options.push_back(o);
  }

  const std::uint64_t budget = config.edge_memory_budget_bytes;
  double latency_prefix = 0.0;
  double energy_prefix = 0.0;
  std::uint64_t weight_prefix = 0;
  const std::uint64_t input_bytes = arch.input_bytes(config.sizes);
  for (std::size_t i = 0; i < n; ++i) {
    latency_prefix += result.layer_latency_ms[i];
    energy_prefix += result.layer_energy_mj[i];
    weight_prefix += 4ULL * arch.layers()[i].params;
    const std::uint64_t out_bytes = arch.output_bytes(i, config.sizes);
    const bool viable = out_bytes < input_bytes;
    const bool fits = budget == 0 || weight_prefix <= budget;
    const bool last = i + 1 == n;
    if (last && fits) {
      DeploymentOption o;
      o.kind = DeploymentKind::kAllEdge;
      o.edge_latency_ms = latency_prefix;
      o.edge_energy_mj = energy_prefix;
      o.latency_ms = latency_prefix;
      o.energy_mj = energy_prefix;
      o.edge_weight_bytes = weight_prefix;
      result.options.push_back(o);
    } else if (!last && viable && fits) {
      DeploymentOption o;
      o.kind = DeploymentKind::kPartitioned;
      o.split_after = i;
      o.tx_bytes = out_bytes;
      o.edge_latency_ms = latency_prefix;
      o.edge_energy_mj = energy_prefix;
      o.cloud_latency_ms = cloud_suffix_ms[i + 1];
      o.latency_ms =
          latency_prefix + comm.comm_latency_ms(out_bytes, tu_mbps) + o.cloud_latency_ms;
      o.energy_mj = energy_prefix + comm.tx_energy_mj(out_bytes, tu_mbps);
      o.edge_weight_bytes = weight_prefix;
      result.options.push_back(o);
    }
  }

  result.best_latency_option = 0;
  result.best_energy_option = 0;
  for (std::size_t i = 1; i < result.options.size(); ++i) {
    if (result.options[i].latency_ms <
        result.options[result.best_latency_option].latency_ms) {
      result.best_latency_option = i;
    }
    if (result.options[i].energy_mj < result.options[result.best_energy_option].energy_mj) {
      result.best_energy_option = i;
    }
  }
  return result;
}

/// Exact (bitwise, via ==) field-for-field comparison of two evaluations.
void expect_identical(const DeploymentEvaluation& got, const DeploymentEvaluation& want) {
  ASSERT_EQ(got.options.size(), want.options.size());
  EXPECT_EQ(got.best_latency_option, want.best_latency_option);
  EXPECT_EQ(got.best_energy_option, want.best_energy_option);
  EXPECT_EQ(got.layer_latency_ms, want.layer_latency_ms);
  EXPECT_EQ(got.layer_energy_mj, want.layer_energy_mj);
  for (std::size_t i = 0; i < want.options.size(); ++i) {
    const DeploymentOption& g = got.options[i];
    const DeploymentOption& w = want.options[i];
    EXPECT_EQ(g.kind, w.kind) << "option " << i;
    EXPECT_EQ(g.split_after, w.split_after) << "option " << i;
    EXPECT_EQ(g.latency_ms, w.latency_ms) << "option " << i;
    EXPECT_EQ(g.energy_mj, w.energy_mj) << "option " << i;
    EXPECT_EQ(g.edge_latency_ms, w.edge_latency_ms) << "option " << i;
    EXPECT_EQ(g.edge_energy_mj, w.edge_energy_mj) << "option " << i;
    EXPECT_EQ(g.tx_bytes, w.tx_bytes) << "option " << i;
    EXPECT_EQ(g.edge_weight_bytes, w.edge_weight_bytes) << "option " << i;
    EXPECT_EQ(g.cloud_latency_ms, w.cloud_latency_ms) << "option " << i;
  }
}

class PlanTest : public ::testing::Test {
 protected:
  PlanTest()
      : sim_(perf::jetson_tx2_gpu()),
        oracle_(sim_),
        cloud_sim_(perf::jetson_tx2_gpu()),
        cloud_oracle_(cloud_sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        lte_(comm::WirelessTechnology::kLte, 25.0) {}

  /// Log-spaced throughput sweep over [0.05, 500] Mbps.
  static std::vector<double> tu_sweep() {
    std::vector<double> tus;
    for (double tu = 0.05; tu < 500.0; tu *= 2.3) tus.push_back(tu);
    return tus;
  }

  perf::DeviceSimulator sim_;
  perf::SimulatorOracle oracle_;
  perf::DeviceSimulator cloud_sim_;
  perf::SimulatorOracle cloud_oracle_;
  comm::CommModel wifi_;
  comm::CommModel lte_;
};

TEST_F(PlanTest, PriceIsBitIdenticalToLegacyOnRandomArchitectures) {
  const SearchSpace space;
  std::mt19937_64 rng(2024);
  const std::uint64_t mb = 1ULL << 20;
  const std::uint64_t budgets[] = {0, 50 * mb, 16 * mb, 64 * 1024};
  const perf::LayerPerformanceModel* clouds[] = {nullptr, &cloud_oracle_};

  for (int trial = 0; trial < 8; ++trial) {
    const dnn::Architecture arch = space.decode(space.random(rng));
    // Cycle the grid so every (budget, cloud, comm) cell is exercised
    // without an 8x4x2x2 blowup of predictor work.
    const EvaluatorConfig config{{}, budgets[trial % 4], clouds[trial % 2]};
    const comm::CommModel& comm = trial % 3 == 0 ? lte_ : wifi_;
    const DeploymentEvaluator evaluator(oracle_, comm, config);
    const DeploymentPlan plan = evaluator.compile(arch);
    for (double tu : tu_sweep()) {
      const DeploymentEvaluation want = legacy_evaluate(oracle_, comm, config, arch, tu);
      expect_identical(plan.price(tu), want);
      // The thin evaluate() wrapper must agree too.
      expect_identical(evaluator.evaluate(arch, tu), want);
    }
  }
}

TEST_F(PlanTest, PlanCurvesMatchRuntimeCurveDerivation) {
  const DeploymentEvaluator evaluator(oracle_, lte_);
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  ASSERT_EQ(plan.latency_curves().size(), plan.num_options());
  ASSERT_EQ(plan.energy_curves().size(), plan.num_options());
  for (std::size_t i = 0; i < plan.num_options(); ++i) {
    const DeploymentOption& o = plan.options()[i];
    const runtime::CostCurve lat = runtime::latency_curve(o, lte_);
    const runtime::CostCurve ene = runtime::energy_curve(o, lte_);
    EXPECT_EQ(plan.latency_curves()[i].constant, lat.constant) << "option " << i;
    EXPECT_EQ(plan.latency_curves()[i].per_inverse_tu, lat.per_inverse_tu) << "option " << i;
    EXPECT_EQ(plan.energy_curves()[i].constant, ene.constant) << "option " << i;
    EXPECT_EQ(plan.energy_curves()[i].per_inverse_tu, ene.per_inverse_tu) << "option " << i;
  }
}

TEST_F(PlanTest, PriceIntoReusesStorageAndMatchesPrice) {
  const DeploymentEvaluator evaluator(oracle_, wifi_);
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  DeploymentEvaluation out;
  plan.price_into(3.0, out);
  const DeploymentOption* data = out.options.data();
  const std::size_t capacity = out.options.capacity();
  for (double tu : tu_sweep()) {
    plan.price_into(tu, out);
    expect_identical(out, plan.price(tu));
    // Hot path: no reallocation once the vectors have grown.
    EXPECT_EQ(out.options.data(), data);
    EXPECT_EQ(out.options.capacity(), capacity);
  }
}

TEST_F(PlanTest, ObjectivesAtAgreesWithFullPricing) {
  const DeploymentEvaluator evaluator(oracle_, wifi_);
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  const std::vector<double> tus = tu_sweep();
  const std::vector<PricedObjectives> batch = plan.price_batch(tus);
  ASSERT_EQ(batch.size(), tus.size());
  for (std::size_t i = 0; i < tus.size(); ++i) {
    const DeploymentEvaluation full = plan.price(tus[i]);
    EXPECT_EQ(batch[i].best_latency_ms, full.best_latency_ms());
    EXPECT_EQ(batch[i].best_energy_mj, full.best_energy_mj());
    EXPECT_EQ(batch[i].best_latency_option, full.best_latency_option);
    EXPECT_EQ(batch[i].best_energy_option, full.best_energy_option);
    const PricedObjectives single = plan.objectives_at(tus[i]);
    EXPECT_EQ(single.best_latency_ms, batch[i].best_latency_ms);
    EXPECT_EQ(single.best_energy_mj, batch[i].best_energy_mj);
  }
}

TEST_F(PlanTest, OptionCostHelpersMatchPricedFields) {
  const DeploymentEvaluator evaluator(oracle_, lte_);
  const DeploymentPlan plan = evaluator.compile(dnn::vgg16());
  for (double tu : {0.3, 4.0, 90.0}) {
    const DeploymentEvaluation full = plan.price(tu);
    for (std::size_t i = 0; i < plan.num_options(); ++i) {
      EXPECT_EQ(plan.option_latency_ms(i, tu), full.options[i].latency_ms);
      EXPECT_EQ(plan.option_energy_mj(i, tu), full.options[i].energy_mj);
    }
  }
}

TEST_F(PlanTest, Validation) {
  const DeploymentEvaluator evaluator(oracle_, wifi_);
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  EXPECT_THROW(plan.price(0.0), std::invalid_argument);
  EXPECT_THROW(plan.price(-2.0), std::invalid_argument);
  EXPECT_THROW(plan.objectives_at(0.0), std::invalid_argument);
  EXPECT_THROW(plan.price(std::nan("")), std::invalid_argument);
  EXPECT_THROW(plan.objectives_at(std::nan("")), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(plan.price(inf), std::invalid_argument);
  EXPECT_THROW(plan.objectives_at(inf), std::invalid_argument);
  const DeploymentPlan empty;
  EXPECT_THROW(empty.price(3.0), std::logic_error);
  EXPECT_THROW(empty.objectives_at(3.0), std::logic_error);
}

TEST_F(PlanTest, PriceBatchValidationMatchesScalarPath) {
  // The batched sweep must reject exactly what a loop of objectives_at
  // calls would reject, in the same order: throughput first, empty plan
  // second. An empty sweep is a no-op, even on an empty plan.
  const DeploymentEvaluator evaluator(oracle_, wifi_);
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  EXPECT_TRUE(plan.price_batch({}).empty());
  EXPECT_THROW(plan.price_batch({0.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(plan.price_batch({3.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(plan.price_batch({std::nan(""), 3.0}), std::invalid_argument);
  EXPECT_THROW(plan.price_batch({3.0, std::nan("")}), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(plan.price_batch({inf, 3.0}), std::invalid_argument);
  EXPECT_THROW(plan.price_batch({3.0, inf}), std::invalid_argument);
  const DeploymentPlan empty;
  EXPECT_TRUE(empty.price_batch({}).empty());
  EXPECT_THROW(empty.price_batch({3.0}), std::logic_error);
  EXPECT_THROW(empty.price_batch({0.0}), std::invalid_argument);  // tu checked first
  EXPECT_THROW(empty.price_batch({inf}), std::invalid_argument);
}

TEST_F(PlanTest, PlanOutlivesItsEvaluator) {
  // Plans are self-contained (they copy the comm model): pricing after the
  // evaluator is gone must still work — the NAS cache relies on this.
  DeploymentPlan plan;
  DeploymentEvaluation want;
  {
    const DeploymentEvaluator evaluator(oracle_, lte_);
    plan = evaluator.compile(dnn::alexnet());
    want = evaluator.evaluate(dnn::alexnet(), 7.0);
  }
  expect_identical(plan.price(7.0), want);
}

}  // namespace
}  // namespace lens::core
