// Tests for the NAS drivers (Algorithm 2 wiring) and the frontier-analysis
// helpers used by the Fig. 6 / Fig. 7 experiments.

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/nas.hpp"
#include "perf/predictor.hpp"

namespace lens::core {
namespace {

// Shared fixture: small search budgets so the whole file runs in seconds.
class NasTest : public ::testing::Test {
 protected:
  NasTest()
      : simulator_(perf::jetson_tx2_gpu()),
        oracle_(simulator_),
        comm_(comm::WirelessTechnology::kWifi, 5.0),
        evaluator_(oracle_, comm_) {}

  NasConfig small_config(ObjectiveMode mode, unsigned seed = 1) const {
    NasConfig config;
    config.mobo.num_initial = 8;
    config.mobo.num_iterations = 12;
    config.mobo.pool_size = 48;
    config.mobo.seed = seed;
    config.tu_mbps = 3.0;
    config.mode = mode;
    return config;
  }

  SearchSpace space_;
  perf::DeviceSimulator simulator_;
  perf::SimulatorOracle oracle_;
  comm::CommModel comm_;
  DeploymentEvaluator evaluator_;
  SurrogateAccuracyModel accuracy_;
};

TEST_F(NasTest, RunProducesFullHistoryAndFront) {
  NasDriver driver(space_, evaluator_, accuracy_,
                   small_config(ObjectiveMode::kBestDeployment));
  const NasResult result = driver.run();
  EXPECT_EQ(result.history.size(), 20u);
  EXPECT_GE(result.front.size(), 1u);
  for (const opt::ParetoPoint& p : result.front.points()) {
    ASSERT_LT(p.id, result.history.size());
    EXPECT_EQ(result.history[p.id].objectives(), p.objectives);
  }
  for (const EvaluatedCandidate& c : result.history) {
    EXPECT_TRUE(space_.is_valid(c.genotype));
    EXPECT_GT(c.latency_ms, 0.0);
    EXPECT_GT(c.energy_mj, 0.0);
    EXPECT_GE(c.error_percent, 11.0);
    EXPECT_FALSE(c.deployment.options.empty());
  }
}

TEST_F(NasTest, LensObjectivesAreBestDeploymentMinima) {
  NasDriver driver(space_, evaluator_, accuracy_,
                   small_config(ObjectiveMode::kBestDeployment));
  const NasResult result = driver.run();
  for (const EvaluatedCandidate& c : result.history) {
    EXPECT_DOUBLE_EQ(c.latency_ms, c.deployment.best_latency_ms());
    EXPECT_DOUBLE_EQ(c.energy_mj, c.deployment.best_energy_mj());
  }
}

TEST_F(NasTest, TraditionalObjectivesAreAllEdge) {
  NasDriver driver(space_, evaluator_, accuracy_, small_config(ObjectiveMode::kAllEdgeOnly));
  const NasResult result = driver.run();
  for (const EvaluatedCandidate& c : result.history) {
    EXPECT_DOUBLE_EQ(c.latency_ms, c.deployment.all_edge().latency_ms);
    EXPECT_DOUBLE_EQ(c.energy_mj, c.deployment.all_edge().energy_mj);
    // Best deployment can never be worse than All-Edge.
    EXPECT_LE(c.deployment.best_latency_ms(), c.latency_ms + 1e-9);
    EXPECT_LE(c.deployment.best_energy_mj(), c.energy_mj + 1e-9);
  }
}

TEST_F(NasTest, ReproducibleAcrossRuns) {
  NasDriver a(space_, evaluator_, accuracy_, small_config(ObjectiveMode::kBestDeployment, 7));
  NasDriver b(space_, evaluator_, accuracy_, small_config(ObjectiveMode::kBestDeployment, 7));
  const NasResult ra = a.run();
  const NasResult rb = b.run();
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].genotype, rb.history[i].genotype);
    EXPECT_DOUBLE_EQ(ra.history[i].energy_mj, rb.history[i].energy_mj);
  }
}

TEST_F(NasTest, ObjectiveValuePolicies) {
  NasDriver driver(space_, evaluator_, accuracy_, small_config(ObjectiveMode::kAllEdgeOnly));
  const NasResult result = driver.run();
  const EvaluatedCandidate& c = result.history.front();
  EXPECT_DOUBLE_EQ(objective_value(c, kErrorObjective, DeploymentPolicy::kAllEdge),
                   c.error_percent);
  EXPECT_DOUBLE_EQ(objective_value(c, kLatencyObjective, DeploymentPolicy::kAsSearched),
                   c.latency_ms);
  EXPECT_DOUBLE_EQ(objective_value(c, kEnergyObjective, DeploymentPolicy::kAllEdge),
                   c.deployment.all_edge().energy_mj);
  EXPECT_DOUBLE_EQ(objective_value(c, kLatencyObjective, DeploymentPolicy::kBestDeployment),
                   c.deployment.best_latency_ms());
}

TEST_F(NasTest, Front2dIsNondominatedOverHistory) {
  NasDriver driver(space_, evaluator_, accuracy_,
                   small_config(ObjectiveMode::kBestDeployment));
  const NasResult result = driver.run();
  const opt::ParetoFront front =
      front_2d(result.history, kErrorObjective, kEnergyObjective);
  for (const EvaluatedCandidate& c : result.history) {
    const std::vector<double> point = {c.error_percent, c.energy_mj};
    // Nothing in history may dominate a front member... i.e. each history
    // point is either on the front or dominated/equal.
    if (front.would_accept(point)) {
      ADD_FAILURE() << "history point missing from 2-D front";
    }
  }
}

TEST_F(NasTest, RepartitionNeverWorsensAnyMember) {
  NasDriver driver(space_, evaluator_, accuracy_, small_config(ObjectiveMode::kAllEdgeOnly));
  const NasResult result = driver.run();
  const opt::ParetoFront edge_front =
      front_2d(result.history, kErrorObjective, kEnergyObjective, DeploymentPolicy::kAllEdge);
  const opt::ParetoFront repartitioned =
      repartition_front(edge_front, result.history, kErrorObjective, kEnergyObjective);
  // Every repartitioned member is component-wise <= some original member
  // (same candidate, energy can only improve, error unchanged).
  for (const opt::ParetoPoint& p : repartitioned.points()) {
    const EvaluatedCandidate& c = result.history[p.id];
    EXPECT_LE(p.objectives[1], c.deployment.all_edge().energy_mj + 1e-9);
    EXPECT_DOUBLE_EQ(p.objectives[0], c.error_percent);
  }
  EXPECT_LE(repartitioned.size(), edge_front.size());
}

TEST_F(NasTest, CompareFrontsIsConsistent) {
  opt::ParetoFront a;
  a.insert(0, {1.0, 5.0});
  a.insert(1, {2.0, 2.0});
  opt::ParetoFront b;
  b.insert(0, {3.0, 3.0});
  b.insert(1, {0.5, 8.0});
  const FrontComparison cmp = compare_fronts(a, b);
  EXPECT_DOUBLE_EQ(cmp.a_dominates_b, 0.5);  // (2,2) dominates (3,3)
  EXPECT_DOUBLE_EQ(cmp.b_dominates_a, 0.0);
  EXPECT_EQ(cmp.combined.total, 3u);
  EXPECT_EQ(cmp.combined.from_a, 2u);
}

TEST_F(NasTest, CountSatisfyingCriteria) {
  NasDriver driver(space_, evaluator_, accuracy_,
                   small_config(ObjectiveMode::kBestDeployment));
  const NasResult result = driver.run();
  const std::size_t all = count_satisfying(
      result.history, [](const EvaluatedCandidate&) { return true; });
  EXPECT_EQ(all, result.history.size());
  const std::size_t low_error = count_satisfying(
      result.history, [](const EvaluatedCandidate& c) { return c.error_percent < 25.0; });
  const std::size_t low_both = count_satisfying(result.history, [](const EvaluatedCandidate& c) {
    return c.error_percent < 25.0 && c.energy_mj < 250.0;
  });
  EXPECT_LE(low_both, low_error);
}

TEST_F(NasTest, KneePointIsBalancedFrontMember) {
  opt::ParetoFront front;
  front.insert(0, {0.0, 10.0});   // extreme in objective 1
  front.insert(1, {10.0, 0.0});   // extreme in objective 2
  front.insert(2, {2.0, 2.0});    // balanced knee
  EXPECT_EQ(knee_point(front).id, 2u);
  EXPECT_THROW(knee_point(opt::ParetoFront{}), std::invalid_argument);
}

TEST_F(NasTest, KneePointOfDegenerateFrontIsItsOnlyMember) {
  opt::ParetoFront front;
  front.insert(7, {3.0, 4.0});
  EXPECT_EQ(knee_point(front).id, 7u);
}

// The headline sanity: with identical budgets, LENS's energy-error front
// should never be dominated wholesale by the Traditional front (it sees
// strictly more deployment options per candidate).
TEST_F(NasTest, LensFrontNotDominatedByTraditional) {
  NasDriver lens(space_, evaluator_, accuracy_,
                 small_config(ObjectiveMode::kBestDeployment, 21));
  NasDriver traditional(space_, evaluator_, accuracy_,
                        small_config(ObjectiveMode::kAllEdgeOnly, 21));
  const NasResult lens_result = lens.run();
  const NasResult traditional_result = traditional.run();
  const opt::ParetoFront lens_front =
      front_2d(lens_result.history, kErrorObjective, kEnergyObjective);
  const opt::ParetoFront trad_front =
      front_2d(traditional_result.history, kErrorObjective, kEnergyObjective);
  const FrontComparison cmp = compare_fronts(lens_front, trad_front);
  EXPECT_LT(cmp.b_dominates_a, 1.0);
  EXPECT_GT(cmp.combined.total, 0u);
}

}  // namespace
}  // namespace lens::core
