// Tests for the finite-cloud latency extension, the additional device
// profiles, the Hamming kernel for categorical genotypes, and the finite
// datacenter model (lens::cloud): M/M/1/K queueing pinned against an
// in-test direct-normalization oracle, admission control / load shedding,
// placement-policy energy accounting, the datacenter fault classes, and
// the EdgeCloudSystem integration (shed, circuit breaker, and the
// infinite-cloud equivalence of an uncontended real-time pool).

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/scheduler.hpp"
#include "comm/trace.hpp"
#include "core/evaluator.hpp"
#include "core/nas.hpp"
#include "dnn/presets.hpp"
#include "opt/gp.hpp"
#include "opt/kernel.hpp"
#include "perf/predictor.hpp"
#include "runtime/threshold.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"

namespace lens {
namespace {

TEST(DeviceProfiles, OrderingAcrossTiers) {
  const perf::DeviceProfile cloud = perf::datacenter_gpu();
  const perf::DeviceProfile edge_gpu = perf::jetson_tx2_gpu();
  const perf::DeviceProfile edge_cpu = perf::jetson_tx2_cpu();
  const perf::DeviceProfile tiny = perf::embedded_cpu();
  EXPECT_GT(cloud.conv_gflops, edge_gpu.conv_gflops);
  EXPECT_GT(edge_gpu.conv_gflops, edge_cpu.conv_gflops);
  EXPECT_GT(edge_cpu.conv_gflops, tiny.conv_gflops);
  EXPECT_GT(cloud.dense_bandwidth_gbps, edge_gpu.dense_bandwidth_gbps);
}

class CloudModelTest : public ::testing::Test {
 protected:
  CloudModelTest()
      : edge_sim_(perf::jetson_tx2_gpu()),
        cloud_sim_(perf::datacenter_gpu()),
        edge_oracle_(edge_sim_),
        cloud_oracle_(cloud_sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        alexnet_(dnn::alexnet()) {}

  perf::DeviceSimulator edge_sim_;
  perf::DeviceSimulator cloud_sim_;
  perf::SimulatorOracle edge_oracle_;
  perf::SimulatorOracle cloud_oracle_;
  comm::CommModel wifi_;
  dnn::Architecture alexnet_;
};

TEST_F(CloudModelTest, NullCloudMatchesPaperModel) {
  const core::DeploymentEvaluator plain(edge_oracle_, wifi_);
  core::EvaluatorConfig config;  // cloud_model defaults to nullptr
  const core::DeploymentEvaluator configured(edge_oracle_, wifi_, config);
  const auto a = plain.evaluate(alexnet_, 10.0);
  const auto b = configured.evaluate(alexnet_, 10.0);
  ASSERT_EQ(a.options.size(), b.options.size());
  for (std::size_t i = 0; i < a.options.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.options[i].latency_ms, b.options[i].latency_ms);
    EXPECT_DOUBLE_EQ(b.options[i].cloud_latency_ms, 0.0);
  }
}

TEST_F(CloudModelTest, FiniteCloudAddsSuffixLatency) {
  core::EvaluatorConfig config;
  config.cloud_model = &cloud_oracle_;
  const core::DeploymentEvaluator with_cloud(edge_oracle_, wifi_, config);
  const core::DeploymentEvaluator without(edge_oracle_, wifi_);
  const auto finite = with_cloud.evaluate(alexnet_, 10.0);
  const auto infinite = without.evaluate(alexnet_, 10.0);

  // All-Cloud pays the full network's cloud time; All-Edge pays none.
  EXPECT_GT(finite.all_cloud().latency_ms, infinite.all_cloud().latency_ms);
  EXPECT_GT(finite.all_cloud().cloud_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(finite.all_edge().latency_ms, infinite.all_edge().latency_ms);
  EXPECT_DOUBLE_EQ(finite.all_edge().cloud_latency_ms, 0.0);
  // Energy is never billed for cloud compute.
  for (std::size_t i = 0; i < finite.options.size(); ++i) {
    EXPECT_DOUBLE_EQ(finite.options[i].energy_mj, infinite.options[i].energy_mj);
  }
  // Later splits offload less -> smaller cloud latency.
  double previous = 1e300;
  for (const core::DeploymentOption& o : finite.options) {
    if (o.kind == core::DeploymentKind::kPartitioned) {
      EXPECT_LT(o.cloud_latency_ms, previous);
      previous = o.cloud_latency_ms;
    }
  }
}

TEST_F(CloudModelTest, DatacenterCloudBarelyMovesTheNeedle) {
  // The paper's assumption check: with a V100-class cloud, AlexNet's cloud
  // suffix costs ~1 ms, so deployment preferences at Table-I throughputs
  // are unchanged.
  core::EvaluatorConfig config;
  config.cloud_model = &cloud_oracle_;
  const core::DeploymentEvaluator with_cloud(edge_oracle_, wifi_, config);
  const core::DeploymentEvaluator without(edge_oracle_, wifi_);
  for (double tu : {0.7, 7.5, 16.1}) {
    EXPECT_EQ(with_cloud.evaluate(alexnet_, tu).latency_choice().label(alexnet_),
              without.evaluate(alexnet_, tu).latency_choice().label(alexnet_));
  }
}

TEST_F(CloudModelTest, SlowCloudFlipsPreferenceTowardEdge) {
  // A cloud as weak as the edge device itself makes offloading pointless
  // for latency at high throughput.
  core::EvaluatorConfig config;
  config.cloud_model = &edge_oracle_;  // "cloud" == another TX2
  const core::DeploymentEvaluator with_cloud(edge_oracle_, wifi_, config);
  const auto eval = with_cloud.evaluate(alexnet_, 30.0);
  // Without cloud cost, 30 Mbps prefers pool5 (Fig. 2); with an equally slow
  // cloud the split only adds transfer + the same compute.
  EXPECT_EQ(eval.latency_choice().label(alexnet_), "All-Edge");
}

TEST_F(CloudModelTest, RuntimeCurvesIncludeCloudConstant) {
  core::EvaluatorConfig config;
  config.cloud_model = &cloud_oracle_;
  const core::DeploymentEvaluator with_cloud(edge_oracle_, wifi_, config);
  const auto eval = with_cloud.evaluate(alexnet_, 10.0);
  const core::DeploymentOption& cloud = eval.all_cloud();
  const runtime::CostCurve curve = runtime::latency_curve(cloud, wifi_);
  EXPECT_NEAR(curve.value(10.0), cloud.latency_ms, 1e-9);
}

TEST(HammingKernel, CountsDifferingCoordinates) {
  EXPECT_EQ(opt::hamming_distance({0.0, 0.5, 1.0}, {0.0, 0.5, 1.0}), 0u);
  EXPECT_EQ(opt::hamming_distance({0.0, 0.5, 1.0}, {0.0, 0.6, 0.0}), 2u);
  EXPECT_THROW(opt::hamming_distance({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(HammingKernel, BasicProperties) {
  const opt::Kernel k(opt::KernelFamily::kHamming, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(k({0.0, 1.0}, {0.0, 1.0}), 1.0);
  // More differing coordinates -> lower covariance.
  EXPECT_GT(k({0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}), k({0.0, 0.0, 0.0}, {1.0, 1.0, 0.0}));
  // Symmetric.
  EXPECT_DOUBLE_EQ(k({0.0, 1.0}, {1.0, 1.0}), k({1.0, 1.0}, {0.0, 1.0}));
  EXPECT_THROW(opt::Kernel(opt::KernelFamily::kHamming, 0.0, 1.0), std::invalid_argument);
}

TEST(HammingKernel, GpFitsCategoricalStructure) {
  // Target depends only on exact coordinate matches — Euclidean kernels
  // smooth across categories, the Hamming kernel does not need to.
  opt::GpConfig config;
  config.family = opt::KernelFamily::kHamming;
  opt::GaussianProcess gp(config);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (double a : {0.0, 0.5, 1.0}) {
    for (double b : {0.0, 0.5, 1.0}) {
      x.push_back({a, b});
      y.push_back((a == 0.5 ? 2.0 : 0.0) + (b == 1.0 ? 1.0 : 0.0));
    }
  }
  gp.fit(x, y);
  EXPECT_NEAR(gp.predict({0.5, 1.0}).mean, 3.0, 0.4);
  EXPECT_NEAR(gp.predict({0.0, 0.0}).mean, 0.0, 0.4);
}

TEST(HammingKernel, WorksInsideNasDriverConfig) {
  perf::DeviceSimulator sim(perf::jetson_tx2_gpu());
  const perf::SimulatorOracle oracle(sim);
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(oracle, wifi);
  const core::SearchSpace space;
  const core::SurrogateAccuracyModel accuracy;
  core::NasConfig config;
  config.mobo.num_initial = 6;
  config.mobo.num_iterations = 6;
  config.mobo.pool_size = 32;
  config.mobo.gp.family = opt::KernelFamily::kHamming;
  core::NasDriver driver(space, evaluator, accuracy, config);
  const core::NasResult result = driver.run();
  EXPECT_EQ(result.history.size(), 12u);
  EXPECT_GE(result.front.size(), 1u);
}

// ---------------------------------------------------------------------------
// lens::cloud -- M/M/1/K closed forms vs a direct-normalization oracle
// ---------------------------------------------------------------------------

struct QueueOracle {
  double block = 0.0;
  double mean_jobs = 0.0;
  double wait_ms = 0.0;
};

/// Independent single-queue oracle: enumerate the truncated-geometric
/// occupancy p_n proportional to rho^n over n = 0..K and normalize — no
/// shared algebra with the closed forms under test.
QueueOracle queue_oracle(double lambda, double mu, std::size_t k) {
  std::vector<double> p(k + 1);
  const double rho = lambda / mu;
  double power = 1.0, norm = 0.0;
  for (std::size_t n = 0; n <= k; ++n) {
    p[n] = power;
    norm += power;
    power *= rho;
  }
  QueueOracle oracle;
  for (std::size_t n = 0; n <= k; ++n) {
    p[n] /= norm;
    oracle.mean_jobs += static_cast<double>(n) * p[n];
  }
  oracle.block = p[k];
  const double admitted = lambda * (1.0 - oracle.block);
  if (admitted > 0.0) {
    oracle.wait_ms =
        std::max(0.0, (oracle.mean_jobs / admitted - 1.0 / mu) * 1e3);
  }
  return oracle;
}

TEST(Mm1kMetrics, MatchesDirectNormalizationOracle) {
  const double cases[][2] = {{10.0, 100.0}, {80.0, 100.0}, {100.0, 100.0},
                             {150.0, 100.0}, {400.0, 100.0}, {1.0, 1000.0}};
  for (const auto& c : cases) {
    for (std::size_t k : {1u, 2u, 8u, 32u}) {
      const cloud::QueueMetrics m = cloud::mm1k_metrics(c[0], c[1], k);
      const QueueOracle oracle = queue_oracle(c[0], c[1], k);
      EXPECT_NEAR(m.block_probability, oracle.block, 1e-9)
          << "lambda=" << c[0] << " mu=" << c[1] << " K=" << k;
      EXPECT_NEAR(m.mean_jobs, oracle.mean_jobs, 1e-9);
      EXPECT_NEAR(m.mean_wait_ms, oracle.wait_ms, 1e-6);
    }
  }
}

TEST(Mm1kMetrics, DegenerateAndEdgeCases) {
  // rho == 1: uniform occupancy, p_K = 1/(K+1), L = K/2.
  const cloud::QueueMetrics balanced = cloud::mm1k_metrics(50.0, 50.0, 4);
  EXPECT_NEAR(balanced.block_probability, 1.0 / 5.0, 1e-12);
  EXPECT_NEAR(balanced.mean_jobs, 2.0, 1e-12);
  // Empty queue: nothing waits, nothing blocks.
  const cloud::QueueMetrics idle = cloud::mm1k_metrics(0.0, 50.0, 4);
  EXPECT_EQ(idle.block_probability, 0.0);
  EXPECT_EQ(idle.mean_wait_ms, 0.0);
  EXPECT_THROW(cloud::mm1k_metrics(-1.0, 50.0, 4), std::invalid_argument);
  EXPECT_THROW(cloud::mm1k_metrics(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(cloud::mm1k_metrics(1.0, 50.0, 0), std::invalid_argument);
}

TEST(MachinePool, ValidationAndDerivedRates) {
  cloud::CloudConfig config;
  config.machines = 0;
  EXPECT_THROW(cloud::MachinePool pool(config), std::invalid_argument);
  config = {};
  config.machine.capacity_ms_per_s = 0.0;
  EXPECT_THROW(cloud::MachinePool pool(config), std::invalid_argument);
  config = {};
  config.machine.idle_w = 300.0;  // above active_w
  EXPECT_THROW(cloud::MachinePool pool(config), std::invalid_argument);
  config = {};
  config.machine.queue_slots = 0;
  EXPECT_THROW(cloud::MachinePool pool(config), std::invalid_argument);
  config = {};
  config.admit_utilization = 1.5;
  EXPECT_THROW(cloud::MachinePool pool(config), std::invalid_argument);
  config = {};
  config.assumed_job_ms = 0.0;
  EXPECT_THROW(cloud::MachinePool pool(config), std::invalid_argument);

  config = {};
  config.machine.capacity_ms_per_s = 4000.0;
  const cloud::MachinePool pool(config);
  // A 5 ms suffix at 4000 layer-ms/s serves 800 jobs/s; a 50% brownout
  // halves it; a blackout zeroes it.
  EXPECT_NEAR(pool.service_hz(5.0), 800.0, 1e-12);
  EXPECT_NEAR(pool.service_hz(5.0, 0.5), 400.0, 1e-12);
  EXPECT_EQ(pool.service_hz(5.0, 0.0), 0.0);
  // Options compiled under the infinite-cloud assumption (0 ms) fall back
  // to the configured assumed cost instead of free service.
  EXPECT_EQ(pool.effective_job_ms(0.0), config.assumed_job_ms);
  EXPECT_EQ(pool.effective_job_ms(3.0), 3.0);
  // Linear idle -> active power curve.
  EXPECT_EQ(pool.machine_power_w(0.0), config.machine.idle_w);
  EXPECT_EQ(pool.machine_power_w(1.0), config.machine.active_w);
}

// ---------------------------------------------------------------------------
// lens::cloud -- fluid placement (the fleet path)
// ---------------------------------------------------------------------------

cloud::CloudConfig small_pool(cloud::PlacementPolicy policy) {
  cloud::CloudConfig config;
  config.machines = 4;
  config.machine.capacity_ms_per_s = 4000.0;  // 5 ms suffix -> 800 jobs/s
  config.policy = policy;
  config.admit_utilization = 0.85;
  return config;
}

TEST(PlaceStep, ConservesLoadAndShedsOnlyBeyondCapacity) {
  const cloud::CloudScheduler sched(
      small_pool(cloud::PlacementPolicy::kGreedyFirstFit));
  // 4 machines x 800 jobs/s x 0.85 ceiling = 2720 qps of admission capacity.
  const cloud::StepOutcome light = sched.place_step(1000.0, 5.0);
  EXPECT_EQ(light.shed_qps, 0.0);
  EXPECT_EQ(light.admitted_qps, 1000.0);
  EXPECT_EQ(light.admit_fraction, 1.0);
  EXPECT_GT(light.mean_wait_ms, 0.0);
  EXPECT_EQ(light.machines_up, 4u);
  EXPECT_EQ(light.machines_active, 2u);  // 1000 / 680 per machine -> 2

  const cloud::StepOutcome heavy = sched.place_step(4000.0, 5.0);
  EXPECT_NEAR(heavy.admitted_qps, 2720.0, 1e-9);
  EXPECT_NEAR(heavy.shed_qps + heavy.admitted_qps, heavy.offered_qps, 1e-9);
  EXPECT_NEAR(heavy.admit_fraction, 2720.0 / 4000.0, 1e-12);
  EXPECT_EQ(heavy.machines_active, 4u);

  EXPECT_THROW(sched.place_step(-1.0, 5.0), std::invalid_argument);
}

TEST(PlaceStep, FailuresAndBrownoutsCutCapacity) {
  const cloud::CloudScheduler sched(
      small_pool(cloud::PlacementPolicy::kGreedyFirstFit));
  // Half the pool down: capacity halves to 1360 qps.
  const cloud::StepOutcome failed = sched.place_step(2000.0, 5.0, 0.5, 1.0);
  EXPECT_EQ(failed.machines_up, 2u);
  EXPECT_NEAR(failed.admitted_qps, 1360.0, 1e-9);
  EXPECT_GT(failed.shed_qps, 0.0);
  // A 75% brownout cuts every machine's speed: 200 jobs/s per machine.
  const cloud::StepOutcome browned = sched.place_step(2000.0, 5.0, 0.0, 0.25);
  EXPECT_EQ(browned.machines_up, 4u);
  EXPECT_NEAR(browned.admitted_qps, 4.0 * 200.0 * 0.85, 1e-9);
  EXPECT_GT(browned.shed_qps, 0.0);
  // Full blackout: everything shed, nothing active.
  const cloud::StepOutcome dark = sched.place_step(2000.0, 5.0, 0.0, 0.0);
  EXPECT_EQ(dark.admitted_qps, 0.0);
  EXPECT_EQ(dark.shed_qps, 2000.0);
  EXPECT_EQ(dark.machines_active, 0u);
}

TEST(PlaceStep, PoliciesAdmitIdenticallyButConsolidationSavesPower) {
  const cloud::CloudScheduler greedy(
      small_pool(cloud::PlacementPolicy::kGreedyFirstFit));
  const cloud::CloudScheduler best_fit(
      small_pool(cloud::PlacementPolicy::kEnergyBestFit));
  for (double offered : {500.0, 1500.0, 2720.0, 5000.0}) {
    const cloud::StepOutcome g = greedy.place_step(offered, 5.0);
    const cloud::StepOutcome e = best_fit.place_step(offered, 5.0);
    // Homogeneous pool: identical admission capacity, so identical shed.
    EXPECT_EQ(g.admitted_qps, e.admitted_qps) << offered;
    EXPECT_EQ(g.shed_qps, e.shed_qps);
    EXPECT_EQ(g.mean_wait_ms, e.mean_wait_ms);
    EXPECT_EQ(g.machines_active, e.machines_active);
    // Greedy keeps the idle tail powered; best-fit powers it off.
    const double idle_tail =
        static_cast<double>(g.machines_up - g.machines_active) *
        small_pool(cloud::PlacementPolicy::kGreedyFirstFit).machine.idle_w;
    EXPECT_NEAR(g.power_w - e.power_w, idle_tail, 1e-9);
    if (g.machines_active < g.machines_up) {
      EXPECT_GT(g.power_w, e.power_w);
    }
  }
}

// ---------------------------------------------------------------------------
// lens::cloud -- discrete admission (the EdgeCloudSystem path)
// ---------------------------------------------------------------------------

TEST(CloudAdmit, BoundedFifoQueueShedsWhenFull) {
  cloud::CloudConfig config;
  config.machines = 1;
  config.machine.capacity_ms_per_s = 1000.0;  // real time: 100 ms suffix
  config.machine.queue_slots = 2;
  cloud::CloudScheduler sched(config);

  const cloud::Admission a = sched.admit(0.0, 100.0);
  ASSERT_TRUE(a.admitted);
  EXPECT_EQ(a.start_s, 0.0);
  EXPECT_NEAR(a.completion_s, 0.1, 1e-12);
  EXPECT_EQ(a.wait_ms, 0.0);
  // Second arrival queues behind the first: waits out the residual service.
  const cloud::Admission b = sched.admit(0.05, 100.0);
  ASSERT_TRUE(b.admitted);
  EXPECT_NEAR(b.start_s, 0.1, 1e-12);
  EXPECT_NEAR(b.wait_ms, 50.0, 1e-9);
  // Third finds both slots resident: shed.
  const cloud::Admission c = sched.admit(0.06, 100.0);
  EXPECT_FALSE(c.admitted);
  EXPECT_EQ(sched.jobs_shed(), 1u);
  // After both complete, the queue has drained and admission resumes.
  const cloud::Admission d = sched.admit(0.3, 100.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.start_s, 0.3);
  EXPECT_EQ(sched.jobs_served(), 3u);

  EXPECT_THROW(sched.admit(-1.0, 100.0), std::invalid_argument);
}

TEST(CloudAdmit, PlacementOrderFollowsPolicy) {
  cloud::CloudConfig config;
  config.machines = 3;
  config.machine.capacity_ms_per_s = 1000.0;
  config.machine.queue_slots = 2;

  // First-fit: machine 0 twice (to capacity), then machine 1.
  config.policy = cloud::PlacementPolicy::kGreedyFirstFit;
  cloud::CloudScheduler greedy(config);
  EXPECT_EQ(greedy.admit(0.0, 50.0).machine, 0u);
  EXPECT_EQ(greedy.admit(0.0, 50.0).machine, 0u);
  EXPECT_EQ(greedy.admit(0.0, 50.0).machine, 1u);

  // Best-fit consolidation: the fullest machine with a free slot wins, so
  // the second job stacks on machine 0 instead of spreading.
  config.policy = cloud::PlacementPolicy::kEnergyBestFit;
  cloud::CloudScheduler best_fit(config);
  EXPECT_EQ(best_fit.admit(0.0, 50.0).machine, 0u);
  EXPECT_EQ(best_fit.admit(0.0, 50.0).machine, 0u);  // depth 1 beats empty
  EXPECT_EQ(best_fit.admit(0.0, 50.0).machine, 1u);  // 0 full now
  EXPECT_EQ(best_fit.admit(0.0, 50.0).machine, 1u);
}

TEST(CloudAdmit, FailuresShrinkThePoolAndEnergyFollowsPolicy) {
  cloud::CloudConfig config;
  config.machines = 2;
  config.machine.capacity_ms_per_s = 1000.0;
  config.machine.queue_slots = 1;
  cloud::CloudScheduler sched(config);
  // With one machine failed, only machine 0 exists; its single slot full
  // means shed even though machine 1 would have been free.
  EXPECT_TRUE(sched.admit(0.0, 100.0, 0.5).admitted);
  EXPECT_FALSE(sched.admit(0.0, 100.0, 0.5).admitted);
  // Brownout stretches service: a 50% factor doubles the 100 ms job.
  cloud::CloudScheduler slow(config);
  const cloud::Admission stretched = slow.admit(0.0, 100.0, 0.0, 0.5);
  EXPECT_NEAR(stretched.completion_s, 0.2, 1e-12);

  // Energy: one 0.1 s job on a 2-machine pool over a 1 s horizon. Greedy
  // pays idle draw on all non-busy time; best-fit pays busy draw only.
  cloud::CloudScheduler greedy(config);
  (void)greedy.admit(0.0, 100.0);
  const double active_w = config.machine.active_w;
  const double idle_w = config.machine.idle_w;
  EXPECT_NEAR(greedy.energy_j(1.0), 0.1 * active_w + 1.9 * idle_w, 1e-9);
  config.policy = cloud::PlacementPolicy::kEnergyBestFit;
  cloud::CloudScheduler frugal(config);
  (void)frugal.admit(0.0, 100.0);
  EXPECT_NEAR(frugal.energy_j(1.0), 0.1 * active_w, 1e-9);
}

// ---------------------------------------------------------------------------
// sim::FaultSchedule -- datacenter fault classes
// ---------------------------------------------------------------------------

TEST(DatacenterFaults, NewClassesLeaveLegacyStreamsByteIdentical) {
  sim::FaultScheduleConfig legacy;
  legacy.seed = 23;
  legacy.horizon_s = 3000.0;
  legacy.link_outage_rate_hz = 1.0 / 120.0;
  legacy.cloud_outage_rate_hz = 1.0 / 200.0;
  legacy.rtt_spike_rate_hz = 1.0 / 150.0;
  legacy.edge_slowdown_rate_hz = 1.0 / 180.0;

  sim::FaultScheduleConfig extended = legacy;
  extended.machine_failure_rate_hz = 1.0 / 90.0;
  extended.brownout_rate_hz = 1.0 / 110.0;

  const sim::FaultSchedule before = sim::FaultSchedule::generate(legacy);
  const sim::FaultSchedule after = sim::FaultSchedule::generate(extended);
  EXPECT_GT(after.count(sim::FaultClass::kMachineFailure), 0u);
  EXPECT_GT(after.count(sim::FaultClass::kRegionalBrownout), 0u);
  for (const sim::FaultClass fault :
       {sim::FaultClass::kLinkOutage, sim::FaultClass::kCloudOutage,
        sim::FaultClass::kRttSpike, sim::FaultClass::kEdgeSlowdown}) {
    ASSERT_EQ(before.count(fault), after.count(fault));
  }
  // Byte-identical legacy episodes, not just equal counts.
  std::vector<sim::FaultEpisode> legacy_before, legacy_after;
  for (const sim::FaultEpisode& e : before.episodes()) {
    if (e.fault != sim::FaultClass::kMachineFailure &&
        e.fault != sim::FaultClass::kRegionalBrownout) {
      legacy_before.push_back(e);
    }
  }
  for (const sim::FaultEpisode& e : after.episodes()) {
    if (e.fault != sim::FaultClass::kMachineFailure &&
        e.fault != sim::FaultClass::kRegionalBrownout) {
      legacy_after.push_back(e);
    }
  }
  ASSERT_EQ(legacy_before.size(), legacy_after.size());
  for (std::size_t i = 0; i < legacy_before.size(); ++i) {
    EXPECT_EQ(legacy_before[i].start_s, legacy_after[i].start_s);
    EXPECT_EQ(legacy_before[i].end_s, legacy_after[i].end_s);
    EXPECT_EQ(legacy_before[i].magnitude, legacy_after[i].magnitude);
  }
}

TEST(DatacenterFaults, InjectorQueriesAndValidation) {
  std::vector<sim::FaultEpisode> episodes;
  episodes.push_back({sim::FaultClass::kMachineFailure, 10.0, 20.0, 0.25});
  episodes.push_back({sim::FaultClass::kMachineFailure, 15.0, 18.0, 0.5});
  episodes.push_back({sim::FaultClass::kRegionalBrownout, 30.0, 40.0, 0.6});
  const sim::FaultInjector injector{sim::FaultSchedule(episodes)};
  EXPECT_EQ(injector.machine_failure_fraction(5.0), 0.0);
  EXPECT_EQ(injector.machine_failure_fraction(12.0), 0.25);
  EXPECT_EQ(injector.machine_failure_fraction(16.0), 0.5);  // deepest wins
  EXPECT_EQ(injector.brownout_factor(5.0), 1.0);
  EXPECT_NEAR(injector.brownout_factor(35.0), 0.4, 1e-12);

  EXPECT_THROW(
      sim::FaultSchedule({{sim::FaultClass::kMachineFailure, 0.0, 1.0, 1.5}}),
      std::invalid_argument);
  EXPECT_THROW(
      sim::FaultSchedule({{sim::FaultClass::kRegionalBrownout, 0.0, 1.0, 0.0}}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// sim::FaultSchedule -- regional fault classes (shared failure domains)
// ---------------------------------------------------------------------------

TEST(RegionalFaults, NewClassesLeaveLegacyStreamsByteIdentical) {
  // Same new-salt regression the datacenter classes passed: enabling the
  // regional classes (backhaul brownout/outage, fog-site failure) must leave
  // every one of the six pre-existing streams byte-identical.
  sim::FaultScheduleConfig legacy;
  legacy.seed = 23;
  legacy.horizon_s = 3000.0;
  legacy.link_outage_rate_hz = 1.0 / 120.0;
  legacy.cloud_outage_rate_hz = 1.0 / 200.0;
  legacy.rtt_spike_rate_hz = 1.0 / 150.0;
  legacy.edge_slowdown_rate_hz = 1.0 / 180.0;
  legacy.machine_failure_rate_hz = 1.0 / 90.0;
  legacy.brownout_rate_hz = 1.0 / 110.0;
  legacy.extra_hops.push_back({1.0 / 240.0, 30.0, 0.1, 1.0 / 260.0, 15.0, 80.0});

  sim::FaultScheduleConfig extended = legacy;
  extended.backhaul_brownout_rate_hz = 1.0 / 100.0;
  extended.backhaul_outage_rate_hz = 1.0 / 130.0;
  extended.fog_failure_rate_hz = 1.0 / 160.0;

  const sim::FaultSchedule before = sim::FaultSchedule::generate(legacy);
  const sim::FaultSchedule after = sim::FaultSchedule::generate(extended);
  EXPECT_GT(after.count(sim::FaultClass::kBackhaulBrownout), 0u);
  EXPECT_GT(after.count(sim::FaultClass::kBackhaulOutage), 0u);
  EXPECT_GT(after.count(sim::FaultClass::kFogSiteFailure), 0u);
  const auto is_regional = [](const sim::FaultEpisode& e) {
    return e.fault == sim::FaultClass::kBackhaulBrownout ||
           e.fault == sim::FaultClass::kBackhaulOutage ||
           e.fault == sim::FaultClass::kFogSiteFailure;
  };
  std::vector<sim::FaultEpisode> legacy_before, legacy_after;
  for (const sim::FaultEpisode& e : before.episodes()) {
    if (!is_regional(e)) legacy_before.push_back(e);
  }
  for (const sim::FaultEpisode& e : after.episodes()) {
    if (!is_regional(e)) legacy_after.push_back(e);
  }
  ASSERT_EQ(legacy_before.size(), legacy_after.size());
  for (std::size_t i = 0; i < legacy_before.size(); ++i) {
    EXPECT_EQ(legacy_before[i].fault, legacy_after[i].fault);
    EXPECT_EQ(legacy_before[i].start_s, legacy_after[i].start_s);
    EXPECT_EQ(legacy_before[i].end_s, legacy_after[i].end_s);
    EXPECT_EQ(legacy_before[i].magnitude, legacy_after[i].magnitude);
    EXPECT_EQ(legacy_before[i].hop, legacy_after[i].hop);
  }
  // Generated backhaul episodes land on the configured backhaul hop.
  for (const sim::FaultEpisode& e : after.episodes()) {
    if (e.fault == sim::FaultClass::kBackhaulBrownout ||
        e.fault == sim::FaultClass::kBackhaulOutage) {
      EXPECT_EQ(e.hop, extended.backhaul_hop);
    }
  }
}

TEST(RegionalFaults, InjectorQueriesAndValidation) {
  std::vector<sim::FaultEpisode> episodes;
  episodes.push_back({sim::FaultClass::kBackhaulBrownout, 10.0, 20.0, 0.6, 1});
  episodes.push_back({sim::FaultClass::kBackhaulBrownout, 15.0, 18.0, 0.9, 1});
  episodes.push_back({sim::FaultClass::kBackhaulOutage, 30.0, 40.0, 0.0, 2});
  episodes.push_back({sim::FaultClass::kFogSiteFailure, 50.0, 60.0, 0.5});
  episodes.push_back({sim::FaultClass::kFogSiteFailure, 55.0, 58.0, 1.0});
  const sim::FaultInjector injector{sim::FaultSchedule(episodes)};
  EXPECT_EQ(injector.backhaul_factor(5.0, 1), 1.0);
  EXPECT_NEAR(injector.backhaul_factor(12.0, 1), 0.4, 1e-12);
  EXPECT_NEAR(injector.backhaul_factor(16.0, 1), 0.1, 1e-12);  // deepest wins
  EXPECT_EQ(injector.backhaul_factor(12.0, 2), 1.0);           // hop-scoped
  EXPECT_FALSE(injector.backhaul_unavailable(12.0, 1));
  EXPECT_TRUE(injector.backhaul_unavailable(35.0, 2));
  EXPECT_FALSE(injector.backhaul_unavailable(35.0, 1));
  EXPECT_EQ(injector.fog_failure_fraction(45.0), 0.0);
  EXPECT_EQ(injector.fog_failure_fraction(52.0), 0.5);
  EXPECT_EQ(injector.fog_failure_fraction(56.0), 1.0);  // deepest wins

  // Backhaul classes live on hops past the radio; magnitudes are bounded.
  EXPECT_THROW(
      sim::FaultSchedule({{sim::FaultClass::kBackhaulBrownout, 0.0, 1.0, 0.5, 0}}),
      std::invalid_argument);
  EXPECT_THROW(
      sim::FaultSchedule({{sim::FaultClass::kBackhaulOutage, 0.0, 1.0, 0.0, 0}}),
      std::invalid_argument);
  EXPECT_THROW(
      sim::FaultSchedule({{sim::FaultClass::kBackhaulBrownout, 0.0, 1.0, 1.0, 1}}),
      std::invalid_argument);
  EXPECT_THROW(
      sim::FaultSchedule({{sim::FaultClass::kFogSiteFailure, 0.0, 1.0, 1.5}}),
      std::invalid_argument);
  sim::FaultScheduleConfig bad;
  bad.horizon_s = 100.0;
  bad.backhaul_outage_rate_hz = 0.01;
  bad.backhaul_hop = 0;
  EXPECT_THROW(sim::FaultSchedule::generate(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// sim::EdgeCloudSystem + finite cloud
// ---------------------------------------------------------------------------

comm::ThroughputTrace cloud_flat_trace(double mbps) {
  comm::ThroughputTrace trace;
  trace.samples_mbps = {mbps};
  trace.interval_s = 1000.0;
  return trace;
}

class FiniteCloudSystemTest : public ::testing::Test {
 protected:
  // A finite cloud needs a cloud performance model: with one configured the
  // plan options carry the measured suffix cost (cloud_latency_ms), which is
  // exactly the job size the pool schedules.
  FiniteCloudSystemTest()
      : sim_(perf::jetson_tx2_gpu()),
        cloud_sim_(perf::datacenter_gpu()),
        oracle_(sim_),
        cloud_oracle_(cloud_sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        evaluator_(oracle_, wifi_, with_cloud_model(cloud_oracle_)),
        plan_(evaluator_.compile(dnn::alexnet())),
        evaluation_(plan_.price(10.0)) {}

  static core::EvaluatorConfig with_cloud_model(
      const perf::SimulatorOracle& cloud) {
    core::EvaluatorConfig config;
    config.cloud_model = &cloud;
    return config;
  }

  /// Fastest cloud-reaching option (the pin the pool must serve).
  std::size_t cloud_option() const {
    std::size_t best = evaluation_.options.size();
    for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
      if (evaluation_.options[i].tx_bytes == 0) continue;
      if (best == evaluation_.options.size() ||
          evaluation_.options[i].latency_ms < evaluation_.options[best].latency_ms) {
        best = i;
      }
    }
    return best;
  }

  perf::DeviceSimulator sim_;
  perf::DeviceSimulator cloud_sim_;
  perf::SimulatorOracle oracle_;
  perf::SimulatorOracle cloud_oracle_;
  comm::CommModel wifi_;
  core::DeploymentEvaluator evaluator_;
  core::DeploymentPlan plan_;
  core::DeploymentEvaluation evaluation_;
};

TEST_F(FiniteCloudSystemTest, UncontendedRealTimePoolMatchesInfiniteCloud) {
  sim::SimConfig config;
  config.duration_s = 30.0;
  config.arrival_rate_hz = 3.0;
  config.policy = sim::DispatchPolicy::kFixed;
  config.fixed_option = cloud_option();
  ASSERT_GT(evaluation_.options[config.fixed_option].cloud_latency_ms, 0.0);

  sim::SimConfig finite = config;
  cloud::CloudConfig pool;
  pool.machines = 64;
  pool.machine.capacity_ms_per_s = 1000.0;  // real time
  pool.machine.queue_slots = 64;
  finite.cloud = pool;

  sim::EdgeCloudSystem infinite_sys(plan_, cloud_flat_trace(10.0), config);
  sim::EdgeCloudSystem finite_sys(plan_, cloud_flat_trace(10.0), finite);
  const sim::SimStats a = infinite_sys.run();
  const sim::SimStats b = finite_sys.run();
  // At 3 req/s nothing contends, and a real-time pool serves each suffix in
  // exactly cloud_latency_ms: the runs are bitwise identical.
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
  EXPECT_EQ(b.shed, 0u);
  EXPECT_GT(b.datacenter_energy_j, 0.0);  // the pool itself is metered
}

TEST_F(FiniteCloudSystemTest, OverloadedPoolShedsToEdgeFallback) {
  sim::SimConfig config;
  config.duration_s = 20.0;
  config.arrival_rate_hz = 20.0;
  config.policy = sim::DispatchPolicy::kFixed;
  config.fixed_option = cloud_option();
  cloud::CloudConfig pool;
  pool.machines = 1;
  // Absurdly slow pool: the ~0.3 ms suffix takes ~1 s of service, longer
  // than the whole timeout+backoff retry window, so a request that keeps
  // meeting a full queue exhausts its retries and must fall back.
  pool.machine.capacity_ms_per_s = 0.3;
  pool.machine.queue_slots = 1;
  config.cloud = pool;

  sim::EdgeCloudSystem system(evaluation_.options, wifi_,
                              cloud_flat_trace(10.0), config);
  const sim::SimStats stats = system.run();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_GT(stats.fallback_executions, 0u);
  // Shed requests fast-fail into the edge fallback: nothing waits out a
  // timeout, nothing is dropped.
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
}

TEST_F(FiniteCloudSystemTest, BreakerTripsFastFailsAndRecloses) {
  sim::SimConfig config;
  config.duration_s = 30.0;
  config.arrival_rate_hz = 8.0;
  config.policy = sim::DispatchPolicy::kFixed;
  config.fixed_option = cloud_option();
  config.timeout_ms = 200.0;
  config.retry_backoff_ms = 50.0;
  config.max_retries = 1;
  config.breaker_failures = 2;
  config.breaker_open_ms = 2000.0;
  config.faults.scripted.push_back(
      {sim::FaultClass::kCloudOutage, 5.0, 20.0, 0.0});

  sim::EdgeCloudSystem system(evaluation_.options, wifi_,
                              cloud_flat_trace(10.0), config);
  const sim::SimStats with_breaker = system.run();
  EXPECT_GE(with_breaker.breaker_trips, 1u);
  EXPECT_GT(with_breaker.breaker_open_time_s, 0.0);
  EXPECT_GT(with_breaker.fallback_executions, 0u);
  EXPECT_DOUBLE_EQ(with_breaker.availability, 1.0);

  // Without the breaker every request in the outage pays timeout + retry
  // before falling back; the breaker's fast-fail eliminates most of that.
  sim::SimConfig no_breaker = config;
  no_breaker.breaker_failures = 0;
  sim::EdgeCloudSystem stubborn(evaluation_.options, wifi_,
                                cloud_flat_trace(10.0), no_breaker);
  const sim::SimStats without = stubborn.run();
  EXPECT_EQ(without.breaker_trips, 0u);
  EXPECT_GT(without.timeouts, with_breaker.timeouts);
  EXPECT_LT(with_breaker.mean_latency_ms, without.mean_latency_ms);
}

}  // namespace
}  // namespace lens
