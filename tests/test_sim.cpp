// Tests for the discrete-event edge-cloud simulator.

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "dnn/presets.hpp"
#include "par/runtime.hpp"
#include "par/substream.hpp"
#include "perf/predictor.hpp"
#include "sim/battery.hpp"
#include "sim/fault.hpp"
#include "sim/link.hpp"
#include "sim/system.hpp"
#include "sim/timeline.hpp"

namespace lens::sim {
namespace {

TEST(Timeline, FifoQueueing) {
  ResourceTimeline timeline;
  EXPECT_DOUBLE_EQ(timeline.schedule(0.0, 1.0), 1.0);
  // Arrives while busy: queues behind the first job.
  EXPECT_DOUBLE_EQ(timeline.schedule(0.5, 1.0), 2.0);
  // Arrives after idle gap: starts immediately.
  EXPECT_DOUBLE_EQ(timeline.schedule(5.0, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(timeline.total_busy(), 2.5);
  EXPECT_EQ(timeline.jobs(), 3u);
}

TEST(Timeline, Validation) {
  ResourceTimeline timeline;
  EXPECT_THROW(timeline.schedule(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(timeline.schedule(0.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(timeline.schedule_unordered(0.0, std::nan("")), std::invalid_argument);
  timeline.schedule(5.0, 1.0);
  EXPECT_THROW(timeline.schedule(1.0, 1.0), std::invalid_argument);  // out of order
}

comm::ThroughputTrace flat_trace(double mbps, double interval_s = 100.0) {
  comm::ThroughputTrace trace;
  trace.samples_mbps = {mbps};
  trace.interval_s = interval_s;
  return trace;
}

TEST(Link, ConstantRateMatchesClosedForm) {
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kWifi);
  TimeVaryingLink link(flat_trace(8.0), radio);
  // 1 MB at 8 Mbps = 8e6 bits / 8e6 bit/s = 1 s.
  const TransferResult r = link.transfer(10.0, 1000000);
  EXPECT_NEAR(r.end_s, 11.0, 1e-9);
  EXPECT_NEAR(r.energy_mj, radio.transmit_power_mw(8.0) * 1.0, 1e-6);  // mW*s
}

TEST(Link, RateChangeIsIntegrated) {
  // 10 Mbps for 1 s, then 2 Mbps: 1.5 MB = 12e6 bits. First second carries
  // 10e6 bits; remaining 2e6 bits at 2 Mbps take another 1 s.
  comm::ThroughputTrace trace;
  trace.samples_mbps = {10.0, 2.0};
  trace.interval_s = 1.0;
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kLte);
  TimeVaryingLink link(trace, radio);
  const TransferResult r = link.transfer(0.0, 1500000);
  EXPECT_NEAR(r.end_s, 2.0, 1e-9);
  const double expected_energy =
      radio.transmit_power_mw(10.0) * 1.0 + radio.transmit_power_mw(2.0) * 1.0;
  EXPECT_NEAR(r.energy_mj, expected_energy, 1e-6);
}

TEST(Link, TraceWrapsAround) {
  TimeVaryingLink link(flat_trace(4.0, 1.0), comm::power_model_for(comm::WirelessTechnology::kWifi));
  EXPECT_DOUBLE_EQ(link.throughput_at(0.5), 4.0);
  EXPECT_DOUBLE_EQ(link.throughput_at(123.7), 4.0);
}

TEST(Link, FifoSerialization) {
  TimeVaryingLink link(flat_trace(8.0), comm::power_model_for(comm::WirelessTechnology::kWifi));
  const TransferResult first = link.schedule(0.0, 1000000);   // 1 s
  const TransferResult second = link.schedule(0.2, 1000000);  // queued
  EXPECT_NEAR(first.end_s, 1.0, 1e-9);
  EXPECT_NEAR(second.start_s, 1.0, 1e-9);
  EXPECT_NEAR(second.end_s, 2.0, 1e-9);
  EXPECT_NEAR(link.total_busy(), 2.0, 1e-9);
}

TEST(Link, ZeroBytesInstantaneous) {
  TimeVaryingLink link(flat_trace(8.0), comm::power_model_for(comm::WirelessTechnology::kWifi));
  const TransferResult r = link.schedule(3.0, 0);
  EXPECT_DOUBLE_EQ(r.end_s, 3.0);
  EXPECT_DOUBLE_EQ(r.energy_mj, 0.0);
}

TEST(Link, Validation) {
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kWifi);
  comm::ThroughputTrace empty;
  EXPECT_THROW(TimeVaryingLink(empty, radio), std::invalid_argument);
  comm::ThroughputTrace bad = flat_trace(8.0);
  bad.samples_mbps[0] = -1.0;
  EXPECT_THROW(TimeVaryingLink(bad, radio), std::invalid_argument);
  TimeVaryingLink link(flat_trace(8.0), radio);
  EXPECT_THROW(link.throughput_at(-1.0), std::invalid_argument);
  EXPECT_THROW(link.schedule(-1.0, 10), std::invalid_argument);
}

// ---- full system ------------------------------------------------------------

class SystemTest : public ::testing::Test {
 protected:
  SystemTest()
      : sim_(perf::jetson_tx2_gpu()),
        oracle_(sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        evaluator_(oracle_, wifi_),
        alexnet_(dnn::alexnet()),
        evaluation_(evaluator_.evaluate(alexnet_, 10.0)) {}

  perf::DeviceSimulator sim_;
  perf::SimulatorOracle oracle_;
  comm::CommModel wifi_;
  core::DeploymentEvaluator evaluator_;
  dnn::Architecture alexnet_;
  core::DeploymentEvaluation evaluation_;
};

TEST_F(SystemTest, LightLoadLatencyMatchesIsolatedCost) {
  // At 1 req/s the edge (32 ms service) never queues: per-request latency
  // equals the isolated All-Edge latency.
  SimConfig config;
  config.duration_s = 200.0;
  config.arrival_rate_hz = 1.0;
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.fixed_option = edge_index;
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.completed, 150u);
  EXPECT_NEAR(stats.p50_latency_ms, evaluation_.all_edge().latency_ms, 1.0);
  EXPECT_LT(stats.edge_utilization, 0.1);
}

TEST_F(SystemTest, OverloadQueuesAndLatencyExplodes) {
  // All-Edge serves ~32 req/s at most; at 60 req/s the queue grows without
  // bound and tail latency dwarfs the isolated cost.
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 60.0;
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.fixed_option = edge_index;
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.p99_latency_ms, 20.0 * evaluation_.all_edge().latency_ms);
  EXPECT_GT(stats.edge_utilization, 0.9);
}

TEST_F(SystemTest, PartitionedSustainsHigherLoadThanAllEdge) {
  // The pool5 split occupies the edge for only ~16 ms vs ~32 ms All-Edge,
  // so at 45 req/s the split's tail latency is far lower.
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 45.0;
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  std::size_t split_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
    if (evaluation_.options[i].kind == core::DeploymentKind::kPartitioned &&
        evaluation_.options[i].label(alexnet_) == "split@pool5") {
      split_index = i;
    }
  }
  config.fixed_option = edge_index;
  EdgeCloudSystem all_edge(evaluation_.options, wifi_, flat_trace(30.0), config);
  config.fixed_option = split_index;
  EdgeCloudSystem split(evaluation_.options, wifi_, flat_trace(30.0), config);
  const SimStats edge_stats = all_edge.run();
  const SimStats split_stats = split.run();
  EXPECT_LT(split_stats.p99_latency_ms, 0.5 * edge_stats.p99_latency_ms);
}

TEST_F(SystemTest, EnergyAccountingIsConsistent) {
  SimConfig config;
  config.duration_s = 100.0;
  config.arrival_rate_hz = 2.0;
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = 0;  // All-Cloud
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  // All-Cloud at a steady 10 Mbps: per-inference energy equals the
  // closed-form transfer energy.
  const double expected = wifi_.tx_energy_mj(evaluation_.all_cloud().tx_bytes, 10.0);
  EXPECT_NEAR(stats.energy_per_inference_mj, expected, 0.02 * expected);
}

TEST_F(SystemTest, DynamicPolicyTracksThroughput) {
  // Trace alternates between fast and very slow: the dynamic policy should
  // use different options across time, and beat the worse fixed policy.
  comm::ThroughputTrace trace;
  trace.samples_mbps = {30.0, 0.3};
  trace.interval_s = 20.0;
  SimConfig config;
  config.duration_s = 120.0;
  config.arrival_rate_hz = 2.0;
  config.policy = DispatchPolicy::kDynamic;
  config.metric = runtime::OptimizeFor::kLatency;
  EdgeCloudSystem system(evaluation_.options, wifi_, trace, config);
  const SimStats stats = system.run();
  bool used_multiple = false;
  for (const RequestRecord& r : system.records()) {
    if (r.option != system.records().front().option) {
      used_multiple = true;
      break;
    }
  }
  EXPECT_TRUE(used_multiple);
  EXPECT_GT(stats.completed, 0u);
}

TEST_F(SystemTest, QueueAwareBeatsFixedUnderOverload) {
  // At 45 req/s the All-Edge queue explodes; spreading load across the edge
  // and the link keeps the tail bounded.
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 45.0;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = edge_index;
  EdgeCloudSystem fixed(evaluation_.options, wifi_, flat_trace(30.0), config);
  config.policy = DispatchPolicy::kQueueAware;
  EdgeCloudSystem balanced(evaluation_.options, wifi_, flat_trace(30.0), config);
  const SimStats fixed_stats = fixed.run();
  const SimStats balanced_stats = balanced.run();
  EXPECT_LT(balanced_stats.p99_latency_ms, 0.5 * fixed_stats.p99_latency_ms);
  // Both resources see real work.
  EXPECT_GT(balanced_stats.edge_utilization, 0.05);
  EXPECT_GT(balanced_stats.link_utilization, 0.05);
}

TEST_F(SystemTest, QueueAwareMatchesBestChoiceWhenIdle) {
  // With no queueing pressure, the queue-aware estimate reduces to the
  // isolated latency comparison, i.e. the latency-best option.
  SimConfig config;
  config.duration_s = 100.0;
  config.arrival_rate_hz = 0.5;
  config.policy = DispatchPolicy::kQueueAware;
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  system.run();
  for (const RequestRecord& r : system.records()) {
    EXPECT_EQ(r.option, evaluation_.best_latency_option);
  }
}

TEST_F(SystemTest, Validation) {
  SimConfig config;
  EXPECT_THROW(EdgeCloudSystem({}, wifi_, flat_trace(10.0), config), std::invalid_argument);
  config.fixed_option = 99;
  EXPECT_THROW(EdgeCloudSystem(evaluation_.options, wifi_, flat_trace(10.0), config),
               std::invalid_argument);
  config = {};
  config.duration_s = -1.0;
  EXPECT_THROW(EdgeCloudSystem(evaluation_.options, wifi_, flat_trace(10.0), config),
               std::invalid_argument);
  // NaN fails every range check, and no knob but the retry jitter (bounded
  // by 1) may be infinite; an infinite duration would never stop arriving.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double SimConfig::*, double> bad_knobs[] = {
      {&SimConfig::duration_s, nan},       {&SimConfig::duration_s, inf},
      {&SimConfig::arrival_rate_hz, nan},  {&SimConfig::arrival_rate_hz, inf},
      {&SimConfig::timeout_ms, nan},       {&SimConfig::timeout_ms, inf},
      {&SimConfig::timeout_ms, 0.0},       {&SimConfig::retry_backoff_ms, nan},
      {&SimConfig::retry_backoff_ms, inf}, {&SimConfig::retry_backoff_ms, -1.0},
      {&SimConfig::retry_jitter, nan},     {&SimConfig::retry_jitter, 1.5},
      {&SimConfig::breaker_open_ms, nan},  {&SimConfig::breaker_open_ms, inf},
      {&SimConfig::breaker_open_ms, 0.0},  {&SimConfig::deadline_ms, nan},
      {&SimConfig::deadline_ms, inf},      {&SimConfig::deadline_ms, -1.0},
  };
  for (const auto& [knob, value] : bad_knobs) {
    config = {};
    config.*knob = value;
    EXPECT_THROW(EdgeCloudSystem(evaluation_.options, wifi_, flat_trace(10.0), config),
                 std::invalid_argument)
        << value;
  }
  config = {};
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  system.run();
  EXPECT_THROW(system.run(), std::logic_error);
}

TEST_F(SystemTest, DeadlineAccounting) {
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 45.0;  // All-Edge overloads at this rate
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.fixed_option = edge_index;
  config.deadline_ms = 100.0;
  EdgeCloudSystem overloaded(evaluation_.options, wifi_, flat_trace(30.0), config);
  const SimStats stats = overloaded.run();
  EXPECT_GT(stats.deadline_violations, 0u);
  EXPECT_GT(stats.violation_rate, 0.3);
  EXPECT_LE(stats.violation_rate, 1.0);

  // Light load: no violations.
  config.arrival_rate_hz = 1.0;
  EdgeCloudSystem light(evaluation_.options, wifi_, flat_trace(30.0), config);
  EXPECT_DOUBLE_EQ(light.run().violation_rate, 0.0);
}

TEST(Battery, HandComputedDrain) {
  // Two requests of 500 J each at t=10 and t=20, idle 1 W, capacity 2000 J:
  // at t=20 spent = 20 J idle + 1000 J inference -> survives with margin.
  std::vector<RequestRecord> records(2);
  records[0].completion_s = 10.0;
  records[0].energy_mj = 500.0 * 1e3;
  records[1].completion_s = 20.0;
  records[1].energy_mj = 500.0 * 1e3;
  BatteryConfig config;
  config.capacity_j = 2000.0;
  config.idle_power_mw = 1000.0;
  const BatteryReport report = battery_replay(records, config);
  EXPECT_TRUE(report.survived);
  EXPECT_EQ(report.inferences_served, 2u);
  EXPECT_NEAR(report.inference_energy_j, 1000.0, 1e-9);
  EXPECT_NEAR(report.idle_energy_j, 20.0, 1e-9);
  EXPECT_NEAR(report.mean_power_w, 1020.0 / 20.0, 1e-9);
}

TEST(Battery, DiesMidStreamAtTheRightTime) {
  // Idle 1 W, capacity 15 J, first request at t=10 costs 10 J: idle leaves
  // 5 J at t=10, the request drains it -> dead at t=10, 0 served... the
  // request itself empties the battery exactly, so it is not served.
  std::vector<RequestRecord> records(2);
  records[0].completion_s = 10.0;
  records[0].energy_mj = 10.0 * 1e3;
  records[1].completion_s = 20.0;
  records[1].energy_mj = 10.0 * 1e3;
  BatteryConfig config;
  config.capacity_j = 15.0;
  config.idle_power_mw = 1000.0;
  const BatteryReport report = battery_replay(records, config);
  EXPECT_FALSE(report.survived);
  EXPECT_EQ(report.inferences_served, 0u);
  EXPECT_NEAR(report.time_to_empty_s, 10.0, 1e-9);

  // With no requests at all, pure idle kills it at capacity/power.
  const BatteryReport idle_only = battery_replay({records[0]}, {.capacity_j = 5.0,
                                                                .idle_power_mw = 1000.0});
  EXPECT_FALSE(idle_only.survived);
  EXPECT_NEAR(idle_only.time_to_empty_s, 5.0, 1e-9);
}

TEST(Battery, PartitionedOutlastsAllEdgePerCharge) {
  // End-to-end: the energy-cheaper deployment serves more inferences from
  // the same battery.
  const dnn::Architecture alexnet = dnn::alexnet();
  perf::DeviceSimulator sim(perf::jetson_tx2_gpu());
  const perf::SimulatorOracle oracle(sim);
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(oracle, wifi);
  const core::DeploymentEvaluation eval = evaluator.evaluate(alexnet, 10.0);

  auto run_policy = [&](std::size_t option) {
    SimConfig config;
    config.duration_s = 3000.0;
    config.arrival_rate_hz = 2.0;
    config.policy = DispatchPolicy::kFixed;
    config.fixed_option = option;
    EdgeCloudSystem system(eval.options, wifi, flat_trace(10.0), config);
    system.run();
    BatteryConfig battery;
    battery.capacity_j = 1500.0;  // small pack: dies within the run
    battery.idle_power_mw = 200.0;
    return battery_replay(system.records(), battery);
  };
  std::size_t edge_index = 0;
  std::size_t split_index = 0;
  for (std::size_t i = 0; i < eval.options.size(); ++i) {
    if (eval.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
    if (eval.options[i].kind == core::DeploymentKind::kPartitioned &&
        eval.options[i].label(alexnet) == "split@pool5") {
      split_index = i;
    }
  }
  const BatteryReport edge_report = run_policy(edge_index);
  const BatteryReport split_report = run_policy(split_index);
  ASSERT_FALSE(edge_report.survived);
  ASSERT_FALSE(split_report.survived);
  EXPECT_GT(split_report.inferences_served, edge_report.inferences_served);
}

TEST(Battery, Validation) {
  EXPECT_THROW(battery_replay({}, {.capacity_j = 0.0}), std::invalid_argument);
  std::vector<RequestRecord> unordered(2);
  unordered[0].completion_s = 10.0;
  unordered[1].completion_s = 5.0;
  EXPECT_THROW(battery_replay(unordered, {}), std::invalid_argument);
}

// ---- fault injection --------------------------------------------------------

TEST(Timeline, UnorderedScheduleCoexistsWithFifo) {
  ResourceTimeline timeline;
  EXPECT_DOUBLE_EQ(timeline.schedule(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(timeline.schedule(2.0, 1.0), 3.0);
  // A fallback re-execution lands before the last FIFO arrival: allowed via
  // the unordered entry point, queued behind the busy horizon.
  EXPECT_DOUBLE_EQ(timeline.schedule_unordered(1.0, 0.5), 3.5);
  EXPECT_THROW(timeline.schedule_unordered(0.0, -1.0), std::invalid_argument);
  // The FIFO contract of schedule() is untouched by unordered insertions.
  EXPECT_THROW(timeline.schedule(1.0, 1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(timeline.schedule(4.0, 1.0), 5.0);
  EXPECT_EQ(timeline.jobs(), 4u);
}

TEST(FaultSchedule, GenerationIsDeterministicAndClassIndependent) {
  FaultScheduleConfig config;
  config.seed = 42;
  config.horizon_s = 500.0;
  config.link_outage_rate_hz = 1.0 / 30.0;
  const FaultSchedule once = FaultSchedule::generate(config);
  const FaultSchedule twice = FaultSchedule::generate(config);
  ASSERT_FALSE(once.empty());
  ASSERT_EQ(once.episodes().size(), twice.episodes().size());
  for (std::size_t i = 0; i < once.episodes().size(); ++i) {
    EXPECT_DOUBLE_EQ(once.episodes()[i].start_s, twice.episodes()[i].start_s);
    EXPECT_DOUBLE_EQ(once.episodes()[i].end_s, twice.episodes()[i].end_s);
  }
  // Enabling another class must not perturb the link-outage substream.
  config.cloud_outage_rate_hz = 1.0 / 40.0;
  config.rtt_spike_rate_hz = 1.0 / 50.0;
  const FaultSchedule mixed = FaultSchedule::generate(config);
  EXPECT_GT(mixed.count(FaultClass::kCloudOutage), 0u);
  ASSERT_EQ(mixed.count(FaultClass::kLinkOutage), once.count(FaultClass::kLinkOutage));
  std::vector<FaultEpisode> link_only;
  std::vector<FaultEpisode> link_mixed;
  for (const FaultEpisode& e : once.episodes()) {
    if (e.fault == FaultClass::kLinkOutage) link_only.push_back(e);
  }
  for (const FaultEpisode& e : mixed.episodes()) {
    if (e.fault == FaultClass::kLinkOutage) link_mixed.push_back(e);
  }
  for (std::size_t i = 0; i < link_only.size(); ++i) {
    EXPECT_DOUBLE_EQ(link_only[i].start_s, link_mixed[i].start_s);
    EXPECT_DOUBLE_EQ(link_only[i].end_s, link_mixed[i].end_s);
    EXPECT_DOUBLE_EQ(link_only[i].magnitude, link_mixed[i].magnitude);
  }
}

// Episode generation on std::mt19937_64 as it stood before the lazily seeded
// engine, frozen: every class, salt and draw in the same order. The oracle
// every generated schedule must match field for field. Appends each
// stream's number of engine draws to `draws`.
std::vector<FaultEpisode> reference_episodes(const FaultScheduleConfig& config,
                                             std::uint64_t base_seed,
                                             std::vector<std::size_t>& draws) {
  std::vector<FaultEpisode> episodes;
  const auto renew = [&](FaultClass fault, double rate_hz, double mean_s,
                         double magnitude, std::uint64_t salt, std::size_t hop) {
    if (rate_hz <= 0.0) return;
    std::mt19937_64 rng(par::substream_seed(base_seed, salt));
    std::exponential_distribution<double> gap(rate_hz);
    std::exponential_distribution<double> duration(1.0 / mean_s);
    double t = gap(rng);
    std::size_t n = 1;
    while (t < config.horizon_s) {
      const double d = duration(rng);
      episodes.push_back({fault, t, t + d, magnitude, hop});
      t += d + gap(rng);
      n += 2;
    }
    draws.push_back(n);
  };
  renew(FaultClass::kLinkOutage, config.link_outage_rate_hz, config.link_outage_mean_s,
        config.link_outage_depth, 0x10c4, 0);
  renew(FaultClass::kCloudOutage, config.cloud_outage_rate_hz, config.cloud_outage_mean_s,
        0.0, 0x20c4, 0);
  renew(FaultClass::kRttSpike, config.rtt_spike_rate_hz, config.rtt_spike_mean_s,
        config.rtt_spike_extra_ms, 0x30c4, 0);
  renew(FaultClass::kEdgeSlowdown, config.edge_slowdown_rate_hz,
        config.edge_slowdown_mean_s, config.edge_slowdown_factor, 0x40c4, 0);
  renew(FaultClass::kMachineFailure, config.machine_failure_rate_hz,
        config.machine_failure_mean_s, config.machine_failure_fraction, 0x50c4, 0);
  renew(FaultClass::kRegionalBrownout, config.brownout_rate_hz, config.brownout_mean_s,
        config.brownout_depth, 0x60c4, 0);
  renew(FaultClass::kBackhaulBrownout, config.backhaul_brownout_rate_hz,
        config.backhaul_brownout_mean_s, config.backhaul_brownout_depth, 0x70c4,
        config.backhaul_hop);
  renew(FaultClass::kBackhaulOutage, config.backhaul_outage_rate_hz,
        config.backhaul_outage_mean_s, 0.0, 0x80c4, config.backhaul_hop);
  renew(FaultClass::kFogSiteFailure, config.fog_failure_rate_hz, config.fog_failure_mean_s,
        config.fog_failure_fraction, 0x90c4, 0);
  for (std::size_t i = 0; i < config.extra_hops.size(); ++i) {
    const HopFaultConfig& hc = config.extra_hops[i];
    const std::uint64_t offset = 0x10000ull * (i + 1);
    renew(FaultClass::kLinkOutage, hc.outage_rate_hz, hc.outage_mean_s, hc.outage_depth,
          0x10c4 + offset, i + 1);
    renew(FaultClass::kRttSpike, hc.rtt_spike_rate_hz, hc.rtt_spike_mean_s,
          hc.rtt_spike_extra_ms, 0x30c4 + offset, i + 1);
  }
  episodes.insert(episodes.end(), config.scripted.begin(), config.scripted.end());
  std::stable_sort(episodes.begin(), episodes.end(),
                   [](const FaultEpisode& a, const FaultEpisode& b) {
                     return a.start_s < b.start_s;
                   });
  return episodes;
}

/// The three public generators against the oracle at one (seed, id). Returns
/// the draw count of every stream they ran, for the caller's coverage checks.
std::vector<std::size_t> expect_matches_reference(const FaultScheduleConfig& config,
                                                  std::uint64_t fleet_seed,
                                                  std::uint64_t id) {
  const std::uint64_t region_root = par::substream_seed(fleet_seed, kRegionStreamSalt);
  const std::pair<FaultSchedule, std::uint64_t> cases[] = {
      {FaultSchedule::generate(config), config.seed},
      {FaultSchedule::generate_for_device(config, fleet_seed, id),
       par::substream_seed(fleet_seed, id)},
      {FaultSchedule::generate_for_region(config, fleet_seed, id),
       par::substream_seed(region_root, id)},
  };
  std::vector<std::size_t> draws;
  for (const auto& [schedule, base_seed] : cases) {
    const std::vector<FaultEpisode> want = reference_episodes(config, base_seed, draws);
    const std::vector<FaultEpisode>& got = schedule.episodes();
    EXPECT_EQ(got.size(), want.size()) << "seed " << fleet_seed << " id " << id;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].fault, want[i].fault) << "episode " << i;
      EXPECT_EQ(got[i].start_s, want[i].start_s) << "episode " << i;
      EXPECT_EQ(got[i].end_s, want[i].end_s) << "episode " << i;
      EXPECT_EQ(got[i].magnitude, want[i].magnitude) << "episode " << i;
      EXPECT_EQ(got[i].hop, want[i].hop) << "episode " << i;
    }
  }
  return draws;
}

/// Every stream enabled at the same rate with a short mean, so each stream
/// draws about 1 + 2 * horizon * rate values.
FaultScheduleConfig every_stream(double rate_hz, double horizon_s) {
  FaultScheduleConfig config;
  config.horizon_s = horizon_s;
  for (double* rate : {&config.link_outage_rate_hz, &config.cloud_outage_rate_hz,
                       &config.rtt_spike_rate_hz, &config.edge_slowdown_rate_hz,
                       &config.machine_failure_rate_hz, &config.brownout_rate_hz,
                       &config.backhaul_brownout_rate_hz, &config.backhaul_outage_rate_hz,
                       &config.fog_failure_rate_hz}) {
    *rate = rate_hz;
  }
  for (double* mean : {&config.link_outage_mean_s, &config.cloud_outage_mean_s,
                       &config.rtt_spike_mean_s, &config.edge_slowdown_mean_s,
                       &config.machine_failure_mean_s, &config.brownout_mean_s,
                       &config.backhaul_brownout_mean_s, &config.backhaul_outage_mean_s,
                       &config.fog_failure_mean_s}) {
    *mean = 0.01 / rate_hz;
  }
  HopFaultConfig hop;
  hop.outage_rate_hz = rate_hz;
  hop.outage_mean_s = 0.01 / rate_hz;
  hop.rtt_spike_rate_hz = rate_hz;
  hop.rtt_spike_mean_s = 0.01 / rate_hz;
  config.extra_hops = {hop};
  return config;
}

TEST(FaultSchedule, MatchesMt19937ReferenceAtFleetRates) {
  // The fleet benchmark's per-device and regional rates over 16 x 300 s:
  // streams of 1, 3 or 5 draws, plus a scripted episode merged in.
  FaultScheduleConfig config;
  config.horizon_s = 4800.0;
  config.link_outage_rate_hz = 1.0 / 3600.0;
  config.link_outage_mean_s = 120.0;
  config.cloud_outage_rate_hz = 1.0 / 7200.0;
  config.cloud_outage_mean_s = 180.0;
  config.backhaul_brownout_rate_hz = 1.0 / 1800.0;
  config.backhaul_brownout_mean_s = 900.0;
  config.backhaul_outage_rate_hz = 1.0 / 7200.0;
  config.backhaul_outage_mean_s = 600.0;
  config.fog_failure_rate_hz = 1.0 / 3600.0;
  config.fog_failure_mean_s = 900.0;
  config.scripted.push_back({FaultClass::kMachineFailure, 100.0, 400.0, 0.5});
  std::set<std::size_t> draws_seen;
  for (std::uint64_t id = 0; id < 300; ++id) {
    config.seed = static_cast<unsigned>(id);
    for (const std::size_t n : expect_matches_reference(config, 1 + id % 3, id)) {
      draws_seen.insert(n);
    }
  }
  EXPECT_EQ(draws_seen.count(1), 1u);
  EXPECT_EQ(draws_seen.count(3), 1u);
  EXPECT_LT(*draws_seen.rbegin(), 156u);  // all within the engine's lazy prefix
}

TEST(FaultSchedule, MatchesMt19937ReferenceAcrossTheEngineHandoff) {
  // ~77.5 episodes per stream: 77 episodes draw 155 values (all from the
  // lazy prefix), 78 draw 157 (the last two past the 156-draw handoff).
  const FaultScheduleConfig base = every_stream(1.0, 77.5);
  std::set<std::size_t> draws_seen;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FaultScheduleConfig config = base;
    config.seed = static_cast<unsigned>(seed);
    for (const std::size_t n : expect_matches_reference(config, seed, seed % 8)) {
      draws_seen.insert(n);
    }
  }
  EXPECT_EQ(draws_seen.count(155), 1u) << "no stream ended just before the handoff";
  EXPECT_EQ(draws_seen.count(157), 1u) << "no stream crossed the handoff";
}

TEST(FaultSchedule, MatchesMt19937ReferenceOnStreamsLongerThanTheState) {
  // ~250 episodes: ~500 draws, past the reference engine's second twist.
  FaultScheduleConfig config = every_stream(1.0, 250.0);
  config.seed = 9;
  const std::vector<std::size_t> draws = expect_matches_reference(config, 3, 5);
  EXPECT_GT(*std::min_element(draws.begin(), draws.end()), 312u);
}

/// DeviceOutageGenerator over devices [first, last) against
/// generate_for_device, filtered to the generated hop-0 link and cloud
/// episodes: device, class, times, magnitude and hop, episode for episode.
/// Returns the longest per-device class stream it saw, in episodes.
std::size_t expect_generator_matches_schedules(const FaultScheduleConfig& config,
                                               std::uint64_t fleet_seed, std::uint64_t first,
                                               std::uint64_t last) {
  const std::vector<DeviceEpisode> got =
      DeviceOutageGenerator(config, fleet_seed).generate(first, last);
  std::vector<DeviceEpisode> want;
  std::size_t longest = 0;
  for (std::uint64_t d = first; d < last; ++d) {
    const FaultSchedule schedule = FaultSchedule::generate_for_device(config, fleet_seed, d);
    std::vector<FaultEpisode> scripted = config.scripted;  // merged in, not generated
    for (const FaultClass fault : {FaultClass::kLinkOutage, FaultClass::kCloudOutage}) {
      std::size_t stream = 0;
      for (const FaultEpisode& e : schedule.episodes()) {
        if (e.fault != fault || (fault == FaultClass::kLinkOutage && e.hop != 0)) continue;
        const auto same = std::find_if(scripted.begin(), scripted.end(), [&](const auto& x) {
          return x.fault == e.fault && x.start_s == e.start_s && x.end_s == e.end_s &&
                 x.magnitude == e.magnitude && x.hop == e.hop;
        });
        if (same != scripted.end()) {
          scripted.erase(same);
          continue;
        }
        want.push_back({d, e});
        ++stream;
      }
      longest = std::max(longest, stream);
    }
  }
  EXPECT_EQ(got.size(), want.size()) << "devices " << first << ".." << last;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].device, want[i].device) << "episode " << i;
    EXPECT_EQ(got[i].episode.fault, want[i].episode.fault) << "episode " << i;
    EXPECT_EQ(got[i].episode.start_s, want[i].episode.start_s) << "episode " << i;
    EXPECT_EQ(got[i].episode.end_s, want[i].episode.end_s) << "episode " << i;
    EXPECT_EQ(got[i].episode.magnitude, want[i].episode.magnitude) << "episode " << i;
    EXPECT_EQ(got[i].episode.hop, want[i].episode.hop) << "episode " << i;
  }
  return longest;
}

TEST(DeviceOutageGenerator, MatchesPerDeviceSchedulesEpisodeForEpisode) {
  FaultScheduleConfig both;
  both.horizon_s = 4800.0;
  both.link_outage_rate_hz = 1.0 / 600.0;
  both.link_outage_mean_s = 120.0;
  both.cloud_outage_rate_hz = 1.0 / 900.0;
  both.cloud_outage_mean_s = 180.0;
  FaultScheduleConfig link_only = both;
  link_only.cloud_outage_rate_hz = 0.0;
  FaultScheduleConfig cloud_only = both;
  cloud_only.link_outage_rate_hz = 0.0;
  // Every other per-device knob on: classes and hops the generator skips,
  // and scripted episodes of its own two classes on hops 0 and 1.
  FaultScheduleConfig crowded = both;
  crowded.rtt_spike_rate_hz = 1.0 / 500.0;
  crowded.edge_slowdown_rate_hz = 1.0 / 700.0;
  HopFaultConfig hop;
  hop.outage_rate_hz = 1.0 / 400.0;
  hop.rtt_spike_rate_hz = 1.0 / 800.0;
  crowded.extra_hops = {hop};
  crowded.scripted = {{FaultClass::kLinkOutage, 600.0, 900.0, 0.2},
                      {FaultClass::kLinkOutage, 300.0, 1200.0, 0.1, 1},
                      {FaultClass::kCloudOutage, 1500.0, 1800.0, 0.0}};
  // Ranges whose start and length are not multiples of the four-device lanes.
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {0, 1}, {3, 16}, {5, 6}, {7, 7}, {1021, 1058}, {4096, 4101}};
  for (const FaultScheduleConfig& config : {both, link_only, cloud_only, crowded}) {
    for (const std::uint64_t seed : {1ull, 2ull, 77ull, 0xdeadbeefull}) {
      for (const auto& [first, last] : ranges) {
        expect_generator_matches_schedules(config, seed, first, last);
      }
    }
  }
  // Streams of ~100 episodes draw ~200 values, past the 156-draw handoff to
  // the reference engine.
  FaultScheduleConfig dense = both;
  dense.horizon_s = 100.0;
  dense.link_outage_rate_hz = 1.0;
  dense.link_outage_mean_s = 0.01;
  dense.cloud_outage_rate_hz = 1.0;
  dense.cloud_outage_mean_s = 0.01;
  EXPECT_GT(expect_generator_matches_schedules(dense, 9, 2, 13), 78u);
  // The knobs are checked once, when the generator is made.
  FaultScheduleConfig bad = both;
  bad.link_outage_depth = 0.0;
  EXPECT_THROW(DeviceOutageGenerator(bad, 1), std::invalid_argument);
  bad = both;
  bad.horizon_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DeviceOutageGenerator(bad, 1), std::invalid_argument);
}

TEST(FaultSchedule, Validation) {
  FaultScheduleConfig config;
  config.link_outage_rate_hz = 0.1;
  EXPECT_THROW(FaultSchedule::generate(config), std::invalid_argument);  // no horizon
  config.horizon_s = 100.0;
  config.link_outage_depth = 1.5;  // multiplier must stay in (0, 1]
  EXPECT_THROW(FaultSchedule::generate(config), std::invalid_argument);
  EXPECT_THROW(FaultSchedule({{FaultClass::kCloudOutage, 5.0, 5.0, 0.0}}),
               std::invalid_argument);  // empty interval
  EXPECT_THROW(FaultSchedule({{FaultClass::kEdgeSlowdown, 0.0, 1.0, 0.5}}),
               std::invalid_argument);  // slowdown < 1

  // NaN fails every range check: magnitudes, times, rates and means.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const FaultClass fault :
       {FaultClass::kLinkOutage, FaultClass::kRttSpike, FaultClass::kEdgeSlowdown,
        FaultClass::kMachineFailure, FaultClass::kRegionalBrownout,
        FaultClass::kBackhaulBrownout, FaultClass::kFogSiteFailure}) {
    EXPECT_THROW(FaultSchedule({{fault, 0.0, 1.0, nan, 1}}), std::invalid_argument)
        << fault_class_name(fault);
  }
  EXPECT_THROW(FaultSchedule({{FaultClass::kRttSpike, 0.0, 1.0, inf}}),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule({{FaultClass::kEdgeSlowdown, 0.0, 1.0, inf}}),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule({{FaultClass::kCloudOutage, nan, 1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule({{FaultClass::kCloudOutage, 0.0, nan, 0.0}}),
               std::invalid_argument);

  FaultScheduleConfig knobs;
  knobs.horizon_s = 100.0;
  EXPECT_NO_THROW(FaultSchedule::generate(knobs));
  knobs.horizon_s = nan;
  EXPECT_THROW(FaultSchedule::generate(knobs), std::invalid_argument);
  knobs.horizon_s = 100.0;
  using Knob = double FaultScheduleConfig::*;
  for (const Knob knob :
       {&FaultScheduleConfig::link_outage_rate_hz, &FaultScheduleConfig::cloud_outage_rate_hz,
        &FaultScheduleConfig::brownout_rate_hz, &FaultScheduleConfig::fog_failure_rate_hz,
        &FaultScheduleConfig::link_outage_mean_s, &FaultScheduleConfig::machine_failure_mean_s,
        &FaultScheduleConfig::backhaul_outage_mean_s}) {
    for (const double bad : {nan, inf}) {
      FaultScheduleConfig c = knobs;
      c.*knob = bad;
      EXPECT_THROW(FaultSchedule::generate(c), std::invalid_argument);
    }
  }
  knobs.extra_hops.resize(1);
  knobs.extra_hops[0].outage_rate_hz = nan;
  EXPECT_THROW(FaultSchedule::generate(knobs), std::invalid_argument);
  knobs.extra_hops[0].outage_rate_hz = 0.0;
  knobs.extra_hops[0].rtt_spike_mean_s = inf;
  EXPECT_THROW(FaultSchedule::generate(knobs), std::invalid_argument);

  // An enabled class with a NaN magnitude throws even if its stream draws
  // no episode within the horizon.
  FaultScheduleConfig rare;
  rare.horizon_s = 1.0;
  rare.brownout_rate_hz = 1e-9;
  rare.brownout_depth = nan;
  EXPECT_THROW(FaultSchedule::generate(rare), std::invalid_argument);
}

TEST(FaultInjector, ScriptedQueriesAndDegradedTime) {
  const FaultSchedule schedule({
      {FaultClass::kLinkOutage, 1.0, 3.0, 0.25},
      {FaultClass::kCloudOutage, 2.0, 4.0, 0.0},
      {FaultClass::kRttSpike, 10.0, 12.0, 150.0},
      {FaultClass::kEdgeSlowdown, 20.0, 21.0, 2.5},
  });
  const FaultInjector faults(schedule);
  EXPECT_DOUBLE_EQ(faults.link_factor(0.5), 1.0);
  EXPECT_DOUBLE_EQ(faults.link_factor(1.5), 0.25);
  EXPECT_DOUBLE_EQ(faults.link_factor(3.0), 1.0);  // half-open interval
  EXPECT_FALSE(faults.cloud_unavailable(1.9));
  EXPECT_TRUE(faults.cloud_unavailable(2.0));
  EXPECT_DOUBLE_EQ(faults.rtt_extra_ms(11.0), 150.0);
  EXPECT_DOUBLE_EQ(faults.rtt_extra_ms(12.5), 0.0);
  EXPECT_DOUBLE_EQ(faults.edge_slowdown(20.5), 2.5);
  EXPECT_DOUBLE_EQ(faults.edge_slowdown(0.0), 1.0);
  EXPECT_DOUBLE_EQ(faults.next_link_boundary(0.0), 1.0);
  EXPECT_DOUBLE_EQ(faults.next_link_boundary(1.0), 3.0);
  EXPECT_TRUE(std::isinf(faults.next_link_boundary(3.0)));
  // Union of [1,4), [10,12), [20,21) clipped to [0,15): 3 + 2 = 5 s.
  EXPECT_DOUBLE_EQ(faults.degraded_time(15.0), 5.0);
  EXPECT_DOUBLE_EQ(faults.degraded_time(50.0), 6.0);
  // Default-constructed injector is always healthy.
  const FaultInjector healthy;
  EXPECT_DOUBLE_EQ(healthy.link_factor(7.0), 1.0);
  EXPECT_FALSE(healthy.cloud_unavailable(7.0));
  EXPECT_TRUE(std::isinf(healthy.next_link_boundary(0.0)));
  EXPECT_DOUBLE_EQ(healthy.degraded_time(100.0), 0.0);
}

// The FaultInjector queries as they stood before its end-time index, frozen:
// each scans its class from the first episode. The oracle every indexed
// query must match bit for bit.
class LinearFaultQueries {
 public:
  explicit LinearFaultQueries(const FaultSchedule& schedule) {
    for (const FaultEpisode& e : schedule.episodes()) {
      by_class_[static_cast<std::size_t>(e.fault)].push_back(e);
    }
  }

  double link_factor(double t_s, std::size_t hop) const {
    double factor = 1.0;
    for (const FaultEpisode& e : of(FaultClass::kLinkOutage)) {
      if (e.start_s > t_s) break;
      if (e.hop == hop && e.covers(t_s)) factor = std::min(factor, e.magnitude);
    }
    return factor;
  }

  bool cloud_unavailable(double t_s) const {
    for (const FaultEpisode& e : of(FaultClass::kCloudOutage)) {
      if (e.start_s > t_s) break;
      if (e.covers(t_s)) return true;
    }
    return false;
  }

  double rtt_extra_ms(double t_s, std::size_t hop) const {
    double extra = 0.0;
    for (const FaultEpisode& e : of(FaultClass::kRttSpike)) {
      if (e.start_s > t_s) break;
      if (e.hop == hop && e.covers(t_s)) extra = std::max(extra, e.magnitude);
    }
    return extra;
  }

  double edge_slowdown(double t_s) const {
    double factor = 1.0;
    for (const FaultEpisode& e : of(FaultClass::kEdgeSlowdown)) {
      if (e.start_s > t_s) break;
      if (e.covers(t_s)) factor = std::max(factor, e.magnitude);
    }
    return factor;
  }

  double machine_failure_fraction(double t_s) const {
    double fraction = 0.0;
    for (const FaultEpisode& e : of(FaultClass::kMachineFailure)) {
      if (e.start_s > t_s) break;
      if (e.covers(t_s)) fraction = std::max(fraction, e.magnitude);
    }
    return fraction;
  }

  double brownout_factor(double t_s) const {
    double factor = 1.0;
    for (const FaultEpisode& e : of(FaultClass::kRegionalBrownout)) {
      if (e.start_s > t_s) break;
      if (e.covers(t_s)) factor = std::min(factor, 1.0 - e.magnitude);
    }
    return factor;
  }

  double backhaul_factor(double t_s, std::size_t hop) const {
    double factor = 1.0;
    for (const FaultEpisode& e : of(FaultClass::kBackhaulBrownout)) {
      if (e.start_s > t_s) break;
      if (e.hop == hop && e.covers(t_s)) factor = std::min(factor, 1.0 - e.magnitude);
    }
    return factor;
  }

  bool backhaul_unavailable(double t_s, std::size_t hop) const {
    for (const FaultEpisode& e : of(FaultClass::kBackhaulOutage)) {
      if (e.start_s > t_s) break;
      if (e.hop == hop && e.covers(t_s)) return true;
    }
    return false;
  }

  double fog_failure_fraction(double t_s) const {
    double fraction = 0.0;
    for (const FaultEpisode& e : of(FaultClass::kFogSiteFailure)) {
      if (e.start_s > t_s) break;
      if (e.covers(t_s)) fraction = std::max(fraction, e.magnitude);
    }
    return fraction;
  }

  double next_link_boundary(double t_s, std::size_t hop) const {
    double next = std::numeric_limits<double>::infinity();
    for (const FaultEpisode& e : of(FaultClass::kLinkOutage)) {
      if (e.hop != hop) continue;
      if (e.start_s > t_s) {
        next = std::min(next, e.start_s);
        break;
      }
      if (e.end_s > t_s) next = std::min(next, e.end_s);
    }
    return next;
  }

 private:
  const std::vector<FaultEpisode>& of(FaultClass fault) const {
    return by_class_[static_cast<std::size_t>(fault)];
  }

  std::vector<FaultEpisode> by_class_[kNumFaultClasses];
};

/// All ten queries of `faults` against the oracle at `t_s`, on every hop
/// below `hops` (the hop-free queries once).
void expect_queries_match(const FaultInjector& faults, const LinearFaultQueries& oracle,
                          double t_s, std::size_t hops) {
  EXPECT_EQ(faults.cloud_unavailable(t_s), oracle.cloud_unavailable(t_s)) << "t " << t_s;
  EXPECT_EQ(faults.edge_slowdown(t_s), oracle.edge_slowdown(t_s)) << "t " << t_s;
  EXPECT_EQ(faults.machine_failure_fraction(t_s), oracle.machine_failure_fraction(t_s))
      << "t " << t_s;
  EXPECT_EQ(faults.brownout_factor(t_s), oracle.brownout_factor(t_s)) << "t " << t_s;
  EXPECT_EQ(faults.fog_failure_fraction(t_s), oracle.fog_failure_fraction(t_s)) << "t " << t_s;
  for (std::size_t hop = 0; hop < hops; ++hop) {
    EXPECT_EQ(faults.link_factor(t_s, hop), oracle.link_factor(t_s, hop))
        << "t " << t_s << " hop " << hop;
    EXPECT_EQ(faults.rtt_extra_ms(t_s, hop), oracle.rtt_extra_ms(t_s, hop))
        << "t " << t_s << " hop " << hop;
    EXPECT_EQ(faults.backhaul_factor(t_s, hop), oracle.backhaul_factor(t_s, hop))
        << "t " << t_s << " hop " << hop;
    EXPECT_EQ(faults.backhaul_unavailable(t_s, hop), oracle.backhaul_unavailable(t_s, hop))
        << "t " << t_s << " hop " << hop;
    EXPECT_EQ(faults.next_link_boundary(t_s, hop), oracle.next_link_boundary(t_s, hop))
        << "t " << t_s << " hop " << hop;
  }
}

/// Query times at a schedule's edges: every start and end and the doubles
/// either side of each, before the first episode, after the last, plus
/// `random` uniform draws over the span.
std::vector<double> edge_query_times(const FaultSchedule& schedule, std::size_t random,
                                     std::mt19937_64& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double last = 0.0;
  std::vector<double> times = {-1.0, 0.0};
  for (const FaultEpisode& e : schedule.episodes()) {
    for (const double t : {e.start_s, e.end_s}) {
      times.insert(times.end(), {t, std::nextafter(t, -kInf), std::nextafter(t, kInf)});
    }
    last = std::max(last, e.end_s);
  }
  times.push_back(last + 1.0);
  std::uniform_real_distribution<double> span(0.0, last + 1.0);
  for (std::size_t i = 0; i < random; ++i) times.push_back(span(rng));
  return times;
}

/// True when some episode ends before an earlier-starting one of its class:
/// a nested window, where the raw end times stop being sorted.
bool has_nested_episode(const FaultSchedule& schedule) {
  double reach[kNumFaultClasses] = {};
  for (const FaultEpisode& e : schedule.episodes()) {
    double& r = reach[static_cast<std::size_t>(e.fault)];
    if (e.end_s < r) return true;
    r = std::max(r, e.end_s);
  }
  return false;
}

/// 1-12 scripted episodes per class, over `hops` hops, on a 0.5 s grid so
/// starts and ends coincide across episodes. A third are long enough to
/// contain several short ones of their class and to chain cloud outages.
FaultSchedule random_scripted_schedule(std::mt19937_64& rng, std::size_t hops) {
  std::uniform_int_distribution<int> slot(0, 200);
  std::uniform_int_distribution<int> short_slots(1, 6);
  std::uniform_int_distribution<int> long_slots(20, 80);
  std::uniform_int_distribution<std::size_t> per_class(1, 12);
  std::uniform_int_distribution<std::size_t> any_hop(0, hops - 1);
  std::uniform_int_distribution<std::size_t> backhaul_hop(1, hops - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<FaultEpisode> episodes;
  for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
    const std::size_t n = per_class(rng);
    for (std::size_t i = 0; i < n; ++i) {
      FaultEpisode e;
      e.fault = static_cast<FaultClass>(c);
      e.start_s = 0.5 * slot(rng);
      e.end_s = e.start_s + 0.5 * (rng() % 3 == 0 ? long_slots(rng) : short_slots(rng));
      e.magnitude = 0.05 + 0.9 * unit(rng);  // legal for every fractional class
      switch (e.fault) {
        case FaultClass::kLinkOutage: e.hop = any_hop(rng); break;
        case FaultClass::kRttSpike:
          e.hop = any_hop(rng);
          e.magnitude *= 500.0;
          break;
        case FaultClass::kEdgeSlowdown: e.magnitude = 1.0 + 3.0 * e.magnitude; break;
        case FaultClass::kBackhaulBrownout:
        case FaultClass::kBackhaulOutage: e.hop = backhaul_hop(rng); break;
        default: break;
      }
      episodes.push_back(e);
    }
  }
  return FaultSchedule(std::move(episodes));
}

TEST(FaultInjector, IndexedQueriesMatchLinearScansOnNestedScriptedEpisodes) {
  std::mt19937_64 rng(2024);
  std::size_t nested = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t hops = 2 + static_cast<std::size_t>(round % 3);
    const FaultSchedule schedule = random_scripted_schedule(rng, hops);
    nested += has_nested_episode(schedule) ? 1 : 0;
    const FaultInjector faults(schedule);
    const LinearFaultQueries oracle(schedule);
    for (const double t : edge_query_times(schedule, 50, rng)) {
      expect_queries_match(faults, oracle, t, hops);
      if (::testing::Test::HasFailure()) return;  // one bad time says it all
    }
  }
  EXPECT_GT(nested, 100u) << "too few schedules with nested episodes";
}

TEST(FaultInjector, IndexedQueriesMatchLinearScansAtLensFaultsRates) {
  // `lens faults --tiers 3 --cloud-machines N`: every per-request and
  // datacenter class, plus the backhaul hop's own fades and spikes.
  FaultScheduleConfig config;
  config.horizon_s = 3000.0;
  config.link_outage_rate_hz = 1.0 / 40.0;
  config.link_outage_mean_s = 5.0;
  config.cloud_outage_rate_hz = 1.0 / 60.0;
  config.cloud_outage_mean_s = 8.0;
  config.rtt_spike_rate_hz = 1.0 / 50.0;
  config.edge_slowdown_rate_hz = 1.0 / 80.0;
  config.machine_failure_rate_hz = 1.0 / 90.0;
  config.brownout_rate_hz = 1.0 / 70.0;
  HopFaultConfig backhaul;
  backhaul.outage_rate_hz = 1.0 / 50.0;
  backhaul.outage_mean_s = 6.0;
  backhaul.rtt_spike_rate_hz = 1.0 / 70.0;
  config.extra_hops = {backhaul};
  std::mt19937_64 rng(7);
  for (unsigned seed = 1; seed <= 5; ++seed) {
    config.seed = seed;
    const FaultSchedule schedule = FaultSchedule::generate(config);
    ASSERT_GT(schedule.count(FaultClass::kCloudOutage), 20u);
    const FaultInjector faults(schedule);
    const LinearFaultQueries oracle(schedule);
    for (const double t : edge_query_times(schedule, 2000, rng)) {
      expect_queries_match(faults, oracle, t, 2);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(Link, FadeIsIntegratedAcrossEpisodeBoundaries) {
  // Flat 8 Mbps with a half-depth fade over [1 s, 2 s): a 12e6-bit payload
  // carries 8e6 bits in [0,1), 4e6 bits in [1,2) -> done exactly at 2 s.
  const FaultSchedule schedule({{FaultClass::kLinkOutage, 1.0, 2.0, 0.5}});
  const FaultInjector faults(schedule);
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kWifi);
  TimeVaryingLink link(flat_trace(8.0), radio, &faults);
  EXPECT_DOUBLE_EQ(link.throughput_at(0.5), 8.0);
  EXPECT_DOUBLE_EQ(link.throughput_at(1.5), 4.0);
  const TransferResult r = link.transfer(0.0, 1500000);
  EXPECT_NEAR(r.end_s, 2.0, 1e-9);
  const double expected_energy =
      radio.transmit_power_mw(8.0) * 1.0 + radio.transmit_power_mw(4.0) * 1.0;
  EXPECT_NEAR(r.energy_mj, expected_energy, 1e-6);
}

TEST_F(SystemTest, CloudOutageDegradesGracefullyUnderDynamicDispatch) {
  // The acceptance scenario: a scripted 20 s cloud blackout in a 40 s run.
  // At 30 Mbps the latency-best option transmits, so the outage actually
  // threatens the request path.
  SimConfig config;
  config.duration_s = 40.0;
  config.arrival_rate_hz = 5.0;
  config.metric = runtime::OptimizeFor::kLatency;
  config.policy = DispatchPolicy::kDynamic;
  SimConfig faulty = config;
  faulty.faults.scripted.push_back({FaultClass::kCloudOutage, 5.0, 25.0, 0.0});

  EdgeCloudSystem clean_system(evaluation_.options, wifi_, flat_trace(30.0), config);
  EdgeCloudSystem faulty_system(evaluation_.options, wifi_, flat_trace(30.0), faulty);
  const SimStats clean = clean_system.run();
  const SimStats degraded = faulty_system.run();

  // Dynamic dispatch routes around the blackout: nothing is dropped, no
  // request ever waits out a timeout, but the forced All-Edge window costs
  // real latency.
  EXPECT_DOUBLE_EQ(degraded.availability, 1.0);
  EXPECT_EQ(degraded.dropped, 0u);
  EXPECT_EQ(degraded.timeouts, 0u);
  EXPECT_GT(degraded.mean_latency_ms, 1.05 * clean.mean_latency_ms);
  EXPECT_GT(degraded.degraded_time_s, 19.0);
  EXPECT_EQ(degraded.cloud_outage_episodes, 1u);
  bool fell_back_to_edge = false;
  for (const RequestRecord& r : faulty_system.records()) {
    if (r.arrival_s >= 5.0 && r.arrival_s < 25.0) {
      fell_back_to_edge |= evaluation_.options[r.option].tx_bytes == 0;
      EXPECT_EQ(r.timeouts, 0u);
    }
  }
  EXPECT_TRUE(fell_back_to_edge);

  // A fixed pin on the latency-best (transmitting) option must ride the
  // blackout out via timeout -> retry -> edge fallback. Same seed, same
  // arrivals; only dispatch differs.
  SimConfig pinned = faulty;
  pinned.policy = DispatchPolicy::kFixed;
  pinned.fixed_option = evaluator_.evaluate(alexnet_, 30.0).best_latency_option;
  ASSERT_GT(evaluation_.options[pinned.fixed_option].tx_bytes, 0u);
  EdgeCloudSystem pinned_system(evaluation_.options, wifi_, flat_trace(30.0), pinned);
  const SimStats suffered = pinned_system.run();
  EXPECT_GT(suffered.timeouts, 0u);
  EXPECT_GT(suffered.retries, 0u);
  EXPECT_GT(suffered.fallback_executions, 0u);
  EXPECT_DOUBLE_EQ(suffered.availability, 1.0);  // fallback saves every request
  EXPECT_GT(suffered.mean_latency_ms, degraded.mean_latency_ms);
}

TEST_F(SystemTest, OutageWithoutEdgeFallbackDropsRequests) {
  // Only the All-Cloud option exists: during the blackout there is nothing
  // to fall back to, so retries exhaust and requests drop.
  SimConfig config;
  config.duration_s = 30.0;
  config.arrival_rate_hz = 5.0;
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = 0;
  config.max_retries = 1;
  config.faults.scripted.push_back({FaultClass::kCloudOutage, 5.0, 28.0, 0.0});
  std::vector<core::DeploymentOption> only_cloud = {evaluation_.all_cloud()};
  EdgeCloudSystem system(only_cloud, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_LT(stats.availability, 1.0);
  EXPECT_GT(stats.availability, 0.0);  // pre/post-blackout traffic succeeds
  EXPECT_EQ(stats.completed + stats.dropped, system.records().size());
}

TEST_F(SystemTest, RetriesRecoverAfterShortOutage) {
  // A 1 s blackout with generous retries: every request that times out
  // eventually lands once the cloud returns — nothing dropped.
  SimConfig config;
  config.duration_s = 3.0;
  config.arrival_rate_hz = 10.0;
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = 0;
  config.timeout_ms = 200.0;
  config.retry_backoff_ms = 100.0;
  config.max_retries = 8;
  config.faults.scripted.push_back({FaultClass::kCloudOutage, 0.0, 1.0, 0.0});
  std::vector<core::DeploymentOption> only_cloud = {evaluation_.all_cloud()};
  EdgeCloudSystem system(only_cloud, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.timeouts, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.fallback_executions, 0u);
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
}

TEST_F(SystemTest, RetryJitterDesynchronizesDevicesSharingAnOutage) {
  // Two devices ride out the same scripted blackout. With jitter enabled
  // their backoff draws come from per-device substreams, so their retry
  // timelines diverge — the thundering herd breaks up. With jitter off the
  // device identity is inert and the runs stay bitwise identical.
  const auto run_device = [&](std::uint64_t device_id, double jitter) {
    SimConfig config;
    config.duration_s = 5.0;
    config.arrival_rate_hz = 10.0;
    config.policy = DispatchPolicy::kFixed;
    config.fixed_option = 0;
    config.timeout_ms = 200.0;
    config.retry_backoff_ms = 100.0;
    config.max_retries = 8;
    config.retry_jitter = jitter;
    config.device_id = device_id;
    config.faults.scripted.push_back({FaultClass::kCloudOutage, 0.0, 1.5, 0.0});
    std::vector<core::DeploymentOption> only_cloud = {evaluation_.all_cloud()};
    EdgeCloudSystem system(only_cloud, wifi_, flat_trace(10.0), config);
    return system.run();
  };

  const SimStats a = run_device(1, 0.5);
  const SimStats b = run_device(2, 0.5);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(b.retries, 0u);
  // Different substreams -> different post-outage landing times.
  EXPECT_NE(a.mean_latency_ms, b.mean_latency_ms);

  const SimStats c = run_device(1, 0.0);
  const SimStats d = run_device(2, 0.0);
  EXPECT_EQ(c.completed, d.completed);
  EXPECT_EQ(c.retries, d.retries);
  EXPECT_EQ(c.mean_latency_ms, d.mean_latency_ms);  // bitwise
  EXPECT_EQ(c.total_energy_mj, d.total_energy_mj);  // bitwise
}

TEST_F(SystemTest, FaultyStatsAreBitIdenticalAcrossThreadCounts) {
  const auto run_with_threads = [&](std::size_t threads) {
    par::set_max_threads(threads);
    SimConfig config;
    config.duration_s = 60.0;
    config.arrival_rate_hz = 8.0;
    config.seed = 99;
    config.metric = runtime::OptimizeFor::kLatency;
    config.policy = DispatchPolicy::kDynamic;
    config.faults.seed = 99;
    config.faults.link_outage_rate_hz = 1.0 / 30.0;
    config.faults.cloud_outage_rate_hz = 1.0 / 45.0;
    config.faults.cloud_outage_mean_s = 5.0;
    config.faults.rtt_spike_rate_hz = 1.0 / 40.0;
    config.faults.edge_slowdown_rate_hz = 1.0 / 50.0;
    EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(30.0), config);
    return system.run();
  };
  const SimStats one = run_with_threads(1);
  const SimStats four = run_with_threads(4);
  par::set_max_threads(0);  // restore hardware default for other tests
  EXPECT_EQ(one.completed, four.completed);
  EXPECT_EQ(one.timeouts, four.timeouts);
  EXPECT_EQ(one.retries, four.retries);
  EXPECT_EQ(one.fallback_executions, four.fallback_executions);
  EXPECT_EQ(one.dropped, four.dropped);
  EXPECT_EQ(one.mean_latency_ms, four.mean_latency_ms);      // bitwise
  EXPECT_EQ(one.total_energy_mj, four.total_energy_mj);      // bitwise
  EXPECT_EQ(one.p99_latency_ms, four.p99_latency_ms);        // bitwise
  EXPECT_EQ(one.degraded_time_s, four.degraded_time_s);      // bitwise
}

TEST_F(SystemTest, Deterministic) {
  SimConfig config;
  config.duration_s = 50.0;
  config.arrival_rate_hz = 3.0;
  config.seed = 17;
  EdgeCloudSystem a(evaluation_.options, wifi_, flat_trace(10.0), config);
  EdgeCloudSystem b(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats sa = a.run();
  const SimStats sb = b.run();
  EXPECT_EQ(sa.completed, sb.completed);
  EXPECT_DOUBLE_EQ(sa.total_energy_mj, sb.total_energy_mj);
  EXPECT_DOUBLE_EQ(sa.p99_latency_ms, sb.p99_latency_ms);
}

/// p50/p95/p99/max of the served requests by a full sort — the reference the
/// simulator's order-statistic selection must reproduce bit for bit. Returns
/// the sorted latencies for the caller's coverage checks.
std::vector<double> expect_percentiles_match_sort(const EdgeCloudSystem& system,
                                                  const SimStats& stats) {
  std::vector<double> latencies;
  for (const RequestRecord& r : system.records()) {
    if (!r.dropped) latencies.push_back(r.latency_ms);
  }
  EXPECT_EQ(latencies.size(), stats.completed);
  if (latencies.empty()) return latencies;
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    const double position = p / 100.0 * static_cast<double>(latencies.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const auto upper = static_cast<std::size_t>(std::ceil(position));
    const double fraction = position - static_cast<double>(lower);
    return latencies[lower] + fraction * (latencies[upper] - latencies[lower]);
  };
  EXPECT_EQ(stats.p50_latency_ms, percentile(50.0)) << latencies.size() << " served";
  EXPECT_EQ(stats.p95_latency_ms, percentile(95.0)) << latencies.size() << " served";
  EXPECT_EQ(stats.p99_latency_ms, percentile(99.0)) << latencies.size() << " served";
  EXPECT_EQ(stats.max_latency_ms, latencies.back()) << latencies.size() << " served";
  return latencies;
}

/// Arrival horizon admitting exactly `n` >= 1 requests of the simulator's
/// Poisson stream at (seed, rate): midway between arrivals n and n + 1.
double horizon_for_arrivals(unsigned seed, double rate_hz, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_hz);
  double before = 0.0;
  double t = gap(rng);
  for (std::size_t i = 0; i < n; ++i) {
    before = t;
    t += gap(rng);
  }
  return (before + t) / 2.0;
}

TEST_F(SystemTest, PercentilesMatchAFullSortOnTinyRuns) {
  // 1, 2 and 3 served requests: every rank coincidence the selection has —
  // lower == upper, upper == lower + 1, and a p95 that reuses p50's rank.
  for (std::size_t n = 1; n <= 3; ++n) {
    SimConfig config;
    config.seed = 5;
    config.arrival_rate_hz = 2.0;
    config.duration_s = horizon_for_arrivals(config.seed, config.arrival_rate_hz, n);
    config.policy = DispatchPolicy::kDynamic;
    EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
    const SimStats stats = system.run();
    ASSERT_EQ(stats.completed, n);
    expect_percentiles_match_sort(system, stats);
  }
}

TEST_F(SystemTest, PercentilesMatchAFullSortWithTies) {
  // All-Edge at light load: every latency is the edge service time, up to
  // the rounding of (arrival + service) - arrival, so values repeat.
  SimConfig config;
  config.duration_s = 600.0;
  config.arrival_rate_hz = 1.0;
  config.policy = DispatchPolicy::kFixed;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) config.fixed_option = i;
  }
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  const std::vector<double> sorted = expect_percentiles_match_sort(system, stats);
  EXPECT_NE(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end()) << "no ties";
}

TEST_F(SystemTest, PercentilesMatchAFullSortWithDrops) {
  // No edge-only option: the blackout's requests drop and must stay out of
  // the order statistics.
  SimConfig config;
  config.duration_s = 30.0;
  config.arrival_rate_hz = 5.0;
  config.max_retries = 1;
  config.faults.scripted.push_back({FaultClass::kCloudOutage, 5.0, 28.0, 0.0});
  EdgeCloudSystem system({evaluation_.all_cloud()}, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  ASSERT_GT(stats.dropped, 0u);
  ASSERT_GT(stats.completed, 0u);
  expect_percentiles_match_sort(system, stats);
}

TEST_F(SystemTest, PercentilesMatchAFullSortOnTheServeFaultsConfiguration) {
  // `lens faults --rate 10 --cloud-machines 8 --jitter 0.5 --breaker 3` at a
  // short duration, under both policies it compares.
  const core::DeploymentPlan plan = evaluator_.compile(alexnet_);
  SimConfig config;
  config.arrival_rate_hz = 10.0;
  config.duration_s = 900.0;
  config.faults.link_outage_rate_hz = 1.0 / 40.0;
  config.faults.link_outage_mean_s = 5.0;
  config.faults.cloud_outage_rate_hz = 1.0 / 60.0;
  config.faults.cloud_outage_mean_s = 8.0;
  config.faults.rtt_spike_rate_hz = 1.0 / 50.0;
  config.faults.edge_slowdown_rate_hz = 1.0 / 80.0;
  config.faults.machine_failure_rate_hz = 1.0 / 90.0;
  config.faults.brownout_rate_hz = 1.0 / 70.0;
  config.retry_jitter = 0.5;
  config.breaker_failures = 3;
  cloud::CloudConfig cloud;
  cloud.machines = 8;
  cloud.machine.capacity_ms_per_s = 4000.0;
  config.cloud = cloud;
  // The fixed policy pins the fastest option that transmits.
  const core::DeploymentEvaluation priced = plan.price(10.0);
  SimConfig fixed = config;
  fixed.policy = DispatchPolicy::kFixed;
  fixed.fixed_option = priced.options.size();
  for (std::size_t i = 0; i < priced.options.size(); ++i) {
    if (priced.options[i].tx_bytes == 0) continue;
    if (fixed.fixed_option == priced.options.size() ||
        priced.options[i].latency_ms < priced.options[fixed.fixed_option].latency_ms) {
      fixed.fixed_option = i;
    }
  }
  ASSERT_LT(fixed.fixed_option, priced.options.size());
  config.policy = DispatchPolicy::kDynamic;
  std::size_t failed_attempts = 0;
  for (const SimConfig& c : {config, fixed}) {
    EdgeCloudSystem system(plan, flat_trace(10.0), c);
    const SimStats stats = system.run();
    ASSERT_GT(stats.completed, 8000u);
    failed_attempts += stats.timeouts + stats.shed;
    expect_percentiles_match_sort(system, stats);
  }
  EXPECT_GT(failed_attempts, 0u);
}

}  // namespace
}  // namespace lens::sim
