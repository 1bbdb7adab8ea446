// Tests for the runtime subsystem: cost curves, analytic crossovers,
// dominance intervals (cross-checked against dense scans), the throughput
// tracker, and dynamic-vs-fixed trace playback.

#include <cmath>

#include <gtest/gtest.h>

#include "comm/trace.hpp"
#include "core/evaluator.hpp"
#include "dnn/presets.hpp"
#include "perf/predictor.hpp"
#include "runtime/deployer.hpp"
#include "runtime/threshold.hpp"
#include "runtime/tracker.hpp"

namespace lens::runtime {
namespace {

core::DeploymentOption make_option(core::DeploymentKind kind, double edge_latency,
                                   double edge_energy, std::uint64_t tx_bytes) {
  core::DeploymentOption o;
  o.kind = kind;
  o.edge_latency_ms = edge_latency;
  o.edge_energy_mj = edge_energy;
  o.tx_bytes = tx_bytes;
  return o;
}

TEST(CostCurve, ValueAndValidation) {
  const CostCurve c{10.0, 20.0};
  EXPECT_DOUBLE_EQ(c.value(2.0), 20.0);
  EXPECT_DOUBLE_EQ(c.value(20.0), 11.0);
  EXPECT_THROW(c.value(0.0), std::invalid_argument);
}

TEST(CostCurve, LatencyCurveMatchesCommModel) {
  const comm::CommModel comm(comm::WirelessTechnology::kWifi, 15.0);
  const auto option =
      make_option(core::DeploymentKind::kPartitioned, 12.0, 100.0, 36864);
  const CostCurve curve = latency_curve(option, comm);
  for (double tu : {0.5, 3.0, 16.0}) {
    EXPECT_NEAR(curve.value(tu), 12.0 + comm.comm_latency_ms(36864, tu), 1e-9);
  }
}

TEST(CostCurve, EnergyCurveMatchesCommModel) {
  const comm::CommModel comm(comm::WirelessTechnology::kLte, 15.0);
  const auto option =
      make_option(core::DeploymentKind::kPartitioned, 12.0, 100.0, 36864);
  const CostCurve curve = energy_curve(option, comm);
  for (double tu : {0.5, 3.0, 16.0}) {
    EXPECT_NEAR(curve.value(tu), 100.0 + comm.tx_energy_mj(36864, tu), 1e-9);
  }
}

TEST(CostCurve, AllEdgeIsFlat) {
  const comm::CommModel comm(comm::WirelessTechnology::kWifi, 15.0);
  const auto edge = make_option(core::DeploymentKind::kAllEdge, 30.0, 280.0, 0);
  const CostCurve lat = latency_curve(edge, comm);
  const CostCurve ene = energy_curve(edge, comm);
  EXPECT_DOUBLE_EQ(lat.per_inverse_tu, 0.0);
  EXPECT_DOUBLE_EQ(lat.value(1.0), lat.value(100.0));
  EXPECT_DOUBLE_EQ(ene.value(0.3), 280.0);
}

TEST(Crossover, AnalyticMatchesNumeric) {
  const CostCurve flat{30.0, 0.0};
  const CostCurve hyperbolic{10.0, 100.0};
  const auto tu = crossover_tu(flat, hyperbolic);
  ASSERT_TRUE(tu.has_value());
  EXPECT_NEAR(*tu, 5.0, 1e-12);  // 30 = 10 + 100/t -> t = 5
  EXPECT_NEAR(flat.value(*tu), hyperbolic.value(*tu), 1e-9);
}

TEST(Crossover, ParallelOrIdenticalCurvesHaveNone) {
  EXPECT_FALSE(crossover_tu({10.0, 5.0}, {10.0, 5.0}).has_value());
  EXPECT_FALSE(crossover_tu({10.0, 5.0}, {10.0, 8.0}).has_value());  // same constant
  EXPECT_FALSE(crossover_tu({10.0, 5.0}, {12.0, 5.0}).has_value());  // same slope
  // Crossing at negative throughput: not physical.
  EXPECT_FALSE(crossover_tu({10.0, 5.0}, {12.0, 8.0}).has_value());
}

TEST(DominanceIntervals, PartitionCoversRangeWithoutGaps) {
  const std::vector<CostCurve> curves = {{30.0, 0.0}, {10.0, 100.0}, {0.0, 400.0}};
  const auto intervals = dominance_intervals(curves, 0.1, 100.0);
  ASSERT_FALSE(intervals.empty());
  EXPECT_DOUBLE_EQ(intervals.front().tu_low, 0.1);
  EXPECT_DOUBLE_EQ(intervals.back().tu_high, 100.0);
  for (std::size_t i = 0; i + 1 < intervals.size(); ++i) {
    EXPECT_DOUBLE_EQ(intervals[i].tu_high, intervals[i + 1].tu_low);
    EXPECT_NE(intervals[i].option_index, intervals[i + 1].option_index);
  }
}

TEST(DominanceIntervals, AgreesWithDenseScan) {
  const std::vector<CostCurve> curves = {
      {30.0, 0.0}, {12.0, 90.0}, {2.0, 350.0}, {25.0, 20.0}};
  const auto intervals = dominance_intervals(curves, 0.2, 80.0);
  for (double tu = 0.21; tu < 80.0; tu *= 1.07) {
    // Winner per the intervals.
    std::size_t interval_winner = intervals.back().option_index;
    for (const DominanceInterval& iv : intervals) {
      if (tu >= iv.tu_low && tu < iv.tu_high) {
        interval_winner = iv.option_index;
        break;
      }
    }
    // Winner per brute force.
    std::size_t scan_winner = 0;
    for (std::size_t i = 1; i < curves.size(); ++i) {
      if (curves[i].value(tu) < curves[scan_winner].value(tu)) scan_winner = i;
    }
    // Allow ties right at a boundary.
    EXPECT_NEAR(curves[interval_winner].value(tu), curves[scan_winner].value(tu), 1e-6)
        << "tu=" << tu;
  }
}

TEST(DominanceIntervals, Validation) {
  EXPECT_THROW(dominance_intervals({}, 0.1, 10.0), std::invalid_argument);
  EXPECT_THROW(dominance_intervals({{1.0, 1.0}}, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(dominance_intervals({{1.0, 1.0}}, 5.0, 5.0), std::invalid_argument);
}

TEST(Tracker, EwmaBehaviour) {
  ThroughputTracker tracker(0.5);
  EXPECT_FALSE(tracker.has_estimate());
  EXPECT_THROW(tracker.estimate_mbps(), std::logic_error);
  tracker.report(10.0);
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 10.0);
  tracker.report(20.0);
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 15.0);
  tracker.report(20.0);
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 17.5);
  EXPECT_EQ(tracker.samples(), 3u);
}

TEST(Tracker, Validation) {
  EXPECT_THROW(ThroughputTracker(0.0), std::invalid_argument);
  EXPECT_THROW(ThroughputTracker(1.5), std::invalid_argument);
  ThroughputTracker tracker;
  EXPECT_THROW(tracker.report(0.0), std::invalid_argument);
}

class DeployerTest : public ::testing::Test {
 protected:
  DeployerTest() : comm_(comm::WirelessTechnology::kLte, 10.0) {
    // Model-A style options: partitioned (cheap edge prefix + small tx),
    // All-Edge (flat), All-Cloud (no edge cost, big tx).
    options_.push_back(make_option(core::DeploymentKind::kAllCloud, 0.0, 0.0, 150528));
    options_.push_back(make_option(core::DeploymentKind::kPartitioned, 15.0, 160.0, 36864));
    options_.push_back(make_option(core::DeploymentKind::kAllEdge, 30.0, 290.0, 0));
  }

  comm::CommModel comm_;
  std::vector<core::DeploymentOption> options_;
};

TEST_F(DeployerTest, SelectMatchesCheapestCurve) {
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kEnergy);
  for (double tu = 0.1; tu < 200.0; tu *= 1.31) {
    const std::size_t chosen = deployer.select(tu);
    for (std::size_t i = 0; i < deployer.curves().size(); ++i) {
      EXPECT_GE(deployer.curves()[i].value(tu) + 1e-9,
                deployer.curves()[chosen].value(tu));
    }
  }
}

TEST_F(DeployerTest, DynamicNeverWorseThanAnyFixedWithInstantTracking) {
  // With alpha=1 the tracker is exact, so per-sample the dynamic choice is
  // the cheapest option -> cumulative cost <= any fixed policy.
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kEnergy);
  comm::TraceGeneratorConfig trace_config;
  trace_config.mean_mbps = 8.0;
  trace_config.seed = 5;
  comm::TraceGenerator generator(trace_config);
  const comm::ThroughputTrace trace = generator.generate(40);
  const PlaybackResult dynamic = deployer.play_dynamic(trace, /*tracker_alpha=*/1.0);
  for (std::size_t i = 0; i < options_.size(); ++i) {
    const PlaybackResult fixed = deployer.play_fixed(trace, i);
    EXPECT_LE(dynamic.total_cost, fixed.total_cost + 1e-9) << "fixed option " << i;
  }
}

TEST_F(DeployerTest, PlaybackAccountingIsConsistent) {
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kLatency);
  comm::TraceGenerator generator;
  const comm::ThroughputTrace trace = generator.generate(25);
  const PlaybackResult result = deployer.play_dynamic(trace);
  ASSERT_EQ(result.per_sample_cost.size(), 25u);
  ASSERT_EQ(result.cumulative_cost.size(), 25u);
  ASSERT_EQ(result.chosen_option.size(), 25u);
  double running = 0.0;
  for (std::size_t i = 0; i < 25; ++i) {
    running += result.per_sample_cost[i];
    EXPECT_NEAR(result.cumulative_cost[i], running, 1e-9);
  }
  EXPECT_NEAR(result.total_cost, running, 1e-9);
}

TEST_F(DeployerTest, Validation) {
  EXPECT_THROW(DynamicDeployer({}, comm_, OptimizeFor::kEnergy), std::invalid_argument);
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kEnergy);
  comm::ThroughputTrace empty;
  EXPECT_THROW(deployer.play_dynamic(empty), std::invalid_argument);
  comm::TraceGenerator generator;
  const comm::ThroughputTrace trace = generator.generate(5);
  EXPECT_THROW(deployer.play_fixed(trace, 99), std::out_of_range);
}

TEST_F(DeployerTest, OutageSelectsAsAnalyzedFloor) {
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kEnergy, 0.05, 500.0);
  // A dead link (tu <= 0) behaves like the most pessimistic analyzed state
  // instead of throwing.
  EXPECT_EQ(deployer.select(0.0), deployer.select(0.05));
  EXPECT_EQ(deployer.select(-3.0), deployer.select(0.05));
  EXPECT_EQ(deployer.select_with_hysteresis(0.0, 0), deployer.select_with_hysteresis(0.05, 0));
}

TEST_F(DeployerTest, OutageSamplesAreCountedAndPricedAtFloor) {
  const double tu_min = 0.05;
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kEnergy, tu_min, 500.0);
  comm::ThroughputTrace trace;
  trace.samples_mbps = {8.0, 0.0, 6.0, -1.0, 4.0};
  trace.interval_s = 1.0;

  const PlaybackResult dynamic = deployer.play_dynamic(trace, /*tracker_alpha=*/1.0);
  EXPECT_EQ(dynamic.outages, 2u);
  ASSERT_EQ(dynamic.per_sample_cost.size(), 5u);
  // Outage samples are charged at the floor throughput for whatever option
  // was selected.
  for (const std::size_t i : {1u, 3u}) {
    EXPECT_DOUBLE_EQ(dynamic.per_sample_cost[i],
                     deployer.curves()[dynamic.chosen_option[i]].value(tu_min));
  }

  const PlaybackResult fixed = deployer.play_fixed(trace, 2);
  EXPECT_EQ(fixed.outages, 2u);
  EXPECT_DOUBLE_EQ(fixed.per_sample_cost[1], deployer.curves()[2].value(tu_min));

  // A clean trace reports zero outages.
  comm::TraceGenerator generator;
  EXPECT_EQ(deployer.play_dynamic(generator.generate(10)).outages, 0u);
}

TEST(Tracker, OutagePolicyDecaysHeldEstimateToFloor) {
  ThroughputTracker tracker(0.5, /*outage_decay=*/0.5, /*floor_mbps=*/1.0);
  // Outages before any measurement only count; no estimate is invented.
  tracker.report_outage();
  EXPECT_FALSE(tracker.has_estimate());
  EXPECT_EQ(tracker.outages(), 1u);

  tracker.report(8.0);
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 8.0);
  // An outage episode decays the held estimate geometrically...
  tracker.report_outage();
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 4.0);
  tracker.report_outage();
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 2.0);
  // ...down to the floor, never below.
  for (int i = 0; i < 10; ++i) tracker.report_outage();
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 1.0);
  EXPECT_EQ(tracker.outages(), 13u);
  EXPECT_EQ(tracker.samples(), 1u);  // outages are not measurements
  // Recovery blends the new reading with the decayed estimate.
  tracker.report(9.0);
  EXPECT_DOUBLE_EQ(tracker.estimate_mbps(), 0.5 * 9.0 + 0.5 * 1.0);

  EXPECT_THROW(ThroughputTracker(0.5, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ThroughputTracker(0.5, 1.5, 1.0), std::invalid_argument);
  EXPECT_THROW(ThroughputTracker(0.5, 0.5, 0.0), std::invalid_argument);
}

TEST_F(DeployerTest, FallbackPolicyGovernsOutageSelection) {
  // Latency metric: All-Cloud wins above ~60 Mbps, All-Edge below — so an
  // outage forces a real re-staging decision.
  const double tu_min = 0.05;
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kLatency, tu_min, 500.0);
  comm::ThroughputTrace trace;
  trace.interval_s = 1.0;
  for (int i = 0; i < 5; ++i) trace.samples_mbps.push_back(200.0);
  for (int i = 0; i < 3; ++i) trace.samples_mbps.push_back(0.0);
  for (int i = 0; i < 5; ++i) trace.samples_mbps.push_back(200.0);

  const std::size_t floor_choice = deployer.select(tu_min);
  const std::size_t fast_choice = deployer.select(200.0);
  ASSERT_NE(floor_choice, fast_choice);  // the episode must matter

  const PlaybackResult floor_run = deployer.play_dynamic(trace, /*tracker_alpha=*/1.0);
  FallbackPolicy hold;
  hold.on_outage = FallbackPolicy::OnOutage::kHoldLast;
  hold.hold_decay = 1.0;  // hold-last exactly
  const PlaybackResult hold_run = deployer.play_dynamic(trace, 1.0, 0.0, hold);

  for (std::size_t i = 5; i < 8; ++i) {
    // Pessimistic floor re-stages to the worst-case winner for the episode;
    // exact hold-last keeps the pre-outage choice.
    EXPECT_EQ(floor_run.chosen_option[i], floor_choice);
    EXPECT_EQ(hold_run.chosen_option[i], fast_choice);
  }
  EXPECT_EQ(floor_run.option_switches, 2u);  // into and out of the episode
  EXPECT_EQ(hold_run.option_switches, 0u);
  EXPECT_EQ(floor_run.outages, 3u);
  EXPECT_EQ(hold_run.outages, 3u);
  EXPECT_DOUBLE_EQ(hold_run.degraded_fraction, 3.0 / 13.0);
  // Pricing is policy-independent: outage samples charge the chosen option
  // at the floor, so hold-last pays for its optimism during the episode.
  EXPECT_GE(hold_run.total_cost, floor_run.total_cost);
}

TEST_F(DeployerTest, HysteresisBoundsFlappingOnOutageTraces) {
  // Mean throughput sits on the All-Edge / All-Cloud latency threshold
  // (~60 Mbps) and the Markov overlay injects deep fades on top.
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kLatency);
  comm::TraceGeneratorConfig config;
  config.mean_mbps = 60.0;
  config.sigma = 0.5;
  config.correlation = 0.5;
  config.seed = 31;
  config.outage_start_probability = 0.15;
  config.outage_mean_duration = 2.0;
  config.outage_depth_factor = 0.05;
  comm::TraceGenerator generator(config);
  const comm::ThroughputTrace trace = generator.generate(300);

  const PlaybackResult plain = deployer.play_dynamic(trace, /*tracker_alpha=*/1.0);
  const PlaybackResult damped =
      deployer.play_dynamic(trace, 1.0, /*hysteresis_margin=*/0.3);
  // The Markov fades make an instant tracker flap between options; the
  // hysteresis band absorbs most of the re-staging churn (deep fades still
  // switch — their cost gap exceeds any sane margin, as it should).
  EXPECT_GT(plain.option_switches, 20u);
  EXPECT_LT(damped.option_switches, plain.option_switches / 2);
  // Staying inside the margin costs little on the accumulated bill.
  EXPECT_LE(damped.total_cost, plain.total_cost * 1.1 + 1e-9);
}

TEST_F(DeployerTest, CheapestEdgeOnlyIsTheAllEdgeOption) {
  const DynamicDeployer deployer(options_, comm_, OptimizeFor::kEnergy);
  ASSERT_TRUE(deployer.cheapest_edge_only().has_value());
  EXPECT_EQ(*deployer.cheapest_edge_only(), 2u);  // the All-Edge option
  // An option set with no edge-only member has none to fall back to.
  const std::vector<core::DeploymentOption> cloud_only = {options_[0], options_[1]};
  const DynamicDeployer stuck(cloud_only, comm_, OptimizeFor::kEnergy);
  EXPECT_FALSE(stuck.cheapest_edge_only().has_value());
}

// End-to-end runtime scenario on the real AlexNet options: the paper's
// §V-C analysis structure (thresholds exist and switching respects them).
TEST(RuntimeEndToEnd, AlexNetEnergyThresholdIsPhysical) {
  const dnn::Architecture alexnet = dnn::alexnet();
  perf::DeviceSimulator sim(perf::jetson_tx2_gpu());
  const perf::SimulatorOracle oracle(sim);
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(oracle, wifi);
  const core::DeploymentEvaluation eval = evaluator.evaluate(alexnet, 10.0);

  // Runtime options: best partition + All-Edge (paper model A setup).
  std::vector<core::DeploymentOption> options = {eval.energy_choice(), eval.all_edge()};
  ASSERT_EQ(options[0].kind, core::DeploymentKind::kPartitioned);
  const DynamicDeployer deployer(options, wifi, OptimizeFor::kEnergy, 0.05, 200.0);
  // There must be a threshold: edge wins at very low t_u, partition at high.
  EXPECT_EQ(deployer.select(0.1), 1u);   // All-Edge
  EXPECT_EQ(deployer.select(50.0), 0u);  // Partitioned
  ASSERT_GE(deployer.intervals().size(), 2u);
  const double threshold = deployer.intervals().front().tu_high;
  EXPECT_GT(threshold, 0.3);
  EXPECT_LT(threshold, 20.0);
}

}  // namespace
}  // namespace lens::runtime
