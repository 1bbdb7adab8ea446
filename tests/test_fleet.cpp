// Frozen-reference tests for the batched SoA serving kernels and the fleet
// engine built on them. Every batch kernel (trace step_batch,
// tracker_update_batch, select_batch, price_batch_into) is pinned
// bit-for-bit (EXPECT_EQ, no tolerances) against the scalar object API it
// refactored — the scalar paths are themselves pinned by the existing
// per-subsystem frozen-reference suites, so the chain grounds out at the
// historical numbers. FleetEngine determinism is pinned by byte-comparing
// whole FleetStats CSV reports across thread counts.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/machine.hpp"
#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "core/topology.hpp"
#include "dnn/presets.hpp"
#include "fleet/fleet.hpp"
#include "io/io.hpp"
#include "par/parallel.hpp"
#include "par/substream.hpp"
#include "par/thread_pool.hpp"
#include "perf/predictor.hpp"
#include "runtime/deployer.hpp"
#include "runtime/tracker.hpp"
#include "sim/fault.hpp"

namespace lens {
namespace {

// ---------------------------------------------------------------------------
// par::SplitMix64
// ---------------------------------------------------------------------------

TEST(SplitMix64, StreamMatchesSubstreamSeed) {
  // The URBG *is* the splitmix64 stream substream_seed samples: draw i of
  // SplitMix64(seed) equals substream_seed(seed, i).
  par::SplitMix64 rng(0x9a3779b9f1234567ull);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(rng(), par::substream_seed(0x9a3779b9f1234567ull, i));
  }
}

TEST(SplitMix64, UrbgContract) {
  EXPECT_EQ(par::SplitMix64::min(), 0u);
  EXPECT_EQ(par::SplitMix64::max(), ~std::uint64_t{0});
  par::SplitMix64 a(7), b(7), c(8);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a != c);
  (void)a();
  EXPECT_TRUE(a != b);  // state advanced
}

// ---------------------------------------------------------------------------
// comm::TraceGenerator::step / step_batch
// ---------------------------------------------------------------------------

comm::TraceGeneratorConfig outage_trace_config() {
  comm::TraceGeneratorConfig config;
  config.mean_mbps = 8.0;
  config.sigma = 0.5;
  config.correlation = 0.7;
  config.seed = 42;
  config.outage_start_probability = 0.15;
  config.outage_mean_duration = 2.5;
  config.outage_depth_factor = 0.04;
  return config;
}

TEST(TraceStep, StepReproducesGenerateBitForBit) {
  for (const auto& config :
       {comm::TraceGeneratorConfig{}, outage_trace_config()}) {
    comm::TraceGenerator whole(config);
    const comm::ThroughputTrace a = whole.generate(40);
    const comm::ThroughputTrace b = whole.generate(24);  // stream continues

    comm::TraceGenerator stepped(config);
    comm::TraceState state = stepped.start_state(std::mt19937_64(config.seed));
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(stepped.step(state), a.samples_mbps[i]) << "sample " << i;
    }
    // A second generate() re-draws a stationary start from the same stream.
    comm::TraceState state2 = stepped.start_state(std::move(state.rng));
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(stepped.step(state2), b.samples_mbps[i]) << "sample " << i;
    }
  }
}

TEST(TraceStep, StepBatchMatchesScalarStep) {
  const comm::TraceGeneratorConfig config = outage_trace_config();
  const comm::TraceGenerator gen(config);
  constexpr std::size_t kDevices = 37;

  std::vector<comm::FleetTraceState> batch(kDevices), scalar(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    batch[d] = gen.start_state(par::SplitMix64(par::substream_seed(123, d)));
    scalar[d] = gen.start_state(par::SplitMix64(par::substream_seed(123, d)));
  }
  std::vector<double> out(kDevices);
  for (std::size_t step = 0; step < 16; ++step) {
    gen.step_batch(batch.data(), kDevices, out.data());
    for (std::size_t d = 0; d < kDevices; ++d) {
      EXPECT_EQ(out[d], gen.step(scalar[d])) << "device " << d << " step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// runtime::tracker_update / tracker_update_batch
// ---------------------------------------------------------------------------

TEST(TrackerBatch, CoreMatchesObjectWrapper) {
  const runtime::TrackerParams params{0.6, 0.4, 0.07};
  runtime::ThroughputTracker object(params.alpha, params.outage_decay,
                                    params.floor_mbps);
  runtime::TrackerState core;
  // Leading outage (no-op on the estimate), EWMA folds, decay chain to floor.
  const double readings[] = {0.0, 12.0, 8.5, 0.0, 0.0, 3.25, 0.0, 0.0, 0.0, 40.0};
  for (double tu : readings) {
    if (tu > 0.0) {
      object.report(tu);
    } else {
      object.report_outage();
    }
    runtime::tracker_update(params, core, tu);
    EXPECT_EQ(core.samples, object.samples());
    EXPECT_EQ(core.outages, object.outages());
    if (object.has_estimate()) {
      EXPECT_EQ(core.estimate_mbps, object.estimate_mbps());
    }
  }
}

TEST(TrackerBatch, BatchMatchesPerSampleReports) {
  const runtime::TrackerParams params{0.7, 0.5, 0.05};
  constexpr std::size_t kDevices = 29;
  constexpr std::size_t kSteps = 50;

  // Per-device reading sequences from decorrelated substreams, ~1/4 outages.
  std::vector<std::vector<double>> readings(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    std::mt19937_64 rng(par::substream_seed(9, d));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (std::size_t s = 0; s < kSteps; ++s) {
      const double u = unit(rng);
      readings[d].push_back(u < 0.25 ? 0.0 : u * 30.0);
    }
  }

  std::vector<double> estimate(kDevices, 0.0);
  std::vector<std::uint32_t> samples(kDevices, 0), outages(kDevices, 0);
  std::vector<double> step_readings(kDevices);
  std::vector<runtime::ThroughputTracker> oracle(
      kDevices, runtime::ThroughputTracker(params.alpha, params.outage_decay,
                                           params.floor_mbps));

  for (std::size_t s = 0; s < kSteps; ++s) {
    for (std::size_t d = 0; d < kDevices; ++d) step_readings[d] = readings[d][s];
    runtime::tracker_update_batch(params, estimate, samples, outages, step_readings);
    for (std::size_t d = 0; d < kDevices; ++d) {
      if (step_readings[d] > 0.0) {
        oracle[d].report(step_readings[d]);
      } else {
        oracle[d].report_outage();
      }
      EXPECT_EQ(samples[d], oracle[d].samples());
      EXPECT_EQ(outages[d], oracle[d].outages());
      if (oracle[d].has_estimate()) {
        EXPECT_EQ(estimate[d], oracle[d].estimate_mbps()) << "device " << d;
      }
    }
  }
}

TEST(TrackerBatch, RejectsMismatchedSpans) {
  std::vector<double> estimate(3, 0.0), tu(4, 1.0);
  std::vector<std::uint32_t> samples(3, 0), outages(3, 0);
  EXPECT_THROW(
      runtime::tracker_update_batch({}, estimate, samples, outages, tu),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// runtime::select_batch vs select_with_hysteresis
// ---------------------------------------------------------------------------

core::DeploymentOption make_option(core::DeploymentKind kind, double edge_latency,
                                   double edge_energy, std::uint64_t tx_bytes) {
  core::DeploymentOption o;
  o.kind = kind;
  o.edge_latency_ms = edge_latency;
  o.edge_energy_mj = edge_energy;
  o.tx_bytes = tx_bytes;
  return o;
}

runtime::DynamicDeployer make_deployer() {
  const comm::CommModel comm(comm::WirelessTechnology::kWifi, 15.0);
  std::vector<core::DeploymentOption> options;
  options.push_back(make_option(core::DeploymentKind::kAllEdge, 30.0, 280.0, 0));
  options.push_back(make_option(core::DeploymentKind::kPartitioned, 12.0, 90.0, 36864));
  // A tie candidate: same curve as the partitioned option above.
  options.push_back(make_option(core::DeploymentKind::kPartitioned, 12.0, 90.0, 36864));
  options.push_back(make_option(core::DeploymentKind::kAllCloud, 2.0, 10.0, 154587));
  return runtime::DynamicDeployer(std::move(options), comm,
                                  runtime::OptimizeFor::kLatency, 0.05, 500.0);
}

TEST(SelectBatch, MatchesSelectWithHysteresisEverywhere) {
  const runtime::DynamicDeployer deployer = make_deployer();

  // Probe set: interval boundaries exactly, one ulp-ish either side, interior
  // points, the analyzed ends, and outage readings (clamped to tu_min).
  std::vector<double> probes = {0.05, 0.5, 2.0, 10.0, 100.0, 499.0, 0.0, -3.0};
  for (const runtime::DominanceInterval& iv : deployer.intervals()) {
    probes.push_back(iv.tu_low);
    probes.push_back(iv.tu_low * (1.0 + 1e-12));
    probes.push_back(iv.tu_low * (1.0 - 1e-12));
    probes.push_back(std::nextafter(iv.tu_high, 0.0));
  }

  for (const double margin : {0.0, 0.05, 0.5}) {
    for (std::size_t current = 0; current < deployer.options().size(); ++current) {
      std::vector<std::uint32_t> batch_current(probes.size(),
                                               static_cast<std::uint32_t>(current));
      deployer.select_batch(probes, batch_current, margin);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        EXPECT_EQ(batch_current[i],
                  deployer.select_with_hysteresis(probes[i], current, margin))
            << "tu=" << probes[i] << " current=" << current << " margin=" << margin;
      }
    }
  }
}

TEST(SelectBatch, TiedCurvesNeverFlap) {
  // Two options sharing one curve: whichever is current must stay current
  // (a tie can never beat the hysteresis margin, even at margin 0).
  const comm::CommModel comm(comm::WirelessTechnology::kWifi, 15.0);
  std::vector<core::DeploymentOption> options;
  options.push_back(make_option(core::DeploymentKind::kPartitioned, 12.0, 90.0, 36864));
  options.push_back(make_option(core::DeploymentKind::kPartitioned, 12.0, 90.0, 36864));
  const runtime::DynamicDeployer deployer(std::move(options), comm,
                                          runtime::OptimizeFor::kLatency, 0.05, 500.0);
  for (const double tu : {0.3, 3.0, 30.0}) {
    std::vector<double> probe{tu};
    for (std::uint32_t current : {0u, 1u}) {
      std::vector<std::uint32_t> option{current};
      deployer.select_batch(probe, option, 0.0);
      EXPECT_EQ(option[0], current);
    }
  }
}

TEST(SelectBatch, RejectsMismatchedSpans) {
  const runtime::DynamicDeployer deployer = make_deployer();
  std::vector<double> tu(3, 1.0);
  std::vector<std::uint32_t> current(2, 0);
  EXPECT_THROW(deployer.select_batch(tu, current), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// core::DeploymentPlan::price_batch_into
// ---------------------------------------------------------------------------

// One compiled plan shared by every pricing/fleet test (plans are
// self-contained value types, so the statics only pay the predictor once).
const core::DeploymentPlan& alexnet_plan() {
  static const core::DeploymentPlan plan = [] {
    static const perf::DeviceSimulator sim(perf::jetson_tx2_gpu());
    static const perf::SimulatorOracle oracle(sim);
    const comm::CommModel comm(comm::WirelessTechnology::kWifi, 5.0);
    const core::DeploymentEvaluator evaluator(oracle, comm);
    return evaluator.compile(dnn::alexnet());
  }();
  return plan;
}

TEST(PriceBatchInto, MatchesPriceBatchAndScalarOracle) {
  const core::DeploymentPlan& plan = alexnet_plan();
  std::vector<double> tus;
  for (double tu = 0.1; tu < 60.0; tu *= 1.7) tus.push_back(tu);

  const std::vector<core::PricedObjectives> expected = plan.price_batch(tus);
  std::vector<core::PricedObjectives> got(tus.size());
  plan.price_batch_into(tus, got);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].best_latency_ms, expected[i].best_latency_ms);
    EXPECT_EQ(got[i].best_energy_mj, expected[i].best_energy_mj);
    EXPECT_EQ(got[i].best_latency_option, expected[i].best_latency_option);
    EXPECT_EQ(got[i].best_energy_option, expected[i].best_energy_option);
    // Ground truth: the scalar per-throughput pricer.
    const core::PricedObjectives oracle = plan.objectives_at(tus[i]);
    EXPECT_EQ(got[i].best_latency_ms, oracle.best_latency_ms);
    EXPECT_EQ(got[i].best_energy_mj, oracle.best_energy_mj);
  }
}

TEST(PriceBatchInto, ReusedBufferIsOverwritten) {
  const core::DeploymentPlan& plan = alexnet_plan();
  std::vector<core::PricedObjectives> buffer(2,
                                             core::PricedObjectives{1e9, 1e9, 99, 99});
  std::vector<double> tus{5.0, 6.0};
  plan.price_batch_into(tus, buffer);
  const core::PricedObjectives oracle = plan.objectives_at(5.0);
  EXPECT_EQ(buffer[0].best_latency_ms, oracle.best_latency_ms);
  EXPECT_EQ(buffer[0].best_latency_option, oracle.best_latency_option);
}

TEST(PriceBatchInto, Validation) {
  const core::DeploymentPlan& plan = alexnet_plan();
  std::vector<double> tus{5.0, -1.0};
  std::vector<core::PricedObjectives> out(2);
  EXPECT_THROW(plan.price_batch_into(tus, out), std::invalid_argument);
  std::vector<core::PricedObjectives> short_out(1);
  std::vector<double> ok{5.0, 6.0};
  EXPECT_THROW(plan.price_batch_into(ok, short_out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// sim::FaultSchedule::generate_for_device
// ---------------------------------------------------------------------------

sim::FaultScheduleConfig fleet_fault_config() {
  sim::FaultScheduleConfig config;
  config.horizon_s = 4000.0;
  config.link_outage_rate_hz = 1.0 / 300.0;
  config.link_outage_mean_s = 60.0;
  config.cloud_outage_rate_hz = 1.0 / 900.0;
  config.cloud_outage_mean_s = 120.0;
  return config;
}

TEST(FaultSubstreams, PerDeviceSchedulesAreDeterministicAndDecorrelated) {
  const sim::FaultScheduleConfig config = fleet_fault_config();
  const sim::FaultSchedule a = sim::FaultSchedule::generate_for_device(config, 77, 3);
  const sim::FaultSchedule b = sim::FaultSchedule::generate_for_device(config, 77, 3);
  ASSERT_EQ(a.episodes().size(), b.episodes().size());
  for (std::size_t i = 0; i < a.episodes().size(); ++i) {
    EXPECT_EQ(a.episodes()[i].start_s, b.episodes()[i].start_s);
    EXPECT_EQ(a.episodes()[i].end_s, b.episodes()[i].end_s);
  }
  // Neighboring devices (and neighboring fleet seeds) draw different
  // episodes — substream_seed avalanche-mixes both inputs.
  const sim::FaultSchedule c = sim::FaultSchedule::generate_for_device(config, 77, 4);
  const sim::FaultSchedule d = sim::FaultSchedule::generate_for_device(config, 78, 3);
  const auto first_start = [](const sim::FaultSchedule& s) {
    return s.empty() ? -1.0 : s.episodes().front().start_s;
  };
  EXPECT_NE(first_start(a), first_start(c));
  EXPECT_NE(first_start(a), first_start(d));
}

// ---------------------------------------------------------------------------
// fleet::FleetEngine
// ---------------------------------------------------------------------------

fleet::FleetConfig small_fleet_config() {
  fleet::FleetConfig config;
  config.devices = 4100;  // > 4 chunks: the parallel path actually shards
  config.steps = 20;
  config.step_s = 300.0;
  config.seed = 5;
  config.trace.mean_mbps = 6.0;
  config.trace.sigma = 0.6;
  config.trace.outage_start_probability = 0.05;
  config.faults = fleet_fault_config();
  config.faults.horizon_s = 0.0;  // derive from steps * step_s
  return config;
}

TEST(FleetEngine, ReportIsBitIdenticalAcrossThreadCounts) {
  const core::DeploymentPlan& plan = alexnet_plan();
  fleet::FleetEngine engine(plan, small_fleet_config());
  par::ThreadPool one(1), five(5);
  const fleet::FleetStats serial = engine.run(one);
  const fleet::FleetStats parallel = engine.run(five);
  EXPECT_EQ(serial.csv(), parallel.csv());
  EXPECT_GT(serial.total_switches, 0u);
  EXPECT_GT(serial.outage_readings, 0u);  // cloud outages fed the tracker
}

TEST(FleetEngine, ReportInvariants) {
  const core::DeploymentPlan& plan = alexnet_plan();
  fleet::FleetConfig config = small_fleet_config();
  fleet::FleetEngine engine(plan, config);
  par::ThreadPool pool(3);
  const fleet::FleetStats stats = engine.run(pool);

  EXPECT_EQ(stats.devices, config.devices);
  EXPECT_EQ(stats.steps, config.steps);
  EXPECT_EQ(stats.cloud_qps.size(), config.steps);
  // Histograms partition the observations exactly.
  std::uint64_t hist_total = 0;
  for (std::uint64_t c : stats.latency_histogram) hist_total += c;
  EXPECT_EQ(hist_total, static_cast<std::uint64_t>(config.devices) * config.steps);
  std::uint64_t devices_binned = 0, switches_binned = 0;
  for (std::size_t b = 0; b < stats.switch_histogram.size(); ++b) {
    devices_binned += stats.switch_histogram[b];
    if (b + 1 < stats.switch_histogram.size()) {
      switches_binned += stats.switch_histogram[b] * b;
    }
  }
  EXPECT_EQ(devices_binned, config.devices);
  EXPECT_LE(switches_binned, stats.total_switches);
  // The oracle prices the whole option set: it can only lower-bound the
  // dynamic policy on the selection metric.
  EXPECT_LE(stats.oracle_mean_latency_ms, stats.mean_latency_ms);
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
  EXPECT_LE(stats.p99_latency_ms, stats.p999_latency_ms);
  EXPECT_LE(stats.peak_cloud_qps + 1e-12,
            static_cast<double>(config.devices) * config.device_qps + 1e-9);
}

TEST(FleetEngine, RunIsRepeatable) {
  const core::DeploymentPlan& plan = alexnet_plan();
  fleet::FleetEngine engine(plan, small_fleet_config());
  par::ThreadPool pool(2);
  EXPECT_EQ(engine.run(pool).csv(), engine.run(pool).csv());
}

TEST(FleetEngine, Validation) {
  const core::DeploymentPlan& plan = alexnet_plan();
  fleet::FleetConfig config;
  config.devices = 0;
  EXPECT_THROW(fleet::FleetEngine(plan, config), std::invalid_argument);
  config = fleet::FleetConfig{};
  config.steps = 0;
  EXPECT_THROW(fleet::FleetEngine(plan, config), std::invalid_argument);
  config = fleet::FleetConfig{};
  config.hysteresis_margin = -0.1;
  EXPECT_THROW(fleet::FleetEngine(plan, config), std::invalid_argument);
  config = fleet::FleetConfig{};
  config.steps = std::size_t{1} << 32;  // step indices are 32-bit
  EXPECT_THROW(fleet::FleetEngine(plan, config), std::invalid_argument);

  // NaN and infinity fail every real-valued knob.
  using Knob = double fleet::FleetConfig::*;
  for (const Knob knob : {&fleet::FleetConfig::step_s, &fleet::FleetConfig::device_qps,
                          &fleet::FleetConfig::hysteresis_margin, &fleet::FleetConfig::sla_ms,
                          &fleet::FleetConfig::tu_min, &fleet::FleetConfig::tu_max}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      config = fleet::FleetConfig{};
      config.*knob = bad;
      EXPECT_THROW(fleet::FleetEngine(plan, config), std::invalid_argument) << bad;
    }
  }
  try {
    config = fleet::FleetConfig{};
    config.step_s = std::numeric_limits<double>::quiet_NaN();
    fleet::FleetEngine engine(plan, config);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("step_s"), std::string::npos) << e.what();
  }

  // Per-device fault knobs are checked when run() generates the faults,
  // including a magnitude of a class the fleet never applies.
  const auto run_error = [&](const fleet::FleetConfig& bad) {
    fleet::FleetEngine engine(plan, bad);
    try {
      engine.run();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  config = small_fleet_config();
  config.faults.rtt_spike_rate_hz = 1.0 / 600.0;
  config.faults.rtt_spike_extra_ms = -1.0;
  EXPECT_EQ(run_error(config), "FaultSchedule: RTT spike must be finite, non-negative ms");
  config = small_fleet_config();
  config.faults.scripted = {{sim::FaultClass::kCloudOutage, 600.0, 600.0, 0.0}};
  EXPECT_EQ(run_error(config), "FaultSchedule: episode needs 0 <= start < end");
}

// A fleet pushed through a scripted regional brownout: a healthy pool with
// headroom loses 60% of its capacity for six steps mid-run. At 40 Mbps the
// plan's latency choice transmits (split@pool5), so nearly every device
// offers its suffix to the pool.
fleet::FleetConfig brownout_fleet_config() {
  fleet::FleetConfig config;
  config.devices = 4100;  // > 4 chunks: the parallel path actually shards
  config.steps = 18;
  config.step_s = 100.0;
  config.seed = 5;
  config.trace.mean_mbps = 40.0;
  config.trace.sigma = 0.2;
  cloud::CloudConfig pool;
  pool.machines = 3;  // 3 x 1700 qps admitted > 4100 offered when healthy
  config.cloud = pool;
  config.cloud_faults.seed = 5;
  config.cloud_faults.scripted.push_back(
      {sim::FaultClass::kRegionalBrownout, 600.0, 1200.0, 0.6});
  config.sla_ms = 300.0;
  return config;
}

TEST(FleetEngine, BrownoutSmokeShedsTripsBreakersAndStaysDeterministic) {
  const core::DeploymentPlan& plan = alexnet_plan();
  fleet::FleetEngine engine(plan, brownout_fleet_config());
  par::ThreadPool one(1), eight(8);
  const fleet::FleetStats serial = engine.run(one);
  const fleet::FleetStats parallel = engine.run(eight);
  // The acceptance bar: the full CSV report — every finite-cloud column
  // included — is byte-identical at any thread count.
  EXPECT_EQ(serial.csv(), parallel.csv());

  // The brownout bites: admission sheds, repeat-shed devices trip open.
  EXPECT_GT(serial.shed, 0u);
  EXPECT_GT(serial.shed_rate, 0.0);
  EXPECT_GT(serial.breaker_trips, 0u);
  EXPECT_GT(serial.breaker_open_time_s, 0.0);
  EXPECT_GT(serial.datacenter_energy_j, 0.0);

  // Shedding is confined to the brownout window (steps 6..11): before it
  // the pool has headroom, and after it the breakers re-close.
  ASSERT_EQ(serial.shed_qps.size(), 18u);
  for (std::size_t s = 0; s < 6; ++s) EXPECT_EQ(serial.shed_qps[s], 0.0);
  EXPECT_GT(serial.shed_qps[7], 0.0);
  EXPECT_EQ(serial.shed_qps.back(), 0.0);
  // offered = admitted + shed, always.
  for (std::size_t s = 0; s < serial.offered_qps.size(); ++s) {
    EXPECT_NEAR(serial.offered_qps[s], serial.cloud_qps[s] + serial.shed_qps[s],
                1e-9);
  }
}

TEST(FleetEngine, BrownoutTailIsBoundedByTheEdgeOnlyCeiling) {
  // Shed devices fast-fail onto the cheapest edge-only option, so even the
  // p999 of a partial brownout cannot exceed (modulo the pool's bounded
  // queue wait) the latency of a run where the cloud is gone entirely and
  // EVERY transmitting device serves the edge fallback.
  const core::DeploymentPlan& plan = alexnet_plan();
  fleet::FleetConfig partial = brownout_fleet_config();
  fleet::FleetConfig blackout = brownout_fleet_config();
  blackout.cloud_faults.scripted.clear();
  blackout.cloud_faults.scripted.push_back(
      {sim::FaultClass::kRegionalBrownout, 0.0, 1e9, 1.0});
  par::ThreadPool pool(4);
  const fleet::FleetStats some = fleet::FleetEngine(plan, partial).run(pool);
  const fleet::FleetStats ceiling = fleet::FleetEngine(plan, blackout).run(pool);
  EXPECT_GT(ceiling.shed, some.shed);
  EXPECT_LE(some.p999_latency_ms, ceiling.p999_latency_ms * 1.05);
  // SLA accounting is wired through: the 300 ms bar is generous for
  // alexnet, so violations stay rare but the columns exist and are sane.
  EXPECT_LE(some.sla_violation_rate, 1.0);
  EXPECT_EQ(some.sla_violations == 0, some.sla_violation_rate == 0.0);
}

TEST(FleetEngine, InfiniteCloudKeepsLegacySeriesInvariants) {
  // Without FleetConfig::cloud the admission path is bypassed entirely:
  // offered == admitted, nothing is shed, no breaker ever trips.
  const core::DeploymentPlan& plan = alexnet_plan();
  fleet::FleetEngine engine(plan, small_fleet_config());
  par::ThreadPool pool(3);
  const fleet::FleetStats stats = engine.run(pool);
  ASSERT_EQ(stats.offered_qps.size(), stats.cloud_qps.size());
  for (std::size_t s = 0; s < stats.offered_qps.size(); ++s) {
    EXPECT_EQ(stats.offered_qps[s], stats.cloud_qps[s]);
    EXPECT_EQ(stats.shed_qps[s], 0.0);
  }
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(stats.breaker_open_time_s, 0.0);
  EXPECT_EQ(stats.datacenter_energy_j, 0.0);
}

TEST(FleetEngine, ChunkCountDependsOnDevicesAlone) {
  EXPECT_EQ(fleet::FleetEngine::num_chunks(1), 1u);
  EXPECT_EQ(fleet::FleetEngine::num_chunks(1023), 1u);
  EXPECT_EQ(fleet::FleetEngine::num_chunks(10000), 9u);
  EXPECT_EQ(fleet::FleetEngine::num_chunks(1u << 20), 1024u);
  EXPECT_EQ(fleet::FleetEngine::num_chunks(100000000), 4096u);
}

// ---------------------------------------------------------------------------
// sim::FaultSchedule::generate_for_region -- shared failure domains
// ---------------------------------------------------------------------------

sim::FaultScheduleConfig region_fault_config() {
  sim::FaultScheduleConfig config;
  config.horizon_s = 4000.0;
  config.backhaul_brownout_rate_hz = 1.0 / 400.0;
  config.backhaul_outage_rate_hz = 1.0 / 700.0;
  config.fog_failure_rate_hz = 1.0 / 900.0;
  return config;
}

TEST(FaultSubstreams, RegionSchedulesAreSharedDeterministicAndDisjoint) {
  const sim::FaultScheduleConfig config = region_fault_config();
  // Two devices of one region see the SAME backhaul series — the schedule is
  // a function of (config, fleet seed, region id), nothing per-device.
  const sim::FaultSchedule a = sim::FaultSchedule::generate_for_region(config, 77, 2);
  const sim::FaultSchedule b = sim::FaultSchedule::generate_for_region(config, 77, 2);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.episodes().size(), b.episodes().size());
  for (std::size_t i = 0; i < a.episodes().size(); ++i) {
    EXPECT_EQ(a.episodes()[i].fault, b.episodes()[i].fault);
    EXPECT_EQ(a.episodes()[i].start_s, b.episodes()[i].start_s);
    EXPECT_EQ(a.episodes()[i].end_s, b.episodes()[i].end_s);
    EXPECT_EQ(a.episodes()[i].magnitude, b.episodes()[i].magnitude);
    EXPECT_EQ(a.episodes()[i].hop, b.episodes()[i].hop);
  }
  const auto first_start = [](const sim::FaultSchedule& s) {
    return s.empty() ? -1.0 : s.episodes().front().start_s;
  };
  // Neighboring regions and neighboring fleet seeds draw different episodes.
  const sim::FaultSchedule c = sim::FaultSchedule::generate_for_region(config, 77, 3);
  const sim::FaultSchedule d = sim::FaultSchedule::generate_for_region(config, 78, 2);
  EXPECT_NE(first_start(a), first_start(c));
  EXPECT_NE(first_start(a), first_start(d));
  // Region roots are salted away from the per-device substreams: region r's
  // schedule never collides with device r's, even for the same class knobs.
  sim::FaultScheduleConfig as_device = config;
  as_device.backhaul_brownout_rate_hz = 0.0;
  as_device.backhaul_outage_rate_hz = 0.0;
  as_device.fog_failure_rate_hz = 0.0;
  as_device.link_outage_rate_hz = 1.0 / 400.0;
  const sim::FaultSchedule dev =
      sim::FaultSchedule::generate_for_device(as_device, 77, 2);
  EXPECT_NE(first_start(a), first_start(dev));
  // Meanwhile the two devices' RADIO traces stay private (the existing
  // per-device decorrelation) — shared backhaul, decorrelated radios.
  const sim::FaultSchedule dev2 =
      sim::FaultSchedule::generate_for_device(as_device, 77, 3);
  EXPECT_NE(first_start(dev), first_start(dev2));
}

// ---------------------------------------------------------------------------
// fleet::FleetEngine -- K-tier regional failure domains
// ---------------------------------------------------------------------------

// 3-tier alexnet plan shared by the K-tier fleet tests: wifi radio to a
// datacenter-gpu fog tier, 40 Mbps backhaul to a free cloud.
const core::DeploymentPlan& ktier_alexnet_plan() {
  static const core::DeploymentPlan plan = [] {
    static const perf::DeviceSimulator edge_sim(perf::jetson_tx2_gpu());
    static const perf::SimulatorOracle edge(edge_sim);
    static const perf::DeviceSimulator fog_sim(perf::datacenter_gpu());
    static const perf::SimulatorOracle fog(fog_sim);
    core::EdgeFogCloudConfig config;
    config.radio = comm::CommModel(comm::WirelessTechnology::kWifi, 5.0);
    config.backhaul = comm::CommModel(comm::WirelessTechnology::kWifi, 40.0);
    return core::DeploymentEvaluator(core::edge_fog_cloud(edge, fog, nullptr, config))
        .compile(dnn::alexnet());
  }();
  return plan;
}

// Heavy 3-tier plan: vgg16 transmits at fleet trace rates, so the fog and
// cloud admission paths both carry real load.
const core::DeploymentPlan& ktier_vgg_plan() {
  static const core::DeploymentPlan plan = [] {
    static const perf::DeviceSimulator edge_sim(perf::jetson_tx2_gpu());
    static const perf::SimulatorOracle edge(edge_sim);
    static const perf::DeviceSimulator fog_sim(perf::datacenter_gpu());
    static const perf::SimulatorOracle fog(fog_sim);
    core::EdgeFogCloudConfig config;
    config.radio = comm::CommModel(comm::WirelessTechnology::kWifi, 4.0);
    config.backhaul = comm::CommModel(comm::WirelessTechnology::kWifi, 40.0);
    return core::DeploymentEvaluator(core::edge_fog_cloud(edge, fog, nullptr, config))
        .compile(dnn::vgg16());
  }();
  return plan;
}

TEST(FleetEngine, KTierCtorValidatesHopRates) {
  const core::DeploymentPlan& plan = ktier_alexnet_plan();
  fleet::FleetConfig config = small_fleet_config();
  // Arity must match the plan's hop count (radio first).
  EXPECT_THROW(fleet::FleetEngine(plan, {5.0}, config), std::invalid_argument);
  EXPECT_THROW(fleet::FleetEngine(plan, {5.0, 40.0, 40.0}, config),
               std::invalid_argument);
  // Backhaul entries must be positive and finite.
  EXPECT_THROW(fleet::FleetEngine(plan, {5.0, 0.0}, config), std::invalid_argument);
  EXPECT_THROW(fleet::FleetEngine(plan, {5.0, -3.0}, config), std::invalid_argument);
  EXPECT_THROW(fleet::FleetEngine(
                   plan, {5.0, std::numeric_limits<double>::infinity()}, config),
               std::invalid_argument);
  // Entry 0 is the radio-axis placeholder selection collapses onto: its
  // value is never read, but the slot must exist.
  EXPECT_NO_THROW(fleet::FleetEngine(plan, {0.0, 40.0}, config));
  // A K-tier plan through the two-tier ctor is rejected outright.
  EXPECT_THROW(fleet::FleetEngine(plan, config), std::invalid_argument);
}

TEST(FleetEngine, RegionalKnobsRequireKTierPlan) {
  const core::DeploymentPlan& two_tier = alexnet_plan();
  fleet::FleetConfig config = small_fleet_config();
  config.num_regions = 2;
  EXPECT_THROW(fleet::FleetEngine(two_tier, config), std::invalid_argument);
  config = small_fleet_config();
  config.fog = cloud::fog_site_defaults(2);
  EXPECT_THROW(fleet::FleetEngine(two_tier, config), std::invalid_argument);
  config = small_fleet_config();
  config.region_faults.backhaul_outage_rate_hz = 0.001;
  EXPECT_THROW(fleet::FleetEngine(two_tier, config), std::invalid_argument);

  const core::DeploymentPlan& ktier = ktier_alexnet_plan();
  config = small_fleet_config();
  config.num_regions = 0;
  EXPECT_THROW(fleet::FleetEngine(ktier, {5.0, 40.0}, config),
               std::invalid_argument);
  config = small_fleet_config();
  config.num_regions = fleet::kMaxRegions + 1;
  EXPECT_THROW(fleet::FleetEngine(ktier, {5.0, 40.0}, config),
               std::invalid_argument);
  config = small_fleet_config();
  config.num_regions = 4;
  config.region_map.assign(config.devices - 1, 0);  // wrong arity
  EXPECT_THROW(fleet::FleetEngine(ktier, {5.0, 40.0}, config),
               std::invalid_argument);
  config = small_fleet_config();
  config.num_regions = 4;
  config.region_map.assign(config.devices, 0);
  config.region_map.back() = 4;  // out of range
  EXPECT_THROW(fleet::FleetEngine(ktier, {5.0, 40.0}, config),
               std::invalid_argument);
  config = small_fleet_config();
  config.num_regions = 4;
  config.region_episodes.push_back(
      {7, {sim::FaultClass::kBackhaulOutage, 0.0, 100.0, 0.0, 1}});
  EXPECT_THROW(fleet::FleetEngine(ktier, {5.0, 40.0}, config),
               std::invalid_argument);
}

// Frozen-reference oracle for the retired pinned-backhaul K-tier shortcut:
// per device, advance the scalar trace / tracker / hysteresis-select cores
// and price on the plan's ctor-collapsed curves at the nominal backhaul
// rates. When regions share a constant backhaul and no regional faults
// fire, the regional engine must reproduce these numbers bit for bit.
TEST(FleetEngine, KTierHealthyPathMatchesPinnedBackhaulOracle) {
  const core::DeploymentPlan& plan = ktier_alexnet_plan();
  const std::vector<double> hop_tu = {5.0, 40.0};
  fleet::FleetConfig config;
  config.devices = 600;  // one chunk: device-order accumulation everywhere
  config.steps = 12;
  config.step_s = 300.0;
  config.seed = 9;
  config.trace.mean_mbps = 6.0;
  config.trace.sigma = 0.6;
  config.trace.outage_start_probability = 0.05;

  const std::vector<comm::CostCurve> lat = plan.collapsed_latency_curves(0, hop_tu);
  const std::vector<comm::CostCurve> energy = plan.collapsed_energy_curves(0, hop_tu);
  const std::vector<runtime::DominanceInterval> intervals =
      runtime::dominance_intervals(lat, config.tu_min, config.tu_max);
  const comm::TraceGenerator gen(config.trace);
  const auto init = static_cast<std::uint32_t>(
      runtime::select_option(intervals, config.trace.mean_mbps));

  double total_lat = 0.0, total_energy = 0.0;
  std::uint64_t switches = 0, outage_readings = 0;
  std::vector<comm::FleetTraceState> state(config.devices);
  std::vector<runtime::TrackerState> tracker(config.devices);
  std::vector<std::uint32_t> option(config.devices, init);
  for (std::size_t i = 0; i < config.devices; ++i) {
    state[i] = gen.start_state(par::SplitMix64(par::substream_seed(config.seed, i)));
  }
  for (std::size_t s = 0; s < config.steps; ++s) {
    double step_lat = 0.0, step_energy = 0.0;  // chunk-local, like the engine
    for (std::size_t i = 0; i < config.devices; ++i) {
      const double tu = gen.step(state[i]);
      runtime::tracker_update(config.tracker, tracker[i], tu);
      const double est =
          tracker[i].estimate_mbps > 0.0 ? tracker[i].estimate_mbps : config.tu_min;
      const auto o = static_cast<std::uint32_t>(runtime::select_option_hysteresis(
          intervals, lat, est, option[i], config.hysteresis_margin));
      if (o != option[i]) ++switches;
      option[i] = o;
      const double eff = tu > 0.0 ? tu : config.tu_min;
      step_lat += lat[o].value(eff);
      step_energy += energy[o].value(eff);
    }
    total_lat += step_lat;
    total_energy += step_energy;
  }
  for (const runtime::TrackerState& t : tracker) outage_readings += t.outages;
  const double device_steps =
      static_cast<double>(config.devices) * static_cast<double>(config.steps);

  par::ThreadPool pool(3);
  const fleet::FleetStats regions_off =
      fleet::FleetEngine(plan, hop_tu, config).run(pool);
  EXPECT_EQ(regions_off.mean_latency_ms, total_lat / device_steps);
  EXPECT_EQ(regions_off.mean_energy_mj, total_energy / device_steps);
  EXPECT_EQ(regions_off.total_switches, switches);
  EXPECT_EQ(regions_off.outage_readings, outage_readings);
  ASSERT_EQ(regions_off.regions.size(), 1u);

  // Eight healthy regions: identical global numbers (the region partition
  // only adds columns), and every per-region fault column stays zero.
  fleet::FleetConfig split = config;
  split.num_regions = 8;
  const fleet::FleetStats regions_on =
      fleet::FleetEngine(plan, hop_tu, split).run(pool);
  EXPECT_EQ(regions_on.mean_latency_ms, regions_off.mean_latency_ms);
  EXPECT_EQ(regions_on.mean_energy_mj, regions_off.mean_energy_mj);
  EXPECT_EQ(regions_on.total_switches, regions_off.total_switches);
  EXPECT_EQ(regions_on.latency_histogram, regions_off.latency_histogram);
  EXPECT_EQ(regions_on.oracle_mean_latency_ms, regions_off.oracle_mean_latency_ms);
  ASSERT_EQ(regions_on.regions.size(), 8u);
  for (const fleet::FleetStats::RegionStats& rs : regions_on.regions) {
    EXPECT_EQ(rs.degraded_device_s, 0.0);
    EXPECT_EQ(rs.backhaul_out_s, 0.0);
    EXPECT_EQ(rs.fog_shed_qps, 0.0);
    EXPECT_EQ(rs.breaker_open_s, 0.0);
  }
  EXPECT_EQ(regions_on.degraded_steps, 0u);
  EXPECT_EQ(regions_on.fog_shed, 0u);
}

// A 3-tier fleet through a regional disaster drill walking every ladder
// rung: region 0 stays healthy, region 1 loses its fog site (sheds retry
// cloud-direct over the live backhaul), region 2 loses fog AND backhaul
// (sheds fall through to the edge-only rung), region 3 rides out a six-step
// backhaul outage window. Breakers bound the retry traffic throughout.
fleet::FleetConfig regional_drill_config() {
  fleet::FleetConfig config;
  config.devices = 4100;  // > 4 chunks: the parallel path actually shards
  config.steps = 18;
  config.step_s = 100.0;
  config.seed = 5;
  config.trace.mean_mbps = 4.0;
  config.trace.sigma = 0.2;
  config.num_regions = 4;
  config.fog = cloud::fog_site_defaults(8);
  cloud::CloudConfig dc;
  dc.machines = 8;
  config.cloud = dc;
  config.sla_ms = 500.0;
  config.region_episodes.push_back(
      {1, {sim::FaultClass::kFogSiteFailure, 0.0, 1e9, 1.0}});
  config.region_episodes.push_back(
      {2, {sim::FaultClass::kFogSiteFailure, 0.0, 1e9, 1.0}});
  config.region_episodes.push_back(
      {2, {sim::FaultClass::kBackhaulOutage, 0.0, 1e9, 0.0, 1}});
  config.region_episodes.push_back(
      {3, {sim::FaultClass::kBackhaulOutage, 600.0, 1200.0, 0.0, 1}});
  return config;
}

TEST(FleetEngine, RegionalDrillWalksTheTierLadderDeterministically) {
  const core::DeploymentPlan& plan = ktier_vgg_plan();
  fleet::FleetEngine engine(plan, {4.0, 40.0}, regional_drill_config());
  par::ThreadPool one(1), eight(8);
  const fleet::FleetStats serial = engine.run(one);
  const fleet::FleetStats parallel = engine.run(eight);
  // The acceptance bar: byte-identical CSV — per-region columns included —
  // with regional outages, dead fog sites, and breakers all in flight.
  EXPECT_EQ(serial.csv(), parallel.csv());

  ASSERT_EQ(serial.regions.size(), 4u);
  const auto& r0 = serial.regions[0];
  const auto& r1 = serial.regions[1];
  const auto& r2 = serial.regions[2];
  const auto& r3 = serial.regions[3];

  // Healthy region: fog load admitted, no regional faults, no degradation.
  EXPECT_GT(r0.fog_offered_qps, 0.0);
  EXPECT_GT(r0.fog_admitted_qps, 0.0);
  EXPECT_EQ(r0.backhaul_out_s, 0.0);
  EXPECT_GT(r0.fog_energy_j, 0.0);
  EXPECT_EQ(r0.degraded_device_s, 0.0);

  // Region 1 (ladder rung 2): the fog site is down all run — nothing
  // admitted, early offers shed, and sheds retry CLOUD-DIRECT over the
  // live backhaul, so region 1 offers more to the central cloud than a
  // healthy region does.
  EXPECT_EQ(r1.fog_admitted_qps, 0.0);
  EXPECT_GT(r1.fog_shed_qps, 0.0);
  EXPECT_GT(r1.cloud_offered_qps, r0.cloud_offered_qps);
  EXPECT_GT(r1.degraded_device_s, 0.0);
  // The fog breaker bounds the retry traffic: devices spend most steps held
  // open instead of re-probing the dead site every step.
  EXPECT_GT(r1.breaker_open_s, 0.0);
  EXPECT_LT(r1.fog_offered_qps, r0.fog_offered_qps);

  // Region 2 (ladder rung 3): fog dead AND backhaul dead — cloud-direct is
  // unreachable, so sheds fall through to the edge-only fallback and the
  // region never offers the central cloud anything.
  EXPECT_EQ(r2.fog_admitted_qps, 0.0);
  EXPECT_EQ(r2.cloud_offered_qps, 0.0);
  EXPECT_LT(r2.cloud_offered_qps, r1.cloud_offered_qps);  // ladder ordering
  EXPECT_GT(r2.degraded_device_s, 0.0);
  EXPECT_EQ(r2.backhaul_out_s,
            static_cast<double>(serial.steps) * serial.step_s);

  // Region 3: the outage window covers exactly steps 6..11 — 600 wall-s of
  // backhaul-out time, with the fog tier healthy throughout.
  EXPECT_EQ(r3.backhaul_out_s, 600.0);
  EXPECT_GT(r3.fog_admitted_qps, 0.0);

  // Global roll-ups agree with the per-region columns.
  EXPECT_GT(serial.fog_shed, 0u);
  EXPECT_GT(serial.degraded_steps, 0u);
  EXPECT_GT(serial.breaker_trips, 0u);
  double region_fog_energy = 0.0, region_shed_qps = 0.0;
  for (const auto& rs : serial.regions) {
    region_fog_energy += rs.fog_energy_j;
    region_shed_qps += rs.fog_shed_qps;
  }
  EXPECT_EQ(serial.fog_energy_j, region_fog_energy);
  // fog_shed_qps = shed-count * device_qps / steps, summed over regions.
  const fleet::FleetConfig& cfg = engine.config();
  EXPECT_NEAR(static_cast<double>(serial.fog_shed) * cfg.device_qps /
                  static_cast<double>(cfg.steps),
              region_shed_qps, 1e-9);
}

// ---------------------------------------------------------------------------
// fleet::FaultOverlay -- per-device faults as step events
// ---------------------------------------------------------------------------

// `config` under fleet_fault_config's generated faults plus scripted
// per-device episodes on exact step times: one spanning most of the run and
// one on hop 1, which the fleet ignores.
fleet::FleetConfig scripted_fault_fleet(fleet::FleetConfig config) {
  config.faults = fleet_fault_config();
  config.faults.horizon_s = 0.0;
  const double step = config.step_s;
  config.faults.scripted = {
      {sim::FaultClass::kLinkOutage, 2 * step, 5 * step, 0.3},
      {sim::FaultClass::kCloudOutage, 7 * step, 8 * step, 0.0},
      {sim::FaultClass::kLinkOutage, 3 * step, 10 * step, 0.1, 1},
      {sim::FaultClass::kLinkOutage, 0.0, 15 * step, 0.6},
  };
  return config;
}

// step_s 0.7, whose multiples are inexact, under episodes that span many
// steps and a fault horizon of `horizon_runs` times the run's length.
fleet::FleetConfig inexact_step_fleet(double horizon_runs) {
  fleet::FleetConfig config = small_fleet_config();
  config.devices = 2100;
  config.steps = 40;
  config.step_s = 0.7;
  config.faults = fleet_fault_config();
  config.faults.horizon_s = horizon_runs * 40 * 0.7;
  config.faults.link_outage_rate_hz = 1.0 / 8.0;
  config.faults.link_outage_mean_s = 5.0;
  config.faults.cloud_outage_rate_hz = 1.0 / 20.0;
  config.faults.cloud_outage_mean_s = 3.0;
  config.faults.scripted = {{sim::FaultClass::kLinkOutage, 2.1, 4.2, 0.5},
                            {sim::FaultClass::kCloudOutage, 7.0, 9.1, 0.0}};
  return config;
}

// The per-device overlay as it stood before the step events, frozen: every
// device's generate_for_device schedule in CSR layout, its hop-0 link fades
// and cloud outages compared with the step time at every step. The oracle
// FaultOverlay must match on every device-step.
class EpisodeScanOverlay {
 public:
  explicit EpisodeScanOverlay(const fleet::FleetConfig& config) {
    sim::FaultScheduleConfig faults = config.faults;
    if (faults.horizon_s <= 0.0) {
      faults.horizon_s = static_cast<double>(config.steps) * config.step_s;
    }
    link_off_.push_back(0);
    cloud_off_.push_back(0);
    for (std::size_t d = 0; d < config.devices; ++d) {
      const sim::FaultSchedule schedule =
          sim::FaultSchedule::generate_for_device(faults, config.seed, d);
      for (const sim::FaultEpisode& e : schedule.episodes()) {
        if (e.fault == sim::FaultClass::kLinkOutage && e.hop == 0) {
          link_.push_back(e);
        } else if (e.fault == sim::FaultClass::kCloudOutage) {
          cloud_.push_back(e);
        }
      }
      link_off_.push_back(link_.size());
      cloud_off_.push_back(cloud_.size());
    }
  }

  void apply(double t, std::vector<double>& tu) const {
    for (std::size_t i = 0; i < tu.size(); ++i) {
      double factor = 1.0;
      for (std::size_t j = link_off_[i]; j < link_off_[i + 1]; ++j) {
        if (t >= link_[j].start_s && t < link_[j].end_s) {
          factor = std::min(factor, link_[j].magnitude);
        }
      }
      tu[i] *= factor;
      for (std::size_t j = cloud_off_[i]; j < cloud_off_[i + 1]; ++j) {
        if (t >= cloud_[j].start_s && t < cloud_[j].end_s) {
          tu[i] = 0.0;
          break;
        }
      }
    }
  }

 private:
  std::vector<std::size_t> link_off_, cloud_off_;
  std::vector<sim::FaultEpisode> link_, cloud_;
};

TEST(FaultOverlay, MatchesTheEpisodeScanOnEveryDeviceStep) {
  fleet::FleetConfig hop1_only = small_fleet_config();
  hop1_only.faults = sim::FaultScheduleConfig{};
  hop1_only.faults.scripted = {{sim::FaultClass::kLinkOutage, 0.0, 900.0, 0.1, 1}};
  const fleet::FleetConfig cases[] = {scripted_fault_fleet(small_fleet_config()),
                                      inexact_step_fleet(0.5), inexact_step_fleet(3.0),
                                      small_fleet_config(), hop1_only};
  par::ThreadPool pool(3);
  for (const fleet::FleetConfig& config : cases) {
    const EpisodeScanOverlay oracle(config);
    for (const std::size_t chunks : {fleet::FleetEngine::num_chunks(config.devices),
                                     std::size_t{7}}) {
      fleet::FaultOverlay overlay(config, chunks, pool);
      std::vector<double> got(config.devices), want(config.devices);
      std::size_t mismatches = 0, faded = 0, zeroed = 0;
      for (std::size_t s = 0; s < config.steps; ++s) {
        for (std::size_t i = 0; i < config.devices; ++i) {
          got[i] = want[i] = 1.0 + 0.001 * static_cast<double>(i % 997);
        }
        par::parallel_for_chunked(pool, chunks, chunks,
                                  [&](std::size_t c) { overlay.apply(c, s, got.data()); });
        oracle.apply(static_cast<double>(s) * config.step_s, want);
        for (std::size_t i = 0; i < config.devices; ++i) {
          if (got[i] != want[i]) ++mismatches;
          if (want[i] == 0.0) ++zeroed;
          if (want[i] != 0.0 && want[i] != 1.0 + 0.001 * static_cast<double>(i % 997)) ++faded;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "step_s " << config.step_s << ", " << chunks << " chunks";
      if (config.faults.link_outage_rate_hz > 0.0) {
        EXPECT_GT(faded, 0u);
        EXPECT_GT(zeroed, 0u);
      } else {
        EXPECT_EQ(faded + zeroed, 0u);  // a hop-1 episode never touches a reading
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fleet::FleetEngine -- recorded report digests
// ---------------------------------------------------------------------------

// Two-tier vgg16 plan: its splits transmit at fleet trace rates, so a small
// cloud pool carries real load.
const core::DeploymentPlan& vgg_plan() {
  static const core::DeploymentPlan plan = [] {
    static const perf::DeviceSimulator sim(perf::jetson_tx2_gpu());
    static const perf::SimulatorOracle oracle(sim);
    const comm::CommModel comm(comm::WirelessTechnology::kWifi, 20.0);
    return core::DeploymentEvaluator(oracle, comm).compile(dnn::vgg16());
  }();
  return plan;
}

// io::fnv1a of FleetStats::csv() for fleets the golden CLI corpus cannot
// reach: `lens fleet` has no per-device fault flags, generated regional
// faults or breaker knobs. A change to the fleet step must keep every
// digest; one that moves a report on purpose re-records the digest it
// moves and says why.
TEST(FleetEngine, ReportsMatchRecordedDigests) {
  par::ThreadPool pool(3);
  const auto digest = [](const fleet::FleetStats& stats) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(io::fnv1a(stats.csv())));
    return std::string(buffer);
  };
  const auto two_tier = [&](const core::DeploymentPlan& plan, fleet::FleetConfig config) {
    return digest(fleet::FleetEngine(plan, std::move(config)).run(pool));
  };
  const auto three_tier = [&](fleet::FleetConfig config) {
    return digest(fleet::FleetEngine(ktier_vgg_plan(), {4.0, 40.0}, std::move(config))
                      .run(pool));
  };
  const auto with_energy = [](fleet::FleetConfig config) {
    config.metric = runtime::OptimizeFor::kEnergy;
    return config;
  };
  const auto with_device_faults = [](fleet::FleetConfig config) {
    config.faults = fleet_fault_config();
    config.faults.horizon_s = 0.0;
    return config;
  };

  fleet::FleetConfig machines = brownout_fleet_config();
  machines.trace.mean_mbps = 20.0;
  machines.trace.sigma = 0.4;
  machines.cloud_faults.scripted.clear();
  machines.cloud_faults.machine_failure_rate_hz = 1.0 / 400.0;
  machines.cloud_faults.machine_failure_mean_s = 200.0;
  machines.cloud_faults.machine_failure_fraction = 0.5;
  machines.breaker_failures = 2;
  fleet::FleetConfig region_faults = regional_drill_config();
  region_faults.region_faults = region_fault_config();
  region_faults.region_faults.horizon_s = 0.0;
  fleet::FleetConfig healthy = regional_drill_config();
  healthy.region_episodes.clear();

  EXPECT_EQ(two_tier(alexnet_plan(), small_fleet_config()), "07af38f3f37805f8");
  EXPECT_EQ(two_tier(alexnet_plan(), with_energy(small_fleet_config())),
            "5f80b1869866e8c6");
  EXPECT_EQ(two_tier(alexnet_plan(), brownout_fleet_config()), "0b4a7214480220d7");
  EXPECT_EQ(two_tier(alexnet_plan(), with_device_faults(brownout_fleet_config())),
            "e561e0a6c1944748");
  EXPECT_EQ(two_tier(alexnet_plan(), with_energy(brownout_fleet_config())),
            "9fcf70f6d7054b47");
  EXPECT_EQ(two_tier(vgg_plan(), machines), "0ece82eb57cbebff");
  EXPECT_EQ(three_tier(regional_drill_config()), "b5577bee1ec6f727");
  EXPECT_EQ(three_tier(with_device_faults(regional_drill_config())), "8b2cac711195b24a");
  EXPECT_EQ(three_tier(region_faults), "de0450605e22efa8");
  EXPECT_EQ(three_tier(with_energy(regional_drill_config())), "7b90300161641cda");
  EXPECT_EQ(three_tier(healthy), "5bed2a050230254f");
  // Per-device faults as step events: scripted episodes on step times, a
  // hop-1 episode, an inexact step_s, and horizons either side of the run.
  EXPECT_EQ(two_tier(alexnet_plan(), scripted_fault_fleet(small_fleet_config())),
            "4ed6421696f28e2c");
  EXPECT_EQ(three_tier(scripted_fault_fleet(regional_drill_config())), "4e166f77652cadc6");
  EXPECT_EQ(two_tier(alexnet_plan(), inexact_step_fleet(0.5)), "c05a748ef48ce651");
  EXPECT_EQ(two_tier(alexnet_plan(), inexact_step_fleet(3.0)), "a790014497cb0e05");
}

}  // namespace
}  // namespace lens
