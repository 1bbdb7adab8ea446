#include "cli/commands.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/analysis.hpp"
#include "fleet/fleet.hpp"
#include "io/io.hpp"
#include "core/export.hpp"
#include "core/nas.hpp"
#include "core/plan.hpp"
#include "core/robust.hpp"
#include "core/topology.hpp"
#include "dnn/presets.hpp"
#include "dnn/summary.hpp"
#include "par/runtime.hpp"
#include "perf/predictor.hpp"
#include "runtime/deployer.hpp"
#include "runtime/threshold_io.hpp"
#include "sim/system.hpp"
#include "viz/ascii.hpp"

namespace lens::cli {

namespace {

/// --device and --fog-device: the alternatives, in the order of kProfiles.
constexpr const char* kDevices = "tx2-gpu|tx2-cpu|embedded-cpu|datacenter-gpu";
perf::DeviceProfile (*const kProfiles[])() = {perf::jetson_tx2_gpu, perf::jetson_tx2_cpu,
                                             perf::embedded_cpu, perf::datacenter_gpu};

perf::RooflinePredictor train(const perf::DeviceProfile& device) {
  return perf::RooflinePredictor::train(perf::DeviceSimulator(device),
                                        {.samples_per_kind = 400, .seed = 11});
}

dnn::Architecture preset(const Options& args) {
  return args.choice("arch") == 0 ? dnn::alexnet() : dnn::vgg16();  // alexnet|vgg16
}

/// --brownout start,duration,depth: a share of the cloud pool's capacity
/// lost, in (0, 1].
sim::FaultEpisode brownout(const std::vector<double>& f) {
  return {sim::FaultClass::kRegionalBrownout, f[0], f[0] + f[1], f[2]};
}

/// --region-brownout region,start,duration,depth: a backhaul brownout on
/// hop 1 of one region (a share of the hop's throughput lost, in (0, 1); a
/// full loss is an outage).
fleet::RegionEpisode region_brownout(const std::vector<double>& f, std::size_t num_regions) {
  if (!(f[0] >= 0.0 && f[0] < static_cast<double>(num_regions) && f[0] == std::floor(f[0]))) {
    throw std::invalid_argument(
        "--region-brownout region index must be a whole number in [0, --regions)");
  }
  return {static_cast<std::uint32_t>(f[0]),
          {sim::FaultClass::kBackhaulBrownout, f[1], f[1] + f[2], f[3], 1}};
}

struct Rig {
  perf::RooflinePredictor predictor;
  comm::CommModel comm;
  std::string tech_name;
  std::string device_name;
  /// 2 (classic edge-cloud) or 3 (edge-fog-cloud preset).
  std::size_t tiers = 2;
  /// Fog-node performance model for --tiers 3.
  std::optional<perf::RooflinePredictor> fog_predictor;
  /// Pricing throughputs, one per hop (radio first). {tu} for two-tier.
  std::vector<double> hop_tu;

  /// Checks the hierarchy and throughputs, then trains the predictors.
  static Rig from_options(const Options& args) {
    const std::size_t tiers = args.count("tiers");
    if (tiers == 1) {
      throw std::invalid_argument(
          "--tiers 1 leaves nothing to partition; use --tiers 2 (edge-cloud) "
          "or --tiers 3 (edge-fog-cloud)");
    }
    if (tiers != 2 && tiers != 3) {
      throw std::invalid_argument("--tiers supports the built-in presets 2 and 3, got " +
                                  std::to_string(tiers));
    }
    // Throughputs must be positive and finite; NaN fails too.
    const auto valid_mbps = [](double mbps) { return mbps > 0.0 && std::isfinite(mbps); };
    const double tu = args.number("tu");
    if (!valid_mbps(tu)) {
      throw std::invalid_argument("--tu must be a positive, finite throughput in Mbps");
    }
    // Default backhaul: 10x the radio — wired fog-to-cloud links dwarf the
    // device's wireless hop. Override with --hop-bw.
    std::vector<double> hop_tu = {tu};
    if (tiers == 3) hop_tu.push_back(10.0 * tu);
    if (args.has("hop-bw")) {
      hop_tu = args.list("hop-bw");
      if (hop_tu.size() != tiers - 1) {
        throw std::invalid_argument(
            "--hop-bw expects " + std::to_string(tiers - 1) +
            " comma-separated Mbps values (one per hop, radio first) for --tiers " +
            std::to_string(tiers) + ", got " + std::to_string(hop_tu.size()));
      }
      if (!std::all_of(hop_tu.begin(), hop_tu.end(), valid_mbps)) {
        throw std::invalid_argument("--hop-bw throughputs must be positive, finite Mbps");
      }
    }
    const comm::WirelessTechnology techs[] = {  // --tech wifi|lte|3g
        comm::WirelessTechnology::kWifi, comm::WirelessTechnology::kLte,
        comm::WirelessTechnology::k3G};
    const comm::WirelessTechnology tech = techs[args.choice("tech")];
    const comm::CommModel comm(tech, args.number("rtt"));
    const perf::DeviceProfile device = kProfiles[args.choice("device")]();
    std::optional<perf::RooflinePredictor> fog;
    if (tiers == 3) fog = train(kProfiles[args.choice("fog-device")]());
    return {train(device), comm, technology_name(tech), device.name, tiers, std::move(fog),
            std::move(hop_tu)};
  }

  /// Evaluator over the configured hierarchy: the paper's edge-cloud pair
  /// for --tiers 2, the edge-fog-cloud preset for --tiers 3.
  core::DeploymentEvaluator make_evaluator() const {
    if (tiers == 2) return core::DeploymentEvaluator(predictor, comm);
    core::EdgeFogCloudConfig config;
    config.radio = comm;
    return core::DeploymentEvaluator(
        core::edge_fog_cloud(predictor, *fog_predictor, nullptr, config));
  }
};

int cmd_evaluate(const Options& args) {
  Rig rig = Rig::from_options(args);
  const dnn::Architecture arch = preset(args);
  if (args.flag("summary")) std::printf("%s\n", dnn::summary(arch).c_str());

  const core::DeploymentPlan plan = rig.make_evaluator().compile(arch);
  const core::DeploymentEvaluation result = plan.price(rig.hop_tu);
  std::printf("%s @ %.1f Mbps %s (RTT %.0f ms, %s", arch.name().c_str(), rig.hop_tu[0],
              rig.tech_name.c_str(), rig.comm.round_trip_ms(), rig.device_name.c_str());
  if (rig.tiers == 3) {
    std::printf("; fog %s, backhaul %.1f Mbps", args.text("fog-device").c_str(),
                rig.hop_tu[1]);
  }
  std::printf(")\n");
  std::printf("%-20s %12s %12s %12s\n", "option", "latency(ms)", "energy(mJ)", "tx bytes");
  for (const core::DeploymentOption& o : result.options) {
    std::printf("%-20s %12.1f %12.1f %12llu\n", o.label(arch).c_str(), o.latency_ms,
                o.energy_mj, static_cast<unsigned long long>(o.tx_bytes));
  }
  std::printf("best latency: %s | best energy: %s\n",
              result.latency_choice().label(arch).c_str(),
              result.energy_choice().label(arch).c_str());
  if (rig.tiers == 3) {
    const core::DeploymentOption& choice = result.latency_choice();
    std::printf("%s\n", viz::tier_diagram(plan.tier_names(), choice.cuts, arch.num_layers(),
                                          choice.hop_tx_bytes)
                            .c_str());
  }
  return 0;
}

int cmd_search(const Options& args) {
  Rig rig = Rig::from_options(args);
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const core::SearchSpace space;
  const core::SurrogateAccuracyModel accuracy;

  core::NasConfig config;
  config.mobo.num_iterations = args.count("iterations");
  config.mobo.num_initial = args.count("initial");
  config.mobo.seed = static_cast<unsigned>(args.count("seed"));
  config.nsga2.seed = config.mobo.seed;
  config.tu_mbps = rig.hop_tu[0];
  if (rig.tiers == 3) config.hop_tu_mbps = rig.hop_tu;
  config.mode = args.choice("mode") == 0 ? core::ObjectiveMode::kBestDeployment  // lens
                                             : core::ObjectiveMode::kAllEdgeOnly;   // traditional
  const core::SearchStrategy strategies[] = {  // mobo|nsga2|random
      core::SearchStrategy::kMobo, core::SearchStrategy::kNsga2, core::SearchStrategy::kRandom};
  config.strategy = strategies[args.choice("strategy")];

  if (args.has("resume")) {
    config.warm_start = core::load_genotypes_csv(space, args.text("resume"));
  }
  if (args.has("resume-run")) config.resume_run = args.text("resume-run");
  if (args.has("checkpoint")) {
    config.checkpoint.directory = args.text("checkpoint");
    config.checkpoint.period = args.count("checkpoint-period");
    config.checkpoint.keep = args.count("checkpoint-keep");
    // SIGINT/SIGTERM flush the in-flight checkpoint chunk instead of
    // killing the process mid-write.
    core::install_interrupt_flush_handler();
  }

  core::NasDriver driver(space, evaluator, accuracy, config);
  const core::NasResult result = driver.run();
  // Printed once the run has succeeded, so a rejected input prints nothing.
  if (args.has("resume")) {
    std::printf("warm-starting from %zu checkpointed candidates\n", config.warm_start.size());
  }
  if (args.has("resume-run")) {
    std::printf("resuming run state from %s\n", config.resume_run.c_str());
  }
  if (result.interrupted) {
    std::printf("interrupted after %zu evaluations; state saved to %s\n",
                result.history.size(), config.checkpoint.directory.c_str());
    std::printf("resume with: lens-cli search --resume-run %s --checkpoint %s ...\n",
                config.checkpoint.directory.c_str(), config.checkpoint.directory.c_str());
  }
  std::printf("explored %zu candidates; frontier:\n", result.history.size());
  std::printf("%-14s %8s %10s %10s\n", "architecture", "err(%)", "lat(ms)", "ene(mJ)");
  for (const opt::ParetoPoint& p : result.front.points()) {
    const core::EvaluatedCandidate& c = result.history[p.id];
    std::printf("%-14s %8.1f %10.1f %10.1f\n", c.name.c_str(), c.error_percent,
                c.latency_ms, c.energy_mj);
  }
  const opt::ParetoPoint& knee = core::knee_point(result.front);
  std::printf("knee point: %s\n", result.history[knee.id].name.c_str());
  if (args.has("out")) {
    core::save_history_csv(result, space, args.text("out"));
    std::printf("history written to %s\n", args.text("out").c_str());
  }
  if (args.has("front-out")) {
    core::save_front_csv(result, space, args.text("front-out"));
    std::printf("frontier written to %s\n", args.text("front-out").c_str());
  }
  return result.interrupted ? 130 : 0;
}

/// --metric latency|energy.
runtime::OptimizeFor metric(const Options& args) {
  return args.choice("metric") == 0 ? runtime::OptimizeFor::kLatency
                                       : runtime::OptimizeFor::kEnergy;
}

int cmd_thresholds(const Options& args) {
  Rig rig = Rig::from_options(args);
  const dnn::Architecture arch = preset(args);
  // One compile serves both the printed evaluation and the deployer curves.
  const core::DeploymentPlan plan = rig.make_evaluator().compile(arch);
  const core::DeploymentEvaluation eval = plan.price(rig.hop_tu);
  const runtime::DynamicDeployer deployer(plan, metric(args), rig.hop_tu, 0.05, 500.0);
  if (rig.tiers == 3) {
    std::printf("(backhaul pinned at %.1f Mbps; thresholds are over the radio hop)\n",
                rig.hop_tu[1]);
  }
  std::printf("%s-optimal deployment vs uplink throughput (%s):\n",
              args.text("metric").c_str(), arch.name().c_str());
  for (const runtime::DominanceInterval& iv : deployer.intervals()) {
    std::printf("  t_u in [%7.2f, %7.2f) Mbps -> %s\n", iv.tu_low, iv.tu_high,
                eval.options[iv.option_index].label(arch).c_str());
  }
  if (args.has("save")) {
    runtime::SwitchingTable table;
    table.metric = metric(args);
    for (const core::DeploymentOption& o : eval.options) {
      table.option_labels.push_back(o.label(arch));
    }
    table.intervals = deployer.intervals();
    runtime::save_switching_table(table, args.text("save"));
    std::printf("switching table written to %s (ship this to the device)\n",
                args.text("save").c_str());
  }
  return 0;
}

/// The event simulator's load and hierarchy: simulate and faults.
sim::SimConfig sim_config(const Options& args, const Rig& rig) {
  sim::SimConfig config;
  config.arrival_rate_hz = args.number("rate");
  config.duration_s = args.number("duration");
  if (rig.tiers == 3) config.backhaul_tu_mbps = {rig.hop_tu[1]};
  return config;
}

int cmd_simulate(const Options& args) {
  Rig rig = Rig::from_options(args);
  const dnn::Architecture arch = preset(args);
  const core::DeploymentPlan plan = rig.make_evaluator().compile(arch);
  const core::DeploymentEvaluation eval = plan.price(rig.hop_tu);

  sim::SimConfig config = sim_config(args, rig);
  config.deadline_ms = args.number("deadline");
  // --policy queue-aware|dynamic|best-latency|all-edge: the last two pin one option.
  using sim::DispatchPolicy;
  const std::size_t policy = args.choice("policy");
  const DispatchPolicy policies[] = {DispatchPolicy::kQueueAware, DispatchPolicy::kDynamic,
                                     DispatchPolicy::kFixed, DispatchPolicy::kFixed};
  config.policy = policies[policy];
  if (policy == 2) config.fixed_option = eval.best_latency_option;
  for (std::size_t i = 0; policy == 3 && i < eval.options.size(); ++i) {
    if (eval.options[i].kind == core::DeploymentKind::kAllEdge) config.fixed_option = i;
  }

  const comm::ThroughputTrace trace{{rig.hop_tu[0]}, 1000.0};
  sim::EdgeCloudSystem system(plan, trace, config);
  const sim::SimStats stats = system.run();
  std::printf("%zu requests over %.0f s at %.1f req/s (%s policy)\n", stats.completed,
              config.duration_s, config.arrival_rate_hz, args.text("policy").c_str());
  std::printf("latency ms: mean %.1f | p50 %.1f | p95 %.1f | p99 %.1f | max %.1f\n",
              stats.mean_latency_ms, stats.p50_latency_ms, stats.p95_latency_ms,
              stats.p99_latency_ms, stats.max_latency_ms);
  std::printf("energy: %.1f mJ/inference | edge util %.1f%% | link util %.1f%%\n",
              stats.energy_per_inference_mj, 100.0 * stats.edge_utilization,
              100.0 * stats.link_utilization);
  if (config.deadline_ms > 0.0) {
    std::printf("deadline %.0f ms: %zu violations (%.1f%%)\n", config.deadline_ms,
                stats.deadline_violations, 100.0 * stats.violation_rate);
  }
  return 0;
}

int cmd_faults(const Options& args) {
  Rig rig = Rig::from_options(args);
  const dnn::Architecture arch = preset(args);
  const double tu = rig.hop_tu[0];
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const core::DeploymentPlan plan = evaluator.compile(arch);
  const core::DeploymentEvaluation eval = plan.price(rig.hop_tu);

  // Serving-time check: inject stochastic faults of all four classes and
  // compare graceful degradation (dynamic dispatch + edge fallback) against
  // a fixed best-latency pin that must ride out every outage.
  sim::SimConfig config = sim_config(args, rig);
  config.seed = static_cast<unsigned>(args.count("seed"));
  config.timeout_ms = args.number("timeout");
  config.max_retries = args.count("retries");
  config.faults.seed = config.seed;
  config.faults.link_outage_rate_hz = 1.0 / 40.0;
  config.faults.link_outage_mean_s = 5.0;
  config.faults.cloud_outage_rate_hz = 1.0 / 60.0;
  config.faults.cloud_outage_mean_s = 8.0;
  config.faults.rtt_spike_rate_hz = 1.0 / 50.0;
  config.faults.edge_slowdown_rate_hz = 1.0 / 80.0;
  // Finite-cloud serving: a bounded machine pool behind the partition point
  // (admission control sheds what the pool cannot absorb), plus the
  // retry-storm-safety knobs — jittered backoff and the circuit breaker.
  config.retry_jitter = args.number("jitter");
  config.breaker_failures = args.count("breaker");
  if (args.has("cloud-machines")) {
    cloud::CloudConfig cloud;
    cloud.machines = args.count("cloud-machines");
    cloud.machine.capacity_ms_per_s = args.number("cloud-capacity");
    config.cloud = cloud;
    config.faults.machine_failure_rate_hz = 1.0 / 90.0;
    config.faults.brownout_rate_hz = 1.0 / 70.0;
  }
  if (rig.tiers == 3) {
    // The fog-to-cloud backhaul degrades independently of the radio: its
    // own deep fades and RTT spikes, drawn from disjoint RNG substreams.
    config.faults.extra_hops = {
        {.outage_rate_hz = 1.0 / 50.0, .outage_mean_s = 6.0, .rtt_spike_rate_hz = 1.0 / 70.0}};
  }

  const comm::ThroughputTrace trace{{tu}, 1000.0};
  // A system validates its configuration on construction: every option is
  // checked before the first line of output.
  (void)sim::EdgeCloudSystem(plan, trace, config);

  if (rig.tiers == 2) {
    // Design-time pricing: what each degraded scenario costs, and whether
    // the option set can serve it at all. (The scenario catalog prices over
    // the scalar radio throughput, so it stays a two-tier analysis.)
    const core::RobustDeploymentEvaluator robust(
        evaluator, core::ThroughputDistribution::from_samples({tu}));
    const core::FaultEvaluation priced =
        robust.evaluate_under_faults(plan, core::default_fault_scenarios(tu));
    std::printf("fault-scenario pricing for %s @ %.1f Mbps nominal:\n", arch.name().c_str(),
                tu);
    std::printf("%-15s %6s %9s %-14s %12s\n", "scenario", "prob", "servable", "best option",
                "latency(ms)");
    for (const core::FaultScenarioOutcome& o : priced.outcomes) {
      std::printf("%-15s %6.2f %9s %-14s %12.1f\n", o.scenario.name.c_str(),
                  o.scenario.probability, o.servable ? "yes" : "NO",
                  o.servable ? eval.options[o.best_option].label(arch).c_str() : "-",
                  o.latency_ms);
    }
    std::printf("availability %.1f%% | expected latency %.1f ms | degradation %.2fx\n\n",
                100.0 * priced.availability, priced.expected_latency_ms,
                priced.degradation_ratio);
  }

  const auto run_policy = [&](sim::DispatchPolicy policy, std::size_t fixed,
                              const char* name) {
    sim::SimConfig scenario_config = config;
    scenario_config.policy = policy;
    scenario_config.fixed_option = fixed;
    sim::EdgeCloudSystem system(plan, trace, scenario_config);
    const sim::SimStats stats = system.run();
    std::printf(
        "%-18s avail %5.1f%% | mean %7.1f ms | p95 %7.1f ms | timeouts %3zu | "
        "retries %3zu | fallbacks %3zu | shed %3zu | brk-open %5.1f s | "
        "degraded %4.1f%%\n",
        name, 100.0 * stats.availability, stats.mean_latency_ms, stats.p95_latency_ms,
        stats.timeouts, stats.retries, stats.fallback_executions, stats.shed,
        stats.breaker_open_time_s, 100.0 * stats.degraded_fraction);
  };
  std::printf("serving under injected faults (%.0f s at %.1f req/s, seed %u):\n",
              config.duration_s, config.arrival_rate_hz, config.seed);
  run_policy(sim::DispatchPolicy::kDynamic, 0, "dynamic+fallback");
  // Pin the comparison to the fastest *cloud-dependent* option: that is the
  // policy that must ride out every outage with timeouts and retries.
  std::size_t pinned = eval.options.size();
  for (std::size_t i = 0; i < eval.options.size(); ++i) {
    if (eval.options[i].tx_bytes == 0) continue;
    if (pinned == eval.options.size() ||
        eval.options[i].latency_ms < eval.options[pinned].latency_ms) {
      pinned = i;
    }
  }
  if (pinned < eval.options.size()) {
    run_policy(sim::DispatchPolicy::kFixed, pinned, "fixed cloud-path");
  }
  return 0;
}

/// The fleet options `fleet` and `cloud` share.
fleet::FleetConfig fleet_config(const Options& args, const Rig& rig) {
  fleet::FleetConfig config;
  config.devices = args.count("devices");
  config.steps = args.count("steps");
  config.step_s = args.number("step-s");
  config.seed = args.count("seed");
  config.device_qps = args.number("qps");
  config.sla_ms = args.number("sla");
  config.trace.mean_mbps = rig.hop_tu[0];
  config.cloud_faults.seed = static_cast<unsigned>(config.seed);
  return config;
}

int cmd_fleet(const Options& args) {
  Rig rig = Rig::from_options(args);
  const dnn::Architecture arch = preset(args);
  const core::DeploymentPlan plan = rig.make_evaluator().compile(arch);

  fleet::FleetConfig config = fleet_config(args, rig);
  config.hysteresis_margin = args.number("margin");
  config.metric = metric(args);
  if (args.has("cloud-machines")) {
    cloud::CloudConfig cloud;
    cloud.machines = args.count("cloud-machines");
    cloud.machine.capacity_ms_per_s = args.number("cloud-capacity");
    cloud.policy = args.choice("cloud-policy") == 0  // greedy|energy
                       ? cloud::PlacementPolicy::kGreedyFirstFit
                       : cloud::PlacementPolicy::kEnergyBestFit;
    cloud.admit_utilization = args.number("admit-util");
    config.cloud = cloud;
    if (args.has("brownout")) {
      config.cloud_faults.scripted.push_back(brownout(args.list("brownout")));
    }
  }
  config.num_regions = args.count("regions");
  if (args.has("fog-machines")) {
    config.fog = cloud::fog_site_defaults(args.count("fog-machines"));
  }
  if (args.has("region-brownout")) {
    config.region_episodes.push_back(
        region_brownout(args.list("region-brownout"), config.num_regions));
  }

  fleet::FleetEngine engine(plan, rig.hop_tu, config);
  if (rig.tiers == 3) {
    std::printf(
        "(nominal backhaul %.1f Mbps; %zu region(s)%s; devices switch over the "
        "radio hop)\n",
        rig.hop_tu[1], config.num_regions,
        config.fog ? ", finite fog sites" : "");
  }
  const fleet::FleetStats stats = engine.run();

  std::printf("fleet of %zu devices x %zu steps (%.0f s/step) serving %s, %s-optimal\n",
              stats.devices, stats.steps, stats.step_s, arch.name().c_str(),
              args.text("metric").c_str());
  std::printf("latency ms: mean %.2f | p50 %.2f | p99 %.2f | p99.9 %.2f (oracle mean %.2f)\n",
              stats.mean_latency_ms, stats.p50_latency_ms, stats.p99_latency_ms,
              stats.p999_latency_ms, stats.oracle_mean_latency_ms);
  std::printf("energy: %.2f mJ/inference | %.1f mJ per device-hour (oracle %.2f mJ/inf)\n",
              stats.mean_energy_mj, stats.energy_mj_per_device_hour,
              stats.oracle_mean_energy_mj);
  if (config.cloud) {
    std::printf(
        "cloud load: offered %.0f qps | admitted %.0f qps (peak %.0f) | "
        "offered %.2f Mbps uplink\n",
        stats.mean_offered_qps, stats.mean_cloud_qps, stats.peak_cloud_qps,
        stats.mean_offered_mbps);
    std::printf(
        "admission: shed %llu (%.2f%%) | queue wait %.2f ms | breaker trips %llu | "
        "open %.0f device-s\n",
        static_cast<unsigned long long>(stats.shed), 100.0 * stats.shed_rate,
        stats.mean_queue_wait_ms, static_cast<unsigned long long>(stats.breaker_trips),
        stats.breaker_open_time_s);
    std::printf(
        "datacenter: %s | %zu machines (%.1f active) | energy %.1f kJ\n",
        cloud::placement_policy_name(config.cloud->policy), config.cloud->machines,
        stats.mean_machines_active, stats.datacenter_energy_j / 1e3);
  } else {
    std::printf("cloud load: mean %.0f qps | peak %.0f qps | offered %.2f Mbps uplink\n",
                stats.mean_cloud_qps, stats.peak_cloud_qps, stats.mean_offered_mbps);
  }
  if (config.sla_ms > 0.0) {
    std::printf("SLA %.0f ms: %llu violations (%.2f%%)\n", config.sla_ms,
                static_cast<unsigned long long>(stats.sla_violations),
                100.0 * stats.sla_violation_rate);
  }
  if (!stats.regions.empty()) {
    std::printf(
        "regions: %zu | degraded %llu device-steps | fog shed %llu | fog energy "
        "%.1f kJ\n",
        stats.regions.size(), static_cast<unsigned long long>(stats.degraded_steps),
        static_cast<unsigned long long>(stats.fog_shed), stats.fog_energy_j / 1e3);
    const std::size_t shown = std::min<std::size_t>(stats.regions.size(), 8);
    for (std::size_t r = 0; r < shown; ++r) {
      const fleet::FleetStats::RegionStats& rs = stats.regions[r];
      std::printf(
          "  region %zu: fog %.0f/%.0f qps (shed %.0f) | cloud %.0f/%.0f qps "
          "(shed %.0f) | degraded %.0f dev-s | breaker open %.0f s | backhaul "
          "out %.0f s\n",
          r, rs.fog_admitted_qps, rs.fog_offered_qps, rs.fog_shed_qps,
          rs.cloud_admitted_qps, rs.cloud_offered_qps, rs.cloud_shed_qps,
          rs.degraded_device_s, rs.breaker_open_s, rs.backhaul_out_s);
    }
    if (stats.regions.size() > shown) {
      std::printf("  ... (%zu more regions in --csv)\n", stats.regions.size() - shown);
    }
  }
  std::printf("switching: %llu total | %.3f per device-hour\n",
              static_cast<unsigned long long>(stats.total_switches),
              stats.switches_per_device_hour);
  std::size_t top_bin = 0;
  for (std::size_t b = 1; b < stats.switch_histogram.size(); ++b) {
    if (stats.switch_histogram[b] > 0) top_bin = b;
  }
  std::printf("switch histogram (devices by re-stagings):");
  for (std::size_t b = 0; b <= top_bin; ++b) {
    std::printf(" %zu:%llu", b, static_cast<unsigned long long>(stats.switch_histogram[b]));
  }
  std::printf("\n");
  if (args.has("csv")) {
    const std::string& path = args.text("csv");
    io::atomic_write_checked(path, [&](std::ostream& os) { os << stats.csv(); });
    std::printf("fleet stats written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_cloud(const Options& args) {
  Rig rig = Rig::from_options(args);
  const dnn::Architecture arch = preset(args);
  const core::DeploymentPlan plan = rig.make_evaluator().compile(arch);

  fleet::FleetConfig config = fleet_config(args, rig);
  cloud::CloudConfig cloud;
  cloud.machines = args.count("machines");
  cloud.machine.capacity_ms_per_s = args.number("capacity");
  cloud.admit_utilization = args.number("admit-util");

  // Default scenario: a regional brownout cutting 60% of per-machine
  // capacity across the middle third of the run.
  const double horizon_s = static_cast<double>(config.steps) * config.step_s;
  const sim::FaultEpisode episode =
      args.has("brownout")
          ? brownout(args.list("brownout"))
          : sim::FaultEpisode{sim::FaultClass::kRegionalBrownout, horizon_s / 3.0,
                              2.0 * horizon_s / 3.0, 0.6};
  config.cloud_faults.scripted.push_back(episode);
  config.cloud = cloud;
  // An engine validates its configuration on construction: every option is
  // checked before the first line of output.
  (void)fleet::FleetEngine(plan, rig.hop_tu, config);

  std::printf(
      "finite-cloud policy duel: %zu devices x %zu steps (%.0f s/step) serving %s\n",
      config.devices, config.steps, config.step_s, arch.name().c_str());
  std::printf(
      "pool: %zu machines x %.0f layer-ms/s, admit ceiling %.0f%%; brownout "
      "t=[%.0f,%.0f)s losing %.0f%% capacity; SLA %.0f ms\n",
      cloud.machines, cloud.machine.capacity_ms_per_s, 100.0 * cloud.admit_utilization,
      episode.start_s, episode.end_s, 100.0 * episode.magnitude, config.sla_ms);
  std::printf("%-17s %7s %9s %9s %9s %9s %8s %11s\n", "policy", "shed%", "sla-viol%",
              "p99(ms)", "p999(ms)", "wait(ms)", "active", "energy(kJ)");

  fleet::FleetStats by_policy[2];
  const cloud::PlacementPolicy policies[2] = {cloud::PlacementPolicy::kGreedyFirstFit,
                                             cloud::PlacementPolicy::kEnergyBestFit};
  for (int p = 0; p < 2; ++p) {
    cloud.policy = policies[p];
    config.cloud = cloud;
    fleet::FleetEngine engine(plan, rig.hop_tu, config);
    by_policy[p] = engine.run();
    const fleet::FleetStats& stats = by_policy[p];
    std::printf("%-17s %7.2f %9.2f %9.2f %9.2f %9.2f %8.1f %11.1f\n",
                cloud::placement_policy_name(cloud.policy), 100.0 * stats.shed_rate,
                100.0 * stats.sla_violation_rate, stats.p99_latency_ms,
                stats.p999_latency_ms, stats.mean_queue_wait_ms,
                stats.mean_machines_active, stats.datacenter_energy_j / 1e3);
  }
  // The pool is homogeneous, so both policies admit (and shed) identically;
  // consolidation only changes the power bill.
  if (by_policy[0].datacenter_energy_j > 0.0) {
    std::printf("consolidation saves %.1f%% datacenter energy at equal shed rate\n",
                100.0 * (1.0 - by_policy[1].datacenter_energy_j /
                                   by_policy[0].datacenter_energy_j));
  }
  return 0;
}

int cmd_help(const Options&) {
  std::printf(
      "lens-cli -- LENS edge-cloud NAS toolkit\n\n"
      "usage: lens-cli <command> [--option value | --option=value | --flag ...]\n");
  for (const Command& command : commands()) {
    std::printf("\n%s: %s\n", command.name.c_str(), command.summary.c_str());
    for (const Option& o : command.options) {
      const std::string head = "--" + o.name + (o.value.empty() ? "" : " " + o.value);
      const std::string fallback =
          o.fallback && o.kind != Kind::kFlag ? " (default " + *o.fallback + ")" : "";
      std::printf("  %-29s %s%s\n", head.c_str(), o.help.c_str(), fallback.c_str());
    }
    for (const Rule& rule : command.rules) std::printf("  note: %s\n", rule.message.c_str());
  }
  return 0;
}

// ---- Option tables ------------------------------------------------------
// A group holds options that several commands take with one meaning; its
// arguments are the defaults that differ between those commands.
using enum Kind;

/// What Rig::from_options reads, and the thread budget: every command but help.
std::vector<Option> rig_options(const char* tu) {
  return {{"tu", kNumber, "MBPS", tu, "radio uplink throughput (fleet, cloud: the trace mean)"},
          {"tech", kChoice, "wifi|lte|3g", "wifi", "wireless technology"},
          {"rtt", kNumber, "MS", "5", "round-trip latency"},
          {"device", kChoice, kDevices, "tx2-gpu", "edge device"},
          {"tiers", kCount, "N", "2", "hierarchy depth: 2 = edge-cloud, 3 = edge-fog-cloud"},
          {"fog-device", kChoice, kDevices, "datacenter-gpu", "fog-node device"},
          {"hop-bw", kList, "MBPS,...", {}, "per-hop Mbps, radio first (backhaul: 10x --tu)"},
          {"threads", kCount, "N", {},
           "worker threads (LENS_THREADS, else all); same results at any N", 1, par::kMaxThreads}};
}

Option arch_option(const char* fallback) {
  return {"arch", kChoice, "alexnet|vgg16", fallback, "preset model"};
}

Option metric_option(const char* fallback) {
  return {"metric", kChoice, "latency|energy", fallback, "what the deployment minimizes"};
}

const Option kSeed{"seed", kCount, "N", "1", "random seed", 0, 4294967295.0};

/// The event simulator's Poisson load: simulate and faults (sim_config).
const std::vector<Option> kLoad = {{"rate", kNumber, "HZ", "10", "request arrival rate"},
                                   {"duration", kNumber, "S", "60", "simulated seconds"}};

/// A finite cloud pool: faults and fleet.
const std::vector<Option> kCloudPool = {
    {"cloud-machines", kCount, "N", {}, "a finite cloud of N machines with admission control", 1},
    {"cloud-capacity", kNumber, "MS_PER_S", "4000", "layer-ms/s per cloud machine"}};

/// The fleet engine: fleet and cloud (fleet_config).
std::vector<Option> fleet_options(const char* devices, const char* steps, const char* step_s,
                                  const char* sla) {
  return {{"devices", kCount, "N", devices, "devices in the fleet", 1},
          {"steps", kCount, "N", steps, "time steps", 1},
          {"step-s", kNumber, "S", step_s, "seconds per step"},
          kSeed,
          {"qps", kNumber, "HZ", "1", "queries per second per device"},
          {"admit-util", kNumber, "F", "0.85", "admission ceiling, a share of pool capacity"},
          {"sla", kNumber, "MS", sla, "latency SLA, 0 for none"},
          {"brownout", kList, "start,duration,depth", {},
           "cloud brownout: seconds, seconds, capacity share lost in (0,1]", 3, 3}};
}

std::vector<Option> join(std::initializer_list<std::vector<Option>> groups) {
  std::vector<Option> options;
  for (const auto& group : groups) options.insert(options.end(), group.begin(), group.end());
  return options;
}

bool three_tiers(const Options& args) { return args.count("tiers") == 3; }
bool finite_cloud(const Options& args) { return args.has("cloud-machines"); }

/// The rules of rig_options.
const Rule kFogRule{{"fog-device"}, three_tiers, "--fog-device only applies to --tiers 3"};
const Rule kHopRule{{"hop-bw"}, [](const Options& args) { return !args.has("tu"); },
                    "--hop-bw already sets the radio throughput (first entry); drop --tu"};

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
    {"evaluate", "deployment options of a preset model",
     join({{arch_option("alexnet"), {"summary", kFlag, "", "false", "print a model summary"}},
           rig_options("3")}),
     {kFogRule, kHopRule}, cmd_evaluate},
    {"search", "run a LENS / Traditional architecture search",
     join({{{"iterations", kCount, "N", "60", "search iterations after the warm-up"},
            {"initial", kCount, "N", "12", "random warm-up candidates", 1},
            kSeed,
            {"mode", kChoice, "lens|traditional", "lens", "best deployment or All-Edge costs"},
            {"strategy", kChoice, "mobo|nsga2|random", "mobo", "search strategy"},
            {"out", kOutFile, "FILE", {}, "write the evaluation history CSV"},
            {"front-out", kOutFile, "FILE", {}, "write the Pareto-front CSV"},
            {"resume", kPath, "FILE", {}, "warm start from an exported history CSV"},
            {"checkpoint", kPath, "DIR", {}, "rotated run snapshots, flushed on SIGINT/SIGTERM"},
            {"checkpoint-period", kCount, "N", "10", "evaluations per snapshot", 1},
            {"checkpoint-keep", kCount, "N", "3", "newest snapshots kept", 1},
            {"resume-run", kPath, "DIR", {}, "bit-identical resume from DIR's snapshots"}},
           rig_options("3")}),
     {kFogRule, kHopRule,
      {{"checkpoint-period", "checkpoint-keep"},
       [](const Options& args) { return args.has("checkpoint"); },
       "--checkpoint-period/--checkpoint-keep require --checkpoint"}},
     cmd_search},
    {"thresholds", "runtime switching thresholds of a preset model",
     join({{arch_option("alexnet"), metric_option("energy"),
            {"save", kOutFile, "FILE", {}, "write the switching table for the device"}},
           rig_options("10")}),
     {kFogRule, kHopRule}, cmd_thresholds},
    {"simulate", "serving simulation under Poisson load",
     join({{arch_option("alexnet"),
            {"policy", kChoice, "queue-aware|dynamic|best-latency|all-edge", "queue-aware",
             "dispatch policy"},
            {"deadline", kNumber, "MS", "0", "latency deadline, 0 for none"}},
           kLoad, rig_options("10")}),
     {kFogRule, kHopRule}, cmd_simulate},
    {"faults", "fault-scenario pricing and serving under injected faults",
     join({{arch_option("alexnet"), kSeed,
            {"timeout", kNumber, "MS", "500", "request timeout"},
            {"retries", kCount, "N", "2", "retries after a timeout"},
            {"jitter", kNumber, "F", "0", "retry-backoff jitter in [0,1]"},
            {"breaker", kCount, "N", "0", "edge fallback after N straight failures; 0 off"}},
           kLoad, kCloudPool, rig_options("10")}),
     {kFogRule, kHopRule,
      {{"cloud-capacity"}, finite_cloud, "--cloud-capacity requires --cloud-machines"}},
     cmd_faults},
    {"fleet", "time-stepped fleet simulation; its --csv is identical at any --threads",
     join({{arch_option("alexnet"), metric_option("latency"),
            {"margin", kNumber, "F", "0.05", "switching hysteresis margin"},
            {"csv", kOutFile, "FILE", {}, "write the fleet statistics CSV"},
            {"cloud-policy", kChoice, "greedy|energy", "greedy", "cloud placement policy"},
            {"regions", kCount, "N", "1", "regional failure domains", 1},
            {"fog-machines", kCount, "N", {}, "a finite fog site of N machines each", 1},
            {"region-brownout", kList, "region,start,duration,depth", {},
             "backhaul brownout: region, seconds, seconds, share lost in (0,1)", 4, 4}},
           fleet_options("100000", "64", "300", "0"), kCloudPool, rig_options("10")}),
     {kFogRule, kHopRule,
      {{"cloud-capacity", "cloud-policy", "admit-util", "brownout"}, finite_cloud,
       "--cloud-capacity/--cloud-policy/--admit-util/--brownout require "
       "--cloud-machines (the finite-cloud model)"},
      {{"regions", "fog-machines", "region-brownout"}, three_tiers,
       "--regions/--fog-machines/--region-brownout require --tiers 3 "
       "(regional failure domains live on the K-tier hierarchy)"}},
     cmd_fleet},
    {"cloud", "placement duel on one pool under a brownout (default: middle third, 0.6)",
     join({{arch_option("vgg16"), {"machines", kCount, "N", "16", "machines in the pool", 1},
            {"capacity", kNumber, "MS_PER_S", "4000", "layer-ms/s per machine"}},
           fleet_options("20000", "48", "60", "300"), rig_options("10")}),
     {kFogRule, kHopRule}, cmd_cloud},
    {"help", "this text", {}, {}, cmd_help},
  };
  return table;
}

int run_command(int argc, const char* const* argv) {
  const bool named = argc > 1 && argv[1][0] != '-';
  const std::string name = named ? argv[1] : "help";
  const std::vector<Command>& table = commands();
  const auto command = std::find_if(table.begin(), table.end(),
                                    [&](const Command& c) { return c.name == name; });
  if (command == table.end()) {
    std::fprintf(stderr, "lens-cli: unknown command '%s' (try 'lens-cli help')\n",
                 name.c_str());
    return 2;
  }
  try {
    const Options args = Options::parse(
        command->options, command->rules, std::vector<std::string>(argv + 1 + named, argv + argc));
    // Worker budget for the lens::par pool: --threads beats LENS_THREADS
    // beats hardware detection. Results are identical for any setting.
    if (args.has("threads")) par::set_max_threads(args.count("threads"));
    return command->run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lens-cli %s: %s\n", command->name.c_str(), error.what());
    return 1;
  }
}

}  // namespace lens::cli
