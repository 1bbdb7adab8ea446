#include "cli/commands.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
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

comm::WirelessTechnology parse_tech(const std::string& name) {
  if (name == "wifi") return comm::WirelessTechnology::kWifi;
  if (name == "lte") return comm::WirelessTechnology::kLte;
  if (name == "3g") return comm::WirelessTechnology::k3G;
  throw std::invalid_argument("unknown --tech '" + name + "' (wifi|lte|3g)");
}

perf::DeviceProfile parse_device(const std::string& name) {
  if (name == "tx2-gpu") return perf::jetson_tx2_gpu();
  if (name == "tx2-cpu") return perf::jetson_tx2_cpu();
  if (name == "embedded-cpu") return perf::embedded_cpu();
  if (name == "datacenter-gpu") return perf::datacenter_gpu();
  throw std::invalid_argument("unknown device '" + name +
                              "' (tx2-gpu|tx2-cpu|embedded-cpu|datacenter-gpu)");
}

dnn::Architecture parse_arch(const std::string& name) {
  if (name == "alexnet") return dnn::alexnet();
  if (name == "vgg16") return dnn::vgg16();
  throw std::invalid_argument("unknown --arch '" + name + "' (alexnet|vgg16)");
}

cloud::PlacementPolicy parse_policy(const std::string& name) {
  if (name == "greedy") return cloud::PlacementPolicy::kGreedyFirstFit;
  if (name == "energy") return cloud::PlacementPolicy::kEnergyBestFit;
  throw std::invalid_argument("unknown --cloud-policy '" + name + "' (greedy|energy)");
}

/// True for a whole number in [lo, 2^53], the range where every integer is
/// exactly representable; NaN and infinities fail. Checked before any cast,
/// since converting a non-finite or out-of-range double is undefined.
bool is_whole(double value, double lo) {
  return value >= lo && value <= 9007199254740992.0 && value == std::floor(value);
}

/// A count of at least `lo` (positive unless stated) given as a number
/// ("1e6" reads as 1000000); rejects fractions, NaN and values past 2^53.
std::size_t get_count(const Args& args, const std::string& key, double fallback,
                      double lo = 1.0) {
  const double value = args.get_double(key, fallback);
  if (!is_whole(value, lo)) {
    throw std::invalid_argument("--" + key + (lo > 0.0 ? " must be a positive whole count"
                                                       : " must be a whole count >= 0"));
  }
  return static_cast<std::size_t>(value);
}

/// Parse "--brownout start,duration,depth" into a scripted regional-brownout
/// episode (depth = capacity fraction lost, in (0, 1]).
sim::FaultEpisode parse_brownout(const Args& args) {
  const std::vector<double> fields = args.get_doubles("brownout");
  if (fields.size() != 3) {
    throw std::invalid_argument(
        "--brownout expects start,duration,depth (seconds, seconds, capacity "
        "fraction lost in (0,1])");
  }
  sim::FaultEpisode episode;
  episode.fault = sim::FaultClass::kRegionalBrownout;
  episode.start_s = fields[0];
  episode.end_s = fields[0] + fields[1];
  episode.magnitude = fields[2];
  return episode;
}

/// Parse "--region-brownout region,start,duration,depth" into a scripted
/// backhaul brownout on hop 1 of that one region (depth = fraction of the
/// hop's throughput lost, in (0, 1) — a full loss is an outage).
fleet::RegionEpisode parse_region_brownout(const Args& args, std::size_t num_regions) {
  const std::vector<double> fields = args.get_doubles("region-brownout");
  if (fields.size() != 4) {
    throw std::invalid_argument(
        "--region-brownout expects region,start,duration,depth (region index, "
        "seconds, seconds, backhaul throughput fraction lost in (0,1))");
  }
  if (!is_whole(fields[0], 0.0) || fields[0] >= static_cast<double>(num_regions)) {
    throw std::invalid_argument(
        "--region-brownout region index must be a whole number in [0, --regions)");
  }
  fleet::RegionEpisode re;
  re.region = static_cast<std::uint32_t>(fields[0]);
  re.episode.fault = sim::FaultClass::kBackhaulBrownout;
  re.episode.hop = 1;
  re.episode.start_s = fields[1];
  re.episode.end_s = fields[1] + fields[2];
  re.episode.magnitude = fields[3];
  return re;
}

struct Rig {
  perf::DeviceSimulator simulator;
  perf::RooflinePredictor predictor;
  comm::CommModel comm;
  std::string tech_name;
  /// 2 (classic edge-cloud) or 3 (edge-fog-cloud preset).
  std::size_t tiers = 2;
  /// Fog-node performance model for --tiers 3; heap-held so TierSpec's
  /// non-owning pointer stays valid across Rig moves.
  std::shared_ptr<perf::RooflinePredictor> fog_predictor{};
  std::string fog_name{};
  /// Pricing throughputs, one per hop (radio first). {tu} for two-tier.
  std::vector<double> hop_tu{};

  /// Per-command --tu defaults differ (search prices at the paper's 3 Mbps,
  /// the serving commands at 10), so the caller passes its own.
  static Rig from_args(const Args& args, double default_tu = 3.0) {
    perf::DeviceSimulator sim(parse_device(args.get("device", "tx2-gpu")));
    perf::RooflinePredictor predictor =
        perf::RooflinePredictor::train(sim, {.samples_per_kind = 400, .seed = 11});
    const comm::WirelessTechnology tech = parse_tech(args.get("tech", "wifi"));
    comm::CommModel comm(tech, args.get_double("rtt", 5.0));
    Rig rig{std::move(sim), std::move(predictor), comm, technology_name(tech)};

    const int tiers = args.get_int("tiers", 2);
    if (tiers == 1) {
      throw std::invalid_argument(
          "--tiers 1 leaves nothing to partition; use --tiers 2 (edge-cloud) "
          "or --tiers 3 (edge-fog-cloud)");
    }
    if (tiers != 2 && tiers != 3) {
      throw std::invalid_argument("--tiers supports the built-in presets 2 and 3, got " +
                                  std::to_string(tiers));
    }
    rig.tiers = static_cast<std::size_t>(tiers);
    if (args.has("fog-device") && rig.tiers != 3) {
      throw std::invalid_argument("--fog-device only applies to --tiers 3");
    }
    if (rig.tiers == 3) {
      rig.fog_name = args.get("fog-device", "datacenter-gpu");
      perf::DeviceSimulator fog_sim(parse_device(rig.fog_name));
      rig.fog_predictor = std::make_shared<perf::RooflinePredictor>(
          perf::RooflinePredictor::train(fog_sim, {.samples_per_kind = 400, .seed = 11}));
    }

    // Throughputs must be positive and finite; NaN fails too.
    const auto valid_mbps = [](double mbps) { return mbps > 0.0 && std::isfinite(mbps); };
    const double tu = args.get_double("tu", default_tu);
    if (!valid_mbps(tu)) {
      throw std::invalid_argument("--tu must be a positive, finite throughput in Mbps");
    }
    if (args.has("hop-bw")) {
      if (args.has("tu")) {
        throw std::invalid_argument(
            "--hop-bw already sets the radio throughput (first entry); drop --tu");
      }
      const std::vector<double> hops = args.get_doubles("hop-bw");
      if (hops.size() != rig.tiers - 1) {
        throw std::invalid_argument(
            "--hop-bw expects " + std::to_string(rig.tiers - 1) +
            " comma-separated Mbps values (one per hop, radio first) for --tiers " +
            std::to_string(rig.tiers) + ", got " + std::to_string(hops.size()));
      }
      for (double mbps : hops) {
        if (!valid_mbps(mbps)) {
          throw std::invalid_argument("--hop-bw throughputs must be positive, finite Mbps");
        }
      }
      rig.hop_tu = hops;
    } else {
      rig.hop_tu = {tu};
      // Default backhaul: 10x the radio — wired fog-to-cloud links dwarf
      // the device's wireless hop. Override with --hop-bw.
      if (rig.tiers == 3) rig.hop_tu.push_back(10.0 * tu);
    }
    return rig;
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

int cmd_evaluate(const Args& args) {
  args.expect_known({"arch", "tu", "tech", "rtt", "device", "summary", "threads", "tiers",
                     "fog-device", "hop-bw"});
  Rig rig = Rig::from_args(args, 3.0);
  const dnn::Architecture arch = parse_arch(args.get("arch", "alexnet"));
  if (args.get_bool("summary")) std::printf("%s\n", dnn::summary(arch).c_str());

  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const core::DeploymentEvaluation result = evaluator.compile(arch).price(rig.hop_tu);
  std::printf("%s @ %.1f Mbps %s (RTT %.0f ms, %s", arch.name().c_str(), rig.hop_tu[0],
              rig.tech_name.c_str(), rig.comm.round_trip_ms(),
              rig.simulator.profile().name.c_str());
  if (rig.tiers == 3) {
    std::printf("; fog %s, backhaul %.1f Mbps", rig.fog_name.c_str(), rig.hop_tu[1]);
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
    std::printf("%s\n", viz::tier_diagram(evaluator.topology().tier_names(), choice.cuts,
                                          arch.num_layers(), choice.hop_tx_bytes)
                            .c_str());
  }
  return 0;
}

int cmd_search(const Args& args) {
  args.expect_known({"iterations", "initial", "tu", "tech", "rtt", "device", "seed", "mode",
                     "strategy", "out", "front-out", "resume", "threads", "checkpoint",
                     "checkpoint-period", "checkpoint-keep", "resume-run", "tiers",
                     "fog-device", "hop-bw"});
  Rig rig = Rig::from_args(args, 3.0);
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const core::SearchSpace space;
  const core::SurrogateAccuracyModel accuracy;

  core::NasConfig config;
  config.mobo.num_iterations = get_count(args, "iterations", 60, 0.0);
  config.mobo.num_initial = get_count(args, "initial", 12);
  config.mobo.seed = static_cast<unsigned>(args.get_int("seed", 1));
  config.nsga2.seed = config.mobo.seed;
  config.tu_mbps = rig.hop_tu[0];
  if (rig.tiers == 3) config.hop_tu_mbps = rig.hop_tu;
  const std::string mode = args.get("mode", "lens");
  if (mode == "lens") {
    config.mode = core::ObjectiveMode::kBestDeployment;
  } else if (mode == "traditional") {
    config.mode = core::ObjectiveMode::kAllEdgeOnly;
  } else {
    throw std::invalid_argument("unknown --mode '" + mode + "' (lens|traditional)");
  }
  const std::string strategy = args.get("strategy", "mobo");
  if (strategy == "mobo") {
    config.strategy = core::SearchStrategy::kMobo;
  } else if (strategy == "nsga2") {
    config.strategy = core::SearchStrategy::kNsga2;
  } else if (strategy == "random") {
    config.strategy = core::SearchStrategy::kRandom;
  } else {
    throw std::invalid_argument("unknown --strategy '" + strategy + "' (mobo|nsga2|random)");
  }

  if (args.has("resume")) {
    config.warm_start = core::load_genotypes_csv(space, args.get("resume"));
  }
  if (args.has("resume-run")) config.resume_run = args.get("resume-run");
  if (args.has("checkpoint")) {
    config.checkpoint.directory = args.get("checkpoint");
    config.checkpoint.period = get_count(args, "checkpoint-period", 10);
    config.checkpoint.keep = get_count(args, "checkpoint-keep", 3);
    // SIGINT/SIGTERM flush the in-flight checkpoint chunk instead of
    // killing the process mid-write.
    core::install_interrupt_flush_handler();
  } else if (args.has("checkpoint-period") || args.has("checkpoint-keep")) {
    throw std::invalid_argument("--checkpoint-period/--checkpoint-keep require --checkpoint");
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
    core::save_history_csv(result, space, args.get("out"));
    std::printf("history written to %s\n", args.get("out").c_str());
  }
  if (args.has("front-out")) {
    core::save_front_csv(result, space, args.get("front-out"));
    std::printf("frontier written to %s\n", args.get("front-out").c_str());
  }
  return result.interrupted ? 130 : 0;
}

int cmd_thresholds(const Args& args) {
  args.expect_known({"arch", "tech", "rtt", "device", "metric", "tu", "save", "threads",
                     "tiers", "fog-device", "hop-bw"});
  Rig rig = Rig::from_args(args, 10.0);
  const dnn::Architecture arch = parse_arch(args.get("arch", "alexnet"));
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  // One compile serves both the printed evaluation and the deployer curves.
  const core::DeploymentPlan plan = evaluator.compile(arch);
  const core::DeploymentEvaluation eval = plan.price(rig.hop_tu);
  const std::string metric_name = args.get("metric", "energy");
  runtime::OptimizeFor metric;
  if (metric_name == "energy") {
    metric = runtime::OptimizeFor::kEnergy;
  } else if (metric_name == "latency") {
    metric = runtime::OptimizeFor::kLatency;
  } else {
    throw std::invalid_argument("unknown --metric '" + metric_name + "' (latency|energy)");
  }
  const runtime::DynamicDeployer deployer(plan, metric, rig.hop_tu, 0.05, 500.0);
  if (rig.tiers == 3) {
    std::printf("(backhaul pinned at %.1f Mbps; thresholds are over the radio hop)\n",
                rig.hop_tu[1]);
  }
  std::printf("%s-optimal deployment vs uplink throughput (%s):\n", metric_name.c_str(),
              arch.name().c_str());
  for (const runtime::DominanceInterval& iv : deployer.intervals()) {
    std::printf("  t_u in [%7.2f, %7.2f) Mbps -> %s\n", iv.tu_low, iv.tu_high,
                eval.options[iv.option_index].label(arch).c_str());
  }
  if (args.has("save")) {
    runtime::SwitchingTable table;
    table.metric = metric;
    for (const core::DeploymentOption& o : eval.options) {
      table.option_labels.push_back(o.label(arch));
    }
    table.intervals = deployer.intervals();
    runtime::save_switching_table(table, args.get("save"));
    std::printf("switching table written to %s (ship this to the device)\n",
                args.get("save").c_str());
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  args.expect_known({"arch", "tech", "rtt", "device", "rate", "duration", "policy", "tu",
                     "deadline", "threads", "tiers", "fog-device", "hop-bw"});
  Rig rig = Rig::from_args(args, 10.0);
  const dnn::Architecture arch = parse_arch(args.get("arch", "alexnet"));
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const double tu = rig.hop_tu[0];
  const core::DeploymentPlan plan = evaluator.compile(arch);
  const core::DeploymentEvaluation eval = plan.price(rig.hop_tu);

  sim::SimConfig config;
  config.arrival_rate_hz = args.get_double("rate", 10.0);
  config.duration_s = args.get_double("duration", 60.0);
  config.deadline_ms = args.get_double("deadline", 0.0);
  if (rig.tiers == 3) config.backhaul_tu_mbps = {rig.hop_tu[1]};
  const std::string policy = args.get("policy", "queue-aware");
  if (policy == "queue-aware") {
    config.policy = sim::DispatchPolicy::kQueueAware;
  } else if (policy == "dynamic") {
    config.policy = sim::DispatchPolicy::kDynamic;
  } else if (policy == "best-latency") {
    config.policy = sim::DispatchPolicy::kFixed;
    config.fixed_option = eval.best_latency_option;
  } else if (policy == "all-edge") {
    config.policy = sim::DispatchPolicy::kFixed;
    for (std::size_t i = 0; i < eval.options.size(); ++i) {
      if (eval.options[i].kind == core::DeploymentKind::kAllEdge) config.fixed_option = i;
    }
  } else {
    throw std::invalid_argument("unknown --policy '" + policy +
                                "' (queue-aware|dynamic|best-latency|all-edge)");
  }

  comm::ThroughputTrace trace;
  trace.samples_mbps = {tu};
  trace.interval_s = 1000.0;
  sim::EdgeCloudSystem system(plan, trace, config);
  const sim::SimStats stats = system.run();
  std::printf("%zu requests over %.0f s at %.1f req/s (%s policy)\n", stats.completed,
              config.duration_s, config.arrival_rate_hz, policy.c_str());
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

int cmd_faults(const Args& args) {
  args.expect_known({"arch", "tech", "rtt", "device", "tu", "rate", "duration", "seed",
                     "timeout", "retries", "threads", "tiers", "fog-device", "hop-bw",
                     "cloud-machines", "cloud-capacity", "jitter", "breaker"});
  Rig rig = Rig::from_args(args, 10.0);
  const dnn::Architecture arch = parse_arch(args.get("arch", "alexnet"));
  const double tu = rig.hop_tu[0];
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const core::DeploymentPlan plan = evaluator.compile(arch);
  const core::DeploymentEvaluation eval = plan.price(rig.hop_tu);

  // Serving-time check: inject stochastic faults of all four classes and
  // compare graceful degradation (dynamic dispatch + edge fallback) against
  // a fixed best-latency pin that must ride out every outage.
  sim::SimConfig config;
  config.arrival_rate_hz = args.get_double("rate", 10.0);
  config.duration_s = args.get_double("duration", 60.0);
  config.seed = static_cast<unsigned>(args.get_int("seed", 1));
  config.timeout_ms = args.get_double("timeout", 500.0);
  config.max_retries = get_count(args, "retries", 2, 0.0);
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
  config.retry_jitter = args.get_double("jitter", 0.0);
  if (args.has("cloud-machines")) {
    cloud::CloudConfig cloud;
    cloud.machines = get_count(args, "cloud-machines", 8);
    cloud.machine.capacity_ms_per_s = args.get_double("cloud-capacity", 4000.0);
    config.cloud = cloud;
    config.faults.machine_failure_rate_hz = 1.0 / 90.0;
    config.faults.brownout_rate_hz = 1.0 / 70.0;
  } else if (args.has("cloud-capacity")) {
    throw std::invalid_argument("--cloud-capacity requires --cloud-machines");
  }
  if (args.has("breaker")) config.breaker_failures = get_count(args, "breaker", 3, 0.0);
  if (rig.tiers == 3) {
    // The fog-to-cloud backhaul degrades independently of the radio: its
    // own deep fades and RTT spikes, drawn from disjoint RNG substreams.
    config.backhaul_tu_mbps = {rig.hop_tu[1]};
    sim::HopFaultConfig backhaul;
    backhaul.outage_rate_hz = 1.0 / 50.0;
    backhaul.outage_mean_s = 6.0;
    backhaul.rtt_spike_rate_hz = 1.0 / 70.0;
    config.faults.extra_hops = {backhaul};
  }

  comm::ThroughputTrace trace;
  trace.samples_mbps = {tu};
  trace.interval_s = 1000.0;
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

int cmd_fleet(const Args& args) {
  args.expect_known({"arch", "tech", "rtt", "device", "metric", "tu", "devices", "steps",
                     "step-s", "seed", "margin", "qps", "csv", "threads", "tiers",
                     "fog-device", "hop-bw", "cloud-machines", "cloud-capacity",
                     "cloud-policy", "admit-util", "sla", "brownout", "regions",
                     "fog-machines", "region-brownout"});
  Rig rig = Rig::from_args(args, 10.0);
  const dnn::Architecture arch = parse_arch(args.get("arch", "alexnet"));
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const core::DeploymentPlan plan = evaluator.compile(arch);

  fleet::FleetConfig config;
  config.devices = get_count(args, "devices", 100000);
  config.steps = get_count(args, "steps", 64);
  config.step_s = args.get_double("step-s", 300.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.hysteresis_margin = args.get_double("margin", 0.05);
  config.device_qps = args.get_double("qps", 1.0);
  config.trace.mean_mbps = rig.hop_tu[0];
  const std::string metric_name = args.get("metric", "latency");
  if (metric_name == "energy") {
    config.metric = runtime::OptimizeFor::kEnergy;
  } else if (metric_name == "latency") {
    config.metric = runtime::OptimizeFor::kLatency;
  } else {
    throw std::invalid_argument("unknown --metric '" + metric_name + "' (latency|energy)");
  }
  config.sla_ms = args.get_double("sla", 0.0);
  if (args.has("cloud-machines")) {
    cloud::CloudConfig cloud;
    cloud.machines = get_count(args, "cloud-machines", 64);
    cloud.machine.capacity_ms_per_s = args.get_double("cloud-capacity", 4000.0);
    cloud.policy = parse_policy(args.get("cloud-policy", "greedy"));
    cloud.admit_utilization = args.get_double("admit-util", 0.85);
    config.cloud = cloud;
    config.cloud_faults.seed = static_cast<unsigned>(config.seed);
    if (args.has("brownout")) {
      config.cloud_faults.scripted.push_back(parse_brownout(args));
    }
  } else if (args.has("cloud-capacity") || args.has("cloud-policy") ||
             args.has("admit-util") || args.has("brownout")) {
    throw std::invalid_argument(
        "--cloud-capacity/--cloud-policy/--admit-util/--brownout require "
        "--cloud-machines (the finite-cloud model)");
  }
  if (rig.tiers == 3) {
    config.num_regions = get_count(args, "regions", 1);
    if (args.has("fog-machines")) {
      config.fog = cloud::fog_site_defaults(get_count(args, "fog-machines", 4));
    }
    if (args.has("region-brownout")) {
      config.region_episodes.push_back(
          parse_region_brownout(args, config.num_regions));
    }
  } else if (args.has("regions") || args.has("fog-machines") ||
             args.has("region-brownout")) {
    throw std::invalid_argument(
        "--regions/--fog-machines/--region-brownout require --tiers 3 "
        "(regional failure domains live on the K-tier hierarchy)");
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
              metric_name.c_str());
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
    const std::string path = args.get("csv");
    io::atomic_write_checked(path, [&](std::ostream& os) { os << stats.csv(); });
    std::printf("fleet stats written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_cloud(const Args& args) {
  args.expect_known({"arch", "tech", "rtt", "device", "tu", "devices", "steps", "step-s",
                     "seed", "qps", "machines", "capacity", "admit-util", "sla",
                     "brownout", "threads", "tiers", "fog-device", "hop-bw"});
  Rig rig = Rig::from_args(args, 10.0);
  // vgg16 at the 10 Mbps default makes All-Cloud the latency winner, so the
  // fleet actually leans on the pool (alexnet mostly stays on the edge).
  const dnn::Architecture arch = parse_arch(args.get("arch", "vgg16"));
  const core::DeploymentEvaluator evaluator = rig.make_evaluator();
  const core::DeploymentPlan plan = evaluator.compile(arch);

  fleet::FleetConfig config;
  config.devices = get_count(args, "devices", 20000);
  config.steps = get_count(args, "steps", 48);
  config.step_s = args.get_double("step-s", 60.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.device_qps = args.get_double("qps", 1.0);
  config.trace.mean_mbps = rig.hop_tu[0];
  config.sla_ms = args.get_double("sla", 300.0);

  cloud::CloudConfig cloud;
  cloud.machines = get_count(args, "machines", 16);
  cloud.machine.capacity_ms_per_s = args.get_double("capacity", 4000.0);
  cloud.admit_utilization = args.get_double("admit-util", 0.85);
  config.cloud_faults.seed = static_cast<unsigned>(config.seed);

  // Default scenario: a regional brownout cutting 60% of per-machine
  // capacity across the middle third of the run.
  const double horizon_s = static_cast<double>(config.steps) * config.step_s;
  sim::FaultEpisode brownout;
  if (args.has("brownout")) {
    brownout = parse_brownout(args);
  } else {
    brownout.fault = sim::FaultClass::kRegionalBrownout;
    brownout.start_s = horizon_s / 3.0;
    brownout.end_s = 2.0 * horizon_s / 3.0;
    brownout.magnitude = 0.6;
  }
  config.cloud_faults.scripted.push_back(brownout);
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
      brownout.start_s, brownout.end_s, 100.0 * brownout.magnitude, config.sla_ms);
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

int cmd_help() {
  std::printf(
      "lens-cli -- LENS edge-cloud NAS toolkit\n\n"
      "usage: lens-cli <command> [--option value ...]\n\n"
      "commands:\n"
      "  evaluate    deployment options of a preset model\n"
      "              --arch alexnet|vgg16 --tu MBPS --tech wifi|lte|3g --rtt MS\n"
      "              --device tx2-gpu|tx2-cpu|embedded-cpu|datacenter-gpu [--summary]\n"
      "  search      run a LENS / Traditional architecture search\n"
      "              --iterations N --initial N --tu MBPS --seed N\n"
      "              --mode lens|traditional --strategy mobo|nsga2|random\n"
      "              [--out history.csv] [--front-out front.csv]\n"
      "              [--resume history.csv]   cross-config warm-start: re-evaluates\n"
      "                                       genotypes from an exported CSV\n"
      "              [--checkpoint DIR]       write rotated run snapshots every\n"
      "                                       --checkpoint-period evals (keep\n"
      "                                       --checkpoint-keep newest, default 10/3);\n"
      "                                       SIGINT/SIGTERM flush before exit\n"
      "              [--resume-run DIR]       exact-state resume from the newest\n"
      "                                       valid snapshot in DIR; continuation\n"
      "                                       is bit-identical to an uninterrupted\n"
      "                                       run with the same config\n"
      "  thresholds  runtime switching thresholds for a preset model\n"
      "              --arch ... --metric latency|energy [--save table.txt]\n"
      "  simulate    serving simulation under Poisson load\n"
      "              --rate HZ --duration S --policy queue-aware|dynamic|\n"
      "              best-latency|all-edge [--deadline MS]\n"
      "  faults      fault-scenario pricing + serving under injected faults\n"
      "              --arch ... --tu MBPS --rate HZ --duration S --seed N\n"
      "              [--timeout MS] [--retries N]\n"
      "              [--cloud-machines N [--cloud-capacity MS_PER_S]]  finite pool\n"
      "              [--jitter F]   retry-backoff jitter in [0,1]\n"
      "              [--breaker N]  trip to edge fallback after N straight failures\n"
      "  fleet       time-stepped fleet simulation over batched SoA kernels\n"
      "              --devices N --steps N --tu MBPS (trace mean) --seed N\n"
      "              [--step-s S] [--margin F] [--qps HZ] [--metric latency|energy]\n"
      "              [--csv FILE]   FleetStats is bit-identical at any --threads\n"
      "              [--cloud-machines N] finite cloud: admission control +\n"
      "                [--cloud-capacity MS_PER_S] [--cloud-policy greedy|energy]\n"
      "                [--admit-util F] [--sla MS] [--brownout START,DUR,DEPTH]\n"
      "              --tiers 3 only: regional failure domains\n"
      "                [--regions R] [--fog-machines M]  R regions, each with a\n"
      "                finite fog site of M machines\n"
      "                [--region-brownout REGION,START,DUR,DEPTH]  scripted\n"
      "                backhaul brownout in one region (DEPTH in (0,1))\n"
      "  cloud       duel the placement policies on one finite pool under a\n"
      "              scripted regional brownout (greedy vs energy best-fit)\n"
      "              --devices N --steps N --machines N [--capacity MS_PER_S]\n"
      "              [--admit-util F] [--sla MS] [--brownout START,DUR,DEPTH]\n"
      "  help        this text\n\n"
      "global options:\n"
      "  --threads N   worker threads for parallel evaluation (default:\n"
      "                LENS_THREADS env, else all hardware threads);\n"
      "                results are bit-identical for any thread count\n"
      "  --tiers N     hierarchy depth: 2 = edge-cloud (default), 3 = the\n"
      "                edge-fog-cloud preset with two cut points\n"
      "  --fog-device  fog-node device preset for --tiers 3\n"
      "                (default datacenter-gpu)\n"
      "  --hop-bw A,B  per-hop throughputs in Mbps, radio first (one value\n"
      "                per hop; replaces --tu; default backhaul = 10x radio)\n");
  return 0;
}

}  // namespace

int run_command(const Args& args) {
  try {
    // Worker budget for the lens::par pool: --threads beats LENS_THREADS
    // beats hardware detection. Results are identical for any setting.
    if (args.has("threads")) {
      const std::size_t threads = get_count(args, "threads", 0);
      if (threads > par::kMaxThreads) {
        throw std::invalid_argument("--threads must be at most " +
                                    std::to_string(par::kMaxThreads));
      }
      par::set_max_threads(threads);
    }
    const std::string& command = args.command();
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "search") return cmd_search(args);
    if (command == "thresholds") return cmd_thresholds(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "faults") return cmd_faults(args);
    if (command == "fleet") return cmd_fleet(args);
    if (command == "cloud") return cmd_cloud(args);
    if (command.empty() || command == "help") return cmd_help();
    std::fprintf(stderr, "lens-cli: unknown command '%s' (try 'lens-cli help')\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lens-cli: %s\n", error.what());
    return 1;
  }
}

}  // namespace lens::cli
