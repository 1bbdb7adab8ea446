// fleet-2tier and fleet-3tier-faults: FleetEngine at one million devices.
//
// fleet-2tier is `lens fleet` at its defaults (alexnet, two tiers, AR(1)
// traces around 10 Mbps, infinite cloud, no per-device faults). The 3-tier
// workload serves vgg16 over edge-fog-cloud in 8 regions with regional
// backhaul and fog faults, finite fog (4 machines per region) and cloud (64)
// pools, per-device link and cloud outages at bench_fleet's rates and a
// 300 ms SLA.
//
// Untraced: FleetEngine::run repetitions, with a set-up (construction plus
// a one-step run of the same configuration, fault horizons pinned to the
// full run's) before each and after the last. Traced: one untraced and one traced run,
// then a replay of the public kernels the loop calls, at the run's shapes.

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cloud/machine.hpp"
#include "cloud/scheduler.hpp"
#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "core/topology.hpp"
#include "dnn/presets.hpp"
#include "fleet/fleet.hpp"
#include "par/parallel.hpp"
#include "par/substream.hpp"
#include "perf/predictor.hpp"
#include "runtime/deployer.hpp"
#include "runtime/threshold.hpp"
#include "runtime/tracker.hpp"
#include "sim/fault.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kDevices = 1000000;
constexpr std::size_t kSteps = 16;
constexpr double kTuMbps = 10.0;

/// FNV-1a of FleetStats::csv() at the default seed.
constexpr std::uint64_t kCsvDigest2Tier = 0x7dc81bf74283419eULL;
constexpr std::uint64_t kCsvDigest3Tier = 0xe4f5619d549db0d5ULL;

/// The compiled plan, the fleet configuration and, for K tiers, the nominal
/// per-hop rates: everything a FleetEngine is built from.
struct FleetRig {
  bool three_tier = false;
  lens::core::DeploymentPlan plan;
  std::vector<double> hop_tu;
  lens::fleet::FleetConfig config;

  FleetRig(bool k_tier, std::uint64_t seed) : three_tier(k_tier) {
    const lens::perf::RooflinePredictor edge = train_predictor(lens::perf::jetson_tx2_gpu());
    const lens::comm::CommModel radio(lens::comm::WirelessTechnology::kWifi, 5.0);
    config.devices = kDevices;
    config.steps = kSteps;
    config.step_s = 300.0;
    config.seed = seed;
    config.hysteresis_margin = 0.05;
    config.device_qps = 1.0;
    config.trace.mean_mbps = kTuMbps;
    config.metric = lens::runtime::OptimizeFor::kLatency;
    if (!three_tier) {
      plan = lens::core::DeploymentEvaluator(edge, radio).compile(lens::dnn::alexnet());
      hop_tu = {kTuMbps};
      return;
    }
    const lens::perf::RooflinePredictor fog = train_predictor(lens::perf::datacenter_gpu());
    lens::core::EdgeFogCloudConfig topo;
    topo.radio = radio;
    plan = lens::core::DeploymentEvaluator(lens::core::edge_fog_cloud(edge, fog, nullptr, topo))
               .compile(lens::dnn::vgg16());
    hop_tu = {kTuMbps, 10.0 * kTuMbps};
    config.device_qps = 0.25;
    config.sla_ms = 300.0;
    config.num_regions = 8;
    config.fog = lens::cloud::fog_site_defaults(4);
    lens::cloud::CloudConfig cloud;
    cloud.machines = 64;
    config.cloud = cloud;
    config.cloud_faults.seed = static_cast<unsigned>(seed);
    // bench_fleet's per-device rates.
    config.faults.link_outage_rate_hz = 1.0 / 3600.0;
    config.faults.link_outage_mean_s = 120.0;
    config.faults.cloud_outage_rate_hz = 1.0 / 7200.0;
    config.faults.cloud_outage_mean_s = 180.0;
    config.region_faults.backhaul_brownout_rate_hz = 1.0 / 1800.0;
    config.region_faults.backhaul_brownout_mean_s = 900.0;
    config.region_faults.backhaul_outage_rate_hz = 1.0 / 7200.0;
    config.region_faults.backhaul_outage_mean_s = 600.0;
    config.region_faults.fog_failure_rate_hz = 1.0 / 3600.0;
    config.region_faults.fog_failure_mean_s = 900.0;
  }

  lens::fleet::FleetEngine engine(const lens::fleet::FleetConfig& c) const {
    return three_tier ? lens::fleet::FleetEngine(plan, hop_tu, c)
                      : lens::fleet::FleetEngine(plan, c);
  }

  /// The same configuration cut to one step, every fault horizon pinned to
  /// the full run's so the same schedules are generated.
  lens::fleet::FleetConfig first_step() const {
    lens::fleet::FleetConfig c = config;
    const double horizon = static_cast<double>(config.steps) * config.step_s;
    c.steps = 1;
    c.faults.horizon_s = horizon;
    c.cloud_faults.horizon_s = horizon;
    c.region_faults.horizon_s = horizon;
    return c;
  }
};

/// Output checks of one run: every device-step lands in the latency
/// histogram once, and each step's offered load is admitted plus shed.
void check_stats(const lens::fleet::FleetStats& stats) {
  std::uint64_t mass = 0;
  for (const std::uint64_t b : stats.latency_histogram) mass += b;
  const std::uint64_t want = static_cast<std::uint64_t>(stats.devices) * stats.steps;
  check("fleet.histogram_mass", mass == want,
        std::to_string(mass) + " of " + std::to_string(want) + " device-steps");
  bool balanced = stats.offered_qps.size() == stats.steps &&
                  stats.cloud_qps.size() == stats.steps && stats.shed_qps.size() == stats.steps;
  for (std::size_t s = 0; balanced && s < stats.steps; ++s) {
    const double sum = stats.cloud_qps[s] + stats.shed_qps[s];
    balanced = std::abs(stats.offered_qps[s] - sum) <= 1e-9 * std::max(1.0, sum);
  }
  check("fleet.offered_is_admitted_plus_shed", balanced);
  check("fleet.latency_finite",
        std::isfinite(stats.mean_latency_ms) && std::isfinite(stats.mean_energy_mj));
}

/// Replays the public kernels FleetEngine::run calls, over the run's own
/// device count, chunking and step count, each under its own span.
void replay_kernels(const FleetRig& rig, const lens::fleet::FleetStats& stats, Tracer& tracer) {
  const lens::fleet::FleetConfig& c = rig.config;
  const std::size_t n = c.devices;
  const std::size_t chunks = lens::fleet::FleetEngine::num_chunks(n);
  const std::vector<lens::comm::CostCurve> lat =
      rig.three_tier ? rig.plan.collapsed_latency_curves(0, rig.hop_tu)
                     : rig.plan.latency_curves();
  const std::vector<lens::comm::CostCurve> energy =
      rig.three_tier ? rig.plan.collapsed_energy_curves(0, rig.hop_tu)
                     : rig.plan.energy_curves();
  const std::vector<lens::runtime::DominanceInterval> intervals =
      lens::runtime::dominance_intervals(lat, c.tu_min, c.tu_max);
  const lens::comm::TraceGenerator gen(c.trace);
  const Scope root(tracer, "fleet.replay");

  std::vector<lens::comm::FleetTraceState> states(n);
  {
    const Scope span(tracer, "comm.start_state");
    for (std::size_t i = 0; i < n; ++i) {
      states[i] = gen.start_state(lens::par::SplitMix64(lens::par::substream_seed(c.seed, i)));
    }
  }

  const std::size_t regions = rig.three_tier ? c.num_regions : 0;
  std::vector<lens::sim::FaultInjector> region_inj(regions);
  {
    const Scope span(tracer, "sim.fault_gen");
    const double horizon = static_cast<double>(c.steps) * c.step_s;
    std::uint64_t episodes = 0;
    if (c.faults.any_enabled()) {
      lens::sim::FaultScheduleConfig f = c.faults;
      f.horizon_s = horizon;
      for (std::size_t d = 0; d < n; ++d) {
        episodes += lens::sim::FaultSchedule::generate_for_device(f, c.seed, d).episodes().size();
      }
    }
    if (c.region_faults.any_enabled()) {
      lens::sim::FaultScheduleConfig f = c.region_faults;
      f.horizon_s = horizon;
      for (std::size_t r = 0; r < regions; ++r) {
        region_inj[r] = lens::sim::FaultInjector(
            lens::sim::FaultSchedule::generate_for_region(f, c.seed, r));
        episodes += region_inj[r].schedule().episodes().size();
      }
    }
    counter("sim.fault_episodes", static_cast<double>(episodes));
  }

  std::vector<double> tu(n, 0.0), estimate(n, 0.0), eff(n, 0.0);
  std::vector<std::uint32_t> samples(n, 0), outages(n, 0);
  std::vector<std::uint32_t> option(
      n, static_cast<std::uint32_t>(lens::runtime::select_option(intervals, c.trace.mean_mbps)));
  std::vector<lens::core::PricedObjectives> priced(rig.three_tier ? 0 : n);
  std::optional<lens::cloud::CloudScheduler> cloud;
  if (c.cloud) cloud.emplace(*c.cloud);
  std::optional<lens::cloud::CloudScheduler> fog;
  if (c.fog) fog.emplace(*c.fog);
  std::vector<std::vector<lens::comm::CostCurve>> region_lat(regions);
  std::vector<double> pin = rig.hop_tu;
  double cloud_job_ms = 0.0;
  double fog_job_ms = 0.0;
  for (const lens::core::DeploymentOption& o : rig.plan.options()) {
    cloud_job_ms = std::max(cloud_job_ms, o.tier_latency_ms.back());
    if (o.tier_latency_ms.size() > 2) fog_job_ms = std::max(fog_job_ms, o.tier_latency_ms[1]);
  }
  std::size_t collapses = 0;
  std::size_t placements = 0;
  double sink = 0.0;

  for (std::size_t s = 0; s < c.steps; ++s) {
    const double t = static_cast<double>(s) * c.step_s;
    std::vector<const std::vector<lens::comm::CostCurve>*> region_curves(regions, &lat);
    for (std::size_t r = 0; r < regions; ++r) {
      const double factor = region_inj[r].backhaul_factor(t, 1);
      if (factor == 1.0) continue;
      pin[1] = rig.hop_tu[1] * factor;
      const Scope span(tracer, "core.collapse");
      rig.plan.collapse_latency_curves_into(0, pin, region_lat[r]);
      region_curves[r] = &region_lat[r];
      ++collapses;
    }
    {
      const Scope span(tracer, "comm.trace_step");
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        const auto [begin, end] = lens::par::chunk_range(n, chunks, ch);
        gen.step_batch(&states[begin], end - begin, &tu[begin]);
      }
    }
    {
      const Scope span(tracer, "runtime.tracker");
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        const auto [begin, end] = lens::par::chunk_range(n, chunks, ch);
        const std::size_t len = end - begin;
        lens::runtime::tracker_update_batch(
            c.tracker, std::span<double>(estimate.data() + begin, len),
            std::span<std::uint32_t>(samples.data() + begin, len),
            std::span<std::uint32_t>(outages.data() + begin, len),
            std::span<const double>(tu.data() + begin, len));
      }
    }
    {
      const Scope span(tracer, "runtime.select");
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        const auto [begin, end] = lens::par::chunk_range(n, chunks, ch);
        const std::size_t len = end - begin;
        lens::runtime::select_batch(intervals, lat, c.tu_min, c.hysteresis_margin,
                                    std::span<const double>(estimate.data() + begin, len),
                                    std::span<std::uint32_t>(option.data() + begin, len));
      }
    }
    if (cloud || fog) {
      const Scope span(tracer, "cloud.place_step");
      if (fog) {
        for (std::size_t r = 0; r < regions; ++r) {
          sink += fog->place_step(stats.regions[r].fog_offered_qps, fog_job_ms,
                                  region_inj[r].fog_failure_fraction(t), 1.0)
                      .admitted_qps;
          ++placements;
        }
      }
      if (cloud) {
        sink += cloud->place_step(stats.offered_qps[s], cloud_job_ms).admitted_qps;
        ++placements;
      }
    }
    {
      const Scope span(tracer, "core.price");
      for (std::size_t i = 0; i < n; ++i) eff[i] = tu[i] > 0.0 ? tu[i] : c.tu_min;
      if (!rig.three_tier) {
        for (std::size_t ch = 0; ch < chunks; ++ch) {
          const auto [begin, end] = lens::par::chunk_range(n, chunks, ch);
          const std::size_t len = end - begin;
          rig.plan.price_batch_into(
              std::span<const double>(eff.data() + begin, len),
              std::span<lens::core::PricedObjectives>(priced.data() + begin, len));
        }
      } else {
        // The K-tier loop prices the oracle on the region's collapsed
        // curves (CostCurve::value over every option), not per-hop vectors.
        const std::size_t m = lat.size();
        for (std::size_t i = 0; i < n; ++i) {
          const std::vector<lens::comm::CostCurve>& lc = *region_curves[i % regions];
          double best_lat = lc[0].value(eff[i]);
          double best_energy = energy[0].value(eff[i]);
          for (std::size_t k = 1; k < m; ++k) {
            best_lat = std::min(best_lat, lc[k].value(eff[i]));
            best_energy = std::min(best_energy, energy[k].value(eff[i]));
          }
          sink += best_lat + best_energy;
        }
      }
    }
  }
  counter("core.collapse_calls", static_cast<double>(collapses));
  counter("cloud.place_step_calls", static_cast<double>(placements));
  check("fleet.replay_finite", std::isfinite(sink));
}

}  // namespace

int run_fleet(const Options& options) {
  const bool three_tier = options.workload == "fleet-3tier-faults";
  const std::uint64_t expected = three_tier ? kCsvDigest3Tier : kCsvDigest2Tier;
  const FleetRig rig(three_tier, options.seed);
  const lens::fleet::FleetConfig& c = rig.config;
  Line("workload")
      .str("name", options.workload)
      .str("what", three_tier ? "lens fleet --tiers 3 vgg16: 8 regions, finite fog and cloud, "
                                "per-device and regional faults"
                              : "lens fleet defaults: alexnet, two tiers, infinite cloud")
      .count("devices", c.devices)
      .count("steps", c.steps)
      .num("step_s", c.step_s)
      .num("tu_mbps", c.trace.mean_mbps)
      .num("device_qps", c.device_qps)
      .count("regions", c.num_regions)
      .count("cloud_machines", c.cloud ? c.cloud->machines : 0)
      .count("fog_machines_per_region", c.fog ? c.fog->machines : 0)
      .num("sla_ms", c.sla_ms)
      .count("chunks", lens::fleet::FleetEngine::num_chunks(c.devices))
      .count("seed", options.seed)
      .str("unit", "device-steps");

  // Time to the first step: construction plus a one-step run.
  const auto setup = [&] {
    setup_blocks(1, 0.0, [&] {
      const FleetRig fresh(three_tier, options.seed);
      lens::fleet::FleetEngine engine = fresh.engine(fresh.first_step());
      check_stats(engine.run());
    });
  };

  lens::fleet::FleetEngine engine = rig.engine(c);
  const double units = static_cast<double>(c.devices) * static_cast<double>(c.steps);
  std::optional<lens::fleet::FleetStats> reference;
  const auto timed_run = [&] {
    const Clock::time_point start = Clock::now();
    lens::fleet::FleetStats stats = engine.run();
    const double seconds = seconds_between(start, Clock::now());
    check_stats(stats);
    if (!reference) {
      digest("fleet.csv", lens::io::fnv1a(stats.csv()), expected, options.seed);
      double offered = 0.0, admitted = 0.0, fog_offered = 0.0, fog_admitted = 0.0;
      for (std::size_t s = 0; s < stats.steps; ++s) {
        offered += stats.offered_qps[s];
        admitted += stats.cloud_qps[s];
      }
      for (const lens::fleet::FleetStats::RegionStats& r : stats.regions) {
        fog_offered += r.fog_offered_qps;
        fog_admitted += r.fog_admitted_qps;
      }
      counter("cloud.admitted_share", offered > 0.0 ? admitted / offered : 1.0);
      counter("cloud.fog_admitted_share", fog_offered > 0.0 ? fog_admitted / fog_offered : 1.0);
      counter("fleet.degraded_share", static_cast<double>(stats.degraded_steps) / units);
      // How close the hysteresis policy comes to the per-device-step oracle.
      counter("quality_share", stats.oracle_mean_latency_ms / stats.mean_latency_ms);
      reference = std::move(stats);
    } else {
      check("fleet.repeatable", stats.csv() == reference->csv());
    }
    return seconds;
  };

  if (!options.trace) {
    repeat(options.seconds, units, timed_run, setup);
    return 0;
  }

  setup();  // warms the allocator and page tables like the untraced runs
  Tracer tracer(true);
  {
    const Scope span(tracer, "perf.train");
    (void)train_predictor(lens::perf::jetson_tx2_gpu());
  }
  rep_line("untraced", false, timed_run(), units);
  double traced = 0.0;
  {
    const Scope run(tracer, "fleet.run");
    traced = timed_run();
  }
  rep_line("traced", false, traced, units);
  replay_kernels(rig, *reference, tracer);
  tracer.emit();
  return 0;
}

}  // namespace perfbench
