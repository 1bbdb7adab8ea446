#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "cloud/scheduler.hpp"
#include "par/parallel.hpp"
#include "par/runtime.hpp"
#include "par/substream.hpp"
#include "runtime/deployer.hpp"

namespace lens::fleet {

namespace {

/// Shard sizing: coarse enough that per-chunk dispatch is negligible, fine
/// enough that thousands of chunks load-balance any realistic pool. Both
/// constants are part of the determinism contract — the chunk count (and so
/// every float-merge order) is a function of the device count alone.
constexpr std::size_t kDevicesPerChunk = 1024;
constexpr std::size_t kMaxChunks = 4096;

std::size_t latency_bin(double ms) {
  if (!(ms > kLatencyFloorMs)) return 0;
  const double b = std::log10(ms / kLatencyFloorMs) * kLatencyBinsPerDecade;
  const auto k = static_cast<std::size_t>(b);
  return k >= kLatencyBins ? kLatencyBins - 1 : k;
}

double latency_bin_center(std::size_t k) {
  return kLatencyFloorMs *
         std::pow(10.0, (static_cast<double>(k) + 0.5) / kLatencyBinsPerDecade);
}

double percentile_from_hist(const std::vector<std::uint64_t>& hist, std::uint64_t total,
                            double q) {
  if (total == 0) return 0.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < hist.size(); ++k) {
    cum += hist[k];
    if (cum >= rank) return latency_bin_center(k);
  }
  return latency_bin_center(hist.size() - 1);
}

/// Per-device fault episodes in CSR layout (flat arrays + offsets), so the
/// hot loop touches contiguous memory. Only the classes the fleet loop
/// applies are extracted: hop-0 link fades and cloud outages.
struct FaultCsr {
  bool enabled = false;
  std::vector<std::uint64_t> link_off;  // devices + 1
  std::vector<double> link_start, link_end, link_depth;
  std::vector<std::uint64_t> cloud_off;  // devices + 1
  std::vector<double> cloud_start, cloud_end;
};

/// Episodes of one device shard, kept in device order within the shard.
struct FaultShard {
  std::vector<std::uint64_t> link_count, cloud_count;  // per device in shard
  std::vector<double> link_start, link_end, link_depth;
  std::vector<double> cloud_start, cloud_end;
};

FaultCsr build_fault_csr(const FleetConfig& config, par::ThreadPool& pool,
                         std::size_t chunks) {
  FaultCsr csr;
  if (!config.faults.any_enabled()) return csr;
  csr.enabled = true;
  sim::FaultScheduleConfig fcfg = config.faults;
  if (fcfg.horizon_s <= 0.0) {
    fcfg.horizon_s = static_cast<double>(config.steps) * config.step_s;
  }

  // Each device's schedule is a pure function of (config, seed, device id),
  // so shards generate independently; the CSR concatenation below runs
  // serially in chunk order, keeping the layout thread-count-invariant.
  std::vector<FaultShard> shards(chunks);
  par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(config.devices, chunks, c);
    FaultShard& shard = shards[c];
    shard.link_count.reserve(end - begin);
    shard.cloud_count.reserve(end - begin);
    for (std::size_t d = begin; d < end; ++d) {
      const sim::FaultSchedule schedule =
          sim::FaultSchedule::generate_for_device(fcfg, config.seed, d);
      std::uint64_t links = 0, clouds = 0;
      for (const sim::FaultEpisode& e : schedule.episodes()) {
        if (e.fault == sim::FaultClass::kLinkOutage && e.hop == 0) {
          shard.link_start.push_back(e.start_s);
          shard.link_end.push_back(e.end_s);
          shard.link_depth.push_back(e.magnitude);
          ++links;
        } else if (e.fault == sim::FaultClass::kCloudOutage) {
          shard.cloud_start.push_back(e.start_s);
          shard.cloud_end.push_back(e.end_s);
          ++clouds;
        }
      }
      shard.link_count.push_back(links);
      shard.cloud_count.push_back(clouds);
    }
  });

  csr.link_off.reserve(config.devices + 1);
  csr.cloud_off.reserve(config.devices + 1);
  csr.link_off.push_back(0);
  csr.cloud_off.push_back(0);
  for (const FaultShard& shard : shards) {
    for (std::size_t i = 0; i < shard.link_count.size(); ++i) {
      csr.link_off.push_back(csr.link_off.back() + shard.link_count[i]);
      csr.cloud_off.push_back(csr.cloud_off.back() + shard.cloud_count[i]);
    }
    csr.link_start.insert(csr.link_start.end(), shard.link_start.begin(),
                          shard.link_start.end());
    csr.link_end.insert(csr.link_end.end(), shard.link_end.begin(),
                        shard.link_end.end());
    csr.link_depth.insert(csr.link_depth.end(), shard.link_depth.begin(),
                          shard.link_depth.end());
    csr.cloud_start.insert(csr.cloud_start.end(), shard.cloud_start.begin(),
                           shard.cloud_start.end());
    csr.cloud_end.insert(csr.cloud_end.end(), shard.cloud_end.begin(),
                         shard.cloud_end.end());
  }
  return csr;
}

/// Per-chunk accumulators of the offer pass (pass A): what the chunk's
/// devices want from the cloud this step, before admission control.
struct OfferAccum {
  std::uint64_t offered = 0;   // devices offering a suffix this step
  double job_ms_sum = 0.0;     // their summed suffix cost (layer-ms)
};

/// Device flags of the regional K-tier step (dev_flags SoA array).
constexpr std::uint8_t kFlagFogOffered = 1;   // offered its fog suffix
constexpr std::uint8_t kFlagFogAdmitted = 2;  // fog pool admitted it
constexpr std::uint8_t kFlagFogShed = 4;      // fog shed it AND it degraded
constexpr std::uint8_t kFlagFogOpen = 8;      // fog breaker held it open

/// Per-(chunk, region) accumulators of the regional path (racc[c * R + r]),
/// merged serially in (region, chunk) order.
struct RegionAccum {
  std::uint64_t fog_offered = 0;
  double fog_job_ms = 0.0;
  std::uint64_t fog_admitted = 0;
  std::uint64_t fog_shed = 0;
  std::uint64_t cloud_admitted = 0;
  std::uint64_t cloud_shed = 0;
  std::uint64_t degraded = 0;      // served off the hysteresis selection
  std::uint64_t breaker_open = 0;  // fog + cloud breaker device-steps open
};

/// Run-long per-region totals (serial accumulation only).
struct RegionTotals {
  std::uint64_t fog_offered = 0;
  std::uint64_t fog_admitted = 0;
  std::uint64_t fog_shed = 0;
  std::uint64_t cloud_admitted = 0;
  std::uint64_t cloud_shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t breaker_open = 0;
  std::uint64_t backhaul_out_steps = 0;
  double fog_energy_j = 0.0;
  double fog_wait_weighted_ms = 0.0;
};

/// Per-chunk float/int accumulators of the accounting pass (pass B),
/// merged serially in chunk order.
struct ChunkAccum {
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  double offered_bits = 0.0;  // uplink bits per query, summed over devices
  double oracle_latency_ms = 0.0;
  double oracle_energy_mj = 0.0;
  std::uint64_t cloud_devices = 0;
  std::uint64_t switches = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t sla_violations = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_open_steps = 0;  // device-steps served open
};

/// Cheapest edge-only option under the selection curves (constant in tu,
/// so any throughput prices it) — the shed / breaker fallback target.
std::optional<std::uint32_t> cheapest_edge_only(
    const std::vector<core::DeploymentOption>& options,
    const std::vector<comm::CostCurve>& sel) {
  std::optional<std::uint32_t> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (options[i].tx_bytes != 0) continue;
    const double cost = sel[i].value(1.0);
    if (cost < best_cost) {
      best_cost = cost;
      best = static_cast<std::uint32_t>(i);
    }
  }
  return best;
}

/// Admission threshold on the top 32 bits of a device's priority hash:
/// a device offers successfully iff (key >> 32) < threshold. fraction 1
/// maps to 2^32, above every 32-bit value — everyone admitted.
std::uint64_t admit_threshold(double fraction) {
  if (fraction >= 1.0) return 1ull << 32;
  if (fraction <= 0.0) return 0;
  return static_cast<std::uint64_t>(fraction * 4294967296.0);
}

void append_row(std::string& out, const char* key, long long index, double value) {
  char buf[96];
  if (index < 0) {
    std::snprintf(buf, sizeof buf, "%s,,%.17g\n", key, value);
  } else {
    std::snprintf(buf, sizeof buf, "%s,%lld,%.17g\n", key, index, value);
  }
  out += buf;
}

void append_row(std::string& out, const char* key, long long index,
                std::uint64_t value) {
  char buf[96];
  if (index < 0) {
    std::snprintf(buf, sizeof buf, "%s,,%llu\n", key,
                  static_cast<unsigned long long>(value));
  } else {
    std::snprintf(buf, sizeof buf, "%s,%lld,%llu\n", key, index,
                  static_cast<unsigned long long>(value));
  }
  out += buf;
}

}  // namespace

std::string FleetStats::csv() const {
  std::string out = "key,index,value\n";
  append_row(out, "devices", -1, static_cast<std::uint64_t>(devices));
  append_row(out, "steps", -1, static_cast<std::uint64_t>(steps));
  append_row(out, "step_s", -1, step_s);
  append_row(out, "mean_latency_ms", -1, mean_latency_ms);
  append_row(out, "p50_latency_ms", -1, p50_latency_ms);
  append_row(out, "p99_latency_ms", -1, p99_latency_ms);
  append_row(out, "p999_latency_ms", -1, p999_latency_ms);
  append_row(out, "mean_energy_mj", -1, mean_energy_mj);
  append_row(out, "energy_mj_per_device_hour", -1, energy_mj_per_device_hour);
  append_row(out, "mean_cloud_qps", -1, mean_cloud_qps);
  append_row(out, "peak_cloud_qps", -1, peak_cloud_qps);
  append_row(out, "mean_offered_mbps", -1, mean_offered_mbps);
  append_row(out, "total_switches", -1, total_switches);
  append_row(out, "switches_per_device_hour", -1, switches_per_device_hour);
  append_row(out, "outage_readings", -1, outage_readings);
  append_row(out, "oracle_mean_latency_ms", -1, oracle_mean_latency_ms);
  append_row(out, "oracle_mean_energy_mj", -1, oracle_mean_energy_mj);
  append_row(out, "mean_offered_qps", -1, mean_offered_qps);
  append_row(out, "shed", -1, shed);
  append_row(out, "shed_rate", -1, shed_rate);
  append_row(out, "sla_violations", -1, sla_violations);
  append_row(out, "sla_violation_rate", -1, sla_violation_rate);
  append_row(out, "breaker_trips", -1, breaker_trips);
  append_row(out, "breaker_open_time_s", -1, breaker_open_time_s);
  append_row(out, "datacenter_energy_j", -1, datacenter_energy_j);
  append_row(out, "mean_queue_wait_ms", -1, mean_queue_wait_ms);
  append_row(out, "mean_machines_active", -1, mean_machines_active);
  append_row(out, "fog_shed", -1, fog_shed);
  append_row(out, "degraded_steps", -1, degraded_steps);
  append_row(out, "fog_energy_j", -1, fog_energy_j);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const auto idx = static_cast<long long>(r);
    append_row(out, "region_fog_offered_qps", idx, regions[r].fog_offered_qps);
    append_row(out, "region_fog_admitted_qps", idx, regions[r].fog_admitted_qps);
    append_row(out, "region_fog_shed_qps", idx, regions[r].fog_shed_qps);
    append_row(out, "region_cloud_offered_qps", idx, regions[r].cloud_offered_qps);
    append_row(out, "region_cloud_admitted_qps", idx, regions[r].cloud_admitted_qps);
    append_row(out, "region_cloud_shed_qps", idx, regions[r].cloud_shed_qps);
    append_row(out, "region_degraded_device_s", idx, regions[r].degraded_device_s);
    append_row(out, "region_breaker_open_s", idx, regions[r].breaker_open_s);
    append_row(out, "region_backhaul_out_s", idx, regions[r].backhaul_out_s);
    append_row(out, "region_fog_energy_j", idx, regions[r].fog_energy_j);
    append_row(out, "region_fog_queue_wait_ms", idx, regions[r].fog_queue_wait_ms);
  }
  for (std::size_t i = 0; i < cloud_qps.size(); ++i) {
    append_row(out, "cloud_qps", static_cast<long long>(i), cloud_qps[i]);
  }
  for (std::size_t i = 0; i < offered_qps.size(); ++i) {
    append_row(out, "offered_qps", static_cast<long long>(i), offered_qps[i]);
  }
  for (std::size_t i = 0; i < shed_qps.size(); ++i) {
    append_row(out, "shed_qps", static_cast<long long>(i), shed_qps[i]);
  }
  for (std::size_t i = 0; i < switch_histogram.size(); ++i) {
    append_row(out, "switch_hist", static_cast<long long>(i), switch_histogram[i]);
  }
  for (std::size_t i = 0; i < latency_histogram.size(); ++i) {
    append_row(out, "latency_hist", static_cast<long long>(i), latency_histogram[i]);
  }
  return out;
}

std::size_t FleetEngine::num_chunks(std::size_t devices) {
  const std::size_t chunks = devices / kDevicesPerChunk;
  return std::clamp<std::size_t>(chunks, 1, kMaxChunks);
}

void FleetEngine::validate() const {
  if (plan_.num_options() == 0) throw std::invalid_argument("FleetEngine: empty plan");
  if (config_.devices == 0) throw std::invalid_argument("FleetEngine: devices must be > 0");
  if (config_.steps == 0) throw std::invalid_argument("FleetEngine: steps must be > 0");
  // Range checks are written so that NaN fails them.
  const double inf = std::numeric_limits<double>::infinity();
  if (!(config_.step_s > 0.0 && config_.step_s < inf)) {
    throw std::invalid_argument("FleetEngine: step_s must be finite and > 0");
  }
  if (!(config_.device_qps > 0.0 && config_.device_qps < inf)) {
    throw std::invalid_argument("FleetEngine: device_qps must be finite and > 0");
  }
  if (!(config_.hysteresis_margin >= 0.0 && config_.hysteresis_margin < inf)) {
    throw std::invalid_argument("FleetEngine: hysteresis_margin must be finite and >= 0");
  }
  if (!(config_.tu_min > 0.0 && config_.tu_max > config_.tu_min && config_.tu_max < inf)) {
    throw std::invalid_argument("FleetEngine: need 0 < tu_min < tu_max, both finite");
  }
  if (!(config_.sla_ms >= 0.0 && config_.sla_ms < inf)) {
    throw std::invalid_argument("FleetEngine: sla_ms must be finite and >= 0");
  }
  if (config_.cloud.has_value()) {
    cloud::MachinePool validate_pool(*config_.cloud);  // throws on bad knobs
    (void)validate_pool;
  }
  if (config_.num_regions == 0) {
    throw std::invalid_argument("FleetEngine: num_regions must be >= 1");
  }
  if (config_.num_regions > kMaxRegions) {
    throw std::invalid_argument("FleetEngine: num_regions exceeds kMaxRegions");
  }
  const bool regional_knobs =
      config_.num_regions > 1 || !config_.region_map.empty() ||
      !config_.region_episodes.empty() || config_.fog.has_value() ||
      config_.region_faults.any_enabled();
  if (two_tier_ && regional_knobs) {
    throw std::invalid_argument(
        "FleetEngine: regional failure domains need a K-tier plan "
        "(use the per-hop ctor with a 3+-tier plan)");
  }
  if (!config_.region_map.empty()) {
    if (config_.region_map.size() != config_.devices) {
      throw std::invalid_argument(
          "FleetEngine: region_map must have one entry per device");
    }
    for (std::uint32_t r : config_.region_map) {
      if (r >= config_.num_regions) {
        throw std::invalid_argument("FleetEngine: region_map entry out of range");
      }
    }
  }
  for (const RegionEpisode& re : config_.region_episodes) {
    if (re.region >= config_.num_regions) {
      throw std::invalid_argument(
          "FleetEngine: region_episodes entry targets a region out of range");
    }
  }
  if (config_.fog.has_value()) {
    cloud::MachinePool validate_fog(*config_.fog);  // throws on bad knobs
    (void)validate_fog;
  }
}

FleetEngine::FleetEngine(const core::DeploymentPlan& plan, FleetConfig config)
    : FleetEngine(plan, std::vector<double>{0.0}, std::move(config)) {}

FleetEngine::FleetEngine(const core::DeploymentPlan& plan,
                         const std::vector<double>& hop_tu_mbps, FleetConfig config)
    : plan_(plan), config_(std::move(config)), two_tier_(plan.num_hops() <= 1) {
  if (hop_tu_mbps.size() != plan_.num_hops()) {
    throw std::invalid_argument(
        "FleetEngine: hop_tu_mbps needs one entry per hop (radio first): plan has " +
        std::to_string(plan_.num_hops()) + " hop(s), got " +
        std::to_string(hop_tu_mbps.size()));
  }
  for (std::size_t h = 1; h < hop_tu_mbps.size(); ++h) {
    if (!(hop_tu_mbps[h] > 0.0) || !std::isfinite(hop_tu_mbps[h])) {
      throw std::invalid_argument(
          "FleetEngine: hop_tu_mbps entries past hop 0 (the backhauls) must be "
          "positive and finite");
    }
  }
  hop_tu_ = hop_tu_mbps;
  latency_curves_ = plan_.collapsed_latency_curves(0, hop_tu_mbps);
  energy_curves_ = plan_.collapsed_energy_curves(0, hop_tu_mbps);
  validate();
  const auto& sel = config_.metric == runtime::OptimizeFor::kLatency ? latency_curves_
                                                                     : energy_curves_;
  intervals_ = runtime::dominance_intervals(sel, config_.tu_min, config_.tu_max);
  fallback_option_ = cheapest_edge_only(plan_.options(), sel);
  if (!two_tier_) build_ladder_tables();
}

void FleetEngine::build_ladder_tables() {
  const std::vector<core::DeploymentOption>& options = plan_.options();
  const std::size_t num_hops = plan_.num_hops();
  const std::size_t num_layers = plan_.layer_latency_ms().size();
  const std::size_t m = options.size();
  fog_ms_.assign(m, 0.0);
  cloud_ms_.assign(m, 0.0);
  radio_coeff_ms_.assign(m, 0.0);
  crosses_.assign(m * num_hops, 0);
  occupies_cloud_.assign(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const core::DeploymentOption& o = options[i];
    // Option crosses hop h iff a tier past h is occupied: cuts[h] < n.
    for (std::size_t h = 0; h < num_hops; ++h) {
      crosses_[i * num_hops + h] = o.cuts[h] < num_layers ? 1 : 0;
    }
    occupies_cloud_[i] = crosses_[i * num_hops + (num_hops - 1)];
    cloud_ms_[i] = o.tier_latency_ms.back();
    for (std::size_t k = 1; k + 1 < o.tier_latency_ms.size(); ++k) {
      fog_ms_[i] += o.tier_latency_ms[k];
    }
    radio_coeff_ms_[i] = plan_.latency_surfaces()[i].per_inverse_tu[0];
  }
  radio_rtt_ms_ = plan_.hop(0).round_trip_ms();

  // Ladder targets under the selection metric at the staged trace mean —
  // the same reference throughput the boot option uses.
  const std::vector<comm::CostCurve>& sel =
      config_.metric == runtime::OptimizeFor::kLatency ? latency_curves_
                                                       : energy_curves_;
  const double ref_tu = config_.trace.mean_mbps > 0.0 ? config_.trace.mean_mbps : 1.0;
  ladder_within_.assign(num_hops, -1);
  for (std::size_t h = 0; h < num_hops; ++h) {
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (crosses_[i * num_hops + h]) continue;
      const double cost = sel[i].value(ref_tu);
      if (cost < best_cost) {
        best_cost = cost;
        ladder_within_[h] = static_cast<std::int32_t>(i);
      }
    }
  }
  double best_direct = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    if (!occupies_cloud_[i] || fog_ms_[i] != 0.0) continue;
    const double cost = sel[i].value(ref_tu);
    if (cost < best_direct) {
      best_direct = cost;
      cloud_direct_ = static_cast<std::int32_t>(i);
    }
  }
}

FleetStats FleetEngine::run() { return run(par::global_pool()); }

FleetStats FleetEngine::run(par::ThreadPool& pool) {
  const std::size_t n = config_.devices;
  const std::size_t steps = config_.steps;
  const std::size_t chunks = num_chunks(n);
  const std::size_t num_options = plan_.num_options();
  const comm::TraceGenerator gen(config_.trace);  // validates knobs; stateless use
  const runtime::TrackerParams tracker = config_.tracker;
  const std::vector<comm::CostCurve>& sel_curves =
      config_.metric == runtime::OptimizeFor::kLatency ? latency_curves_
                                                       : energy_curves_;
  const std::vector<core::DeploymentOption>& options = plan_.options();

  // --- SoA device state -----------------------------------------------
  std::vector<comm::FleetTraceState> states(n);
  std::vector<double> estimate(n, 0.0);
  std::vector<double> tu(n, 0.0);
  std::vector<double> eff(n, 0.0);
  std::vector<std::uint32_t> samples(n, 0);
  std::vector<std::uint32_t> outages(n, 0);
  std::vector<std::uint32_t> option(n, 0);
  std::vector<std::uint32_t> prev(n, 0);
  std::vector<std::uint32_t> switch_count(n, 0);
  std::vector<core::PricedObjectives> priced(two_tier_ ? n : 0);

  // Every device boots on the option that wins at the configured trace
  // mean — the deployment a fleet operator would stage before telemetry.
  const auto init_option = static_cast<std::uint32_t>(
      runtime::select_option(intervals_, config_.trace.mean_mbps));
  std::fill(option.begin(), option.end(), init_option);

  // Per-device streams rooted at substream_seed(seed, device): trajectories
  // are a pure function of (config, device id), independent of sharding.
  par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n, chunks, c);
    for (std::size_t i = begin; i < end; ++i) {
      states[i] =
          gen.start_state(par::SplitMix64(par::substream_seed(config_.seed, i)));
    }
  });

  const FaultCsr csr = build_fault_csr(config_, pool, chunks);

  // --- finite-cloud state ----------------------------------------------
  const bool cloud_on = config_.cloud.has_value();
  std::optional<cloud::CloudScheduler> cloud_sched;
  if (cloud_on) cloud_sched.emplace(*config_.cloud);
  const bool breaker_on = cloud_on && config_.breaker_failures > 0 &&
                          fallback_option_.has_value();
  // Per-device admission priority hash: a fixed key per (seed, device), so
  // shedding follows a stable deterministic priority order — the same
  // devices yield first every step, independent of sharding or threads.
  std::vector<std::uint64_t> admit_key;
  std::vector<std::uint32_t> fail_streak;
  std::vector<std::uint32_t> breaker_until;  // 0 = closed; else probe step
  if (cloud_on) {
    admit_key.resize(n);
    const std::uint64_t root = par::substream_seed(config_.seed, 0xc10d);
    par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
      const auto [begin, end] = par::chunk_range(n, chunks, c);
      for (std::size_t i = begin; i < end; ++i) {
        admit_key[i] = par::substream_seed(root, i);
      }
    });
    if (breaker_on) {
      fail_streak.assign(n, 0);
      breaker_until.assign(n, 0);
    }
  }
  // Datacenter-level faults (machine failures, brownouts): one shared
  // schedule, queried serially per step.
  sim::FaultInjector dc_faults;
  if (cloud_on && config_.cloud_faults.any_enabled()) {
    sim::FaultScheduleConfig dc_cfg = config_.cloud_faults;
    if (dc_cfg.horizon_s <= 0.0) {
      dc_cfg.horizon_s = static_cast<double>(steps) * config_.step_s;
    }
    dc_faults = sim::FaultInjector(sim::FaultSchedule::generate(dc_cfg));
  }

  // --- regional failure domains (K-tier path only) ----------------------
  // Every K-tier run flows through the regional machinery with R >= 1; a
  // healthy region prices on the EXACT nominal collapsed curves (pointer,
  // not copy), so a no-fault run is bit-identical to the retired
  // pinned-backhaul shortcut by construction.
  const std::size_t num_hops = plan_.num_hops();
  const bool regional = !two_tier_;
  const std::size_t R = regional ? config_.num_regions : 0;
  const bool fog_on = regional && config_.fog.has_value();
  std::optional<cloud::CloudScheduler> fog_sched;
  if (fog_on) fog_sched.emplace(*config_.fog);
  // The fog breaker needs a rung to fast-fail onto (cloud-direct or the
  // edge fallback), mirroring the cloud breaker's fallback requirement.
  const bool fog_breaker_on = fog_on && config_.breaker_failures > 0 &&
                              (fallback_option_.has_value() || cloud_direct_ >= 0);
  std::vector<std::uint32_t> region_of;
  std::vector<sim::FaultInjector> region_inj(R);
  std::vector<std::uint32_t> eff_opt, offered_opt;
  std::vector<std::uint8_t> dev_flags;
  std::vector<std::uint64_t> fog_key;
  std::vector<std::uint32_t> fog_streak, fog_until;
  if (regional) {
    region_of.resize(n);
    eff_opt.assign(n, 0);
    offered_opt.assign(n, 0);
    dev_flags.assign(n, 0);
    par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
      const auto [begin, end] = par::chunk_range(n, chunks, c);
      for (std::size_t i = begin; i < end; ++i) {
        region_of[i] = config_.region_map.empty()
                           ? static_cast<std::uint32_t>(i % R)
                           : config_.region_map[i];
      }
    });
    if (config_.region_faults.any_enabled() || !config_.region_episodes.empty()) {
      sim::FaultScheduleConfig rcfg = config_.region_faults;
      if (rcfg.horizon_s <= 0.0) {
        rcfg.horizon_s = static_cast<double>(steps) * config_.step_s;
      }
      for (std::size_t r = 0; r < R; ++r) {
        sim::FaultScheduleConfig cfg_r = rcfg;
        for (const RegionEpisode& re : config_.region_episodes) {
          if (re.region == static_cast<std::uint32_t>(r)) {
            cfg_r.scripted.push_back(re.episode);
          }
        }
        region_inj[r] = sim::FaultInjector(
            sim::FaultSchedule::generate_for_region(cfg_r, config_.seed, r));
      }
    }
    if (fog_on) {
      // Fog admission priority: a hash stream disjoint from the cloud's
      // admit keys, so fog and cloud never shed the same unlucky devices.
      fog_key.resize(n);
      const std::uint64_t fog_root = par::substream_seed(config_.seed, 0xf09);
      par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
        const auto [begin, end] = par::chunk_range(n, chunks, c);
        for (std::size_t i = begin; i < end; ++i) {
          fog_key[i] = par::substream_seed(fog_root, i);
        }
      });
      if (fog_breaker_on) {
        fog_streak.assign(n, 0);
        fog_until.assign(n, 0);
      }
    }
  }
  // Per-step regional backhaul state and repriced latency curves. Energy
  // surfaces never carry a backhaul coefficient (transfers past the radio
  // are not billed to the battery), so energy always prices on the base
  // curves; latency re-collapses only in regions with an active brownout.
  std::vector<std::uint8_t> hop_out(R * std::max<std::size_t>(num_hops, 1), 0);
  std::vector<std::uint8_t> region_any_out(R, 0);
  std::vector<std::vector<comm::CostCurve>> region_lat_scratch(R);
  std::vector<const std::vector<comm::CostCurve>*> region_lat(R, &latency_curves_);
  std::vector<double> pin = hop_tu_;  // reused per-region collapse pin vector
  std::vector<double> region_fog_fail(R, 0.0);
  std::vector<cloud::StepOutcome> fog_out(R);
  std::vector<std::uint64_t> fog_threshold(R, admit_threshold(1.0));
  std::vector<RegionTotals> rtot(R);

  // --- per-chunk accumulators (serial chunk-order merge) ---------------
  std::vector<ChunkAccum> acc(chunks);
  std::vector<OfferAccum> offers(chunks);
  std::vector<std::uint64_t> hist(chunks * kLatencyBins, 0);
  std::vector<RegionAccum> racc(chunks * R);

  FleetStats stats;
  stats.devices = n;
  stats.steps = steps;
  stats.step_s = config_.step_s;
  stats.cloud_qps.reserve(steps);
  stats.offered_qps.reserve(steps);
  stats.shed_qps.reserve(steps);
  std::vector<std::uint64_t> lat_hist(kLatencyBins, 0);
  double total_latency = 0.0, total_energy = 0.0, total_offered_bits = 0.0;
  double total_oracle_latency = 0.0, total_oracle_energy = 0.0;
  double dc_energy_j = 0.0, wait_weighted_ms = 0.0, machines_active_sum = 0.0;
  std::uint64_t total_offered_devsteps = 0, total_admitted = 0;
  std::uint64_t breaker_open_devsteps = 0;

  for (std::size_t s = 0; s < steps; ++s) {
    const double t = static_cast<double>(s) * config_.step_s;
    std::fill(acc.begin(), acc.end(), ChunkAccum{});
    std::fill(offers.begin(), offers.end(), OfferAccum{});
    std::fill(hist.begin(), hist.end(), 0);

    // ---- serial regional state: backhaul health + repriced curves -------
    if (regional) {
      for (std::size_t r = 0; r < R; ++r) {
        const sim::FaultInjector& inj = region_inj[r];
        bool any_out = false;
        bool any_slow = false;
        for (std::size_t h = 1; h < num_hops; ++h) {
          const bool out = inj.backhaul_unavailable(t, h);
          hop_out[r * num_hops + h] = out ? 1 : 0;
          any_out |= out;
          const double factor = inj.backhaul_factor(t, h);
          pin[h] = hop_tu_[h] * factor;
          if (factor != 1.0) any_slow = true;
        }
        region_any_out[r] = any_out ? 1 : 0;
        if (any_out) ++rtot[r].backhaul_out_steps;
        if (any_slow) {
          plan_.collapse_latency_curves_into(0, pin, region_lat_scratch[r]);
          region_lat[r] = &region_lat_scratch[r];
        } else {
          region_lat[r] = &latency_curves_;  // nominal: the exact ctor curves
        }
        region_fog_fail[r] = inj.fog_failure_fraction(t);
      }
    }

    // ---- pass A: trace, faults, tracking, selection, offer counting ----
    par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
      const auto [begin, end] = par::chunk_range(n, chunks, c);
      const std::size_t len = end - begin;

      // 1. Trace step: one AR(1) advance per device.
      gen.step_batch(&states[begin], len, &tu[begin]);

      // 2. Fault overlay: link fades scale the reading; a cloud outage
      //    turns it into an outage reading (tu = 0) — an unreachable cloud
      //    is indistinguishable from a dead link at the device.
      if (csr.enabled) {
        for (std::size_t i = begin; i < end; ++i) {
          double factor = 1.0;
          for (std::uint64_t j = csr.link_off[i]; j < csr.link_off[i + 1]; ++j) {
            if (t >= csr.link_start[j] && t < csr.link_end[j]) {
              factor = std::min(factor, csr.link_depth[j]);
            }
          }
          tu[i] *= factor;
          for (std::uint64_t j = csr.cloud_off[i]; j < csr.cloud_off[i + 1]; ++j) {
            if (t >= csr.cloud_start[j] && t < csr.cloud_end[j]) {
              tu[i] = 0.0;
              break;
            }
          }
        }
      }

      // 3. Tracker update (EWMA fold / outage decay) over the shard.
      runtime::tracker_update_batch(
          tracker, std::span<double>(estimate.data() + begin, len),
          std::span<std::uint32_t>(samples.data() + begin, len),
          std::span<std::uint32_t>(outages.data() + begin, len),
          std::span<const double>(tu.data() + begin, len));

      // 4. Hysteresis re-select on the tracked estimate (0 until the first
      //    successful sample, which select_batch clamps to the analyzed
      //    floor — the pessimistic-floor fallback of the runtime stack).
      std::copy(option.begin() + static_cast<std::ptrdiff_t>(begin),
                option.begin() + static_cast<std::ptrdiff_t>(end),
                prev.begin() + static_cast<std::ptrdiff_t>(begin));
      runtime::select_batch(intervals_, sel_curves, config_.tu_min,
                            config_.hysteresis_margin,
                            std::span<const double>(estimate.data() + begin, len),
                            std::span<std::uint32_t>(option.data() + begin, len));

      // 5. Offer counting: what this shard wants from the next tier up,
      //    before admission. Breaker-open devices sit the step out.
      if (regional) {
        // K-tier ladder, stage 1: backhaul-outage clamp (walk down to the
        // deepest tier the region can still reach), fog breaker fast-fail,
        // and fog offer counting per (chunk, region).
        RegionAccum* ra = racc.data() + c * R;
        for (std::size_t r = 0; r < R; ++r) ra[r] = RegionAccum{};
        for (std::size_t i = begin; i < end; ++i) {
          std::uint32_t o = option[i];
          std::uint8_t fl = 0;
          const std::uint32_t r = region_of[i];
          if (region_any_out[r]) {
            for (std::size_t hh = 1; hh < num_hops; ++hh) {
              if (!hop_out[r * num_hops + hh] || !crosses_[o * num_hops + hh]) {
                continue;
              }
              // The shallowest dead hop decides: confine to tiers 0..hh
              // (when the plan has such an option at all).
              if (ladder_within_[hh] >= 0) {
                o = static_cast<std::uint32_t>(ladder_within_[hh]);
              }
              break;
            }
          }
          offered_opt[i] = o;
          if (fog_on && fog_ms_[o] > 0.0) {
            const bool open = fog_breaker_on && fog_until[i] > 0 &&
                              s < static_cast<std::size_t>(fog_until[i]);
            if (open) {
              // Fog breaker open: skip the probe entirely and serve the
              // next rung — cloud-direct when the plan has one and every
              // backhaul hop is alive, else the edge fallback.
              if (cloud_direct_ >= 0 && !region_any_out[r]) {
                o = static_cast<std::uint32_t>(cloud_direct_);
              } else if (fallback_option_.has_value()) {
                o = *fallback_option_;
              }
              fl |= kFlagFogOpen;
            } else {
              fl |= kFlagFogOffered;
              ++ra[r].fog_offered;
              ra[r].fog_job_ms += fog_ms_[o];
            }
          }
          eff_opt[i] = o;
          dev_flags[i] = fl;
        }
        // Without a fog stage the central-cloud offers are final here;
        // with one they wait for pass A2 (fog sheds retry cloud-direct).
        if (cloud_on && !fog_on) {
          OfferAccum& oa = offers[c];
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t o = eff_opt[i];
            if (!occupies_cloud_[o]) continue;
            if (breaker_on && breaker_until[i] > 0 &&
                s < static_cast<std::size_t>(breaker_until[i])) {
              continue;
            }
            ++oa.offered;
            oa.job_ms_sum += cloud_ms_[o];
          }
        }
      } else if (cloud_on) {
        OfferAccum& oa = offers[c];
        for (std::size_t i = begin; i < end; ++i) {
          const core::DeploymentOption& od = options[option[i]];
          if (od.tx_bytes == 0) continue;
          if (breaker_on && breaker_until[i] > 0 &&
              s < static_cast<std::size_t>(breaker_until[i])) {
            continue;
          }
          ++oa.offered;
          oa.job_ms_sum += od.cloud_latency_ms;
        }
      }
    });

    // ---- serial fog stage: one place_step per region, then pass A2 ------
    // Admission fractions must come out of ONE serial call per region so
    // the admitted/shed split never depends on sharding; the parallel A2
    // pass then resolves each device against its region's threshold and
    // finalizes the central-cloud offers (fog sheds retry down-ladder, the
    // breaker bounding how many keep retrying).
    if (fog_on) {
      for (std::size_t r = 0; r < R; ++r) {
        std::uint64_t fog_offered_devices = 0;
        double fog_job_ms_sum = 0.0;
        for (std::size_t c = 0; c < chunks; ++c) {  // serial chunk order
          fog_offered_devices += racc[c * R + r].fog_offered;
          fog_job_ms_sum += racc[c * R + r].fog_job_ms;
        }
        const double fog_offered_qps =
            static_cast<double>(fog_offered_devices) * config_.device_qps;
        const double fog_job_ms =
            fog_offered_devices > 0
                ? fog_job_ms_sum / static_cast<double>(fog_offered_devices)
                : 0.0;
        fog_out[r] = fog_sched->place_step(fog_offered_qps, fog_job_ms,
                                           region_fog_fail[r], 1.0);
        fog_threshold[r] = admit_threshold(fog_out[r].admit_fraction);
        rtot[r].fog_energy_j += fog_out[r].power_w * config_.step_s;
      }
      par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
        const auto [begin, end] = par::chunk_range(n, chunks, c);
        RegionAccum* ra = racc.data() + c * R;
        for (std::size_t i = begin; i < end; ++i) {
          std::uint8_t fl = dev_flags[i];
          if (!(fl & kFlagFogOffered)) continue;
          const std::uint32_t r = region_of[i];
          if ((fog_key[i] >> 32) < fog_threshold[r]) {
            fl |= kFlagFogAdmitted;
            ++ra[r].fog_admitted;
            if (fog_breaker_on) {
              fog_streak[i] = 0;
              fog_until[i] = 0;  // closed (or a probe that succeeded)
            }
          } else {
            ++ra[r].fog_shed;
            // Shed by the fog site: retry down the ladder. The aborted
            // radio leg is billed in pass B off offered_opt.
            std::uint32_t down = eff_opt[i];
            if (cloud_direct_ >= 0 && !region_any_out[r]) {
              down = static_cast<std::uint32_t>(cloud_direct_);
            } else if (fallback_option_.has_value()) {
              down = *fallback_option_;
            }
            if (down != eff_opt[i]) {
              eff_opt[i] = down;
              fl |= kFlagFogShed;
            }
            if (fog_breaker_on) {
              const bool probing = fog_until[i] > 0;  // s >= until here
              if (probing || ++fog_streak[i] >= config_.breaker_failures) {
                const auto jitter = static_cast<std::size_t>(
                    fog_key[i] %
                    static_cast<std::uint64_t>(config_.breaker_jitter_steps + 1));
                fog_until[i] = static_cast<std::uint32_t>(
                    s + 1 + config_.breaker_open_steps + jitter);
                if (!probing) {
                  ++acc[c].breaker_trips;
                  fog_streak[i] = 0;
                }
              }
            }
          }
          dev_flags[i] = fl;
        }
        if (cloud_on) {
          OfferAccum& oa = offers[c];
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t o = eff_opt[i];
            if (!occupies_cloud_[o]) continue;
            if (breaker_on && breaker_until[i] > 0 &&
                s < static_cast<std::size_t>(breaker_until[i])) {
              continue;
            }
            ++oa.offered;
            oa.job_ms_sum += cloud_ms_[o];
          }
        }
      });
    }

    // ---- serial scheduler step: admission fraction for the whole fleet --
    // One place_step call per step, outside the parallel section, so the
    // admitted/shed split and the queueing feedback are identical at any
    // thread count.
    cloud::StepOutcome outcome;
    std::uint64_t threshold = admit_threshold(1.0);
    if (cloud_on) {
      std::uint64_t offered_devices = 0;
      double job_ms_sum = 0.0;
      for (std::size_t c = 0; c < chunks; ++c) {  // serial chunk-order merge
        offered_devices += offers[c].offered;
        job_ms_sum += offers[c].job_ms_sum;
      }
      const double offered_qps_step =
          static_cast<double>(offered_devices) * config_.device_qps;
      const double job_ms =
          offered_devices > 0 ? job_ms_sum / static_cast<double>(offered_devices)
                              : 0.0;
      outcome = cloud_sched->place_step(offered_qps_step, job_ms,
                                        dc_faults.machine_failure_fraction(t),
                                        dc_faults.brownout_factor(t));
      threshold = admit_threshold(outcome.admit_fraction);
    }

    // ---- pass B: admission, breaker ladder, pricing, accounting --------
    par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
      const auto [begin, end] = par::chunk_range(n, chunks, c);
      const std::size_t len = end - begin;

      // Price the realized link state: serving costs at the actual
      // throughput (outage clamped to the floor), plus the full-option-
      // set oracle via the allocation-free batch pricer.
      for (std::size_t i = begin; i < end; ++i) {
        eff[i] = tu[i] > 0.0 ? tu[i] : config_.tu_min;
      }
      if (two_tier_) {
        plan_.price_batch_into(std::span<const double>(eff.data() + begin, len),
                               std::span<core::PricedObjectives>(priced.data() + begin, len));
      }

      ChunkAccum& a = acc[c];
      std::uint64_t* h = hist.data() + c * kLatencyBins;
      if (two_tier_) {
        for (std::size_t i = begin; i < end; ++i) {
          if (option[i] != prev[i]) {
            ++a.switches;
            ++switch_count[i];
          }
          const std::uint32_t o = option[i];
          double lat = latency_curves_[o].value(eff[i]);
          double energy = energy_curves_[o].value(eff[i]);
          const core::DeploymentOption& od = options[o];
          if (od.tx_bytes > 0) {
            ++a.cloud_devices;
            a.offered_bits += static_cast<double>(od.tx_bytes) * 8.0;
          }
          if (cloud_on && od.tx_bytes > 0) {
            const bool open = breaker_on && breaker_until[i] > 0 &&
                              s < static_cast<std::size_t>(breaker_until[i]);
            if (open) {
              // Breaker open: fast-fail straight to the edge fallback — no
              // transmit, no offer, no reject round trip.
              const std::uint32_t fb = *fallback_option_;
              lat = latency_curves_[fb].value(eff[i]);
              energy = energy_curves_[fb].value(eff[i]);
              ++a.breaker_open_steps;
            } else if ((admit_key[i] >> 32) < threshold) {
              lat += outcome.mean_wait_ms;  // queueing feedback into RTT
              ++a.admitted;
              if (breaker_on) {
                fail_streak[i] = 0;
                breaker_until[i] = 0;  // closed (or a probe that succeeded)
              }
            } else {
              ++a.shed;
              // Shed: everything but the cloud suffix happened (prefix,
              // transmit, the reject's round trip is the curve's RTT term),
              // then the full model re-runs on the edge fallback.
              if (fallback_option_.has_value()) {
                const std::uint32_t fb = *fallback_option_;
                lat += latency_curves_[fb].value(eff[i]) - od.cloud_latency_ms;
                energy += energy_curves_[fb].value(eff[i]);
              }
              if (breaker_on) {
                const bool probing = breaker_until[i] > 0;  // s >= until here
                if (probing || ++fail_streak[i] >= config_.breaker_failures) {
                  const auto jitter = static_cast<std::size_t>(
                      admit_key[i] %
                      static_cast<std::uint64_t>(config_.breaker_jitter_steps + 1));
                  breaker_until[i] = static_cast<std::uint32_t>(
                      s + 1 + config_.breaker_open_steps + jitter);
                  if (!probing) {
                    ++a.breaker_trips;
                    fail_streak[i] = 0;
                  }
                }
              }
            }
          }
          a.latency_ms += lat;
          a.energy_mj += energy;
          ++h[latency_bin(lat)];
          if (config_.sla_ms > 0.0 && lat > config_.sla_ms) ++a.sla_violations;
          a.oracle_latency_ms += priced[i].best_latency_ms;
          a.oracle_energy_mj += priced[i].best_energy_mj;
        }
      } else {
        // K-tier regional accounting: price eff_opt (the tier-ladder
        // resolution of the hysteresis selection) on the REGION's realized
        // curves, then run the central-cloud admission/breaker stage.
        RegionAccum* ra = racc.data() + c * R;
        for (std::size_t i = begin; i < end; ++i) {
          if (option[i] != prev[i]) {
            ++a.switches;
            ++switch_count[i];
          }
          const std::uint8_t fl = dev_flags[i];
          std::uint32_t o = eff_opt[i];
          const std::uint32_t r = region_of[i];
          const std::vector<comm::CostCurve>& latc = *region_lat[r];
          double lat = latc[o].value(eff[i]);
          double energy = energy_curves_[o].value(eff[i]);
          if (fl & kFlagFogAdmitted) lat += fog_out[r].mean_wait_ms;
          if (options[o].tx_bytes > 0) {
            ++a.cloud_devices;
            a.offered_bits += static_cast<double>(options[o].tx_bytes) * 8.0;
          }
          if (cloud_on && occupies_cloud_[o]) {
            const bool open = breaker_on && breaker_until[i] > 0 &&
                              s < static_cast<std::size_t>(breaker_until[i]);
            if (open) {
              const std::uint32_t fb = *fallback_option_;
              lat = latc[fb].value(eff[i]);
              energy = energy_curves_[fb].value(eff[i]);
              o = fb;
              ++a.breaker_open_steps;
              ++ra[r].breaker_open;
            } else if ((admit_key[i] >> 32) < threshold) {
              lat += outcome.mean_wait_ms;
              ++a.admitted;
              ++ra[r].cloud_admitted;
              if (breaker_on) {
                fail_streak[i] = 0;
                breaker_until[i] = 0;
              }
            } else {
              ++a.shed;
              ++ra[r].cloud_shed;
              // Shed at the cloud door: everything up to the last tier ran
              // (the curve's backhaul and RTT terms), minus the unserved
              // cloud suffix, plus the edge re-execution.
              if (fallback_option_.has_value()) {
                const std::uint32_t fb = *fallback_option_;
                lat += latc[fb].value(eff[i]) - cloud_ms_[o];
                energy += energy_curves_[fb].value(eff[i]);
                o = fb;
              }
              if (breaker_on) {
                const bool probing = breaker_until[i] > 0;  // s >= until
                if (probing || ++fail_streak[i] >= config_.breaker_failures) {
                  const auto jitter = static_cast<std::size_t>(
                      admit_key[i] %
                      static_cast<std::uint64_t>(config_.breaker_jitter_steps + 1));
                  breaker_until[i] = static_cast<std::uint32_t>(
                      s + 1 + config_.breaker_open_steps + jitter);
                  if (!probing) {
                    ++a.breaker_trips;
                    fail_streak[i] = 0;
                  }
                }
              }
            }
          }
          if (fl & kFlagFogShed) {
            // The aborted fog attempt's radio leg: edge prefix, hop-0
            // transfer at the realized radio rate, and the reject's
            // handshake round trip.
            const std::uint32_t po = offered_opt[i];
            lat += options[po].edge_latency_ms + radio_coeff_ms_[po] / eff[i] +
                   radio_rtt_ms_;
            energy += energy_curves_[po].value(eff[i]);
          }
          if (fl & kFlagFogOpen) {
            ++a.breaker_open_steps;
            ++ra[r].breaker_open;
          }
          if (o != option[i]) ++ra[r].degraded;
          a.latency_ms += lat;
          a.energy_mj += energy;
          ++h[latency_bin(lat)];
          if (config_.sla_ms > 0.0 && lat > config_.sla_ms) ++a.sla_violations;
          // Oracle: min over options on the region's realized curves,
          // ascending strict-<.
          double best_lat = latc[0].value(eff[i]);
          double best_energy = energy_curves_[0].value(eff[i]);
          for (std::size_t k = 1; k < num_options; ++k) {
            const double l = latc[k].value(eff[i]);
            const double e = energy_curves_[k].value(eff[i]);
            if (l < best_lat) best_lat = l;
            if (e < best_energy) best_energy = e;
          }
          a.oracle_latency_ms += best_lat;
          a.oracle_energy_mj += best_energy;
        }
      }
    });

    // Serial merge in chunk-index order: the only float accumulation whose
    // order could depend on scheduling, pinned here for any thread count.
    double step_offered_bits = 0.0;
    std::uint64_t step_cloud = 0, step_admitted = 0, step_shed = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      total_latency += acc[c].latency_ms;
      total_energy += acc[c].energy_mj;
      total_oracle_latency += acc[c].oracle_latency_ms;
      total_oracle_energy += acc[c].oracle_energy_mj;
      step_offered_bits += acc[c].offered_bits;
      step_cloud += acc[c].cloud_devices;
      step_admitted += acc[c].admitted;
      step_shed += acc[c].shed;
      stats.total_switches += acc[c].switches;
      stats.shed += acc[c].shed;
      stats.sla_violations += acc[c].sla_violations;
      stats.breaker_trips += acc[c].breaker_trips;
      breaker_open_devsteps += acc[c].breaker_open_steps;
      for (std::size_t k = 0; k < kLatencyBins; ++k) {
        lat_hist[k] += hist[c * kLatencyBins + k];
      }
    }
    // Per-region merge, serially in (region, chunk) order. The fog wait
    // weighting needs this step's per-region admits, so it lives here.
    for (std::size_t r = 0; r < R; ++r) {
      std::uint64_t step_fog_admitted = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const RegionAccum& x = racc[c * R + r];
        rtot[r].fog_offered += x.fog_offered;
        step_fog_admitted += x.fog_admitted;
        rtot[r].fog_shed += x.fog_shed;
        rtot[r].cloud_admitted += x.cloud_admitted;
        rtot[r].cloud_shed += x.cloud_shed;
        rtot[r].degraded += x.degraded;
        rtot[r].breaker_open += x.breaker_open;
      }
      rtot[r].fog_admitted += step_fog_admitted;
      if (fog_on) {
        rtot[r].fog_wait_weighted_ms +=
            fog_out[r].mean_wait_ms * static_cast<double>(step_fog_admitted);
      }
    }
    total_offered_bits += step_offered_bits;
    if (cloud_on) {
      const std::uint64_t step_offered = step_admitted + step_shed;
      total_offered_devsteps += step_offered;
      total_admitted += step_admitted;
      stats.cloud_qps.push_back(static_cast<double>(step_admitted) *
                                config_.device_qps);
      stats.offered_qps.push_back(static_cast<double>(step_offered) *
                                  config_.device_qps);
      stats.shed_qps.push_back(static_cast<double>(step_shed) * config_.device_qps);
      dc_energy_j += outcome.power_w * config_.step_s;
      wait_weighted_ms += outcome.mean_wait_ms * static_cast<double>(step_admitted);
      machines_active_sum += static_cast<double>(outcome.machines_active);
    } else {
      const double qps = static_cast<double>(step_cloud) * config_.device_qps;
      total_offered_devsteps += step_cloud;
      total_admitted += step_cloud;
      stats.cloud_qps.push_back(qps);
      stats.offered_qps.push_back(qps);
      stats.shed_qps.push_back(0.0);
    }
  }

  // --- report -----------------------------------------------------------
  const double device_steps = static_cast<double>(n) * static_cast<double>(steps);
  const double device_hours =
      device_steps * config_.step_s / 3600.0;  // each step is step_s of wall time
  stats.mean_latency_ms = total_latency / device_steps;
  stats.mean_energy_mj = total_energy / device_steps;
  // Every device-step serves device_qps * step_s inferences at its priced
  // per-inference energy.
  stats.energy_mj_per_device_hour =
      total_energy * config_.device_qps * config_.step_s / device_hours;
  stats.oracle_mean_latency_ms = total_oracle_latency / device_steps;
  stats.oracle_mean_energy_mj = total_oracle_energy / device_steps;
  stats.mean_offered_mbps =
      total_offered_bits * config_.device_qps / 1e6 / static_cast<double>(steps);
  double qps_sum = 0.0;
  for (double q : stats.cloud_qps) {
    qps_sum += q;
    stats.peak_cloud_qps = std::max(stats.peak_cloud_qps, q);
  }
  stats.mean_cloud_qps = qps_sum / static_cast<double>(steps);
  double offered_sum = 0.0;
  for (double q : stats.offered_qps) offered_sum += q;
  stats.mean_offered_qps = offered_sum / static_cast<double>(steps);
  if (total_offered_devsteps > 0) {
    stats.shed_rate = static_cast<double>(stats.shed) /
                      static_cast<double>(total_offered_devsteps);
  }
  stats.sla_violation_rate =
      static_cast<double>(stats.sla_violations) / device_steps;
  stats.breaker_open_time_s =
      static_cast<double>(breaker_open_devsteps) * config_.step_s;
  stats.datacenter_energy_j = dc_energy_j;
  if (total_admitted > 0) {
    stats.mean_queue_wait_ms =
        wait_weighted_ms / static_cast<double>(total_admitted);
  }
  if (cloud_on) {
    stats.mean_machines_active = machines_active_sum / static_cast<double>(steps);
  }
  stats.switches_per_device_hour =
      static_cast<double>(stats.total_switches) / device_hours;
  for (std::uint32_t o : outages) stats.outage_readings += o;
  stats.latency_histogram = lat_hist;
  const std::uint64_t total_obs = static_cast<std::uint64_t>(n) * steps;
  stats.p50_latency_ms = percentile_from_hist(lat_hist, total_obs, 0.50);
  stats.p99_latency_ms = percentile_from_hist(lat_hist, total_obs, 0.99);
  stats.p999_latency_ms = percentile_from_hist(lat_hist, total_obs, 0.999);
  stats.switch_histogram.assign(kSwitchBins, 0);
  for (std::uint32_t sc : switch_count) {
    const std::size_t bin = std::min<std::size_t>(sc, kSwitchBins - 1);
    ++stats.switch_histogram[bin];
  }
  if (regional) {
    const double steps_d = static_cast<double>(steps);
    stats.regions.resize(R);
    for (std::size_t r = 0; r < R; ++r) {
      FleetStats::RegionStats& rs = stats.regions[r];
      const RegionTotals& rt = rtot[r];
      rs.fog_offered_qps =
          static_cast<double>(rt.fog_offered) * config_.device_qps / steps_d;
      rs.fog_admitted_qps =
          static_cast<double>(rt.fog_admitted) * config_.device_qps / steps_d;
      rs.fog_shed_qps =
          static_cast<double>(rt.fog_shed) * config_.device_qps / steps_d;
      rs.cloud_offered_qps = static_cast<double>(rt.cloud_admitted + rt.cloud_shed) *
                             config_.device_qps / steps_d;
      rs.cloud_admitted_qps =
          static_cast<double>(rt.cloud_admitted) * config_.device_qps / steps_d;
      rs.cloud_shed_qps =
          static_cast<double>(rt.cloud_shed) * config_.device_qps / steps_d;
      rs.degraded_device_s = static_cast<double>(rt.degraded) * config_.step_s;
      rs.breaker_open_s = static_cast<double>(rt.breaker_open) * config_.step_s;
      rs.backhaul_out_s =
          static_cast<double>(rt.backhaul_out_steps) * config_.step_s;
      rs.fog_energy_j = rt.fog_energy_j;
      if (rt.fog_admitted > 0) {
        rs.fog_queue_wait_ms =
            rt.fog_wait_weighted_ms / static_cast<double>(rt.fog_admitted);
      }
      stats.fog_shed += rt.fog_shed;
      stats.degraded_steps += rt.degraded;
      stats.fog_energy_j += rt.fog_energy_j;
    }
  }
  return stats;
}

}  // namespace lens::fleet
