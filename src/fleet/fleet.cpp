#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "check/finite.hpp"
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

/// `faults` with a horizon_s <= 0 defaulted to the run's length.
sim::FaultScheduleConfig with_horizon(sim::FaultScheduleConfig faults,
                                      const FleetConfig& config) {
  if (faults.horizon_s <= 0.0) {
    faults.horizon_s = static_cast<double>(config.steps) * config.step_s;
  }
  return faults;
}

/// Per-chunk offers to one pool this step, before admission control.
struct OfferAccum {
  std::uint64_t offered = 0;   // devices offering a suffix this step
  double job_ms_sum = 0.0;     // their summed suffix cost (layer-ms)
};

/// Device flags of the step (dev_flags SoA array).
constexpr std::uint8_t kFlagFogOffered = 1;   // offered its fog suffix
constexpr std::uint8_t kFlagFogAdmitted = 2;  // fog pool admitted it
constexpr std::uint8_t kFlagFogShed = 4;      // fog shed it AND it degraded
constexpr std::uint8_t kFlagFogOpen = 8;      // fog breaker held it open

/// Per-(chunk, region) accumulators (racc[c * R + r]), merged serially in
/// (region, chunk) order.
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

/// Per-chunk float/int accumulators of the price-and-account phase,
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

/// Per-device circuit breaker in whole steps, one per pool (fog, cloud). A
/// device shed on `failures` consecutive offers trips open: it skips the
/// pool until step s + 1 + open_steps + a jitter of key % (jitter_steps +
/// 1), then probes half-open. A shed probe re-opens it, an admit closes it.
/// A default-constructed breaker is disabled and never opens.
class StepBreaker {
 public:
  StepBreaker() = default;
  StepBreaker(std::size_t devices, const FleetConfig& config)
      : streak_(devices, 0),
        until_(devices, 0),
        failures_(config.breaker_failures),
        open_steps_(config.breaker_open_steps),
        jitter_steps_(config.breaker_jitter_steps) {}

  bool open(std::size_t i, std::size_t s) const {
    return !until_.empty() && until_[i] > 0 && s < static_cast<std::size_t>(until_[i]);
  }
  void admitted(std::size_t i) {
    if (until_.empty()) return;
    streak_[i] = 0;
    until_[i] = 0;  // closed (or a probe that succeeded)
  }
  /// Records a shed at step s; returns 1 when it trips a closed breaker.
  std::uint64_t shed(std::size_t i, std::size_t s, std::uint64_t key) {
    if (until_.empty()) return 0;
    const bool probing = until_[i] > 0;  // s >= until here
    if (!probing && ++streak_[i] < failures_) return 0;
    const auto jitter =
        static_cast<std::size_t>(key % static_cast<std::uint64_t>(jitter_steps_ + 1));
    until_[i] = static_cast<std::uint32_t>(s + 1 + open_steps_ + jitter);
    if (probing) return 0;
    streak_[i] = 0;
    return 1;
  }

 private:
  std::vector<std::uint32_t> streak_, until_;  // until_: 0 = closed, else the probe step
  std::size_t failures_ = 0, open_steps_ = 0, jitter_steps_ = 0;
};

/// Admission threshold on the top 32 bits of a device's priority hash:
/// a device offers successfully iff (key >> 32) < threshold. fraction 1
/// maps to 2^32, above every 32-bit value — everyone admitted.
std::uint64_t admit_threshold(double fraction) {
  if (fraction >= 1.0) return 1ull << 32;
  if (fraction <= 0.0) return 0;
  return static_cast<std::uint64_t>(fraction * 4294967296.0);
}

/// One serial admission step of a pool: `offered` devices at device_qps
/// each, whose summed job cost was merged in chunk order.
cloud::StepOutcome place_offers(const cloud::CloudScheduler& pool, const OfferAccum& offers,
                                double device_qps, double failure_fraction,
                                double brownout_factor) {
  const double offered_qps = static_cast<double>(offers.offered) * device_qps;
  const double job_ms =
      offers.offered > 0 ? offers.job_ms_sum / static_cast<double>(offers.offered) : 0.0;
  return pool.place_step(offered_qps, job_ms, failure_fraction, brownout_factor);
}

/// One "key,index,value" row (index < 0 leaves the index empty); doubles
/// print with round-trip precision.
template <typename T>
void append_row(std::string& out, const char* key, long long index, T value) {
  const std::string idx = index < 0 ? "" : std::to_string(index);
  char buf[96];
  if constexpr (std::is_floating_point_v<T>) {
    std::snprintf(buf, sizeof buf, "%s,%s,%.17g\n", key, idx.c_str(), value);
  } else {
    std::snprintf(buf, sizeof buf, "%s,%s,%llu\n", key, idx.c_str(),
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
  const auto series = [&out](const char* key, const auto& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      append_row(out, key, static_cast<long long>(i), values[i]);
    }
  };
  series("cloud_qps", cloud_qps);
  series("offered_qps", offered_qps);
  series("shed_qps", shed_qps);
  series("switch_hist", switch_histogram);
  series("latency_hist", latency_histogram);
  return out;
}

std::size_t FleetEngine::num_chunks(std::size_t devices) {
  const std::size_t chunks = devices / kDevicesPerChunk;
  return std::clamp<std::size_t>(chunks, 1, kMaxChunks);
}

FaultOverlay::FaultOverlay(const FleetConfig& config, std::size_t chunks,
                           par::ThreadPool& pool)
    : devices_(config.devices),
      steps_(config.steps),
      step_s_(config.step_s),
      depth_(config.faults.link_outage_depth),
      events_(chunks),
      next_(chunks, 0),
      bits_(config.devices, 0) {
  const sim::FaultScheduleConfig faults = with_horizon(config.faults, config);
  const sim::DeviceOutageGenerator generator(faults, config.seed);
  scripted_ = sim::FaultInjector(sim::FaultSchedule(faults.scripted));
  // Each device's episodes are a pure function of (config, seed, device
  // id), so chunks build their events independently.
  par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(devices_, chunks, c);
    std::vector<std::uint64_t>& events = events_[c];
    for (const sim::DeviceEpisode& d : generator.generate(begin, end)) {
      const std::uint64_t on = first_step_at(d.episode.start_s);
      const std::uint64_t off = first_step_at(d.episode.end_s);
      if (on == off) continue;  // covers no step time of the run
      const std::uint64_t slot =
          ((d.device - begin) << 1) | (d.episode.fault == sim::FaultClass::kCloudOutage ? 1u : 0u);
      events.push_back(on << 32 | slot);
      if (off < steps_) events.push_back(off << 32 | slot);
    }
    std::sort(events.begin(), events.end());
    events.shrink_to_fit();
  });
}

std::size_t FaultOverlay::first_step_at(double x) const {
  // The estimate is within a step of the answer; the exact comparison the
  // step applies settles it.
  const double q = std::ceil(x / step_s_);
  std::size_t s = q < static_cast<double>(steps_) ? static_cast<std::size_t>(std::max(q, 0.0))
                                                  : steps_;
  while (s > 0 && static_cast<double>(s - 1) * step_s_ >= x) --s;
  while (s < steps_ && static_cast<double>(s) * step_s_ < x) ++s;
  return s;
}

void FaultOverlay::apply(std::size_t c, std::size_t s, double* tu) {
  const auto [begin, end] = par::chunk_range(devices_, events_.size(), c);
  const std::vector<std::uint64_t>& events = events_[c];
  std::size_t& next = next_[c];
  for (; next < events.size() && events[next] >> 32 <= s; ++next) {
    const std::uint64_t slot = events[next] & 0xffffffffu;
    bits_[begin + (slot >> 1)] ^= static_cast<std::uint8_t>(1u << (slot & 1));
  }
  // Link fades scale the reading; a cloud outage turns it into an outage
  // reading (tu = 0) — an unreachable cloud is indistinguishable from a
  // dead link at the device.
  double shared = 1.0;
  if (!scripted_.schedule().empty()) {
    const double t = static_cast<double>(s) * step_s_;
    if (scripted_.cloud_unavailable(t)) {
      std::fill(tu + begin, tu + end, 0.0);
      return;
    }
    shared = scripted_.link_factor(t);
  }
  const double faded = std::min(shared, depth_);
  if (shared < 1.0) {
    for (std::size_t i = begin; i < end; ++i) {
      tu[i] = bits_[i] & 2 ? 0.0 : tu[i] * (bits_[i] & 1 ? faded : shared);
    }
    return;
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (bits_[i]) tu[i] = bits_[i] & 2 ? 0.0 : tu[i] * depth_;
  }
}

void FleetEngine::validate() const {
  if (plan_.num_options() == 0) throw std::invalid_argument("FleetEngine: empty plan");
  if (config_.devices == 0) throw std::invalid_argument("FleetEngine: devices must be > 0");
  if (config_.steps == 0) throw std::invalid_argument("FleetEngine: steps must be > 0");
  // Step indices are 32-bit in the breakers and the fault events.
  if (config_.steps > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("FleetEngine: steps must be below 2^32");
  }
  if (!check::positive_finite(config_.step_s)) {
    throw std::invalid_argument("FleetEngine: step_s must be finite and > 0");
  }
  if (!check::positive_finite(config_.device_qps)) {
    throw std::invalid_argument("FleetEngine: device_qps must be finite and > 0");
  }
  if (!check::nonnegative_finite(config_.hysteresis_margin)) {
    throw std::invalid_argument("FleetEngine: hysteresis_margin must be finite and >= 0");
  }
  if (!(check::positive_finite(config_.tu_min) && check::positive_finite(config_.tu_max) &&
        config_.tu_max > config_.tu_min)) {
    throw std::invalid_argument("FleetEngine: need 0 < tu_min < tu_max, both finite");
  }
  if (!check::nonnegative_finite(config_.sla_ms)) {
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
  if (plan_.num_hops() <= 1 && regional_knobs) {
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
    sim::FaultSchedule validate_episode({re.episode});  // throws on bad knobs
    (void)validate_episode;
  }
  sim::FaultSchedule validate_scripted(config_.cloud_faults.scripted);  // throws on bad knobs
  (void)validate_scripted;
  if (config_.fog.has_value()) {
    cloud::MachinePool validate_fog(*config_.fog);  // throws on bad knobs
    (void)validate_fog;
  }
}

FleetEngine::FleetEngine(const core::DeploymentPlan& plan, FleetConfig config)
    : FleetEngine(plan, std::vector<double>{0.0}, std::move(config)) {}

FleetEngine::FleetEngine(const core::DeploymentPlan& plan,
                         const std::vector<double>& hop_tu_mbps, FleetConfig config)
    : plan_(plan), config_(std::move(config)) {
  if (hop_tu_mbps.size() != plan_.num_hops()) {
    throw std::invalid_argument(
        "FleetEngine: hop_tu_mbps needs one entry per hop (radio first): plan has " +
        std::to_string(plan_.num_hops()) + " hop(s), got " +
        std::to_string(hop_tu_mbps.size()));
  }
  for (std::size_t h = 1; h < hop_tu_mbps.size(); ++h) {
    if (!check::positive_finite(hop_tu_mbps[h])) {
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
  if (const auto edge_only = runtime::cheapest_edge_only(plan_.options(), sel)) {
    fallback_option_ = static_cast<std::uint32_t>(*edge_only);
  }
  build_ladder_tables();
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
  const auto cheapest = [&](const auto& eligible) {
    std::int32_t best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (!eligible(i)) continue;
      const double cost = sel[i].value(ref_tu);
      if (cost < best_cost) {
        best_cost = cost;
        best = static_cast<std::int32_t>(i);
      }
    }
    return best;
  };
  ladder_within_.assign(num_hops, -1);
  for (std::size_t h = 0; h < num_hops; ++h) {
    ladder_within_[h] = cheapest([&](std::size_t i) { return !crosses_[i * num_hops + h]; });
  }
  cloud_direct_ = cheapest([&](std::size_t i) { return occupies_cloud_[i] && fog_ms_[i] == 0.0; });
}

/// One run of a FleetEngine: the SoA device state, the pools' admission and
/// breaker state and the per-chunk accumulators, advanced one step at a
/// time through named phases. Every plan takes the same step: a two-tier
/// plan is one hop and one region, whose backhaul never faults and whose
/// fog stage is off.
class FleetEngine::Run {
 public:
  Run(const FleetEngine& engine, par::ThreadPool& pool);

  /// Serial: each region's backhaul health and its repriced latency curves.
  void region_health(std::size_t s);
  /// Parallel: trace, fault overlay, tracking, selection, ladder clamp, and
  /// the offers to the next tier up.
  void select_and_offer(std::size_t s);
  /// One serial place_step per regional fog pool, then every fog offer
  /// resolved against its region's threshold (no-op without fog pools).
  void fog_admission(std::size_t s);
  /// One serial place_step for the central cloud (no-op if it is infinite).
  void cloud_admission(std::size_t s);
  /// Parallel: per-device cloud admission and breaker, realized pricing,
  /// the oracle and the per-chunk accounting.
  void price_and_account(std::size_t s);
  /// Serial chunk-order merge of the step into the run totals.
  void merge();
  FleetStats report();

 private:
  std::vector<std::uint64_t> priority_keys(std::uint64_t salt) const;
  void clamp_and_offer_fog(std::size_t c, std::size_t begin, std::size_t end, std::size_t s);
  void count_cloud_offers(std::size_t c, std::size_t begin, std::size_t end, std::size_t s);
  std::uint32_t rung_below_fog(std::uint32_t r, std::uint32_t o) const;
  std::uint32_t serve_cloud(std::size_t i, std::size_t s, std::uint32_t o,
                            const std::vector<comm::CostCurve>& latc, double& lat,
                            double& energy, ChunkAccum& a, RegionAccum& ra);

  const FleetEngine& e_;
  const FleetConfig& cfg_;
  par::ThreadPool& pool_;
  const std::size_t n_;
  const std::size_t chunks_;
  const std::size_t num_hops_;
  const std::size_t R_;
  /// One hop prices its oracle with price_batch_into and reports no
  /// regional rows; the rest of the step is the same for every K.
  const bool one_hop_;
  const bool cloud_on_;
  const bool fog_on_;
  const comm::TraceGenerator gen_;  // validates knobs; stateless use
  const std::vector<comm::CostCurve>& sel_;

  // Device SoA state.
  std::vector<comm::FleetTraceState> states_;
  std::vector<double> estimate_, tu_, eff_;
  std::vector<std::uint32_t> samples_, outages_, option_, prev_, switch_count_;
  std::vector<core::PricedObjectives> priced_;  // one-hop oracle only
  std::optional<FaultOverlay> faults_;  // per-device faults, when any are on
  std::vector<std::uint32_t> region_of_;
  std::vector<std::uint32_t> offered_opt_;  // ladder-clamped, as offered to fog
  std::vector<std::uint32_t> eff_opt_;      // after fog admission
  std::vector<std::uint8_t> dev_flags_;

  // Pools: admission priority keys, breakers and fault schedules.
  std::optional<cloud::CloudScheduler> cloud_sched_, fog_sched_;
  std::vector<std::uint64_t> admit_key_, fog_key_;
  StepBreaker cloud_breaker_, fog_breaker_;
  sim::FaultInjector dc_faults_;
  std::vector<sim::FaultInjector> region_inj_;

  // Per-step regional and pool state.
  std::vector<std::uint8_t> hop_out_, region_any_out_;
  std::vector<std::vector<comm::CostCurve>> region_lat_scratch_;
  std::vector<const std::vector<comm::CostCurve>*> region_lat_;
  std::vector<double> pin_;  // reused per-region collapse pin vector
  std::vector<cloud::StepOutcome> fog_out_;
  std::vector<std::uint64_t> fog_threshold_;
  cloud::StepOutcome outcome_;
  std::uint64_t threshold_ = admit_threshold(1.0);

  // Per-chunk accumulators (serial chunk-order merge) and run totals.
  std::vector<ChunkAccum> acc_;
  std::vector<OfferAccum> offers_;
  std::vector<std::uint64_t> hist_;
  std::vector<RegionAccum> racc_;
  std::vector<RegionTotals> rtot_;
  FleetStats stats_;
  std::vector<std::uint64_t> lat_hist_;
  double total_latency_ = 0.0, total_energy_ = 0.0, total_offered_bits_ = 0.0;
  double total_oracle_latency_ = 0.0, total_oracle_energy_ = 0.0;
  double dc_energy_j_ = 0.0, wait_weighted_ms_ = 0.0, machines_active_sum_ = 0.0;
  std::uint64_t total_offered_devsteps_ = 0, total_admitted_ = 0;
  std::uint64_t breaker_open_devsteps_ = 0;
};

FleetEngine::Run::Run(const FleetEngine& engine, par::ThreadPool& pool)
    : e_(engine),
      cfg_(engine.config_),
      pool_(pool),
      n_(cfg_.devices),
      chunks_(num_chunks(n_)),
      num_hops_(engine.plan_.num_hops()),
      R_(cfg_.num_regions),
      one_hop_(num_hops_ == 1),
      cloud_on_(cfg_.cloud.has_value()),
      fog_on_(cfg_.fog.has_value()),
      gen_(cfg_.trace),
      sel_(cfg_.metric == runtime::OptimizeFor::kLatency ? engine.latency_curves_
                                                          : engine.energy_curves_) {
  states_.resize(n_);
  estimate_.assign(n_, 0.0);
  tu_.assign(n_, 0.0);
  eff_.assign(n_, 0.0);
  samples_.assign(n_, 0);
  outages_.assign(n_, 0);
  // Every device boots on the option that wins at the configured trace
  // mean — the deployment a fleet operator would stage before telemetry.
  option_.assign(n_, static_cast<std::uint32_t>(
                         runtime::select_option(e_.intervals_, cfg_.trace.mean_mbps)));
  prev_.assign(n_, 0);
  switch_count_.assign(n_, 0);
  if (one_hop_) priced_.resize(n_);
  // Per-device streams rooted at substream_seed(seed, device): trajectories
  // are a pure function of (config, device id), independent of sharding.
  par::parallel_for_chunked(pool_, chunks_, chunks_, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n_, chunks_, c);
    for (std::size_t i = begin; i < end; ++i) {
      states_[i] = gen_.start_state(par::SplitMix64(par::substream_seed(cfg_.seed, i)));
    }
  });
  if (cfg_.faults.any_enabled()) faults_.emplace(cfg_, chunks_, pool_);

  if (cloud_on_) {
    cloud_sched_.emplace(*cfg_.cloud);
    admit_key_ = priority_keys(0xc10d);
    if (cfg_.breaker_failures > 0 && e_.fallback_option_.has_value()) {
      cloud_breaker_ = StepBreaker(n_, cfg_);
    }
    // Datacenter-level faults (machine failures, brownouts): one shared
    // schedule, queried serially per step.
    if (cfg_.cloud_faults.any_enabled()) {
      dc_faults_ = sim::FaultInjector(
          sim::FaultSchedule::generate(with_horizon(cfg_.cloud_faults, cfg_)));
    }
  }

  region_of_.resize(n_);
  eff_opt_.assign(n_, 0);
  offered_opt_.assign(n_, 0);
  dev_flags_.assign(n_, 0);
  par::parallel_for_chunked(pool_, chunks_, chunks_, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n_, chunks_, c);
    for (std::size_t i = begin; i < end; ++i) {
      region_of_[i] = cfg_.region_map.empty() ? static_cast<std::uint32_t>(i % R_)
                                              : cfg_.region_map[i];
    }
  });
  region_inj_.resize(R_);
  if (cfg_.region_faults.any_enabled() || !cfg_.region_episodes.empty()) {
    const sim::FaultScheduleConfig rcfg = with_horizon(cfg_.region_faults, cfg_);
    for (std::size_t r = 0; r < R_; ++r) {
      sim::FaultScheduleConfig cfg_r = rcfg;
      for (const RegionEpisode& re : cfg_.region_episodes) {
        if (re.region == static_cast<std::uint32_t>(r)) cfg_r.scripted.push_back(re.episode);
      }
      region_inj_[r] =
          sim::FaultInjector(sim::FaultSchedule::generate_for_region(cfg_r, cfg_.seed, r));
    }
  }
  if (fog_on_) {
    fog_sched_.emplace(*cfg_.fog);
    // A hash stream disjoint from the cloud's admit keys, so fog and cloud
    // never shed the same unlucky devices.
    fog_key_ = priority_keys(0xf09);
    // The fog breaker needs a rung to fast-fail onto (cloud-direct or the
    // edge fallback), mirroring the cloud breaker's fallback requirement.
    if (cfg_.breaker_failures > 0 &&
        (e_.fallback_option_.has_value() || e_.cloud_direct_ >= 0)) {
      fog_breaker_ = StepBreaker(n_, cfg_);
    }
  }

  hop_out_.assign(R_ * num_hops_, 0);
  region_any_out_.assign(R_, 0);
  region_lat_scratch_.resize(R_);
  region_lat_.assign(R_, &e_.latency_curves_);
  pin_ = e_.hop_tu_;
  fog_out_.resize(R_);
  fog_threshold_.assign(R_, admit_threshold(1.0));
  acc_.resize(chunks_);
  offers_.resize(chunks_);
  hist_.assign(chunks_ * kLatencyBins, 0);
  racc_.resize(chunks_ * R_);
  rtot_.resize(R_);
  stats_.devices = n_;
  stats_.steps = cfg_.steps;
  stats_.step_s = cfg_.step_s;
  stats_.cloud_qps.reserve(cfg_.steps);
  stats_.offered_qps.reserve(cfg_.steps);
  stats_.shed_qps.reserve(cfg_.steps);
  lat_hist_.assign(kLatencyBins, 0);
}

/// Per-device admission priority hashes rooted at (seed, salt): a fixed key
/// per device, so shedding follows a stable priority order — the same
/// devices yield first every step, independent of sharding or threads.
std::vector<std::uint64_t> FleetEngine::Run::priority_keys(std::uint64_t salt) const {
  std::vector<std::uint64_t> keys(n_);
  const std::uint64_t root = par::substream_seed(cfg_.seed, salt);
  par::parallel_for_chunked(pool_, chunks_, chunks_, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n_, chunks_, c);
    for (std::size_t i = begin; i < end; ++i) keys[i] = par::substream_seed(root, i);
  });
  return keys;
}

void FleetEngine::Run::region_health(std::size_t s) {
  // Energy surfaces never carry a backhaul coefficient (transfers past the
  // radio are not billed to the battery), so energy always prices on the
  // base curves; latency re-collapses only in regions with a brownout. A
  // healthy region prices on the EXACT nominal curves (pointer, not copy).
  const double t = static_cast<double>(s) * cfg_.step_s;
  for (std::size_t r = 0; r < R_; ++r) {
    const sim::FaultInjector& inj = region_inj_[r];
    bool any_out = false;
    bool any_slow = false;
    for (std::size_t h = 1; h < num_hops_; ++h) {
      const bool out = inj.backhaul_unavailable(t, h);
      hop_out_[r * num_hops_ + h] = out ? 1 : 0;
      any_out |= out;
      const double factor = inj.backhaul_factor(t, h);
      pin_[h] = e_.hop_tu_[h] * factor;
      if (factor != 1.0) any_slow = true;
    }
    region_any_out_[r] = any_out ? 1 : 0;
    if (any_out) ++rtot_[r].backhaul_out_steps;
    if (any_slow) {
      e_.plan_.collapse_latency_curves_into(0, pin_, region_lat_scratch_[r]);
      region_lat_[r] = &region_lat_scratch_[r];
    } else {
      region_lat_[r] = &e_.latency_curves_;  // nominal: the exact ctor curves
    }
  }
}

void FleetEngine::Run::select_and_offer(std::size_t s) {
  par::parallel_for_chunked(pool_, chunks_, chunks_, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n_, chunks_, c);
    const std::size_t len = end - begin;

    // 1. Trace step: one AR(1) advance per device.
    gen_.step_batch(&states_[begin], len, &tu_[begin]);

    // 2. Per-device fault overlay.
    if (faults_) faults_->apply(c, s, tu_.data());

    // 3. Tracker update (EWMA fold / outage decay) over the shard.
    runtime::tracker_update_batch(
        cfg_.tracker, std::span<double>(estimate_.data() + begin, len),
        std::span<std::uint32_t>(samples_.data() + begin, len),
        std::span<std::uint32_t>(outages_.data() + begin, len),
        std::span<const double>(tu_.data() + begin, len));

    // 4. Hysteresis re-select on the tracked estimate (0 until the first
    //    successful sample, which select_batch clamps to the analyzed
    //    floor — the pessimistic-floor fallback of the runtime stack).
    std::copy(option_.begin() + static_cast<std::ptrdiff_t>(begin),
              option_.begin() + static_cast<std::ptrdiff_t>(end),
              prev_.begin() + static_cast<std::ptrdiff_t>(begin));
    runtime::select_batch(e_.intervals_, sel_, cfg_.tu_min, cfg_.hysteresis_margin,
                          std::span<const double>(estimate_.data() + begin, len),
                          std::span<std::uint32_t>(option_.data() + begin, len));

    // 5. Offers: the ladder clamp and fog offers, then the central-cloud
    //    offers — final here without a fog stage; with one they wait for
    //    fog admission, whose sheds retry cloud-direct.
    clamp_and_offer_fog(c, begin, end, s);
    if (cloud_on_ && !fog_on_) count_cloud_offers(c, begin, end, s);
  });
}

/// Tier ladder, stage 1: walk each selection down to the deepest tier its
/// region still reaches, fast-fail devices the fog breaker holds open, and
/// count the fog offers per (chunk, region).
void FleetEngine::Run::clamp_and_offer_fog(std::size_t c, std::size_t begin,
                                           std::size_t end, std::size_t s) {
  RegionAccum* ra = racc_.data() + c * R_;
  for (std::size_t r = 0; r < R_; ++r) ra[r] = RegionAccum{};
  for (std::size_t i = begin; i < end; ++i) {
    std::uint32_t o = option_[i];
    std::uint8_t fl = 0;
    const std::uint32_t r = region_of_[i];
    if (region_any_out_[r]) {
      for (std::size_t hh = 1; hh < num_hops_; ++hh) {
        if (!hop_out_[r * num_hops_ + hh] || !e_.crosses_[o * num_hops_ + hh]) continue;
        // The shallowest dead hop decides: confine to tiers 0..hh (when
        // the plan has such an option at all).
        if (e_.ladder_within_[hh] >= 0) o = static_cast<std::uint32_t>(e_.ladder_within_[hh]);
        break;
      }
    }
    offered_opt_[i] = o;
    if (fog_on_ && e_.fog_ms_[o] > 0.0) {
      if (fog_breaker_.open(i, s)) {
        o = rung_below_fog(r, o);  // skip the probe entirely
        fl |= kFlagFogOpen;
      } else {
        fl |= kFlagFogOffered;
        ++ra[r].fog_offered;
        ra[r].fog_job_ms += e_.fog_ms_[o];
      }
    }
    eff_opt_[i] = o;
    dev_flags_[i] = fl;
  }
}

/// The chunk's central-cloud offers: devices whose option occupies the
/// last tier, less those the cloud breaker holds open.
void FleetEngine::Run::count_cloud_offers(std::size_t c, std::size_t begin,
                                          std::size_t end, std::size_t s) {
  OfferAccum& oa = offers_[c];
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t o = eff_opt_[i];
    if (!e_.occupies_cloud_[o] || cloud_breaker_.open(i, s)) continue;
    ++oa.offered;
    oa.job_ms_sum += e_.cloud_ms_[o];
  }
}

/// The rung a device skips the fog tier to: cloud-direct when the plan has
/// one and every backhaul hop of region r is alive, else the edge
/// fallback, else `o` itself.
std::uint32_t FleetEngine::Run::rung_below_fog(std::uint32_t r, std::uint32_t o) const {
  if (e_.cloud_direct_ >= 0 && !region_any_out_[r]) {
    return static_cast<std::uint32_t>(e_.cloud_direct_);
  }
  return e_.fallback_option_.value_or(o);
}

void FleetEngine::Run::fog_admission(std::size_t s) {
  if (!fog_on_) return;
  // Admission fractions come out of ONE serial call per region, so the
  // admitted/shed split never depends on sharding.
  const double t = static_cast<double>(s) * cfg_.step_s;
  for (std::size_t r = 0; r < R_; ++r) {
    OfferAccum offered;
    for (std::size_t c = 0; c < chunks_; ++c) {  // serial chunk order
      offered.offered += racc_[c * R_ + r].fog_offered;
      offered.job_ms_sum += racc_[c * R_ + r].fog_job_ms;
    }
    fog_out_[r] = place_offers(*fog_sched_, offered, cfg_.device_qps,
                               region_inj_[r].fog_failure_fraction(t), 1.0);
    fog_threshold_[r] = admit_threshold(fog_out_[r].admit_fraction);
    rtot_[r].fog_energy_j += fog_out_[r].power_w * cfg_.step_s;
  }
  par::parallel_for_chunked(pool_, chunks_, chunks_, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n_, chunks_, c);
    RegionAccum* ra = racc_.data() + c * R_;
    for (std::size_t i = begin; i < end; ++i) {
      std::uint8_t fl = dev_flags_[i];
      if (!(fl & kFlagFogOffered)) continue;
      const std::uint32_t r = region_of_[i];
      if ((fog_key_[i] >> 32) < fog_threshold_[r]) {
        fl |= kFlagFogAdmitted;
        ++ra[r].fog_admitted;
        fog_breaker_.admitted(i);
      } else {
        // Shed by the fog site: retry down the ladder. The aborted radio
        // leg is billed at pricing off offered_opt.
        ++ra[r].fog_shed;
        const std::uint32_t down = rung_below_fog(r, eff_opt_[i]);
        if (down != eff_opt_[i]) {
          eff_opt_[i] = down;
          fl |= kFlagFogShed;
        }
        acc_[c].breaker_trips += fog_breaker_.shed(i, s, fog_key_[i]);
      }
      dev_flags_[i] = fl;
    }
    if (cloud_on_) count_cloud_offers(c, begin, end, s);
  });
}

void FleetEngine::Run::cloud_admission(std::size_t s) {
  if (!cloud_on_) return;
  // One place_step per step, outside the parallel section, so the
  // admitted/shed split and the queueing feedback are identical at any
  // thread count.
  const double t = static_cast<double>(s) * cfg_.step_s;
  OfferAccum offered;
  for (const OfferAccum& oa : offers_) {  // serial chunk-order merge
    offered.offered += oa.offered;
    offered.job_ms_sum += oa.job_ms_sum;
  }
  outcome_ = place_offers(*cloud_sched_, offered, cfg_.device_qps,
                          dc_faults_.machine_failure_fraction(t),
                          dc_faults_.brownout_factor(t));
  threshold_ = admit_threshold(outcome_.admit_fraction);
}

void FleetEngine::Run::price_and_account(std::size_t s) {
  const std::vector<core::DeploymentOption>& options = e_.plan_.options();
  par::parallel_for_chunked(pool_, chunks_, chunks_, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n_, chunks_, c);
    const std::size_t len = end - begin;
    // Serving costs at the realized throughput (outage clamped to the
    // floor); a one-hop oracle prices the full option set with the
    // allocation-free batch pricer.
    for (std::size_t i = begin; i < end; ++i) {
      eff_[i] = tu_[i] > 0.0 ? tu_[i] : cfg_.tu_min;
    }
    if (one_hop_) {
      e_.plan_.price_batch_into(std::span<const double>(eff_.data() + begin, len),
                                std::span<core::PricedObjectives>(priced_.data() + begin, len));
    }
    ChunkAccum& a = acc_[c];
    std::uint64_t* h = hist_.data() + c * kLatencyBins;
    RegionAccum* ra = racc_.data() + c * R_;
    for (std::size_t i = begin; i < end; ++i) {
      if (option_[i] != prev_[i]) {
        ++a.switches;
        ++switch_count_[i];
      }
      // Price eff_opt (the ladder resolution of the hysteresis selection)
      // on the REGION's realized curves.
      const std::uint8_t fl = dev_flags_[i];
      std::uint32_t o = eff_opt_[i];
      const std::uint32_t r = region_of_[i];
      const std::vector<comm::CostCurve>& latc = *region_lat_[r];
      double lat = latc[o].value(eff_[i]);
      double energy = e_.energy_curves_[o].value(eff_[i]);
      if (fl & kFlagFogAdmitted) lat += fog_out_[r].mean_wait_ms;
      if (options[o].tx_bytes > 0) {
        ++a.cloud_devices;
        a.offered_bits += static_cast<double>(options[o].tx_bytes) * 8.0;
      }
      if (cloud_on_ && e_.occupies_cloud_[o]) {
        o = serve_cloud(i, s, o, latc, lat, energy, a, ra[r]);
      }
      if (fl & kFlagFogShed) {
        // The aborted fog attempt's radio leg: edge prefix, hop-0 transfer
        // at the realized radio rate, and the reject's handshake round trip.
        const std::uint32_t po = offered_opt_[i];
        lat += options[po].edge_latency_ms + e_.radio_coeff_ms_[po] / eff_[i] +
               e_.radio_rtt_ms_;
        energy += e_.energy_curves_[po].value(eff_[i]);
      }
      if (fl & kFlagFogOpen) {
        ++a.breaker_open_steps;
        ++ra[r].breaker_open;
      }
      if (o != option_[i]) ++ra[r].degraded;
      a.latency_ms += lat;
      a.energy_mj += energy;
      ++h[latency_bin(lat)];
      if (cfg_.sla_ms > 0.0 && lat > cfg_.sla_ms) ++a.sla_violations;
      if (one_hop_) {
        a.oracle_latency_ms += priced_[i].best_latency_ms;
        a.oracle_energy_mj += priced_[i].best_energy_mj;
        continue;
      }
      // Oracle: min over options on the region's realized curves,
      // ascending strict-<.
      double best_lat = latc[0].value(eff_[i]);
      double best_energy = e_.energy_curves_[0].value(eff_[i]);
      for (std::size_t k = 1; k < options.size(); ++k) {
        const double l = latc[k].value(eff_[i]);
        const double e = e_.energy_curves_[k].value(eff_[i]);
        if (l < best_lat) best_lat = l;
        if (e < best_energy) best_energy = e;
      }
      a.oracle_latency_ms += best_lat;
      a.oracle_energy_mj += best_energy;
    }
  });
}

/// Central-cloud stage of device i, whose option o occupies the last tier.
/// Breaker open: fast-fail to the edge fallback (no transmit, no offer, no
/// reject round trip). Admitted: pay the pool's queueing wait. Shed:
/// everything up to the last tier ran (the curve's transfer and RTT
/// terms), minus the unserved cloud suffix, plus the edge re-execution.
/// Returns the option that served.
std::uint32_t FleetEngine::Run::serve_cloud(std::size_t i, std::size_t s, std::uint32_t o,
                                            const std::vector<comm::CostCurve>& latc,
                                            double& lat, double& energy, ChunkAccum& a,
                                            RegionAccum& ra) {
  if (cloud_breaker_.open(i, s)) {
    const std::uint32_t fb = *e_.fallback_option_;
    lat = latc[fb].value(eff_[i]);
    energy = e_.energy_curves_[fb].value(eff_[i]);
    ++a.breaker_open_steps;
    ++ra.breaker_open;
    return fb;
  }
  if ((admit_key_[i] >> 32) < threshold_) {
    lat += outcome_.mean_wait_ms;  // queueing feedback into RTT
    ++a.admitted;
    ++ra.cloud_admitted;
    cloud_breaker_.admitted(i);
    return o;
  }
  ++a.shed;
  ++ra.cloud_shed;
  a.breaker_trips += cloud_breaker_.shed(i, s, admit_key_[i]);
  if (!e_.fallback_option_.has_value()) return o;
  const std::uint32_t fb = *e_.fallback_option_;
  lat += latc[fb].value(eff_[i]) - e_.cloud_ms_[o];
  energy += e_.energy_curves_[fb].value(eff_[i]);
  return fb;
}

void FleetEngine::Run::merge() {
  // Serial merge in chunk-index order: the only float accumulation whose
  // order could depend on scheduling, pinned here for any thread count.
  double step_offered_bits = 0.0;
  std::uint64_t step_cloud = 0, step_admitted = 0, step_shed = 0;
  for (std::size_t c = 0; c < chunks_; ++c) {
    total_latency_ += acc_[c].latency_ms;
    total_energy_ += acc_[c].energy_mj;
    total_oracle_latency_ += acc_[c].oracle_latency_ms;
    total_oracle_energy_ += acc_[c].oracle_energy_mj;
    step_offered_bits += acc_[c].offered_bits;
    step_cloud += acc_[c].cloud_devices;
    step_admitted += acc_[c].admitted;
    step_shed += acc_[c].shed;
    stats_.total_switches += acc_[c].switches;
    stats_.shed += acc_[c].shed;
    stats_.sla_violations += acc_[c].sla_violations;
    stats_.breaker_trips += acc_[c].breaker_trips;
    breaker_open_devsteps_ += acc_[c].breaker_open_steps;
    for (std::size_t k = 0; k < kLatencyBins; ++k) {
      lat_hist_[k] += hist_[c * kLatencyBins + k];
    }
  }
  // Per-region merge, serially in (region, chunk) order. The fog wait
  // weighting needs this step's per-region admits, so it lives here.
  for (std::size_t r = 0; r < R_; ++r) {
    std::uint64_t step_fog_admitted = 0;
    for (std::size_t c = 0; c < chunks_; ++c) {
      const RegionAccum& x = racc_[c * R_ + r];
      rtot_[r].fog_offered += x.fog_offered;
      step_fog_admitted += x.fog_admitted;
      rtot_[r].fog_shed += x.fog_shed;
      rtot_[r].cloud_admitted += x.cloud_admitted;
      rtot_[r].cloud_shed += x.cloud_shed;
      rtot_[r].degraded += x.degraded;
      rtot_[r].breaker_open += x.breaker_open;
    }
    rtot_[r].fog_admitted += step_fog_admitted;
    rtot_[r].fog_wait_weighted_ms +=
        fog_out_[r].mean_wait_ms * static_cast<double>(step_fog_admitted);
  }
  total_offered_bits_ += step_offered_bits;
  if (cloud_on_) {
    const std::uint64_t step_offered = step_admitted + step_shed;
    total_offered_devsteps_ += step_offered;
    total_admitted_ += step_admitted;
    stats_.cloud_qps.push_back(static_cast<double>(step_admitted) * cfg_.device_qps);
    stats_.offered_qps.push_back(static_cast<double>(step_offered) * cfg_.device_qps);
    stats_.shed_qps.push_back(static_cast<double>(step_shed) * cfg_.device_qps);
    dc_energy_j_ += outcome_.power_w * cfg_.step_s;
    wait_weighted_ms_ += outcome_.mean_wait_ms * static_cast<double>(step_admitted);
    machines_active_sum_ += static_cast<double>(outcome_.machines_active);
  } else {
    const double qps = static_cast<double>(step_cloud) * cfg_.device_qps;
    total_offered_devsteps_ += step_cloud;
    total_admitted_ += step_cloud;
    stats_.cloud_qps.push_back(qps);
    stats_.offered_qps.push_back(qps);
    stats_.shed_qps.push_back(0.0);
  }
  std::fill(acc_.begin(), acc_.end(), ChunkAccum{});
  std::fill(offers_.begin(), offers_.end(), OfferAccum{});
  std::fill(hist_.begin(), hist_.end(), 0);
}

FleetStats FleetEngine::Run::report() {
  const double steps = static_cast<double>(cfg_.steps);
  const double device_steps = static_cast<double>(n_) * steps;
  const double device_hours =
      device_steps * cfg_.step_s / 3600.0;  // each step is step_s of wall time
  stats_.mean_latency_ms = total_latency_ / device_steps;
  stats_.mean_energy_mj = total_energy_ / device_steps;
  // Every device-step serves device_qps * step_s inferences at its priced
  // per-inference energy.
  stats_.energy_mj_per_device_hour = total_energy_ * cfg_.device_qps * cfg_.step_s / device_hours;
  stats_.oracle_mean_latency_ms = total_oracle_latency_ / device_steps;
  stats_.oracle_mean_energy_mj = total_oracle_energy_ / device_steps;
  stats_.mean_offered_mbps = total_offered_bits_ * cfg_.device_qps / 1e6 / steps;
  double qps_sum = 0.0;
  for (double q : stats_.cloud_qps) {
    qps_sum += q;
    stats_.peak_cloud_qps = std::max(stats_.peak_cloud_qps, q);
  }
  stats_.mean_cloud_qps = qps_sum / steps;
  double offered_sum = 0.0;
  for (double q : stats_.offered_qps) offered_sum += q;
  stats_.mean_offered_qps = offered_sum / steps;
  if (total_offered_devsteps_ > 0) {
    stats_.shed_rate =
        static_cast<double>(stats_.shed) / static_cast<double>(total_offered_devsteps_);
  }
  stats_.sla_violation_rate = static_cast<double>(stats_.sla_violations) / device_steps;
  stats_.breaker_open_time_s = static_cast<double>(breaker_open_devsteps_) * cfg_.step_s;
  stats_.datacenter_energy_j = dc_energy_j_;
  if (total_admitted_ > 0) {
    stats_.mean_queue_wait_ms = wait_weighted_ms_ / static_cast<double>(total_admitted_);
  }
  if (cloud_on_) {
    stats_.mean_machines_active = machines_active_sum_ / steps;
  }
  stats_.switches_per_device_hour = static_cast<double>(stats_.total_switches) / device_hours;
  for (std::uint32_t o : outages_) stats_.outage_readings += o;
  stats_.latency_histogram = lat_hist_;
  const std::uint64_t total_obs = static_cast<std::uint64_t>(n_) * cfg_.steps;
  stats_.p50_latency_ms = percentile_from_hist(lat_hist_, total_obs, 0.50);
  stats_.p99_latency_ms = percentile_from_hist(lat_hist_, total_obs, 0.99);
  stats_.p999_latency_ms = percentile_from_hist(lat_hist_, total_obs, 0.999);
  stats_.switch_histogram.assign(kSwitchBins, 0);
  for (std::uint32_t sc : switch_count_) {
    ++stats_.switch_histogram[std::min<std::size_t>(sc, kSwitchBins - 1)];
  }
  // A two-tier run reports no regional rows: its one region is the fleet.
  if (one_hop_) return std::move(stats_);
  const auto qps = [&](std::uint64_t count) {
    return static_cast<double>(count) * cfg_.device_qps / steps;
  };
  stats_.regions.resize(R_);
  for (std::size_t r = 0; r < R_; ++r) {
    FleetStats::RegionStats& rs = stats_.regions[r];
    const RegionTotals& rt = rtot_[r];
    rs.fog_offered_qps = qps(rt.fog_offered);
    rs.fog_admitted_qps = qps(rt.fog_admitted);
    rs.fog_shed_qps = qps(rt.fog_shed);
    rs.cloud_offered_qps = qps(rt.cloud_admitted + rt.cloud_shed);
    rs.cloud_admitted_qps = qps(rt.cloud_admitted);
    rs.cloud_shed_qps = qps(rt.cloud_shed);
    rs.degraded_device_s = static_cast<double>(rt.degraded) * cfg_.step_s;
    rs.breaker_open_s = static_cast<double>(rt.breaker_open) * cfg_.step_s;
    rs.backhaul_out_s = static_cast<double>(rt.backhaul_out_steps) * cfg_.step_s;
    rs.fog_energy_j = rt.fog_energy_j;
    if (rt.fog_admitted > 0) {
      rs.fog_queue_wait_ms = rt.fog_wait_weighted_ms / static_cast<double>(rt.fog_admitted);
    }
    stats_.fog_shed += rt.fog_shed;
    stats_.degraded_steps += rt.degraded;
    stats_.fog_energy_j += rt.fog_energy_j;
  }
  return std::move(stats_);
}

FleetStats FleetEngine::run() { return run(par::global_pool()); }

FleetStats FleetEngine::run(par::ThreadPool& pool) {
  Run run(*this, pool);
  for (std::size_t s = 0; s < config_.steps; ++s) {
    run.region_health(s);
    run.select_and_offer(s);
    run.fog_admission(s);
    run.cloud_admission(s);
    run.price_and_account(s);
    run.merge();
  }
  return run.report();
}

}  // namespace lens::fleet
