#pragma once
// Fleet-scale serving simulation (ROADMAP north-star: "millions of users").
//
// A FleetEngine time-steps a population of devices that all serve the same
// compiled DeploymentPlan: per step and per device it advances an AR(1)
// throughput trace, folds the reading into an EWMA tracker, re-selects the
// deployment option under hysteresis, and prices the serving cost — all via
// the batched SoA kernels of comm/runtime/core (step_batch,
// tracker_update_batch, select_batch, price_batch_into), never through
// per-device objects. Aggregates land in a FleetStats report: cloud
// offered-load / QPS per step, switching-rate histogram, p50/p99/p999
// end-to-end latency, and energy per device-hour.
//
// Determinism contract: FleetStats is bit-identical for ANY thread count.
// Devices are sharded into contiguous chunks whose boundaries depend only
// on the device count (par::chunk_range over a chunk count derived from
// n_devices alone); each chunk accumulates into its own slot; and all
// floating-point merges run serially in chunk-index order after the
// parallel section. Per-device randomness comes from
// par::substream_seed(seed, device_id) — never from shared generators — so
// device i's trajectory is a pure function of (config, i).
//
// Memory: per-device state is a few dozen bytes (par::SplitMix64 carries
// 8 bytes of RNG state instead of mt19937_64's ~2.5 KB), so a million
// devices fit in ~150 MB of flat SoA arrays.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/machine.hpp"
#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "core/plan.hpp"
#include "par/thread_pool.hpp"
#include "runtime/threshold.hpp"
#include "runtime/tracker.hpp"
#include "sim/fault.hpp"

namespace lens::fleet {

/// Latency histogram shape: log-spaced bins, kBinsPerDecade per decade
/// starting at kLatencyFloorMs. Percentiles are reported as the geometric
/// center of the bin holding the rank — deterministic by construction.
inline constexpr std::size_t kLatencyBins = 64;
inline constexpr double kLatencyFloorMs = 0.01;
inline constexpr double kLatencyBinsPerDecade = 8.0;

/// Switching histogram: switches-per-device over the whole run, bins
/// 0..kSwitchBins-2 plus one overflow bin.
inline constexpr std::size_t kSwitchBins = 17;

/// Ceiling on regional failure domains: per-(chunk, region) accumulators
/// are dense, so the region count is bounded to keep them cache-resident.
inline constexpr std::size_t kMaxRegions = 1024;

/// A scripted fault episode targeted at ONE region (the CLI's
/// --region-brownout): merged verbatim into that region's schedule only,
/// unlike FaultScheduleConfig::scripted which lands on every region.
struct RegionEpisode {
  std::uint32_t region = 0;
  sim::FaultEpisode episode;
};

/// One fleet scenario. The trace/tracker knobs are shared by every device;
/// heterogeneity comes from each device's private RNG substream.
struct FleetConfig {
  std::size_t devices = 1000;
  std::size_t steps = 64;
  double step_s = 300.0;   ///< wall seconds per step (trace sample spacing)
  std::uint64_t seed = 1;  ///< fleet seed; device i uses substream_seed(seed, i)

  /// Link-model knobs (TraceGeneratorConfig::seed is ignored — the fleet
  /// seed above roots every device's substream).
  comm::TraceGeneratorConfig trace;
  runtime::TrackerParams tracker;
  double hysteresis_margin = 0.05;
  runtime::OptimizeFor metric = runtime::OptimizeFor::kLatency;
  double tu_min = 0.05;  ///< outage clamp / analyzed floor (Mbps)
  double tu_max = 1000.0;
  double device_qps = 1.0;  ///< inference queries per second per device

  /// Per-device fault injection (rates of 0 disable a class). Only
  /// kLinkOutage on hop 0 (throughput fade) and kCloudOutage (reading
  /// forced to outage) are applied by the fleet loop. Each device derives
  /// its schedule via substream_seed(seed, device_id) — independent of
  /// sharding. horizon_s <= 0 defaults to steps * step_s.
  sim::FaultScheduleConfig faults;

  /// Finite-cloud model (std::nullopt = the paper's infinite cloud). When
  /// set, every step the cloud-reaching device-steps offer their suffixes
  /// to a cloud::CloudScheduler: the admission controller sheds the excess
  /// by a deterministic per-device priority hash (thread-count invariant),
  /// admitted devices pay the pool's queueing wait on top of their curve
  /// cost, shed devices fast-fail to the cheapest edge-only option.
  std::optional<cloud::CloudConfig> cloud;
  /// Datacenter-level fault schedule shared by the whole pool: only
  /// kMachineFailure / kRegionalBrownout rates and scripted episodes are
  /// consulted (per-device classes live in `faults`). Generated from its
  /// own seed field; horizon_s <= 0 defaults to steps * step_s.
  sim::FaultScheduleConfig cloud_faults;
  /// End-to-end latency SLA for violation accounting (0 = off).
  double sla_ms = 0.0;
  /// Circuit breaker (finite cloud only; needs an edge-only option): a
  /// device shed on this many consecutive offers trips open for
  /// breaker_open_steps plus a deterministic per-device jitter of
  /// 0..breaker_jitter_steps steps — it serves the edge fallback without
  /// offering meanwhile, then probes half-open. 0 disables.
  std::size_t breaker_failures = 3;
  std::size_t breaker_open_steps = 4;
  std::size_t breaker_jitter_steps = 3;

  // ---- regional failure domains (K-tier plans only) --------------------
  /// Devices partition into deterministic regions: region_map[i] when a map
  /// is supplied (size must equal `devices`, entries < num_regions), else
  /// device_id % num_regions. Every device of a region shares ONE backhaul
  /// fault series and ONE fog pool — that correlation is the point.
  std::size_t num_regions = 1;
  std::vector<std::uint32_t> region_map;
  /// Region-level fault schedule: only the regional classes
  /// (kBackhaulBrownout / kBackhaulOutage / kFogSiteFailure) plus scripted
  /// episodes are consulted, generated per region via
  /// FaultSchedule::generate_for_region (seed field ignored; the fleet
  /// seed roots the streams). horizon_s <= 0 defaults to steps * step_s.
  sim::FaultScheduleConfig region_faults;
  /// Scripted episodes hitting one region only (see RegionEpisode).
  std::vector<RegionEpisode> region_episodes;
  /// Finite fog-site pool (K >= 3 plans): EVERY region gets its own pool
  /// with this config; fog-tier compute must win an admission slot or shed
  /// down the tier ladder (cloud-direct if the plan allows, else the
  /// edge-only fallback), with the circuit-breaker knobs above applied to
  /// the fog hop as well. std::nullopt = the paper's infinite fog.
  std::optional<cloud::CloudConfig> fog;
};

/// Aggregate report of one fleet run. All fields are bit-identical for any
/// thread count; csv() serializes every one of them with round-trip (%.17g)
/// precision so CI can byte-diff runs.
struct FleetStats {
  std::size_t devices = 0;
  std::size_t steps = 0;
  double step_s = 0.0;

  double mean_latency_ms = 0.0;  ///< over device-steps, dynamic policy
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double p999_latency_ms = 0.0;

  double mean_energy_mj = 0.0;            ///< per inference, dynamic policy
  double energy_mj_per_device_hour = 0.0; ///< at device_qps inference load

  double mean_cloud_qps = 0.0;  ///< queries/s admitted by the cloud
  double peak_cloud_qps = 0.0;
  double mean_offered_mbps = 0.0;  ///< fleet uplink offered load
  double mean_offered_qps = 0.0;   ///< queries/s offered to the cloud

  std::uint64_t total_switches = 0;  ///< option re-stagings across the run
  double switches_per_device_hour = 0.0;
  std::uint64_t outage_readings = 0;  ///< tracker outage updates (faults)

  /// Oracle columns: per-device-step objective minima over the full option
  /// set at the realized throughput — the regret reference the dynamic
  /// tracker+hysteresis policy is compared against. A one-hop plan prices
  /// them with price_batch_into, a K-tier plan as the minimum over its
  /// region's realized curves.
  double oracle_mean_latency_ms = 0.0;
  double oracle_mean_energy_mj = 0.0;

  // ---- finite-cloud columns (all zero without FleetConfig::cloud) ----
  std::uint64_t shed = 0;  ///< device-steps rejected by admission control
  double shed_rate = 0.0;  ///< shed / offered device-steps
  std::uint64_t sla_violations = 0;  ///< device-steps beyond sla_ms
  double sla_violation_rate = 0.0;   ///< violations / device-steps
  std::uint64_t breaker_trips = 0;   ///< closed -> open transitions
  double breaker_open_time_s = 0.0;  ///< device-steps spent open * step_s
  double datacenter_energy_j = 0.0;  ///< machine-pool energy over the run
  double mean_queue_wait_ms = 0.0;   ///< admitted-weighted pool queueing wait
  double mean_machines_active = 0.0; ///< machines hosting load, mean per step

  // ---- regional / fog columns (zero or empty for a two-tier plan) ----
  std::uint64_t fog_shed = 0;        ///< device-steps shed by regional fog pools
  std::uint64_t degraded_steps = 0;  ///< device-steps served off the selected option
  double fog_energy_j = 0.0;         ///< all regional fog pools over the run

  /// Per-region breakdown, indexed by region id (empty at K=2). QPS fields
  /// are means over steps; *_s fields are device-seconds except
  /// backhaul_out_s (region wall-seconds with >= 1 backhaul hop out).
  struct RegionStats {
    double fog_offered_qps = 0.0;
    double fog_admitted_qps = 0.0;
    double fog_shed_qps = 0.0;
    double cloud_offered_qps = 0.0;
    double cloud_admitted_qps = 0.0;
    double cloud_shed_qps = 0.0;
    double degraded_device_s = 0.0;  ///< served off the selected option
    double breaker_open_s = 0.0;     ///< fog + cloud breakers held open
    double backhaul_out_s = 0.0;
    double fog_energy_j = 0.0;
    double fog_queue_wait_ms = 0.0;  ///< admitted-weighted mean
  };
  std::vector<RegionStats> regions;

  /// Per-step series. With a finite cloud, cloud_qps is the ADMITTED rate
  /// and offered = admitted + shed; without one, offered == cloud_qps and
  /// shed is identically zero.
  std::vector<double> cloud_qps;                 ///< per-step series
  std::vector<double> offered_qps;               ///< per-step series
  std::vector<double> shed_qps;                  ///< per-step series
  std::vector<std::uint64_t> switch_histogram;   ///< kSwitchBins entries
  std::vector<std::uint64_t> latency_histogram;  ///< kLatencyBins entries

  /// Deterministic "key,value" CSV (series rows keyed with their index).
  std::string csv() const;
};

/// Time-stepped fleet simulator over one compiled plan. Construction
/// precomputes the cost curves and dominance intervals; run() owns the SoA
/// device state and may be called repeatedly (each call restarts from the
/// seeded initial state and returns the same report).
class FleetEngine {
 public:
  /// Two-tier plan: selection and pricing on the radio-throughput axis (the
  /// per-hop ctor below with no backhaul to pin).
  FleetEngine(const core::DeploymentPlan& plan, FleetConfig config);

  /// K-tier plan with NOMINAL backhaul rates hop_tu_mbps[h] for hops past
  /// the radio (full per-hop vector; entry 0 is the radio-axis placeholder
  /// that selection collapses onto — its value is never read, but the
  /// vector's arity must match the plan's hop count and every entry past
  /// hop 0 must be positive; both are validated, not silently ignored).
  /// Selection runs on 1-D curves collapsed at these nominal rates;
  /// realized pricing re-collapses per (step, region) whenever a regional
  /// backhaul fault stretches a hop, and falls back to these exact curves
  /// in healthy regions.
  FleetEngine(const core::DeploymentPlan& plan, const std::vector<double>& hop_tu_mbps,
              FleetConfig config);

  /// Run on the shared global pool (par::set_max_threads / --threads).
  FleetStats run();
  /// Run on an explicit pool. Thread count never changes the report.
  FleetStats run(par::ThreadPool& pool);

  /// Deterministic shard count for `devices` (depends on nothing else).
  static std::size_t num_chunks(std::size_t devices);

  const FleetConfig& config() const { return config_; }

 private:
  class Run;  ///< one run's device state and step phases (fleet.cpp)

  void validate() const;
  /// Per-option tier/hop tables and the degradation ladder targets (best
  /// option confined to tiers 0..h, best cloud-direct option) under the
  /// selection metric at the staged trace mean.
  void build_ladder_tables();

  core::DeploymentPlan plan_;
  FleetConfig config_;
  std::vector<comm::CostCurve> latency_curves_;
  std::vector<comm::CostCurve> energy_curves_;
  std::vector<runtime::DominanceInterval> intervals_;
  /// Cheapest edge-only option under the selected metric (the shed /
  /// breaker fallback target); nullopt when every option transmits.
  std::optional<std::uint32_t> fallback_option_;

  // ---- per-hop and per-tier tables (one hop and two tiers at K=2) ------
  std::vector<double> hop_tu_;         ///< nominal per-hop rates (per-hop ctor)
  std::vector<double> fog_ms_;         ///< per option: fog-tier compute (ms)
  std::vector<double> cloud_ms_;       ///< per option: last-tier compute (ms)
  std::vector<double> radio_coeff_ms_; ///< latency surface per_inverse_tu[0]
  double radio_rtt_ms_ = 0.0;          ///< hop-0 handshake constant
  std::vector<std::uint8_t> crosses_;  ///< [opt * num_hops + h]: ships over hop h
  std::vector<std::uint8_t> occupies_cloud_;  ///< per option: last tier occupied
  /// Degradation-ladder target per hop h: the best option confined to
  /// tiers 0..h (cuts[h] == n), -1 when the plan has none.
  std::vector<std::int32_t> ladder_within_;
  /// Best cloud-occupying option with zero fog compute — where fog sheds
  /// retry when the backhaul is alive; -1 when the plan has none.
  std::int32_t cloud_direct_ = -1;
};

}  // namespace lens::fleet
