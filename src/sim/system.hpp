#pragma once
// Discrete-event edge-cloud system simulation (extension).
//
// The paper's evaluation costs one inference in isolation; real deployments
// serve *streams* of requests, where the edge accelerator and the radio are
// serial resources that queue. This simulator runs a Poisson request stream
// through a deployed model's options: the edge executes prefixes FIFO, the
// radio transmits FIFO at the trace's time-varying rate, the cloud finishes
// suffixes with unbounded parallelism (its latency is the option's
// cloud_latency_ms). Outputs: end-to-end latency percentiles, edge energy,
// and resource utilizations — revealing the throughput ceilings and the
// load-shedding value of partitioned deployments that single-shot analysis
// cannot see.
//
// Fault injection (SimConfig::faults): a seeded FaultSchedule overlays link
// fades, cloud-unavailability windows, RTT spikes, and edge slowdown onto
// the run. Requests whose cloud suffix lands in an unavailability window
// time out after timeout_ms, retry with exponential backoff up to
// max_retries, and finally fall back to re-execution on the cheapest
// memory-feasible edge-only option (or are dropped when none exists);
// SimStats accounts the degradation. Everything — arrivals, faults, retry
// outcomes — derives from SimConfig seeds before/within the serial event
// loop, so the same seed yields bit-identical SimStats at any thread count.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cloud/machine.hpp"
#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "runtime/threshold.hpp"
#include "sim/fault.hpp"
#include "sim/link.hpp"
#include "sim/timeline.hpp"

namespace lens::sim {

/// How requests choose their deployment option.
enum class DispatchPolicy {
  kFixed,       ///< always SimConfig::fixed_option
  kDynamic,     ///< cheapest option for the link's current throughput
  kQueueAware,  ///< earliest estimated completion given current queues
};

struct SimConfig {
  double duration_s = 600.0;        ///< arrival horizon (jobs drain afterwards)
  double arrival_rate_hz = 5.0;     ///< Poisson arrival intensity
  unsigned seed = 1;
  DispatchPolicy policy = DispatchPolicy::kFixed;
  std::size_t fixed_option = 0;
  runtime::OptimizeFor metric = runtime::OptimizeFor::kLatency;  ///< dynamic ranking
  /// Soft deadline for SLO accounting (0 = disabled): requests completing
  /// later than this are counted as violations (still served).
  double deadline_ms = 0.0;

  /// Fault injection (defaults: no faults). horizon_s == 0 derives the
  /// episode horizon from the run (2x duration_s, covering the drain).
  FaultScheduleConfig faults;
  /// K-tier plans only: nominal throughput of each hop past the radio
  /// (backhaul_tu_mbps[i] feeds hop i + 1). Required to match the plan's
  /// hop count; backhaul transfers run at these rates, stretched by any
  /// active per-hop deep-fade episode. Must be empty for two-tier plans.
  std::vector<double> backhaul_tu_mbps;
  /// Client-side timeout armed when a transmitted payload reaches an
  /// unavailable cloud: the attempt fails this many ms after send
  /// completion. Must be finite and positive.
  double timeout_ms = 500.0;
  /// Failed attempts are retried with exponential backoff (base
  /// retry_backoff_ms, doubling per attempt) up to max_retries times, then
  /// fall back to the cheapest edge-only option — or are dropped when the
  /// option set has none (e.g. the memory budget removed All-Edge).
  std::size_t max_retries = 2;
  double retry_backoff_ms = 100.0;
  /// Deterministic per-device retry jitter: each backoff delay is scaled by
  /// a factor drawn uniformly from [1 - j/2, 1 + j/2) on a substream rooted
  /// at par::substream_seed over (seed, device_id), so devices sharing an
  /// outage desynchronize instead of retrying in lockstep. 0 disables
  /// (legacy bit-identical schedule); must lie in [0, 1].
  double retry_jitter = 0.0;
  /// Identity decorrelating this device's jitter/breaker substreams from
  /// its fleet peers'.
  std::uint64_t device_id = 0;
  /// Circuit breaker: after this many consecutive failed cloud attempts
  /// (timeouts or sheds) the breaker opens — requests fast-fail to the
  /// edge-only fallback without transmitting until breaker_open_ms have
  /// passed, then a single half-open probe decides reclose vs. re-open
  /// (probe delay jittered per device like the backoff). 0 disables; the
  /// breaker also stays disabled when the option set has no edge fallback.
  std::size_t breaker_failures = 0;
  double breaker_open_ms = 2000.0;
  /// Finite-cloud model (std::nullopt = the paper's infinite cloud): the
  /// suffix of every cloud-reaching request must win a bounded machine-pool
  /// slot or be shed, and queueing + machine-speed service replace the
  /// constant cloud_latency_ms. A pool at capacity 1000 layer-ms/s with no
  /// contention reproduces the infinite-cloud timings exactly.
  std::optional<cloud::CloudConfig> cloud;
};

/// Per-request outcome.
struct RequestRecord {
  double arrival_s = 0.0;
  double completion_s = 0.0;
  std::size_t option = 0;
  double latency_ms = 0.0;
  double energy_mj = 0.0;  ///< edge compute + radio energy
  /// Degradation trail: cloud attempts that timed out, whether the request
  /// was finally served by edge re-execution, and whether it was dropped
  /// (no edge fallback available). Dropped requests still record their
  /// give-up time in completion_s / latency_ms but are excluded from the
  /// latency and throughput aggregates.
  std::size_t timeouts = 0;
  bool fell_back = false;
  bool dropped = false;
};

/// Aggregate results of one simulation run.
struct SimStats {
  std::size_t completed = 0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double total_energy_mj = 0.0;
  double energy_per_inference_mj = 0.0;
  double edge_utilization = 0.0;  ///< edge busy time / makespan
  double link_utilization = 0.0;  ///< radio busy time / makespan
  double makespan_s = 0.0;        ///< last completion
  double throughput_hz = 0.0;     ///< completed / makespan
  std::size_t deadline_violations = 0;  ///< requests later than the deadline
  double violation_rate = 0.0;          ///< violations / completed (0 if disabled)

  // ---- degradation accounting (all zero / 1.0 on a fault-free run) ----
  std::size_t timeouts = 0;             ///< cloud attempts that timed out
  std::size_t retries = 0;              ///< backoff re-attempts issued
  std::size_t fallback_executions = 0;  ///< requests re-run on the edge
  std::size_t dropped = 0;              ///< requests lost (no edge fallback)
  double availability = 1.0;            ///< completed / (completed + dropped)
  /// Served requests per second of makespan that also met the deadline
  /// (== throughput_hz when no deadline is configured).
  double goodput_hz = 0.0;
  double degraded_time_s = 0.0;  ///< makespan time under >= 1 fault episode
  double degraded_fraction = 0.0;
  /// Fault episodes injected, by class (schedule-level, not per-request).
  std::size_t link_outage_episodes = 0;
  std::size_t cloud_outage_episodes = 0;
  std::size_t rtt_spike_episodes = 0;
  std::size_t edge_slowdown_episodes = 0;
  std::size_t machine_failure_episodes = 0;
  std::size_t brownout_episodes = 0;

  // ---- finite-cloud / breaker accounting (zero without SimConfig::cloud
  //      or breaker_failures) ----
  std::size_t shed = 0;           ///< cloud admissions rejected by the pool
  std::size_t breaker_trips = 0;  ///< closed -> open transitions
  double breaker_open_time_s = 0.0;  ///< total time spent open
  double datacenter_energy_j = 0.0;  ///< machine-pool energy over makespan
};

/// Simulates one deployed model under load.
class EdgeCloudSystem {
 public:
  /// `options`: the model's deployment options (from Algorithm 1).
  /// `comm` supplies the radio power model and round-trip latency; `trace`
  /// drives the link's instantaneous throughput.
  EdgeCloudSystem(std::vector<core::DeploymentOption> options, comm::CommModel comm,
                  comm::ThroughputTrace trace, SimConfig config);

  /// Serve a compiled plan: options, comm model, and dispatch cost curves
  /// are all taken from the plan (no curve re-derivation). The dispatch
  /// curves are the plan's surfaces collapsed onto the radio axis at
  /// SimConfig::backhaul_tu_mbps (one entry per hop past the radio). On
  /// K-tier plans served requests traverse the whole tier chain: radio
  /// send, per-fog-tier compute, and each backhaul hop at its nominal rate
  /// under that hop's own deep fades and RTT spikes.
  EdgeCloudSystem(const core::DeploymentPlan& plan, comm::ThroughputTrace trace,
                  SimConfig config);

  /// Run the full simulation. Single-shot: a second call throws
  /// std::logic_error (the timelines are consumed).
  SimStats run();

  const std::vector<RequestRecord>& records() const { return records_; }

 private:
  std::size_t pick_option(double now_s, const TimeVaryingLink& link,
                          const ResourceTimeline& edge, const FaultInjector& faults) const;
  void find_fallback_option();
  /// K-tier remote chain after the radio send completes at `sent_s`: hop-0
  /// handshake, then alternating fog-tier compute and backhaul transfers at
  /// the configured nominal rates (per-hop fades and RTT spikes applied).
  /// Returns the completion time; `cloud_arrival_s` gets the payload's
  /// arrival at the deepest tier reached — the instant the cloud-outage
  /// check applies for cloud-reaching options.
  double remote_chain(const core::DeploymentOption& option, double sent_s,
                      const FaultInjector& faults, double& cloud_arrival_s) const;
  /// Does `option` transmit over a backhaul hop that a kBackhaulOutage
  /// covers at `now_s`? Such options are unserviceable: dispatch walks the
  /// tier ladder down to whatever stops before the dead hop.
  bool crosses_dead_backhaul(const core::DeploymentOption& option, double now_s,
                             const FaultInjector& faults) const;

  std::vector<core::DeploymentOption> options_;
  comm::CommModel comm_;
  comm::ThroughputTrace trace_;
  SimConfig config_;
  std::vector<runtime::CostCurve> curves_;
  std::vector<RequestRecord> records_;
  /// Cheapest edge-only deployment option (no transmission), if the option
  /// set has one — the forced-all-edge fallback target.
  std::optional<std::size_t> fallback_option_;
  /// Does any option stop short of the last tier? (At K=2 this is exactly
  /// "an edge-only option exists".) Gates proactive cloud-down dispatch.
  bool has_sub_cloud_option_ = false;
  std::size_t num_hops_ = 1;
  std::vector<comm::CommModel> later_hops_;  ///< hops 1.. of a K-tier plan
  std::vector<double> backhaul_tu_;          ///< nominal rate of hops 1..
  bool ran_ = false;
};

}  // namespace lens::sim
