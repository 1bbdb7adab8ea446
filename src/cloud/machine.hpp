#pragma once
// Finite datacenter model: a homogeneous machine pool with per-machine
// capacity (layer-milliseconds of model suffix executed per wall-second),
// a linear idle->active power curve with an explicit powered-off state,
// and a bounded per-machine run queue.
//
// The paper (and PRs 1-8) treat the cloud half of a partitioned model as
// infinite capacity: `DeploymentOption::cloud_latency_ms` is a constant
// independent of load. lens::cloud replaces that abstraction with M
// machines, each a bounded FIFO (M/M/1/K in steady state), so overload
// produces visible queueing delay and shed load instead of free service.

#include <cstddef>

namespace lens::cloud {

/// Placement policy for the cloud halves of partitioned inference streams.
enum class PlacementPolicy {
  /// Fill machines in index order (classic first-fit); every surviving
  /// machine stays powered, so idle machines burn `idle_w`.
  kGreedyFirstFit,
  /// Consolidate onto as few machines as the admission ceiling allows and
  /// power idle machines off entirely. The pool is homogeneous, so the
  /// admission capacity (and therefore the shed rate) matches greedy
  /// exactly; only the energy bill differs.
  kEnergyBestFit,
};

const char* placement_policy_name(PlacementPolicy policy);

/// One machine class (the pool is homogeneous).
struct MachineSpec {
  /// Service capacity: layer-milliseconds of model suffix executed per
  /// wall-clock second. 1000 is real time (a 5 ms suffix takes 5 ms);
  /// 4000 serves a 5 ms suffix stream at 800 jobs/s.
  double capacity_ms_per_s = 4000.0;
  double active_w = 220.0;  ///< Draw at 100% utilization.
  double idle_w = 95.0;     ///< Draw powered on at 0% utilization.
  /// Bounded run queue: jobs resident per machine (waiting + in service).
  /// An arrival that finds `queue_slots` residents is rejected.
  std::size_t queue_slots = 8;
};

struct CloudConfig {
  std::size_t machines = 64;
  MachineSpec machine;
  PlacementPolicy policy = PlacementPolicy::kGreedyFirstFit;
  /// Admission ceiling: the controller sheds load beyond this fraction of
  /// a machine's service rate, keeping queues off the M/M/1 knee so wait
  /// stays bounded instead of collapsing under overload.
  double admit_utilization = 0.85;
  /// Suffix cost assumed when a deployment option carries no measured
  /// cloud latency (the evaluator's infinite-cloud default of 0 ms).
  double assumed_job_ms = 2.0;
};

/// A regional fog site: the same bounded-pool model as the datacenter but
/// sized like a street-cabinet micro-datacenter — few machines, slower
/// parts, shallower queues, and a lower admission ceiling so the site sheds
/// early rather than letting queueing delay eat the latency the fog tier
/// exists to save. `machines` is the per-region pool size (the fleet gives
/// every region its own pool from one preset).
CloudConfig fog_site_defaults(std::size_t machines);

/// Steady-state metrics of one bounded FIFO machine queue: M/M/1/K with
/// K = queue_slots resident jobs (waiting + in service).
struct QueueMetrics {
  double rho = 0.0;                ///< Offered utilization lambda/mu.
  double block_probability = 0.0;  ///< P(arrival finds the queue full).
  double mean_jobs = 0.0;          ///< L: mean resident jobs.
  double mean_wait_ms = 0.0;       ///< Mean queueing wait (excl. service)
                                   ///< of an admitted job.
};

/// Closed-form M/M/1/K steady state: truncated-geometric occupancy,
/// blocking probability p_K, L by direct summation identity, and mean
/// queueing wait via Little's law over the admitted rate. Throws
/// std::invalid_argument for non-positive rates or zero slots.
QueueMetrics mm1k_metrics(double arrival_hz, double service_hz,
                          std::size_t queue_slots);

/// The homogeneous pool: validated configuration plus the per-machine
/// capacity, queueing, and power math shared by both scheduler paths.
class MachinePool {
 public:
  /// Throws std::invalid_argument on invalid knobs (no machines,
  /// non-positive capacity, idle draw above active, zero queue slots,
  /// admit_utilization outside (0, 1], non-positive assumed_job_ms).
  explicit MachinePool(const CloudConfig& config);

  const CloudConfig& config() const { return config_; }
  std::size_t machines() const { return config_.machines; }

  /// Suffix cost actually scheduled: options compiled under the paper's
  /// infinite-cloud assumption carry cloud_latency_ms == 0, which would
  /// mean free service; substitute the configured assumed cost.
  double effective_job_ms(double job_ms) const;

  /// Per-machine service rate (jobs/s) for a suffix of `job_ms`, under a
  /// brownout capacity factor in [0, 1]. Zero when the factor is zero.
  double service_hz(double job_ms, double brownout_factor = 1.0) const;

  /// Electrical draw of one powered machine at utilization u in [0, 1]
  /// (linear idle->active interpolation). Powered-off machines draw 0.
  double machine_power_w(double utilization) const;

 private:
  CloudConfig config_;
};

}  // namespace lens::cloud
