#include "sim/system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "check/finite.hpp"
#include "cloud/scheduler.hpp"
#include "par/substream.hpp"
#include "runtime/deployer.hpp"

namespace lens::sim {

namespace {

using check::nonnegative_finite;
using check::positive_finite;

void validate_config(const SimConfig& config, std::size_t num_options) {
  if (config.fixed_option >= num_options) {
    throw std::invalid_argument("EdgeCloudSystem: bad fixed option index");
  }
  if (!positive_finite(config.duration_s) || !positive_finite(config.arrival_rate_hz)) {
    throw std::invalid_argument(
        "EdgeCloudSystem: duration and arrival rate must be finite and positive");
  }
  if (!positive_finite(config.timeout_ms) || !nonnegative_finite(config.retry_backoff_ms)) {
    throw std::invalid_argument(
        "EdgeCloudSystem: the timeout must be finite and positive, the retry "
        "backoff finite and non-negative");
  }
  if (!(config.retry_jitter >= 0.0 && config.retry_jitter <= 1.0)) {
    throw std::invalid_argument("EdgeCloudSystem: retry_jitter must be in [0, 1]");
  }
  if (!positive_finite(config.breaker_open_ms)) {
    throw std::invalid_argument(
        "EdgeCloudSystem: the circuit breaker's open window must be finite and positive");
  }
  if (!nonnegative_finite(config.deadline_ms)) {
    throw std::invalid_argument(
        "EdgeCloudSystem: the deadline must be finite and non-negative (0 disables)");
  }
  if (config.cloud.has_value()) {
    cloud::MachinePool validate_pool(*config.cloud);  // throws on bad knobs
    (void)validate_pool;
  }
}

/// Does the option's deepest segment run on the last tier? Hand-built legacy
/// options (no per-hop byte vector) describe a single radio hop.
bool reaches_cloud(const core::DeploymentOption& o) {
  if (o.hop_tx_bytes.empty()) return o.tx_bytes > 0;
  return o.hop_tx_bytes.back() > 0;
}

}  // namespace

EdgeCloudSystem::EdgeCloudSystem(std::vector<core::DeploymentOption> options,
                                 comm::CommModel comm, comm::ThroughputTrace trace,
                                 SimConfig config)
    : options_(std::move(options)),
      comm_(std::move(comm)),
      trace_(std::move(trace)),
      config_(config) {
  if (options_.empty()) throw std::invalid_argument("EdgeCloudSystem: no options");
  validate_config(config_, options_.size());
  curves_.reserve(options_.size());
  for (const core::DeploymentOption& o : options_) {
    curves_.push_back(runtime::cost_curve(o, comm_, config_.metric));
  }
  find_fallback_option();
}

EdgeCloudSystem::EdgeCloudSystem(const core::DeploymentPlan& plan,
                                 comm::ThroughputTrace trace, SimConfig config)
    : options_(plan.options()),
      comm_(plan.comm()),
      trace_(std::move(trace)),
      config_(config),
      num_hops_(plan.num_hops()) {
  if (options_.empty()) throw std::invalid_argument("EdgeCloudSystem: empty plan");
  validate_config(config_, options_.size());
  if (config_.backhaul_tu_mbps.size() != num_hops_ - 1) {
    throw std::invalid_argument(
        "EdgeCloudSystem: backhaul_tu_mbps needs one entry per hop past the radio: "
        "plan has " + std::to_string(num_hops_) + " hop(s), got " +
        std::to_string(config_.backhaul_tu_mbps.size()) + " backhaul rate(s)");
  }
  for (double tu : config_.backhaul_tu_mbps) {
    if (!positive_finite(tu)) {
      throw std::invalid_argument(
          "EdgeCloudSystem: backhaul throughputs must be positive and finite");
    }
  }
  // Dispatch curves: the plan's surfaces collapsed onto the radio axis at
  // the nominal backhaul rates (at K=2, the plan's 1-D curves).
  std::vector<double> pinned{1.0};  // free axis; ignored by collapse
  pinned.insert(pinned.end(), config_.backhaul_tu_mbps.begin(),
                config_.backhaul_tu_mbps.end());
  curves_ = config_.metric == runtime::OptimizeFor::kLatency
                ? plan.collapsed_latency_curves(0, pinned)
                : plan.collapsed_energy_curves(0, pinned);
  for (std::size_t h = 1; h < num_hops_; ++h) later_hops_.push_back(plan.hop(h));
  backhaul_tu_ = config_.backhaul_tu_mbps;
  find_fallback_option();
}

void EdgeCloudSystem::find_fallback_option() {
  fallback_option_ = runtime::cheapest_edge_only(options_, curves_);
  for (const core::DeploymentOption& o : options_) {
    if (!reaches_cloud(o)) {
      has_sub_cloud_option_ = true;
      break;
    }
  }
}

std::size_t EdgeCloudSystem::pick_option(double now_s, const TimeVaryingLink& link,
                                         const ResourceTimeline& edge,
                                         const FaultInjector& faults) const {
  if (config_.policy == DispatchPolicy::kFixed) return config_.fixed_option;
  // Forced all-edge while the cloud is unreachable: any option that must
  // transmit would only time out, so dispatch falls back proactively. On a
  // K-tier plan the dominance loop below walks the ladder instead — options
  // stopping short of the cloud (fog rungs) stay serviceable.
  const bool cloud_down = faults.cloud_unavailable(now_s);
  if (num_hops_ == 1 && cloud_down && fallback_option_.has_value() &&
      config_.policy == DispatchPolicy::kDynamic) {
    return *fallback_option_;
  }
  const double tu = link.throughput_at(now_s);
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t i = 0; i < curves_.size(); ++i) {
    if (cloud_down && has_sub_cloud_option_ && reaches_cloud(options_[i])) {
      continue;  // cloud-reaching options are unserviceable
    }
    if (fallback_option_.has_value() && crosses_dead_backhaul(options_[i], now_s, faults)) {
      continue;  // a backhaul outage cuts every tier past the dead hop
    }
    double cost;
    if (config_.policy == DispatchPolicy::kDynamic) {
      cost = curves_[i].value(tu);
    } else {
      // Queue-aware: estimated completion time given the current backlogs
      // (transfer time approximated at the instantaneous rate).
      const core::DeploymentOption& o = options_[i];
      double t = now_s;
      if (o.edge_latency_ms > 0.0) {
        t = std::max(t, edge.busy_until()) + o.edge_latency_ms / 1e3;
      }
      if (o.tx_bytes > 0) {
        const double tx_s = static_cast<double>(o.tx_bytes) * 8.0 / (tu * 1e6);
        t = std::max(t, link.busy_until()) + tx_s + comm_.round_trip_ms() / 1e3 +
            o.cloud_latency_ms / 1e3;
        // K-tier: the remote compute is in cloud_latency_ms already; add the
        // backhaul transfer and handshake of every later hop the option uses.
        for (std::size_t h = 1; h < num_hops_; ++h) {
          if (h >= o.hop_tx_bytes.size() || o.hop_tx_bytes[h] == 0) break;
          t += static_cast<double>(o.hop_tx_bytes[h]) * 8.0 / (backhaul_tu_[h - 1] * 1e6) +
               later_hops_[h - 1].round_trip_ms() / 1e3;
        }
      }
      cost = t - now_s;
    }
    if (!found || cost < best_cost) {
      best_cost = cost;
      best = i;
      found = true;
    }
  }
  return best;
}

bool EdgeCloudSystem::crosses_dead_backhaul(const core::DeploymentOption& option,
                                            double now_s,
                                            const FaultInjector& faults) const {
  for (std::size_t h = 1; h < num_hops_; ++h) {
    if (h >= option.hop_tx_bytes.size() || option.hop_tx_bytes[h] == 0) break;
    if (faults.backhaul_unavailable(now_s, h)) return true;
  }
  return false;
}

double EdgeCloudSystem::remote_chain(const core::DeploymentOption& option, double sent_s,
                                     const FaultInjector& faults,
                                     double& cloud_arrival_s) const {
  // Hop-0 handshake lands the payload on tier 1; then alternate tier compute
  // and backhaul transfers. Fog/cloud tiers run with unbounded parallelism
  // (only the edge accelerator and the radio are contended resources), so
  // the chain is pure latency addition. Backhaul transfers run at the
  // configured nominal rate, stretched by the hop's deep-fade factor and
  // delayed by its RTT (plus any active spike) — both sampled at departure.
  double t = sent_s + (comm_.round_trip_ms() + faults.rtt_extra_ms(sent_s)) / 1e3;
  cloud_arrival_s = t;  // arrival at tier 1 (deepest, unless later hops ship)
  t += option.tier_latency_ms[1] / 1e3;
  for (std::size_t h = 1; h < num_hops_; ++h) {
    if (option.hop_tx_bytes[h] == 0) break;  // nothing ships past tier h
    const double depart = t;
    // Per-device deep fades and region-wide brownouts both stretch the hop.
    const double tu = backhaul_tu_[h - 1] * faults.link_factor(depart, h) *
                      faults.backhaul_factor(depart, h);
    t += static_cast<double>(option.hop_tx_bytes[h]) * 8.0 / (tu * 1e6) +
         (later_hops_[h - 1].round_trip_ms() + faults.rtt_extra_ms(depart, h)) / 1e3;
    cloud_arrival_s = t;  // arrival at tier h + 1
    t += option.tier_latency_ms[h + 1] / 1e3;
  }
  return t;
}

SimStats EdgeCloudSystem::run() {
  if (ran_) throw std::logic_error("EdgeCloudSystem::run: already executed");
  ran_ = true;

  // Poisson arrivals over [0, duration).
  std::mt19937_64 rng(config_.seed);
  std::exponential_distribution<double> gap(config_.arrival_rate_hz);
  // One allocation: the Poisson count's mean plus eight standard deviations
  // (the mean capped so the cast below stays defined). Grown by doubling,
  // the vector frees a chain of large blocks that raise glibc's mmap
  // threshold and fragment the heap, and peak RSS then moves with unrelated
  // changes to code layout.
  const double expected = std::min(config_.duration_s * config_.arrival_rate_hz, 1e8);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(expected + 8.0 * std::sqrt(expected)) + 64);
  for (double t = gap(rng); t < config_.duration_s; t += gap(rng)) arrivals.push_back(t);

  // Fault overlay, generated up front from its own seeded substreams: the
  // schedule never consumes the arrival RNG and nothing here runs off the
  // worker pool, so stats are bit-identical for any thread budget.
  FaultScheduleConfig fault_config = config_.faults;
  if (fault_config.horizon_s <= 0.0) fault_config.horizon_s = 2.0 * config_.duration_s;
  const FaultInjector faults(FaultSchedule::generate(fault_config));

  ResourceTimeline edge;
  TimeVaryingLink link(trace_, comm_.power_model(), &faults);
  const double timeout_s = config_.timeout_ms / 1e3;
  const double backoff_s = config_.retry_backoff_ms / 1e3;

  // Finite-cloud machine pool (std::nullopt keeps the paper's infinite
  // cloud: suffixes never queue and are never shed).
  std::optional<cloud::CloudScheduler> cloud_sched;
  if (config_.cloud.has_value()) cloud_sched.emplace(*config_.cloud);

  // Per-device substream for retry and breaker-probe jitter: rooted at
  // (seed, device_id) so fleet peers sharing one outage window draw
  // decorrelated delays. The stream is consumed only on retries with
  // retry_jitter > 0 and on breaker transitions, so legacy runs are
  // bit-identical.
  std::mt19937_64 jitter_rng(
      par::substream_seed(par::substream_seed(config_.seed, 0x9e77), config_.device_id));
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Circuit breaker: consecutive cloud failures trip it open; while open,
  // cloud-reaching requests fast-fail to the edge fallback (no transmit, no
  // timeout wait) until the half-open probe time.
  const bool breaker_enabled =
      config_.breaker_failures > 0 && fallback_option_.has_value();
  const double breaker_open_s = config_.breaker_open_ms / 1e3;
  std::size_t consecutive_failures = 0;
  bool breaker_open = false;
  double breaker_opened_at = 0.0;
  double breaker_probe_at = 0.0;
  double breaker_open_accum_s = 0.0;
  const auto probe_delay = [&]() {
    return breaker_open_s * (1.0 + config_.retry_jitter * unit(jitter_rng));
  };

  SimStats stats;
  records_.reserve(arrivals.size());
  for (double arrival : arrivals) {
    RequestRecord record;
    record.arrival_s = arrival;
    record.option = pick_option(arrival, link, edge, faults);
    const core::DeploymentOption& option = options_[record.option];

    // Edge prefix (skipped entirely for All-Cloud), stretched by any active
    // straggler episode at arrival.
    double edge_done = arrival;
    if (option.edge_latency_ms > 0.0) {
      const double slow = faults.edge_slowdown(arrival);
      edge_done = edge.schedule(arrival, option.edge_latency_ms / 1e3 * slow);
    }
    record.energy_mj = option.edge_energy_mj;

    double completion = edge_done;
    if (option.tx_bytes > 0) {
      // Cloud attempt loop: transmit, then either the response arrives
      // (cloud reachable when the payload lands) or the client times out
      // timeout_ms after send completion and retries with exponential
      // backoff. After max_retries failures the request re-executes on the
      // cheapest edge-only option, or is dropped when there is none.
      double ready = edge_done;
      const bool needs_cloud = num_hops_ == 1 || reaches_cloud(option);
      // Sentinel < 0: attempts ended in success; >= 0: the give-up time at
      // which the request falls back to the edge (or is dropped).
      double gave_up_at = -1.0;
      for (std::size_t attempt = 0;; ++attempt) {
        if (needs_cloud && breaker_open && ready < breaker_probe_at) {
          // Breaker open: skip the doomed attempt entirely — no transmit,
          // no timeout wait. This is what keeps a shared outage from
          // turning into a retry storm.
          gave_up_at = ready;
          break;
        }
        const TransferResult transfer = link.schedule(ready, option.tx_bytes);
        record.energy_mj += transfer.energy_mj;
        // K-tier: walk the remote chain to find when the payload reaches
        // the deepest tier — that is when the cloud-outage check applies.
        double cloud_arrival = transfer.end_s;
        double chain_completion = 0.0;
        if (num_hops_ > 1) {
          chain_completion = remote_chain(option, transfer.end_s, faults, cloud_arrival);
        }
        bool attempt_ok = !needs_cloud || !faults.cloud_unavailable(cloud_arrival);
        bool was_shed = false;
        double failed_at = transfer.end_s + timeout_s;
        if (attempt_ok && needs_cloud && cloud_sched.has_value()) {
          // Finite cloud: the suffix must win a bounded machine slot, and
          // queueing + machine-speed service replace the constant latency.
          const double job_ms = num_hops_ == 1 ? option.cloud_latency_ms
                                               : option.tier_latency_ms.back();
          const cloud::Admission adm = cloud_sched->admit(
              cloud_arrival, job_ms, faults.machine_failure_fraction(cloud_arrival),
              faults.brownout_factor(cloud_arrival));
          if (adm.admitted) {
            completion = num_hops_ == 1
                             ? adm.completion_s +
                                   (comm_.round_trip_ms() +
                                    faults.rtt_extra_ms(transfer.end_s)) /
                                       1e3
                             : adm.completion_s;
          } else {
            // A shed is an immediate reject: the response returns after one
            // round trip, with no timeout wait.
            attempt_ok = false;
            was_shed = true;
            ++stats.shed;
            failed_at = cloud_arrival + comm_.round_trip_ms() / 1e3;
          }
        } else if (attempt_ok) {
          if (num_hops_ == 1) {
            // Round trip covers the request/response handshake (plus any
            // active RTT spike); the cloud suffix runs with unbounded
            // parallelism.
            const double rtt_s =
                (comm_.round_trip_ms() + faults.rtt_extra_ms(transfer.end_s)) / 1e3;
            completion = transfer.end_s + rtt_s + option.cloud_latency_ms / 1e3;
          } else {
            completion = chain_completion;
          }
        }
        if (attempt_ok) {
          if (needs_cloud) {
            consecutive_failures = 0;
            if (breaker_open) {
              // Successful half-open probe: reclose.
              breaker_open = false;
              breaker_open_accum_s += std::max(0.0, cloud_arrival - breaker_opened_at);
            }
          }
          break;
        }
        if (!was_shed) {
          ++record.timeouts;
          ++stats.timeouts;
        }
        if (breaker_enabled && needs_cloud) {
          if (breaker_open) {
            // Failed half-open probe: stay open, push the next probe out.
            breaker_probe_at = failed_at + probe_delay();
          } else if (++consecutive_failures >= config_.breaker_failures) {
            breaker_open = true;
            breaker_opened_at = failed_at;
            breaker_probe_at = failed_at + probe_delay();
            ++stats.breaker_trips;
          }
        }
        if (attempt >= config_.max_retries) {
          gave_up_at = failed_at;
          break;
        }
        ++stats.retries;
        double delay_s = backoff_s * std::pow(2.0, static_cast<double>(attempt));
        if (config_.retry_jitter > 0.0) {
          delay_s *= 1.0 - config_.retry_jitter / 2.0 +
                     config_.retry_jitter * unit(jitter_rng);
        }
        ready = failed_at + delay_s;
      }
      if (gave_up_at >= 0.0) {
        if (fallback_option_.has_value()) {
          const core::DeploymentOption& fb = options_[*fallback_option_];
          const double slow = faults.edge_slowdown(gave_up_at);
          completion =
              edge.schedule_unordered(gave_up_at, fb.edge_latency_ms / 1e3 * slow);
          record.energy_mj += fb.edge_energy_mj;
          record.fell_back = true;
          ++stats.fallback_executions;
        } else {
          completion = gave_up_at;
          record.dropped = true;
          ++stats.dropped;
        }
      }
    }
    record.completion_s = completion;
    record.latency_ms = (completion - arrival) * 1e3;
    records_.push_back(record);
  }

  // Aggregate over served requests; dropped ones count only against
  // availability (their radio/edge energy stays in the totals — it was
  // spent).
  std::vector<double> latencies;
  latencies.reserve(records_.size());
  for (const RequestRecord& r : records_) {
    stats.total_energy_mj += r.energy_mj;
    if (r.dropped) continue;
    ++stats.completed;
    latencies.push_back(r.latency_ms);
    stats.mean_latency_ms += r.latency_ms;
    stats.makespan_s = std::max(stats.makespan_s, r.completion_s);
    if (config_.deadline_ms > 0.0 && r.latency_ms > config_.deadline_ms) {
      ++stats.deadline_violations;
    }
  }
  stats.link_outage_episodes = faults.schedule().count(FaultClass::kLinkOutage);
  stats.cloud_outage_episodes = faults.schedule().count(FaultClass::kCloudOutage);
  stats.rtt_spike_episodes = faults.schedule().count(FaultClass::kRttSpike);
  stats.edge_slowdown_episodes = faults.schedule().count(FaultClass::kEdgeSlowdown);
  stats.machine_failure_episodes = faults.schedule().count(FaultClass::kMachineFailure);
  stats.brownout_episodes = faults.schedule().count(FaultClass::kRegionalBrownout);
  if (breaker_open) {
    breaker_open_accum_s += std::max(0.0, stats.makespan_s - breaker_opened_at);
  }
  stats.breaker_open_time_s = breaker_open_accum_s;
  if (cloud_sched.has_value()) {
    stats.datacenter_energy_j = cloud_sched->energy_j(stats.makespan_s);
  }
  if (stats.completed + stats.dropped > 0) {
    stats.availability = static_cast<double>(stats.completed) /
                         static_cast<double>(stats.completed + stats.dropped);
  }
  if (stats.completed == 0) return stats;
  if (config_.deadline_ms > 0.0) {
    stats.violation_rate = static_cast<double>(stats.deadline_violations) /
                           static_cast<double>(stats.completed);
  }
  stats.mean_latency_ms /= static_cast<double>(stats.completed);
  stats.energy_per_inference_mj =
      stats.total_energy_mj / static_cast<double>(stats.completed);
  // Exact order statistics without a full sort. Once nth_element has placed
  // rank k, [k + 1, end) holds exactly the ranks above k: each selection
  // starts where the previous one stopped (ranks are asked for in ascending
  // order), and rank k + 1 is the minimum of that tail.
  std::size_t unselected = 0;  // [unselected, end) holds exactly the ranks >= it
  const auto at_rank = [&](std::size_t rank) {
    const auto nth = latencies.begin() + static_cast<std::ptrdiff_t>(rank);
    if (rank >= unselected) {
      std::nth_element(latencies.begin() + static_cast<std::ptrdiff_t>(unselected), nth,
                       latencies.end());
      unselected = rank + 1;
    }
    return *nth;
  };
  auto percentile = [&](double p) {
    const double position = p / 100.0 * static_cast<double>(latencies.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const auto upper = static_cast<std::size_t>(std::ceil(position));
    const double fraction = position - static_cast<double>(lower);
    const double low = at_rank(lower);
    const double high =
        upper == lower
            ? low
            : *std::min_element(latencies.begin() + static_cast<std::ptrdiff_t>(upper),
                                latencies.end());
    return low + fraction * (high - low);
  };
  stats.p50_latency_ms = percentile(50.0);
  stats.p95_latency_ms = percentile(95.0);
  stats.p99_latency_ms = percentile(99.0);
  stats.max_latency_ms = *std::max_element(
      latencies.begin() + static_cast<std::ptrdiff_t>(unselected) - 1, latencies.end());
  if (stats.makespan_s > 0.0) {
    stats.edge_utilization = edge.total_busy() / stats.makespan_s;
    stats.link_utilization = link.total_busy() / stats.makespan_s;
    stats.throughput_hz = static_cast<double>(stats.completed) / stats.makespan_s;
    stats.degraded_time_s = faults.degraded_time(stats.makespan_s);
    stats.degraded_fraction = stats.degraded_time_s / stats.makespan_s;
    const std::size_t good = stats.completed - stats.deadline_violations;
    stats.goodput_hz = config_.deadline_ms > 0.0
                           ? static_cast<double>(good) / stats.makespan_s
                           : stats.throughput_hz;
  }
  return stats;
}

}  // namespace lens::sim
