// serve-faults: `lens faults --rate 10 --duration 36000 --cloud-machines 8
// --jitter 0.5 --breaker 3` — EdgeCloudSystem under all four per-request
// fault classes plus machine failures and brownouts of a finite 8-machine
// cloud, once with dynamic dispatch + edge fallback and once pinned to the
// fastest cloud-path option. The only workload that runs the event
// simulator and CloudScheduler::admit.
//
// Untraced: a warm-up, then repetitions of both EdgeCloudSystem::run calls
// with set-up blocks before each and after the last. Traced: one untraced and one traced repetition, then replays of
// the fault-schedule generation, FaultInjector queries swept over that
// schedule, and CloudScheduler::admit at the runs' cloud-bound requests.

#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cloud/machine.hpp"
#include "cloud/scheduler.hpp"
#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "dnn/presets.hpp"
#include "perf/predictor.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"

namespace perfbench {
namespace {

constexpr double kRateHz = 10.0;
constexpr double kDurationS = 36000.0;
constexpr double kTuMbps = 10.0;

/// FNV-1a of both runs' SimStats at the default seed.
constexpr std::uint64_t kStatsDigest = 0x83ac47dd2f5c2296ULL;

/// `lens faults` with the flags above: plan, trace and the shared SimConfig.
struct ServeRig {
  lens::core::DeploymentPlan plan;
  lens::comm::ThroughputTrace trace;
  lens::sim::SimConfig config;
  std::size_t pinned = 0;  ///< fastest cloud-path option

  explicit ServeRig(std::uint64_t seed) {
    const lens::perf::RooflinePredictor predictor =
        train_predictor(lens::perf::jetson_tx2_gpu());
    const lens::comm::CommModel comm(lens::comm::WirelessTechnology::kWifi, 5.0);
    plan = lens::core::DeploymentEvaluator(predictor, comm).compile(lens::dnn::alexnet());
    const lens::core::DeploymentEvaluation eval = plan.price(kTuMbps);
    config.arrival_rate_hz = kRateHz;
    config.duration_s = kDurationS;
    config.seed = static_cast<unsigned>(seed);
    config.timeout_ms = 500.0;
    config.max_retries = 2;
    config.faults.seed = config.seed;
    config.faults.link_outage_rate_hz = 1.0 / 40.0;
    config.faults.link_outage_mean_s = 5.0;
    config.faults.cloud_outage_rate_hz = 1.0 / 60.0;
    config.faults.cloud_outage_mean_s = 8.0;
    config.faults.rtt_spike_rate_hz = 1.0 / 50.0;
    config.faults.edge_slowdown_rate_hz = 1.0 / 80.0;
    config.retry_jitter = 0.5;
    lens::cloud::CloudConfig cloud;
    cloud.machines = 8;
    cloud.machine.capacity_ms_per_s = 4000.0;
    config.cloud = cloud;
    config.faults.machine_failure_rate_hz = 1.0 / 90.0;
    config.faults.brownout_rate_hz = 1.0 / 70.0;
    config.breaker_failures = 3;
    trace.samples_mbps = {kTuMbps};
    trace.interval_s = 1000.0;
    pinned = eval.options.size();
    for (std::size_t i = 0; i < eval.options.size(); ++i) {
      if (eval.options[i].tx_bytes == 0) continue;
      if (pinned == eval.options.size() ||
          eval.options[i].latency_ms < eval.options[pinned].latency_ms) {
        pinned = i;
      }
    }
  }

  /// The two policies `lens faults` compares, ready to run.
  std::vector<lens::sim::EdgeCloudSystem> systems() const {
    lens::sim::SimConfig dynamic = config;
    dynamic.policy = lens::sim::DispatchPolicy::kDynamic;
    lens::sim::SimConfig fixed = config;
    fixed.policy = lens::sim::DispatchPolicy::kFixed;
    fixed.fixed_option = pinned;
    std::vector<lens::sim::EdgeCloudSystem> out;
    out.emplace_back(plan, trace, dynamic);
    out.emplace_back(plan, trace, fixed);
    return out;
  }
};

/// Requests the simulator's Poisson stream generates: the same draw it makes.
std::size_t generated_requests(const lens::sim::SimConfig& config) {
  std::mt19937_64 rng(config.seed);
  std::exponential_distribution<double> gap(config.arrival_rate_hz);
  std::size_t n = 0;
  for (double t = gap(rng); t < config.duration_s; t += gap(rng)) ++n;
  return n;
}

std::vector<double> stats_row(const lens::sim::SimStats& s) {
  return {static_cast<double>(s.completed), s.mean_latency_ms, s.p50_latency_ms,
          s.p95_latency_ms, s.p99_latency_ms, s.max_latency_ms, s.total_energy_mj,
          s.energy_per_inference_mj, s.edge_utilization, s.link_utilization, s.makespan_s,
          s.throughput_hz, static_cast<double>(s.timeouts), static_cast<double>(s.retries),
          static_cast<double>(s.fallback_executions), static_cast<double>(s.dropped),
          s.availability, s.goodput_hz, s.degraded_time_s,
          static_cast<double>(s.link_outage_episodes), static_cast<double>(s.cloud_outage_episodes),
          static_cast<double>(s.rtt_spike_episodes), static_cast<double>(s.edge_slowdown_episodes),
          static_cast<double>(s.machine_failure_episodes),
          static_cast<double>(s.brownout_episodes), static_cast<double>(s.shed),
          static_cast<double>(s.breaker_trips), s.breaker_open_time_s, s.datacenter_energy_j};
}

/// Output checks of one repetition: every generated request has a record
/// and is either completed or dropped, with finite timings.
void check_served(const ServeRig& rig, const std::vector<lens::sim::EdgeCloudSystem>& systems,
                  const std::vector<lens::sim::SimStats>& stats) {
  const std::size_t generated = generated_requests(rig.config);
  for (std::size_t p = 0; p < stats.size(); ++p) {
    const std::vector<lens::sim::RequestRecord>& records = systems[p].records();
    bool finite = true;
    for (const lens::sim::RequestRecord& r : records) {
      finite = finite && std::isfinite(r.latency_ms) && r.completion_s >= r.arrival_s;
    }
    const std::string policy = p == 0 ? "dynamic" : "fixed";
    check("serve.requests_accounted." + policy,
          records.size() == generated && stats[p].completed + stats[p].dropped == generated,
          std::to_string(stats[p].completed) + " completed + " +
              std::to_string(stats[p].dropped) + " dropped of " + std::to_string(generated) +
              " generated");
    check("serve.records_finite." + policy, finite);
  }
}

}  // namespace

int run_serve(const Options& options) {
  const ServeRig rig(options.seed);
  Line("workload")
      .str("name", "serve-faults")
      .str("what", "lens faults: alexnet, tx2-gpu + wifi, dynamic+fallback and fixed cloud-path")
      .num("rate_hz", kRateHz)
      .num("duration_s", kDurationS)
      .count("cloud_machines", rig.config.cloud->machines)
      .num("jitter", rig.config.retry_jitter)
      .count("breaker", rig.config.breaker_failures)
      .count("pinned_option", rig.pinned)
      .count("seed", options.seed)
      .str("unit", "completed requests");

  const auto setup = [&] {
    setup_blocks(2, 0.1, [&] {
      const ServeRig fresh(options.seed);
      const std::vector<lens::sim::EdgeCloudSystem> systems = fresh.systems();
      (void)systems;
    });
  };

  std::optional<std::uint64_t> reference;
  double units = 0.0;
  // One repetition: both policies' runs; `keep` receives the systems (and
  // with them the request records) when the caller needs them afterwards.
  const auto timed_serve = [&](Tracer& tracer, std::vector<lens::sim::EdgeCloudSystem>* keep) {
    std::vector<lens::sim::EdgeCloudSystem> systems = rig.systems();
    std::vector<lens::sim::SimStats> stats;
    double seconds = 0.0;
    for (lens::sim::EdgeCloudSystem& system : systems) {
      const Scope span(tracer, "sim.run");
      const Clock::time_point start = Clock::now();
      stats.push_back(system.run());
      seconds += seconds_between(start, Clock::now());
    }
    check_served(rig, systems, stats);
    std::uint64_t h = lens::io::kFnvOffsetBasis;
    units = 0.0;
    for (const lens::sim::SimStats& s : stats) {
      h = fnv1a_doubles(stats_row(s), h);
      units += static_cast<double>(s.completed);
    }
    if (!reference) {
      digest("serve.sim_stats", h, kStatsDigest, options.seed);
      double requests = 0.0, retries = 0.0, degraded = 0.0;
      for (std::size_t p = 0; p < stats.size(); ++p) {
        requests += static_cast<double>(systems[p].records().size());
        retries += static_cast<double>(stats[p].retries);
        degraded += static_cast<double>(stats[p].fallback_executions + stats[p].dropped);
      }
      counter("sim.requests", requests);
      counter("sim.retry_share", retries / requests);
      // Requests served as dispatched, without an edge fallback or a drop.
      counter("quality_share", 1.0 - degraded / requests);
      reference = h;
    } else {
      check("serve.repeatable", h == *reference);
    }
    if (keep != nullptr) *keep = std::move(systems);
    return seconds;
  };

  Tracer off(false);
  if (!options.trace) {
    // Units are fixed per seed; one repetition resolves them before timing.
    const double warm = timed_serve(off, nullptr);
    rep_line("run", true, warm, units);
    repeat(options.seconds, units, [&] { return timed_serve(off, nullptr); }, setup);
    return 0;
  }

  Tracer tracer(true);
  {
    const Scope span(tracer, "perf.train");
    (void)train_predictor(lens::perf::jetson_tx2_gpu());
  }
  const double untraced = timed_serve(off, nullptr);
  rep_line("untraced", false, untraced, units);
  std::vector<lens::sim::EdgeCloudSystem> last;
  const double traced = timed_serve(tracer, &last);
  rep_line("traced", false, traced, units);

  {
    const Scope root(tracer, "sim.replay");
    lens::sim::FaultScheduleConfig faults = rig.config.faults;
    faults.horizon_s = 2.0 * rig.config.duration_s;  // what EdgeCloudSystem::run derives
    std::optional<lens::sim::FaultInjector> injector;
    for (std::size_t p = 0; p < last.size(); ++p) {
      const Scope span(tracer, "sim.fault_gen");
      injector.emplace(lens::sim::FaultSchedule::generate(faults));
    }
    counter("sim.fault_episodes",
            static_cast<double>(last.size() * injector->schedule().episodes().size()));

    // FaultInjector queries swept evenly over the schedule's horizon.
    const std::size_t sweep = 200000;
    double sink = 0.0;
    {
      const Scope span(tracer, "sim.fault_query");
      for (std::size_t i = 0; i < sweep; ++i) {
        const double t = faults.horizon_s * (static_cast<double>(i) + 0.5) / sweep;
        sink += injector->link_factor(t) + (injector->cloud_unavailable(t) ? 1.0 : 0.0) +
                injector->rtt_extra_ms(t) + injector->edge_slowdown(t) +
                injector->machine_failure_fraction(t) + injector->brownout_factor(t);
      }
    }
    counter("sim.fault_query_calls", static_cast<double>(6 * sweep));

    // Admission at every cloud-bound request's arrival, per policy.
    std::size_t admits = 0;
    for (const lens::sim::EdgeCloudSystem& system : last) {
      std::vector<double> at, job, failed, brown;
      for (const lens::sim::RequestRecord& r : system.records()) {
        const lens::core::DeploymentOption& o = rig.plan.options()[r.option];
        if (o.tx_bytes == 0) continue;
        at.push_back(r.arrival_s);
        job.push_back(o.cloud_latency_ms);
        failed.push_back(injector->machine_failure_fraction(r.arrival_s));
        brown.push_back(injector->brownout_factor(r.arrival_s));
      }
      lens::cloud::CloudScheduler scheduler(*rig.config.cloud);
      const Scope span(tracer, "cloud.admit");
      for (std::size_t i = 0; i < at.size(); ++i) {
        sink += scheduler.admit(at[i], job[i], failed[i], brown[i]).wait_ms;
      }
      admits += at.size();
    }
    counter("cloud.admit_calls", static_cast<double>(admits));
    check("serve.replay_finite", std::isfinite(sink));
  }
  tracer.emit();
  return 0;
}

}  // namespace perfbench
