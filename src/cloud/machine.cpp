#include "cloud/machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lens::cloud {

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kGreedyFirstFit:
      return "greedy-first-fit";
    case PlacementPolicy::kEnergyBestFit:
      return "energy-best-fit";
  }
  return "unknown";
}

CloudConfig fog_site_defaults(std::size_t machines) {
  CloudConfig config;
  config.machines = machines;
  config.machine.capacity_ms_per_s = 1500.0;  // embedded parts, not Xeons
  config.machine.active_w = 65.0;
  config.machine.idle_w = 18.0;
  config.machine.queue_slots = 4;     // shallow: shed early, stay low-latency
  config.admit_utilization = 0.7;     // back off the M/M/1 knee harder
  config.policy = PlacementPolicy::kGreedyFirstFit;
  return config;
}

QueueMetrics mm1k_metrics(double arrival_hz, double service_hz,
                          std::size_t queue_slots) {
  if (!(arrival_hz >= 0.0) || !std::isfinite(arrival_hz)) {
    throw std::invalid_argument("mm1k_metrics: arrival rate must be >= 0");
  }
  if (!(service_hz > 0.0) || !std::isfinite(service_hz)) {
    throw std::invalid_argument("mm1k_metrics: service rate must be > 0");
  }
  if (queue_slots == 0) {
    throw std::invalid_argument("mm1k_metrics: need at least one queue slot");
  }
  QueueMetrics m;
  m.rho = arrival_hz / service_hz;
  if (arrival_hz == 0.0) {
    return m;  // empty queue: no blocking, no residents, no wait
  }
  const double rho = m.rho;
  const auto k = static_cast<double>(queue_slots);
  if (std::abs(rho - 1.0) < 1e-12) {
    // Degenerate uniform occupancy: p_n = 1/(K+1).
    m.block_probability = 1.0 / (k + 1.0);
    m.mean_jobs = k / 2.0;
  } else {
    const double rho_k = std::pow(rho, k);
    const double geom = 1.0 - rho * rho_k;  // 1 - rho^{K+1}
    m.block_probability = (1.0 - rho) * rho_k / geom;
    m.mean_jobs = rho * (1.0 - (k + 1.0) * rho_k + k * rho * rho_k) /
                  ((1.0 - rho) * geom);
  }
  const double admitted_hz = arrival_hz * (1.0 - m.block_probability);
  if (admitted_hz > 0.0) {
    // Little's law gives time-in-system; subtract service for pure wait.
    const double wait_s = m.mean_jobs / admitted_hz - 1.0 / service_hz;
    m.mean_wait_ms = std::max(0.0, wait_s * 1e3);
  }
  return m;
}

MachinePool::MachinePool(const CloudConfig& config) : config_(config) {
  if (config_.machines == 0) {
    throw std::invalid_argument("MachinePool: need at least one machine");
  }
  const MachineSpec& spec = config_.machine;
  if (!(spec.capacity_ms_per_s > 0.0) || !std::isfinite(spec.capacity_ms_per_s)) {
    throw std::invalid_argument("MachinePool: capacity must be > 0");
  }
  if (!(spec.idle_w >= 0.0) || !(spec.active_w >= spec.idle_w)) {
    throw std::invalid_argument(
        "MachinePool: need 0 <= idle_w <= active_w");
  }
  if (spec.queue_slots == 0) {
    throw std::invalid_argument("MachinePool: need at least one queue slot");
  }
  if (!(config_.admit_utilization > 0.0) || config_.admit_utilization > 1.0) {
    throw std::invalid_argument(
        "MachinePool: admit_utilization must lie in (0, 1]");
  }
  if (!(config_.assumed_job_ms > 0.0)) {
    throw std::invalid_argument("MachinePool: assumed_job_ms must be > 0");
  }
}

double MachinePool::effective_job_ms(double job_ms) const {
  return job_ms > 0.0 ? job_ms : config_.assumed_job_ms;
}

double MachinePool::service_hz(double job_ms, double brownout_factor) const {
  if (brownout_factor <= 0.0) return 0.0;
  const double factor = std::min(brownout_factor, 1.0);
  return config_.machine.capacity_ms_per_s * factor / effective_job_ms(job_ms);
}

double MachinePool::machine_power_w(double utilization) const {
  const double u = std::clamp(utilization, 0.0, 1.0);
  return config_.machine.idle_w +
         (config_.machine.active_w - config_.machine.idle_w) * u;
}

}  // namespace lens::cloud
