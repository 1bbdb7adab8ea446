#include "comm/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lens::comm {

double ThroughputTrace::mean_mbps() const {
  if (samples_mbps.empty()) throw std::logic_error("ThroughputTrace: empty trace");
  double acc = 0.0;
  for (double v : samples_mbps) acc += v;
  return acc / static_cast<double>(samples_mbps.size());
}

double ThroughputTrace::min_mbps() const {
  if (samples_mbps.empty()) throw std::logic_error("ThroughputTrace: empty trace");
  return *std::min_element(samples_mbps.begin(), samples_mbps.end());
}

double ThroughputTrace::max_mbps() const {
  if (samples_mbps.empty()) throw std::logic_error("ThroughputTrace: empty trace");
  return *std::max_element(samples_mbps.begin(), samples_mbps.end());
}

TraceGenerator::TraceGenerator(TraceGeneratorConfig config)
    : config_(config), rng_(config.seed) {
  // Written so that NaN fails every check; the mean and floor must be finite.
  constexpr double kMax = std::numeric_limits<double>::max();
  if (!(config.mean_mbps > 0.0 && config.mean_mbps <= kMax && config.sigma >= 0.0 &&
        config.correlation >= 0.0 && config.correlation < 1.0 && config.floor_mbps > 0.0 &&
        config.floor_mbps <= kMax)) {
    throw std::invalid_argument("TraceGenerator: invalid configuration");
  }
  if (!(config.outage_start_probability >= 0.0 && config.outage_start_probability < 1.0 &&
        config.outage_mean_duration >= 1.0 && config.outage_depth_factor > 0.0 &&
        config.outage_depth_factor <= 1.0)) {
    throw std::invalid_argument("TraceGenerator: invalid outage configuration");
  }
}

double TraceGenerator::mu() const { return std::log(config_.mean_mbps); }

double TraceGenerator::innovation_scale() const {
  const double rho = config_.correlation;
  return config_.sigma * std::sqrt(1.0 - rho * rho);
}

double TraceGenerator::sample_floor(double mbps) const {
  return std::max(config_.floor_mbps, mbps);
}

ThroughputTrace TraceGenerator::generate(std::size_t n, double interval_s) {
  if (n == 0) throw std::invalid_argument("TraceGenerator::generate: n must be positive");
  ThroughputTrace trace;
  trace.interval_s = interval_s;
  trace.samples_mbps.reserve(n);
  // Thread the member RNG through a stream state and back, so consecutive
  // generate() calls keep consuming one stream exactly as they always did.
  TraceState state = start_state(std::move(rng_));
  for (std::size_t i = 0; i < n; ++i) trace.samples_mbps.push_back(step(state));
  rng_ = std::move(state.rng);
  return trace;
}

}  // namespace lens::comm
