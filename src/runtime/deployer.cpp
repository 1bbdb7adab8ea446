#include "runtime/deployer.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace lens::runtime {

DynamicDeployer::DynamicDeployer(std::vector<core::DeploymentOption> options,
                                 const comm::CommModel& comm, OptimizeFor metric,
                                 double tu_min, double tu_max)
    : options_(std::move(options)), metric_(metric), tu_min_(tu_min) {
  if (options_.empty()) throw std::invalid_argument("DynamicDeployer: no options");
  curves_.reserve(options_.size());
  for (const core::DeploymentOption& o : options_) {
    curves_.push_back(cost_curve(o, comm, metric));
  }
  intervals_ = dominance_intervals(curves_, tu_min, tu_max);
  edge_only_ = runtime::cheapest_edge_only(options_, curves_);
}

DynamicDeployer::DynamicDeployer(const core::DeploymentPlan& plan, OptimizeFor metric,
                                 double tu_min, double tu_max)
    : DynamicDeployer(plan, metric, std::vector<double>{0.0}, tu_min, tu_max) {}

DynamicDeployer::DynamicDeployer(const core::DeploymentPlan& plan, OptimizeFor metric,
                                 const std::vector<double>& hop_tu_mbps, double tu_min,
                                 double tu_max)
    : options_(plan.options()), metric_(metric), tu_min_(tu_min) {
  if (options_.empty()) throw std::invalid_argument("DynamicDeployer: empty plan");
  if (hop_tu_mbps.size() != plan.num_hops()) {
    throw std::invalid_argument(
        "DynamicDeployer: hop_tu_mbps needs one entry per hop (radio first): plan has " +
        std::to_string(plan.num_hops()) + " hop(s), got " +
        std::to_string(hop_tu_mbps.size()));
  }
  // Collapse the multi-hop surfaces onto the radio axis; at K=2 this yields
  // the very same coefficients as the plan's 1-D curves.
  curves_ = metric == OptimizeFor::kLatency
                ? plan.collapsed_latency_curves(0, hop_tu_mbps)
                : plan.collapsed_energy_curves(0, hop_tu_mbps);
  intervals_ = dominance_intervals(curves_, tu_min, tu_max);
  edge_only_ = runtime::cheapest_edge_only(options_, curves_);
}

std::optional<std::size_t> cheapest_edge_only(std::span<const core::DeploymentOption> options,
                                              std::span<const CostCurve> curves) {
  std::optional<std::size_t> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (options[i].tx_bytes != 0) continue;
    const double cost = curves[i].value(1.0);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

namespace {

/// Does the option ship anything over hop `h`? Hand-built legacy options may
/// lack the per-hop byte vector; they describe a single radio hop.
bool uses_hop(const core::DeploymentOption& o, std::size_t h) {
  if (!o.hop_tx_bytes.empty()) return h < o.hop_tx_bytes.size() && o.hop_tx_bytes[h] > 0;
  return h == 0 && o.tx_bytes > 0;
}

/// All layers on tiers 0..max_tier — equivalently, no hop >= max_tier used.
bool confined_to(const core::DeploymentOption& o, std::size_t max_tier) {
  const std::size_t num_hops = o.hop_tx_bytes.empty() ? 1 : o.hop_tx_bytes.size();
  for (std::size_t h = max_tier; h < num_hops; ++h) {
    if (uses_hop(o, h)) return false;
  }
  return true;
}

}  // namespace

std::optional<std::size_t> DynamicDeployer::cheapest_confined(std::size_t max_tier) const {
  std::optional<std::size_t> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < options_.size(); ++i) {
    if (!confined_to(options_[i], max_tier)) continue;
    // Confined options may still use hops below max_tier, so rank at the
    // pessimistic floor the threshold analysis covers.
    const double cost = curves_[i].value(tu_min_);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

std::size_t DynamicDeployer::select_hop_unreachable(std::size_t down_hop) const {
  for (std::size_t max_tier = down_hop + 1; max_tier-- > 0;) {
    if (const auto pick = cheapest_confined(max_tier)) return *pick;
  }
  throw std::logic_error(
      "select_hop_unreachable: option set has no member below the dead hop");
}

std::size_t DynamicDeployer::select_cloud_unreachable() const {
  if (!edge_only_.has_value()) {
    throw std::logic_error(
        "select_cloud_unreachable: option set has no edge-only member");
  }
  return *edge_only_;
}

std::size_t DynamicDeployer::select(double tu_mbps) const {
  return select_option(intervals_, effective_tu(tu_mbps));
}

void select_batch(std::span<const DominanceInterval> intervals,
                  std::span<const CostCurve> curves, double tu_min, double margin,
                  std::span<const double> tu_mbps,
                  std::span<std::uint32_t> current_option) {
  if (tu_mbps.size() != current_option.size()) {
    throw std::invalid_argument("select_batch: span lengths differ");
  }
  for (std::size_t i = 0; i < tu_mbps.size(); ++i) {
    const double tu = tu_mbps[i] > 0.0 ? tu_mbps[i] : tu_min;
    current_option[i] = static_cast<std::uint32_t>(
        select_option_hysteresis(intervals, curves, tu, current_option[i], margin));
  }
}

void DynamicDeployer::select_batch(std::span<const double> tu_mbps,
                                   std::span<std::uint32_t> current_option,
                                   double margin) const {
  runtime::select_batch(intervals_, curves_, tu_min_, margin, tu_mbps, current_option);
}

namespace {
PlaybackResult accumulate(const comm::ThroughputTrace& trace,
                          const std::vector<CostCurve>& curves,
                          const std::vector<std::size_t>& choices, double tu_min) {
  PlaybackResult r;
  r.per_sample_cost.reserve(trace.size());
  r.cumulative_cost.reserve(trace.size());
  r.chosen_option = choices;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    double tu = trace.samples_mbps[i];
    if (tu <= 0.0) {  // link outage: price at the analyzed floor
      ++r.outages;
      tu = tu_min;
    }
    const double cost = curves[choices[i]].value(tu);
    r.per_sample_cost.push_back(cost);
    r.total_cost += cost;
    r.cumulative_cost.push_back(r.total_cost);
    if (i > 0 && choices[i] != choices[i - 1]) ++r.option_switches;
  }
  if (trace.size() > 0) {
    r.degraded_fraction =
        static_cast<double>(r.outages) / static_cast<double>(trace.size());
  }
  return r;
}
}  // namespace

std::size_t DynamicDeployer::select_with_hysteresis(double tu_mbps, std::size_t current,
                                                    double margin) const {
  if (current >= options_.size()) {
    throw std::out_of_range("select_with_hysteresis: bad current option");
  }
  if (margin < 0.0) throw std::invalid_argument("select_with_hysteresis: negative margin");
  return select_option_hysteresis(intervals_, curves_, effective_tu(tu_mbps), current,
                                  margin);
}

PlaybackResult DynamicDeployer::play_dynamic(const comm::ThroughputTrace& trace,
                                             double tracker_alpha,
                                             double hysteresis_margin,
                                             FallbackPolicy fallback) const {
  if (trace.size() == 0) throw std::invalid_argument("play_dynamic: empty trace");
  ThroughputTracker tracker(tracker_alpha, fallback.hold_decay, tu_min_);
  std::vector<std::size_t> choices;
  choices.reserve(trace.size());
  for (double tu : trace.samples_mbps) {
    double selection_tu;
    if (tu <= 0.0) {
      // Outage sample: never folded into the EWMA as a fake measurement.
      tracker.report_outage();
      const bool hold = fallback.on_outage == FallbackPolicy::OnOutage::kHoldLast &&
                        tracker.has_estimate();
      selection_tu = hold ? tracker.estimate_mbps() : tu_min_;
    } else {
      tracker.report(tu);
      selection_tu = tracker.estimate_mbps();
    }
    if (hysteresis_margin > 0.0 && !choices.empty()) {
      choices.push_back(
          select_with_hysteresis(selection_tu, choices.back(), hysteresis_margin));
    } else {
      choices.push_back(select(selection_tu));
    }
  }
  return accumulate(trace, curves_, choices, tu_min_);
}

PlaybackResult DynamicDeployer::play_fixed(const comm::ThroughputTrace& trace,
                                           std::size_t option_index) const {
  if (trace.size() == 0) throw std::invalid_argument("play_fixed: empty trace");
  if (option_index >= options_.size()) {
    throw std::out_of_range("play_fixed: bad option index");
  }
  return accumulate(trace, curves_, std::vector<std::size_t>(trace.size(), option_index),
                    tu_min_);
}

}  // namespace lens::runtime
