#pragma once
// Dynamic deployment switching (paper Fig. 5 and §V-C).
//
// A DynamicDeployer holds the deployment options of one deployed model and
// their cost-vs-throughput curves for the metric being optimized. At
// runtime it picks the cheapest option for the tracked throughput (O(1) per
// decision via precomputed dominance intervals). Trace playback accumulates
// per-inference cost over a throughput trace for dynamic vs fixed policies,
// regenerating Fig. 8.
//
// Degraded links are handled by a FallbackPolicy rather than a blind clamp:
// outage samples (tu <= 0) either price-select at the analyzed pessimistic
// floor or hold the tracker's last estimate with geometric decay
// (suppressing needless re-staging across brief fades), and a cloud that is
// unreachable altogether forces the cheapest edge-only option.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "runtime/threshold.hpp"
#include "runtime/tracker.hpp"

namespace lens::runtime {

/// How the runtime degrades when the link or the cloud misbehaves.
struct FallbackPolicy {
  enum class OnOutage {
    kPessimisticFloor,  ///< select as if tu == tu_min (worst analyzed state)
    kHoldLast,          ///< keep the tracker's decayed last estimate
  };
  OnOutage on_outage = OnOutage::kPessimisticFloor;
  /// Per-outage-sample decay of the held estimate under kHoldLast (the
  /// tracker's outage_decay; 1.0 = hold-last exactly).
  double hold_decay = 0.5;
};

/// Cumulative cost of a playback run.
struct PlaybackResult {
  double total_cost = 0.0;                 ///< ms or mJ, per the metric
  std::vector<double> per_sample_cost;     ///< one inference per trace sample
  std::vector<double> cumulative_cost;     ///< running sum
  std::vector<std::size_t> chosen_option;  ///< option index per sample
  /// Trace samples with non-positive throughput (link outages); they are
  /// priced at the analyzed tu_min instead of aborting the playback (the
  /// FallbackPolicy only governs option *selection* during the episode).
  std::size_t outages = 0;
  /// Degradation accounting: option changes between consecutive samples
  /// (each switch re-stages model weights) and the fraction of samples
  /// spent in outage.
  std::size_t option_switches = 0;
  double degraded_fraction = 0.0;
};

/// Stateless select core: index of the cheapest option at throughput `tu`
/// (already clamped positive), via the precomputed dominance intervals.
/// Outside the analyzed range the nearest end's winner wins. The object
/// API (DynamicDeployer::select) is a thin wrapper over this.
inline std::size_t select_option(std::span<const DominanceInterval> intervals,
                                 double tu) {
  for (const DominanceInterval& iv : intervals) {
    if (tu >= iv.tu_low && tu < iv.tu_high) return iv.option_index;
  }
  return tu < intervals.front().tu_low ? intervals.front().option_index
                                       : intervals.back().option_index;
}

/// Cheapest edge-only option (tx_bytes == 0) under `curves`: the fallback
/// when the cloud is out of reach; nullopt when every option transmits.
/// Edge-only curves are constant in throughput, so pricing them at 1 Mbps
/// ranks them everywhere; a tie keeps the lower index.
std::optional<std::size_t> cheapest_edge_only(std::span<const core::DeploymentOption> options,
                                              std::span<const CostCurve> curves);

/// Stateless hysteresis core: keep `current` unless the cheapest option
/// beats it by more than `margin` (relative). Bit-identical to
/// DynamicDeployer::select_with_hysteresis on the same curves/intervals.
inline std::size_t select_option_hysteresis(std::span<const DominanceInterval> intervals,
                                            std::span<const CostCurve> curves, double tu,
                                            std::size_t current, double margin) {
  const std::size_t cheapest = select_option(intervals, tu);
  if (cheapest == current) return current;
  const double current_cost = curves[current].value(tu);
  const double cheapest_cost = curves[cheapest].value(tu);
  return cheapest_cost < current_cost * (1.0 - margin) ? cheapest : current;
}

/// SoA batch form of the hysteresis rule: for each device i, clamp a
/// non-positive tu_mbps[i] (outage) to tu_min, then update
/// current_option[i] in place per select_option_hysteresis. The scalar core
/// is the frozen oracle (EXPECT_EQ bit-identity tests).
void select_batch(std::span<const DominanceInterval> intervals,
                  std::span<const CostCurve> curves, double tu_min, double margin,
                  std::span<const double> tu_mbps,
                  std::span<std::uint32_t> current_option);

/// Runtime option selector for one model.
class DynamicDeployer {
 public:
  /// `options` are the deployment options considered at runtime (typically
  /// the design-time best plus All-Edge and/or All-Cloud, as in §V-C).
  DynamicDeployer(std::vector<core::DeploymentOption> options, const comm::CommModel& comm,
                  OptimizeFor metric, double tu_min = 0.05, double tu_max = 1000.0);

  /// All options of a two-tier plan: the per-hop ctor below with no hop to
  /// pin.
  DynamicDeployer(const core::DeploymentPlan& plan, OptimizeFor metric,
                  double tu_min = 0.05, double tu_max = 1000.0);

  /// All options of a compiled plan, with the hops past the radio pinned at
  /// `hop_tu_mbps[h]` (full per-hop vector; entry 0 — the radio — stays the
  /// selection axis and its value is ignored). The cost curves are the
  /// plan's surfaces collapsed onto the radio axis, so no comm algebra is
  /// re-derived.
  DynamicDeployer(const core::DeploymentPlan& plan, OptimizeFor metric,
                  const std::vector<double>& hop_tu_mbps, double tu_min = 0.05,
                  double tu_max = 1000.0);

  /// Index (into options()) of the cheapest option at `tu_mbps`. A
  /// non-positive throughput (link outage) is clamped to the analyzed
  /// tu_min — the most pessimistic state the threshold analysis covers.
  std::size_t select(double tu_mbps) const;

  /// Hysteretic selection: keep `current` unless the cheapest option beats
  /// it by more than `margin` (relative, e.g. 0.05 = 5%). Suppresses option
  /// flapping when the throughput hovers around a threshold; model weights
  /// must be re-staged on every switch, so flapping has a real cost.
  std::size_t select_with_hysteresis(double tu_mbps, std::size_t current,
                                     double margin = 0.05) const;

  /// Batched hysteresis over SoA device spans (see the free select_batch):
  /// current_option[i] is updated in place from reading tu_mbps[i], with the
  /// deployer's own intervals/curves/tu_min.
  void select_batch(std::span<const double> tu_mbps,
                    std::span<std::uint32_t> current_option,
                    double margin = 0.05) const;

  /// Cheapest edge-only option (tx_bytes == 0) under the metric, if the
  /// option set has one. Edge-only costs are throughput-independent, so
  /// this is precomputed once.
  std::optional<std::size_t> cheapest_edge_only() const { return edge_only_; }

  /// Forced all-edge selection for when the cloud is unreachable (every
  /// transmitting option would only time out). Throws std::logic_error
  /// when the option set has no edge-only member.
  std::size_t select_cloud_unreachable() const;

  /// Cheapest option whose layers all live on tiers 0..max_tier (so it uses
  /// no hop >= max_tier), ranked at the analyzed pessimistic floor tu_min.
  /// max_tier 0 is the edge-only query.
  std::optional<std::size_t> cheapest_confined(std::size_t max_tier) const;

  /// Tier-ladder fallback: hop `down_hop` is unreachable, so walk down the
  /// hierarchy — first the cheapest option confined to tiers 0..down_hop,
  /// then 0..down_hop-1, ... down to edge-only. Throws std::logic_error when
  /// even the edge-only rung is missing. select_cloud_unreachable() is the
  /// hop-0 rung of this ladder.
  std::size_t select_hop_unreachable(std::size_t down_hop) const;

  /// Thresholds partitioning the throughput axis (design-time output the
  /// runtime switcher consults).
  const std::vector<DominanceInterval>& intervals() const { return intervals_; }

  const std::vector<core::DeploymentOption>& options() const { return options_; }
  const std::vector<CostCurve>& curves() const { return curves_; }
  OptimizeFor metric() const { return metric_; }

  /// Play a trace switching dynamically via a throughput tracker.
  /// `hysteresis_margin` > 0 applies select_with_hysteresis per sample.
  /// Outage samples (tu <= 0) feed the tracker's report_outage() and select
  /// per `fallback` (floor vs decayed hold-last).
  PlaybackResult play_dynamic(const comm::ThroughputTrace& trace,
                              double tracker_alpha = 0.7,
                              double hysteresis_margin = 0.0,
                              FallbackPolicy fallback = {}) const;

  /// Play a trace pinned to one option.
  PlaybackResult play_fixed(const comm::ThroughputTrace& trace,
                            std::size_t option_index) const;

 private:
  /// Point-query outage clamp: non-positive throughput prices as tu_min_.
  double effective_tu(double tu_mbps) const { return tu_mbps > 0.0 ? tu_mbps : tu_min_; }

  std::vector<core::DeploymentOption> options_;
  std::vector<CostCurve> curves_;
  std::vector<DominanceInterval> intervals_;
  std::optional<std::size_t> edge_only_;
  OptimizeFor metric_;
  double tu_min_ = 0.05;
};

}  // namespace lens::runtime
