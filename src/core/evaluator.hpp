#pragma once
// Algorithm 1 of the paper: performance-objective evaluation of a candidate
// architecture under its *best* deployment option.
//
// For every layer, latency and power are estimated with the trained
// prediction models; layers whose output is smaller on the wire than the
// model input are candidate partition points; each candidate's cost is the
// accumulated on-device cost up to that layer plus the cost of shipping its
// output to the cloud. All-Edge (never transmit) and All-Cloud (ship the raw
// input) complete the option set. The minima over options are the latency /
// energy objective values (computed independently — the best split for
// latency need not be the best split for energy).
//
// The algorithm runs in two stages (core/plan.hpp): compile(arch) does all
// predictor work once and yields a throughput-independent DeploymentPlan;
// price(tu) instantiates the evaluation for a concrete throughput.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "comm/commcost.hpp"
#include "core/topology.hpp"
#include "dnn/architecture.hpp"
#include "dnn/datasize.hpp"
#include "perf/predictor.hpp"

namespace lens::core {

/// The three deployment families of Fig. 5. Under K-tier topologies the
/// classification generalizes: everything on tier 0 is kAllEdge, everything
/// on the last tier is kAllCloud, anything else is kPartitioned.
enum class DeploymentKind { kAllEdge, kAllCloud, kPartitioned };

std::string deployment_kind_name(DeploymentKind kind);

/// One concrete deployment option with its end-to-end cost at the evaluated
/// throughput.
struct DeploymentOption {
  DeploymentKind kind = DeploymentKind::kAllEdge;
  /// Index of the last edge-side layer (kPartitioned only, 2-tier plans).
  std::optional<std::size_t> split_after;
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  /// Edge-side execution cost only (no communication). These are throughput
  /// independent; the runtime module rebuilds cost-vs-t_u curves from them.
  double edge_latency_ms = 0.0;
  double edge_energy_mj = 0.0;
  /// Bytes shipped over the first hop for this option (0 for All-Edge).
  std::uint64_t tx_bytes = 0;
  /// fp32 weight bytes resident on the edge device for this option.
  std::uint64_t edge_weight_bytes = 0;
  /// Off-device execution latency of the offloaded layers, summed over all
  /// remote tiers (0 under the paper's infinite-cloud assumption).
  /// Throughput-independent.
  double cloud_latency_ms = 0.0;

  // K-tier generalization. For a K-tier plan the option is a cut vector
  // c_1 <= ... <= c_{K-1}: tier k runs layers [c_k, c_{k+1}) with c_0 = 0 and
  // c_K = n. The legacy scalar fields above stay populated for every K
  // (edge_* = tier 0, tx_bytes = hop 0, cloud_latency_ms = remote total).

  /// Cut boundaries, size K-1 ({c} for the classic two-tier split).
  std::vector<std::size_t> cuts;
  /// Per-tier compute latency, size K; [0] == edge_latency_ms.
  std::vector<double> tier_latency_ms;
  /// Bytes transmitted over each hop, size K-1; [0] == tx_bytes. A hop past
  /// the last occupied tier carries nothing (0).
  std::vector<std::uint64_t> hop_tx_bytes;

  /// Human-readable label, e.g. "All-Edge", "All-Cloud", "split@pool5",
  /// using default tier names for K >= 3. Prefer option_label() when the
  /// real topology names are at hand.
  std::string label(const dnn::Architecture& arch) const;
};

/// Default tier names by hierarchy depth: {edge, cloud}, {edge, fog, cloud},
/// then {edge, fog1, ..., cloud}.
std::vector<std::string> default_tier_names(std::size_t num_tiers);

/// The shared cut-vector formatter used by the CLI, CSV export, and
/// viz::ascii. Two-tier options keep the legacy names ("All-Edge",
/// "All-Cloud", "split@<layer>") so existing goldens stay valid; deeper
/// hierarchies render the occupied tiers as "edge|fog@4|cloud@9" where @i is
/// the first layer index placed on that tier.
std::string option_label(const DeploymentOption& option, const dnn::Architecture& arch,
                         const std::vector<std::string>& tier_names);

/// Full result of one Algorithm-1 evaluation.
struct DeploymentEvaluation {
  /// Every option considered (All-Cloud, each viable split, All-Edge).
  std::vector<DeploymentOption> options;
  std::size_t best_latency_option = 0;  ///< index into options
  std::size_t best_energy_option = 0;   ///< index into options
  /// Per-layer predicted execution cost on the edge device.
  std::vector<double> layer_latency_ms;
  std::vector<double> layer_energy_mj;

  double best_latency_ms() const { return options[best_latency_option].latency_ms; }
  double best_energy_mj() const { return options[best_energy_option].energy_mj; }
  const DeploymentOption& latency_choice() const { return options[best_latency_option]; }
  const DeploymentOption& energy_choice() const { return options[best_energy_option]; }

  /// True when an All-Edge option exists (it can be filtered out by the
  /// edge memory budget).
  bool has_all_edge() const;
  /// All-Edge entry; throws std::logic_error when the memory budget removed
  /// it. All-Cloud is always present.
  const DeploymentOption& all_edge() const;
  const DeploymentOption& all_cloud() const;
};

struct EvaluatorConfig {
  dnn::DataSizeModel sizes;
  /// Edge memory budget (bytes of fp32 weights the device can hold); 0 means
  /// unlimited. Options whose edge-side weights exceed the budget are not
  /// generated (All-Cloud keeps nothing on the edge and is always feasible).
  std::uint64_t edge_memory_budget_bytes = 0;
  /// Optional cloud-side performance model (non-owning; must outlive the
  /// evaluator). When set, the cloud execution latency of the offloaded
  /// suffix is added to each transmitting option's latency — lifting the
  /// paper's "L_cloud is negligible" assumption (§III-A). Cloud energy is
  /// never billed to the edge. nullptr keeps the paper's model.
  const perf::LayerPerformanceModel* cloud_model = nullptr;
};

class DeploymentPlan;

/// Algorithm-1 evaluator bound to a tier topology (performance models per
/// tier, communication model per hop) and a wire-size policy. The historical
/// two-argument form — one edge model, one comm model — builds the K=2
/// topology internally; every depth compiles through the same lattice walk.
class DeploymentEvaluator {
 public:
  DeploymentEvaluator(const perf::LayerPerformanceModel& model, comm::CommModel comm,
                      dnn::DataSizeModel sizes = {});
  DeploymentEvaluator(const perf::LayerPerformanceModel& model, comm::CommModel comm,
                      EvaluatorConfig config);
  /// K-tier form. Tier budgets come from the topology;
  /// `config.edge_memory_budget_bytes` and `config.cloud_model` are ignored
  /// (tier 0 / last tier of the topology are authoritative).
  DeploymentEvaluator(TierTopology topology, dnn::DataSizeModel sizes = {});

  /// Compile `arch` into a throughput-independent DeploymentPlan: runs the
  /// per-layer predictors once, precomputes prefix/suffix sums per tier, the
  /// feasible cut-point lattice (at K=2, the paper's candidate splits; for
  /// K >= 3, dominance-pruned), and per-option cost surfaces. The returned
  /// plan prices any throughput vector in O(options). Defined in
  /// core/plan.cpp (include core/plan.hpp to use the plan).
  DeploymentPlan compile(const dnn::Architecture& arch) const;

  /// Evaluate all deployment options of `arch` at upload throughput
  /// `tu_mbps`. Thin compile(arch).price(tu_mbps) wrapper; prefer holding
  /// the plan when evaluating the same architecture at several throughputs.
  /// Two-tier topologies only; deeper hierarchies price with a throughput
  /// vector.
  DeploymentEvaluation evaluate(const dnn::Architecture& arch, double tu_mbps) const;

  const comm::CommModel& comm() const { return topology_.hop(0); }
  const dnn::DataSizeModel& sizes() const { return config_.sizes; }
  const EvaluatorConfig& config() const { return config_; }
  const TierTopology& topology() const { return topology_; }

 private:
  TierTopology topology_;
  EvaluatorConfig config_;
};

}  // namespace lens::core
