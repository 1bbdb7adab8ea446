#pragma once
// Runtime threshold analysis (paper §IV-E).
//
// For a fixed deployment option, both end-to-end metrics are hyperbolic in
// the upload throughput t_u:
//   latency(t_u) = [edge_latency + L_RT*1{tx}] + bits / (1000 t_u)
//   energy(t_u)  = [edge_energy + alpha*bits/1e6] + beta*bits / (1e6 t_u)
// (the energy constant absorbs the alpha*t_u term of the radio power model,
// since P*L_Tx = (alpha t_u + beta) * bits/(1e6 t_u)). Every pairwise
// crossover therefore has a closed form, and the t_u axis partitions into
// dominance intervals — the thresholds the on-device tracker switches on.

#include <cstddef>
#include <optional>
#include <vector>

#include "comm/commcost.hpp"
#include "core/evaluator.hpp"

namespace lens::runtime {

/// Which metric the runtime system optimizes when switching options.
enum class OptimizeFor { kLatency, kEnergy };

/// f(t_u) = constant + per_inverse_tu / t_u. The closed-form comm algebra
/// lives in comm::CommModel (comm_latency_curve / tx_energy_curve); compiled
/// core::DeploymentPlans carry one curve pair per option, so runtime
/// consumers normally take curves straight from the plan.
using CostCurve = comm::CostCurve;

/// Cost-vs-throughput curve of a deployment option for the latency metric.
/// For options from a compiled plan, prefer DeploymentPlan::latency_curves().
CostCurve latency_curve(const core::DeploymentOption& option, const comm::CommModel& comm);

/// Cost-vs-throughput curve for the (edge) energy metric.
CostCurve energy_curve(const core::DeploymentOption& option, const comm::CommModel& comm);

/// Metric-dispatching convenience.
CostCurve cost_curve(const core::DeploymentOption& option, const comm::CommModel& comm,
                     OptimizeFor metric);

/// Throughput at which two curves cross, if a crossing exists at positive
/// finite throughput (paper: "equating their respective accumulative
/// latency equations").
std::optional<double> crossover_tu(const CostCurve& a, const CostCurve& b);

/// One maximal throughput interval over which a single option is best.
struct DominanceInterval {
  std::size_t option_index = 0;
  double tu_low = 0.0;   ///< inclusive
  double tu_high = 0.0;  ///< exclusive; tu_max at the right edge
};

/// Partition [tu_min, tu_max] into dominance intervals of the given curves.
/// Throws when curves is empty or the range is degenerate.
std::vector<DominanceInterval> dominance_intervals(const std::vector<CostCurve>& curves,
                                                   double tu_min, double tu_max);

}  // namespace lens::runtime
